package corpus

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"gcbench/internal/behavior"
	"gcbench/internal/sweep"
)

// fakeRun builds a minimal measured run for snapshot tests.
func fakeRun(alg, size string, alpha float64) *behavior.Run {
	return &behavior.Run{
		Algorithm: alg, Domain: "test", SizeLabel: size, Alpha: alpha,
		NumEdges: 1000, Iterations: 3, Converged: true,
		ActiveFraction: []float64{1, 0.5, 0.1},
		Raw:            behavior.Vector{0.5, 1e-9, 0.9, 0.3},
	}
}

func TestKeyOf(t *testing.T) {
	cases := []struct {
		alg, size string
		alpha     float64
		want      string
	}{
		{"PR", "1e5", 2.5, "PR_1e5_a2.5"},
		{"Jacobi", "1000", 0, "Jacobi_1000"},
		{"CC", "1e3", 2, "CC_1e3_a2"},
	}
	for _, c := range cases {
		if got := KeyOf(c.alg, c.size, c.alpha); got != c.want {
			t.Errorf("KeyOf(%s, %s, %g) = %q, want %q", c.alg, c.size, c.alpha, got, c.want)
		}
	}
}

func TestSnapshotIndexesAndPool(t *testing.T) {
	runs := []*behavior.Run{
		fakeRun("PR", "1e5", 2.5),
		fakeRun("CC", "1e3", 2),
		fakeRun("Jacobi", "1000", 0), // not graph-varying: in Space, not Pool
	}
	snap, err := NewSnapshotFromRuns(runs, "test")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(snap.Records); got != 3 {
		t.Fatalf("records = %d, want 3", got)
	}
	if snap.OKCount() != 3 {
		t.Errorf("OKCount = %d, want 3", snap.OKCount())
	}
	if snap.PoolSize() != 2 {
		t.Errorf("PoolSize = %d, want 2 (Jacobi excluded)", snap.PoolSize())
	}
	i, ok := snap.Lookup("PR_1e5_a2.5")
	if !ok || snap.Records[i].Algorithm != "PR" {
		t.Fatalf("Lookup(PR_1e5_a2.5) = (%d, %v)", i, ok)
	}
	for pi := 0; pi < snap.PoolSize(); pi++ {
		if alg := snap.PoolRecord(pi).Algorithm; alg == "Jacobi" {
			t.Errorf("pool contains non-graph-varying algorithm %s", alg)
		}
	}
	if si := snap.SpaceIndexOf(i); si < 0 || snap.Records[snap.spaceRec[si]].Key != "PR_1e5_a2.5" {
		t.Errorf("SpaceIndexOf(%d) = %d does not round-trip", i, si)
	}
}

func TestKeyCollisionsGetSuffix(t *testing.T) {
	runs := []*behavior.Run{
		fakeRun("PR", "1e5", 2.5),
		fakeRun("PR", "1e5", 2.5),
		fakeRun("PR", "1e5", 2.5),
	}
	snap, err := NewSnapshotFromRuns(runs, "test")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"PR_1e5_a2.5", "PR_1e5_a2.5_2", "PR_1e5_a2.5_3"}
	for i, w := range want {
		if snap.Records[i].Key != w {
			t.Errorf("record %d key = %q, want %q", i, snap.Records[i].Key, w)
		}
		if j, ok := snap.Lookup(w); !ok || j != i {
			t.Errorf("Lookup(%q) = (%d, %v), want (%d, true)", w, j, ok, i)
		}
	}
}

func TestSelectFilters(t *testing.T) {
	runs := []*behavior.Run{
		fakeRun("PR", "1e5", 2.5),
		fakeRun("PR", "1e4", 2.0),
		fakeRun("CC", "1e5", 2.5),
		fakeRun("CC", "1e3", 3.0),
	}
	snap, err := NewSnapshotFromRuns(runs, "test")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		f    Filter
		want []int
	}{
		{"unrestricted", Filter{}, []int{0, 1, 2, 3}},
		{"algorithm", Filter{Algorithms: []string{"PR"}}, []int{0, 1}},
		{"size", Filter{Sizes: []string{"1e5"}}, []int{0, 2}},
		{"alpha only", Filter{Alphas: []float64{2.5}}, []int{0, 2}},
		{"alg+size", Filter{Algorithms: []string{"CC"}, Sizes: []string{"1e3"}}, []int{3}},
		{"status ok", Filter{Statuses: []behavior.RunStatus{behavior.StatusOK}}, []int{0, 1, 2, 3}},
		{"status failed", Filter{Statuses: []behavior.RunStatus{behavior.StatusFailed}}, nil},
		{"no match", Filter{Algorithms: []string{"SSSP"}}, nil},
		{"alpha tolerance", Filter{Alphas: []float64{2.5 + 1e-12}}, []int{0, 2}},
	}
	for _, c := range cases {
		got := snap.Select(c.f)
		if len(got) != len(c.want) {
			t.Errorf("%s: Select = %v, want %v", c.name, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s: Select = %v, want %v", c.name, got, c.want)
				break
			}
		}
	}
}

func TestPoolSelectIgnoresStatusRestriction(t *testing.T) {
	runs := []*behavior.Run{fakeRun("PR", "1e5", 2.5), fakeRun("CC", "1e3", 2)}
	snap, err := NewSnapshotFromRuns(runs, "test")
	if err != nil {
		t.Fatal(err)
	}
	got := snap.PoolSelect(Filter{Algorithms: []string{"PR"}})
	if len(got) != 1 || snap.PoolRecord(got[0]).Algorithm != "PR" {
		t.Fatalf("PoolSelect(PR) = %v", got)
	}
	if got := snap.PoolSelect(Filter{}); len(got) != 2 {
		t.Fatalf("unrestricted PoolSelect = %v, want 2 entries", got)
	}
}

func TestEmptyCorpusRejected(t *testing.T) {
	if _, err := NewSnapshotFromRuns(nil, "test"); err == nil {
		t.Fatal("empty corpus accepted")
	}
}

func TestLoadFileDetectsRunsArray(t *testing.T) {
	runs := []*behavior.Run{fakeRun("PR", "1e5", 2.5), fakeRun("CC", "1e3", 2)}
	body, err := json.Marshal(runs)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "runs.json")
	if err := os.WriteFile(path, append([]byte("  \n"), body...), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Records) != 2 || snap.OKCount() != 2 {
		t.Fatalf("records = %d ok = %d, want 2/2", len(snap.Records), snap.OKCount())
	}
	if snap.Source != path {
		t.Errorf("Source = %q, want %q", snap.Source, path)
	}
}

func TestLoadFileDetectsJournal(t *testing.T) {
	entries := []sweep.JournalEntry{
		{ID: "a", Status: behavior.StatusOK, Run: fakeRun("PR", "1e5", 2.5)},
		// Resumed-campaign restore: skipped but carrying a measurement.
		{ID: "b", Status: behavior.StatusSkipped, Run: fakeRun("CC", "1e3", 2)},
		{ID: "c", Status: behavior.StatusFailed, Err: "boom",
			Spec: sweep.Spec{Algorithm: "KC", SizeLabel: "1e4", Alpha: 2.25}},
	}
	path := filepath.Join(t.TempDir(), "journal.ckpt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(f)
	for _, e := range entries {
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()

	snap, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Records) != 3 {
		t.Fatalf("records = %d, want 3", len(snap.Records))
	}
	if snap.OKCount() != 2 {
		t.Errorf("OKCount = %d, want 2 (skipped+run remapped to ok)", snap.OKCount())
	}
	if st := snap.Records[1].Status; st != behavior.StatusOK {
		t.Errorf("restored record status = %s, want ok", st)
	}
	// The failed entry keeps its spec identity and error message.
	i, ok := snap.Lookup("KC_1e4_a2.25")
	if !ok {
		t.Fatalf("failed entry not indexed by spec key")
	}
	rec := snap.Records[i]
	if rec.Status != behavior.StatusFailed || rec.Err != "boom" || rec.Run != nil {
		t.Errorf("failed record = %+v", rec)
	}
	// Failed runs stay out of space and pool.
	if snap.OKCount() != 2 || snap.PoolSize() != 2 {
		t.Errorf("space/pool = %d/%d, want 2/2", snap.OKCount(), snap.PoolSize())
	}
}

// TestLoadFileJournalRerecordIsOneRecord: a spec that failed and was
// re-recorded ok by a resumed campaign appends a second journal line for
// its ID; the corpus holds one record for it, the ok one, and no "_2" key.
func TestLoadFileJournalRerecordIsOneRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.json.journal")
	j, err := sweep.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	spec := sweep.Spec{Algorithm: "PR", SizeLabel: "1e5", Alpha: 2.5}
	for _, e := range []sweep.JournalEntry{
		{ID: spec.ID(), Spec: spec, Status: behavior.StatusFailed, Err: "boom"},
		{ID: "<CC, 1e3, 2.00>", Status: behavior.StatusOK, Run: fakeRun("CC", "1e3", 2)},
		{ID: spec.ID(), Spec: spec, Status: behavior.StatusOK, Run: fakeRun("PR", "1e5", 2.5)},
	} {
		if err := j.Record(e); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Records) != 2 || snap.OKCount() != 2 {
		t.Fatalf("records = %d ok = %d, want 2/2", len(snap.Records), snap.OKCount())
	}
	if k := snap.Records[0].Key; k != "PR_1e5_a2.5" {
		t.Errorf("re-recorded spec keyed %q, want PR_1e5_a2.5 at its first position", k)
	}
	if _, ok := snap.Lookup("PR_1e5_a2.5_2"); ok {
		t.Error("re-recorded spec gave a second corpus record")
	}
}

func TestStoreSwapVersions(t *testing.T) {
	snap, err := NewSnapshotFromRuns([]*behavior.Run{fakeRun("PR", "1e5", 2.5)}, "test")
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore(snap)
	if got := st.Snapshot().Version; got != 1 {
		t.Fatalf("initial version = %d, want 1", got)
	}
	next, err := NewSnapshotFromRuns([]*behavior.Run{fakeRun("PR", "1e5", 2.5), fakeRun("CC", "1e3", 2)}, "test")
	if err != nil {
		t.Fatal(err)
	}
	if prev := st.Swap(next); prev != snap {
		t.Error("Swap did not return the previous snapshot")
	}
	if next.Version != 2 || st.Snapshot() != next {
		t.Fatalf("swapped version = %d, published %p, want 2 and %p", next.Version, st.Snapshot(), next)
	}
}

// TestStoreConcurrentSwap exercises the atomic-swap contract under the
// race detector: readers always observe a fully built snapshot with a
// monotonic version while a writer republished repeatedly.
func TestStoreConcurrentSwap(t *testing.T) {
	base, err := NewSnapshotFromRuns([]*behavior.Run{fakeRun("PR", "1e5", 2.5)}, "test")
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore(base)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := st.Snapshot()
				if snap.Version < last {
					t.Errorf("version went backwards: %d after %d", snap.Version, last)
					return
				}
				last = snap.Version
				if got := snap.Select(Filter{Algorithms: []string{"PR"}}); len(got) != 1 {
					t.Errorf("torn snapshot: Select(PR) = %v", got)
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		snap, err := NewSnapshotFromRuns([]*behavior.Run{fakeRun("PR", "1e5", 2.5)}, "test")
		if err != nil {
			t.Fatal(err)
		}
		st.Swap(snap)
	}
	close(stop)
	wg.Wait()
	if got := st.Snapshot().Version; got != 201 {
		t.Errorf("final version = %d, want 201", got)
	}
}
