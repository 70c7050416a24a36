package shard

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"gcbench/internal/behavior"
	"gcbench/internal/corpus"
	"gcbench/internal/obs"
)

// standardSnapshot loads the shipped corpus once per test binary.
var (
	stdOnce sync.Once
	stdSnap *corpus.Snapshot
	stdErr  error
)

func standardSnapshot(t testing.TB) *corpus.Snapshot {
	t.Helper()
	stdOnce.Do(func() {
		stdSnap, stdErr = corpus.LoadFile("../../runs-standard.json")
	})
	if stdErr != nil {
		t.Fatalf("loading runs-standard.json: %v", stdErr)
	}
	return stdSnap
}

func newTestCluster(t testing.TB, shards, replicas int) *Cluster {
	t.Helper()
	c, err := New(Options{Shards: shards, Replicas: replicas, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load(context.Background(), standardSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	return c
}

func fakeRun(alg, size string, alpha float64) *behavior.Run {
	return &behavior.Run{
		Algorithm: alg, Domain: "test", SizeLabel: size, Alpha: alpha,
		NumEdges: 1000, Iterations: 3, Converged: true,
		ActiveFraction: []float64{1, 0.5, 0.1},
		Raw:            behavior.Vector{0.5, 1e-9, 0.9, 0.3},
	}
}

// TestReloadKeepsViewOnEmptySource: a source file that shrank to zero
// bytes (a partial rewrite caught mid-flight) fails the reload and leaves
// the current view published.
func TestReloadKeepsViewOnEmptySource(t *testing.T) {
	body, err := json.Marshal([]*behavior.Run{fakeRun("PR", "1e5", 2.5)})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "runs.json")
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err := corpus.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Options{Shards: 2, Replicas: 1, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load(context.Background(), snap); err != nil {
		t.Fatal(err)
	}
	cur := c.View()
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Reload(context.Background()); err == nil {
		t.Fatal("reload of zero-byte source succeeded")
	}
	if c.View() != cur {
		t.Fatal("failed reload replaced the published view")
	}
}

// TestClusterPartitionsCompletely asserts the load partitioning is a
// true partition: every record lands on exactly the shard the ring
// names, shards are disjoint, and the union is the corpus.
func TestClusterPartitionsCompletely(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(t, 4, 2)
	view := c.View()
	if view == nil {
		t.Fatal("no view after Load")
	}
	seen := map[int]int{} // seq → shard
	total := 0
	for i, sc := range c.shards {
		info, err := sc.Info(ctx, InfoRequest{})
		if err != nil {
			t.Fatal(err)
		}
		if info.Version != 1 {
			t.Errorf("shard %d version = %d after initial load", i, info.Version)
		}
		total += info.Records
		// Drain the shard via an unrestricted select.
		resp, err := sc.Select(ctx, SelectRequest{})
		if err != nil {
			t.Fatal(err)
		}
		for _, seq := range resp.Seqs {
			if prev, dup := seen[seq]; dup {
				t.Fatalf("seq %d on both shard %d and %d", seq, prev, i)
			}
			seen[seq] = i
			if want := c.Owner(view.Merged.Records[seq].Key); want != i {
				t.Errorf("seq %d (key %s) on shard %d, ring says %d", seq, view.Merged.Records[seq].Key, i, want)
			}
		}
	}
	if total != len(view.Merged.Records) || len(seen) != len(view.Merged.Records) {
		t.Fatalf("shards hold %d records (%d distinct seqs), corpus has %d",
			total, len(seen), len(view.Merged.Records))
	}
	// More than one shard must actually hold data for the standard corpus.
	byShard := map[int]bool{}
	for _, s := range seen {
		byShard[s] = true
	}
	if len(byShard) < 2 {
		t.Errorf("all records on %d shard(s); partitioning is vacuous", len(byShard))
	}
}

// TestScatterMatchesSingleStore asserts scatter-gather select over N
// shards returns exactly the sequence list a single-store Select/
// PoolSelect produces — same set, same canonical order.
func TestScatterMatchesSingleStore(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(t, 4, 2)
	snap := c.View().Merged
	filters := []corpus.Filter{
		{},
		{Algorithms: []string{"PR"}},
		{Algorithms: []string{"PR", "CC"}, Sizes: []string{"1e5"}},
		{Alphas: []float64{2.5}},
		{Statuses: []behavior.RunStatus{behavior.StatusOK}},
		{Algorithms: []string{"nope"}},
	}
	for _, f := range filters {
		got, err := c.Scatter(ctx, f, false)
		if err != nil {
			t.Fatal(err)
		}
		want := snap.Select(f)
		if !equalIntsLoose(got, want) {
			t.Errorf("Scatter(%+v) = %v, single-store Select = %v", f, got, want)
		}

		gotPool, err := c.Scatter(ctx, f, true)
		if err != nil {
			t.Fatal(err)
		}
		poolIdx := make([]int, 0, len(gotPool))
		for _, seq := range gotPool {
			pi := c.View().PoolIndexOfSeq(seq)
			if pi < 0 {
				t.Fatalf("pool scatter returned non-pool seq %d", seq)
			}
			poolIdx = append(poolIdx, pi)
		}
		wantPool := snap.PoolSelect(f)
		if !equalIntsLoose(poolIdx, wantPool) {
			t.Errorf("pool Scatter(%+v) = %v, single-store PoolSelect = %v", f, poolIdx, wantPool)
		}
	}
}

func equalIntsLoose(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestClusterGetRoutesToOwner asserts single-record reads resolve from
// the owning shard for every key in the corpus.
func TestClusterGetRoutesToOwner(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(t, 4, 3)
	snap := c.View().Merged
	for seq := range snap.Records {
		key := snap.Records[seq].Key
		resp, err := c.Get(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Found || resp.Entry.Seq != seq {
			t.Fatalf("Get(%s): found=%v seq=%d, want seq %d", key, resp.Found, resp.Entry.Seq, seq)
		}
		if resp.Entry.Record.Key != key {
			t.Fatalf("Get(%s) returned record keyed %s", key, resp.Entry.Record.Key)
		}
	}
	if resp, err := c.Get(ctx, "no_such_key"); err != nil || resp.Found {
		t.Fatalf("Get(missing) = found=%v err=%v", resp.Found, err)
	}
}

// TestClusterAppend asserts hot-publish semantics: only owning shards
// republish (version vector moves element-wise), the epoch advances,
// pre-existing keys are stable, and the merged view renormalizes
// corpus-wide exactly like corpus.Store.Append.
func TestClusterAppend(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(t, 4, 2)
	v1 := c.View()
	oldKeys := make([]string, len(v1.Merged.Records))
	for i := range v1.Merged.Records {
		oldKeys[i] = v1.Merged.Records[i].Key
	}

	// Mirror the append against a plain single store: the merged view
	// must stay equivalent to it in every indexed respect.
	st := corpus.NewStore(mustSnapshotCopy(t, v1.Merged))

	// Derive raw vectors from the observed maxima so domination is by
	// construction, not an assumption about the shipped corpus: big
	// raises every (positive) dimension maximum 4×, its companion stays
	// strictly inside them.
	var bigRaw, midRaw behavior.Vector
	for d := range bigRaw {
		bigRaw[d] = v1.Merged.Space.Max[d] * 4
		midRaw[d] = v1.Merged.Space.Max[d] * 0.25
	}
	big := fakeRun("SSSP", "9e9", 2.2)
	big.Raw = bigRaw
	mid := fakeRun("PR", "9e9", 2.1)
	mid.Raw = midRaw
	runs := []*behavior.Run{big, mid}

	v2, err := c.Append(ctx, runs, "job j1")
	if err != nil {
		t.Fatal(err)
	}
	want, err := st.Append(runs, "job j1")
	if err != nil {
		t.Fatal(err)
	}

	if v2.Epoch() != v1.Epoch()+1 {
		t.Errorf("epoch %d → %d, want +1", v1.Epoch(), v2.Epoch())
	}
	if len(v2.Merged.Records) != len(v1.Merged.Records)+2 {
		t.Fatalf("records %d → %d", len(v1.Merged.Records), len(v2.Merged.Records))
	}
	for i, k := range oldKeys {
		if v2.Merged.Records[i].Key != k {
			t.Fatalf("append changed pre-existing key %q → %q", k, v2.Merged.Records[i].Key)
		}
	}
	// Version vector: exactly the owning shards advanced.
	newOwners := map[int]bool{}
	for seq := len(oldKeys); seq < len(v2.Merged.Records); seq++ {
		newOwners[c.ring.Owner(v2.Merged.Records[seq].Key)] = true
	}
	for i := range v2.VV {
		wantVer := v1.VV[i]
		if newOwners[i] {
			wantVer++
		}
		if v2.VV[i] != wantVer {
			t.Errorf("shard %d version %d → %d (owns new record: %v)", i, v1.VV[i], v2.VV[i], newOwners[i])
		}
	}
	// Renormalization: merged points equal the single-store oracle's.
	if !reflect.DeepEqual(v2.Merged.Space.Points, want.Space.Points) {
		t.Error("merged space points diverge from single-store Append")
	}
	if !reflect.DeepEqual(v2.Merged.Space.Max, want.Space.Max) {
		t.Error("merged space maxima diverge from single-store Append")
	}
	// The dominating run moved the maxima, so the normalization epoch
	// must advance with the cluster epoch.
	if v2.NormEpoch != v2.Epoch() {
		t.Errorf("norm epoch %d after maxima-moving append at epoch %d", v2.NormEpoch, v2.Epoch())
	}

	// A second append dominated by the first must keep the maxima — and
	// therefore the normalization epoch — while the cluster epoch moves.
	small := fakeRun("CC", "8e8", 2.3)
	for d := range small.Raw {
		small.Raw[d] = v2.Merged.Space.Max[d] * 0.5
	}
	v3, err := c.Append(ctx, []*behavior.Run{small}, "job j2")
	if err != nil {
		t.Fatal(err)
	}
	if v3.Epoch() != v2.Epoch()+1 {
		t.Errorf("epoch %d → %d, want +1", v2.Epoch(), v3.Epoch())
	}
	if v3.NormEpoch != v2.NormEpoch {
		t.Errorf("norm epoch moved %d → %d though maxima are unchanged", v2.NormEpoch, v3.NormEpoch)
	}

	// New records are fetchable from their owners.
	for seq := len(oldKeys); seq < len(v3.Merged.Records); seq++ {
		key := v3.Merged.Records[seq].Key
		resp, err := c.Get(ctx, key)
		if err != nil || !resp.Found || resp.Entry.Seq != seq {
			t.Fatalf("Get(appended %s): found=%v seq=%d err=%v", key, resp.Found, resp.Entry.Seq, err)
		}
	}
}

// mustSnapshotCopy rebuilds an equivalent snapshot from a record copy,
// so store and cluster mutate independent memory.
func mustSnapshotCopy(t testing.TB, snap *corpus.Snapshot) *corpus.Snapshot {
	t.Helper()
	records := append([]corpus.Record(nil), snap.Records...)
	cp, err := corpus.NewSnapshotFromRecords(records, snap.Source)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// TestClusterReadiness asserts the /readyz criterion: not ready before
// Load, ready after, with per-shard versions in the diagnostic payload.
func TestClusterReadiness(t *testing.T) {
	ctx := context.Background()
	c, err := New(Options{Shards: 3, Replicas: 2, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	ready, infos := c.Ready(ctx)
	if ready {
		t.Fatal("cluster ready before any publish")
	}
	if len(infos) != 3 {
		t.Fatalf("got %d shard infos, want 3", len(infos))
	}
	for _, info := range infos {
		if info.Version != 0 {
			t.Errorf("shard %d version %d before publish", info.Shard, info.Version)
		}
	}
	if _, err := c.Load(ctx, standardSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	ready, infos = c.Ready(ctx)
	if !ready {
		t.Fatal("cluster not ready after Load")
	}
	for _, info := range infos {
		if info.Version != 1 || info.Replicas != 2 {
			t.Errorf("shard %d: version=%d replicas=%d after load", info.Shard, info.Version, info.Replicas)
		}
	}
}

// TestClusterConcurrentReadsDuringAppend hammers scatter reads and
// routed gets while appends publish — the race detector's view of the
// lock-free read path.
func TestClusterConcurrentReadsDuringAppend(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(t, 4, 2)
	keys := make([]string, 0, 8)
	for i := 0; i < 8 && i < len(c.View().Merged.Records); i++ {
		keys = append(keys, c.View().Merged.Records[i].Key)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if i%2 == 0 {
					if _, err := c.Scatter(ctx, corpus.Filter{Algorithms: []string{"PR"}}, i%4 == 0); err != nil {
						t.Error(err)
						return
					}
				} else if _, err := c.Get(ctx, keys[(w+i)%len(keys)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 5; i++ {
		if _, err := c.Append(ctx, []*behavior.Run{fakeRun("PR", "7e7", 2.0+float64(i)/10)}, "race-append"); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if got := c.View().Epoch(); got != 6 {
		t.Errorf("epoch after 5 appends = %d, want 6", got)
	}
}

// TestGrowDefinesAppend: corpus.Grow is the one definition of "grow a
// snapshot by measured runs". Store.Append and Cluster.Append, on a 1×1
// and a 4×2 cluster, must publish exactly what it returns — records,
// keys and both normalization maxima — for a batch inside the maxima and
// for one that raises them.
func TestGrowDefinesAppend(t *testing.T) {
	ctx := context.Background()
	base := standardSnapshot(t)
	batch := func(scale float64, label string) []*behavior.Run {
		a, b := fakeRun("PR", label, 2.1), fakeRun("SSSP", label, 2.2)
		// A repeat of a's identifying tuple: exercises the collision suffix.
		c := fakeRun("PR", label, 2.1)
		for d := range a.Raw {
			a.Raw[d] = base.Space.Max[d] * scale
			b.Raw[d] = base.Space.Max[d] * scale / 2
			c.Raw[d] = base.Space.Max[d] * scale / 4
		}
		return []*behavior.Run{a, b, c}
	}
	for _, tc := range []struct {
		name   string
		runs   []*behavior.Run
		raises bool
	}{
		{"inside the maxima", batch(0.5, "6e6"), false},
		{"raises a maximum", batch(4, "6e7"), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := corpus.Grow(mustSnapshotCopy(t, base), tc.runs, "job g")
			if err != nil {
				t.Fatal(err)
			}
			if raised := want.Space.Max != base.Space.Max; raised != tc.raises {
				t.Fatalf("batch raised the space maxima: %v, want %v", raised, tc.raises)
			}
			got := map[string]*corpus.Snapshot{}
			if got["Store.Append"], err = corpus.NewStore(mustSnapshotCopy(t, base)).Append(tc.runs, "job g"); err != nil {
				t.Fatal(err)
			}
			for name, c := range map[string]*Cluster{
				"Cluster.Append 1x1": newTestCluster(t, 1, 1),
				"Cluster.Append 4x2": newTestCluster(t, 4, 2),
			} {
				view, err := c.Append(ctx, tc.runs, "job g")
				if err != nil {
					t.Fatal(err)
				}
				got[name] = view.Merged
			}
			for name, snap := range got {
				if !reflect.DeepEqual(snap.Records, want.Records) {
					t.Errorf("%s: records (keys included) diverge from corpus.Grow", name)
				}
				if snap.Space.Max != want.Space.Max || snap.Pool.Max != want.Pool.Max {
					t.Errorf("%s: maxima space=%v pool=%v, corpus.Grow gives space=%v pool=%v",
						name, snap.Space.Max, snap.Pool.Max, want.Space.Max, want.Pool.Max)
				}
				if snap.Source != want.Source {
					t.Errorf("%s: source %q, want %q", name, snap.Source, want.Source)
				}
			}
		})
	}
}
