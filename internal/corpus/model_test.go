package corpus

import (
	"testing"

	"gcbench/internal/behavior"
)

// fakeModelRun is fakeRun with an execution-model tag.
func fakeModelRun(alg, size string, alpha float64, model string) *behavior.Run {
	r := fakeRun(alg, size, alpha)
	r.Model = model
	return r
}

func TestKeyOfModel(t *testing.T) {
	cases := []struct {
		model, alg, size string
		alpha            float64
		want             string
	}{
		{"", "PR", "1e5", 2.5, "PR_1e5_a2.5"},
		{"gas", "PR", "1e5", 2.5, "PR_1e5_a2.5"},
		{"pregel", "PR", "1e5", 2.5, "PR_1e5_a2.5_pregel"},
		{"xstream", "CC", "1e3", 2, "CC_1e3_a2_xstream"},
		{"graphcentric", "SSSP", "1e4", 2.2, "SSSP_1e4_a2.2_graphcentric"},
	}
	for _, c := range cases {
		if got := KeyOfModel(c.model, c.alg, c.size, c.alpha); got != c.want {
			t.Errorf("KeyOfModel(%q, %s, %s, %g) = %q, want %q",
				c.model, c.alg, c.size, c.alpha, got, c.want)
		}
	}
	// The model-less helper stays the GAS key.
	if KeyOf("PR", "1e5", 2.5) != KeyOfModel("gas", "PR", "1e5", 2.5) {
		t.Error("KeyOf and KeyOfModel(gas, ...) disagree")
	}
}

// TestModelKeysNeverCollide: identical specs under two models get
// distinct first-class keys — not collision suffixes, which would make
// key assignment order-dependent.
func TestModelKeysNeverCollide(t *testing.T) {
	runs := []*behavior.Run{
		fakeModelRun("PR", "1e5", 2.5, ""),
		fakeModelRun("PR", "1e5", 2.5, "pregel"),
		fakeModelRun("PR", "1e5", 2.5, "xstream"),
	}
	snap, err := NewSnapshotFromRuns(runs, "test")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"PR_1e5_a2.5", "PR_1e5_a2.5_pregel", "PR_1e5_a2.5_xstream"}
	for i, w := range want {
		if snap.Records[i].Key != w {
			t.Errorf("record %d key = %q, want %q", i, snap.Records[i].Key, w)
		}
	}
	// Same-model duplicates still get the collision suffix.
	runs = append(runs, fakeModelRun("PR", "1e5", 2.5, "pregel"))
	snap, err = NewSnapshotFromRuns(runs, "test")
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Records[3].Key; got != "PR_1e5_a2.5_pregel_2" {
		t.Errorf("duplicate pregel key = %q, want PR_1e5_a2.5_pregel_2", got)
	}
}

func TestFilterModels(t *testing.T) {
	runs := []*behavior.Run{
		fakeModelRun("PR", "1e5", 2.5, ""),    // pre-model-axis: effective gas
		fakeModelRun("PR", "1e5", 2.5, "gas"), // explicitly tagged gas
		fakeModelRun("PR", "1e5", 2.5, "pregel"),
		fakeModelRun("CC", "1e3", 2, "xstream"),
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
		{"gas matches tagged and untagged", Filter{Models: []string{"gas"}}, []int{0, 1}},
		{"empty-string model means gas", Filter{Models: []string{""}}, []int{0, 1}},
		{"pregel", Filter{Models: []string{"pregel"}}, []int{2}},
		{"two models", Filter{Models: []string{"pregel", "xstream"}}, []int{2, 3}},
		{"model+algorithm", Filter{Models: []string{"xstream"}, Algorithms: []string{"CC"}}, []int{3}},
		{"unknown model", Filter{Models: []string{"giraph"}}, nil},
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
	if len(snap.byModel) != 3 || snap.byModel["gas"] == nil || snap.byModel["pregel"] == nil || snap.byModel["xstream"] == nil {
		t.Errorf("effective models %v, want gas, pregel and xstream", snap.byModel)
	}
}

// TestGoldenCorpusMigration is the backward-compat guard: the shipped
// pre-model-axis corpus must load with byte-identical keys (no model
// suffixes, no new collisions) and read entirely as effective-GAS.
func TestGoldenCorpusMigration(t *testing.T) {
	snap, err := LoadFile("../../runs-standard.json")
	if err != nil {
		t.Fatalf("loading golden corpus: %v", err)
	}
	for i, rec := range snap.Records {
		if rec.Model != "" {
			t.Fatalf("record %d (%s): Model = %q, want empty on a pre-model-axis corpus",
				i, rec.Key, rec.Model)
		}
		want := KeyOf(rec.Algorithm, rec.SizeLabel, rec.Alpha)
		if rec.Key != want && !hasCollisionSuffix(rec.Key, want) {
			t.Errorf("record %d key = %q, want %q (pre-model keying)", i, rec.Key, want)
		}
	}
	if got := snap.Select(Filter{Models: []string{behavior.ModelGAS}}); len(got) != len(snap.Records) {
		t.Fatalf("%d of %d records read as effective-GAS", len(got), len(snap.Records))
	}
	if _, err := snap.Predictor(); err != nil {
		t.Fatalf("Predictor(): %v", err)
	}
	// Version is the Store's to assign: loading alone must not invent one
	// (a shifted corpusVersion would break cache keys downstream).
	if snap.Version != 0 {
		t.Errorf("unpublished snapshot version = %d, want 0", snap.Version)
	}
}

func hasCollisionSuffix(key, base string) bool {
	if len(key) <= len(base)+1 || key[:len(base)+1] != base+"_" {
		return false
	}
	for _, c := range key[len(base)+1:] {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}
