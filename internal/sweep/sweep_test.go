package sweep

import (
	"bytes"
	"context"
	"testing"

	"gcbench/internal/algorithms"
	"gcbench/internal/behavior"
)

func TestBuildPlanShape(t *testing.T) {
	specs, err := BuildPlan(ProfileQuick, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 7 graph-varying GA/KM algorithms × 20 + 4 CF × 20 + 4 Jacobi +
	// 4 LBP + 4 DD = 232.
	if len(specs) != 232 {
		t.Fatalf("plan has %d specs, want 232", len(specs))
	}
	counts := map[algorithms.Name]int{}
	for _, s := range specs {
		counts[s.Algorithm]++
	}
	for _, alg := range []algorithms.Name{algorithms.CC, algorithms.KM, algorithms.ALS} {
		if counts[alg] != 20 {
			t.Fatalf("%s has %d specs, want 20 (4 sizes × 5 alphas)", alg, counts[alg])
		}
	}
	for _, alg := range []algorithms.Name{algorithms.Jacobi, algorithms.LBP, algorithms.DD} {
		if counts[alg] != 4 {
			t.Fatalf("%s has %d specs, want 4", alg, counts[alg])
		}
	}
}

func TestBuildPlanSharedGraphSeeds(t *testing.T) {
	specs, err := BuildPlan(ProfileQuick, 1)
	if err != nil {
		t.Fatal(err)
	}
	// CC and PR runs on the same (size, alpha) must share the graph seed.
	seedOf := func(alg algorithms.Name, label string, alpha float64) uint64 {
		for _, s := range specs {
			if s.Algorithm == alg && s.SizeLabel == label && s.Alpha == alpha {
				return s.Seed
			}
		}
		t.Fatalf("spec %s/%s/%v not found", alg, label, alpha)
		return 0
	}
	if seedOf(algorithms.CC, "1e3", 2.5) != seedOf(algorithms.PR, "1e3", 2.5) {
		t.Fatal("CC and PR do not share a graph seed")
	}
	if seedOf(algorithms.CC, "1e3", 2.5) == seedOf(algorithms.CC, "1e3", 3.0) {
		t.Fatal("different alphas share a graph seed")
	}
}

func TestBuildPlanUnknownProfile(t *testing.T) {
	if _, err := BuildPlan(Profile("bogus"), 1); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestSizeLabel(t *testing.T) {
	cases := map[int64]string{
		1000: "1e3", 10000: "1e4", 1000000: "1e6",
		1056: "1056", 300: "300", 20000: "2e4",
	}
	for n, want := range cases {
		if got := sizeLabel(n); got != want {
			t.Fatalf("sizeLabel(%d) = %q, want %q", n, got, want)
		}
	}
}

// TestRunSpecEveryAlgorithm executes one small spec per algorithm —
// the integration test that the whole dispatch works end to end.
func TestRunSpecEveryAlgorithm(t *testing.T) {
	cache := &graphCache{}
	for _, alg := range algorithms.AllNames() {
		spec := Spec{Algorithm: alg, SizeLabel: "test", Seed: 5}
		switch alg {
		case algorithms.ALS, algorithms.NMF, algorithms.SGD, algorithms.SVD:
			spec.NumEdges = 400
			spec.Alpha = 2.5
		case algorithms.Jacobi:
			spec.NumRows = 100
		case algorithms.LBP:
			spec.NumRows = 10
		case algorithms.DD:
			spec.NumEdges = 80
		default:
			spec.NumEdges = 500
			spec.Alpha = 2.5
		}
		r, _, err := runSpecTrace(context.Background(), spec, 2, algorithms.FrontierAuto, cache)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if r.Iterations == 0 {
			t.Fatalf("%s: no iterations recorded", alg)
		}
		if r.Raw[behavior.UPDT] <= 0 {
			t.Fatalf("%s: UPDT = %v, want positive", alg, r.Raw[behavior.UPDT])
		}
		if len(r.ActiveFraction) != r.Iterations {
			t.Fatalf("%s: active series length %d != iterations %d",
				alg, len(r.ActiveFraction), r.Iterations)
		}
		if r.Domain != alg.Domain() {
			t.Fatalf("%s: domain %q", alg, r.Domain)
		}
	}
}

func TestExecuteParallelAndProgress(t *testing.T) {
	specs := []Spec{
		{Algorithm: algorithms.CC, NumEdges: 300, Alpha: 2.5, SizeLabel: "300", Seed: 1},
		{Algorithm: algorithms.PR, NumEdges: 300, Alpha: 2.5, SizeLabel: "300", Seed: 1},
		{Algorithm: algorithms.SSSP, NumEdges: 300, Alpha: 2.0, SizeLabel: "300", Seed: 2},
		{Algorithm: algorithms.TC, NumEdges: 300, Alpha: 2.0, SizeLabel: "300", Seed: 2},
	}
	calls := 0
	runs, err := Execute(specs, Config{Parallel: 2, Workers: 1, Progress: func(done, total int, id string) {
		calls++
		if total != 4 {
			t.Errorf("total = %d", total)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 4 || calls != 4 {
		t.Fatalf("runs=%d progress calls=%d, want 4 and 4", len(runs), calls)
	}
	for i, r := range runs {
		if r == nil {
			t.Fatalf("run %d missing", i)
		}
		if string(specs[i].Algorithm) != r.Algorithm {
			t.Fatalf("run %d is %s, want %s (order must be preserved)", i, r.Algorithm, specs[i].Algorithm)
		}
	}
}

func TestExecuteDeterministic(t *testing.T) {
	specs := []Spec{
		{Algorithm: algorithms.CC, NumEdges: 500, Alpha: 2.25, SizeLabel: "500", Seed: 9},
		{Algorithm: algorithms.KC, NumEdges: 500, Alpha: 2.25, SizeLabel: "500", Seed: 9},
	}
	a, err := Execute(specs, Config{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Execute(specs, Config{Parallel: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		// WORK is timing-based; every counter-derived dimension must match.
		for _, d := range []int{behavior.UPDT, behavior.EREAD, behavior.MSG} {
			if a[i].Raw[d] != b[i].Raw[d] {
				t.Fatalf("run %d dim %s differs across configs: %v vs %v",
					i, behavior.DimNames[d], a[i].Raw[d], b[i].Raw[d])
			}
		}
		if a[i].Iterations != b[i].Iterations {
			t.Fatalf("run %d iterations differ", i)
		}
	}
}

func TestSaveLoadRuns(t *testing.T) {
	runs := []*behavior.Run{
		{Algorithm: "CC", Domain: "Graph Analytics", NumEdges: 100, Alpha: 2.5,
			SizeLabel: "100", Iterations: 3, Converged: true,
			ActiveFraction: []float64{1, 0.5, 0.1},
			Raw:            behavior.Vector{0.1, 0.2, 0.3, 0.4}},
	}
	var buf bytes.Buffer
	if err := SaveRuns(&buf, runs); err != nil {
		t.Fatal(err)
	}
	got, err := LoadRuns(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Algorithm != "CC" || got[0].Raw != runs[0].Raw {
		t.Fatalf("round trip mismatch: %+v", got[0])
	}
	if _, err := LoadRuns(bytes.NewBufferString("not json")); err == nil {
		t.Fatal("bad JSON accepted")
	}
}
