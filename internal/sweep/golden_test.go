package sweep

import (
	"context"
	"fmt"
	"math"
	"testing"

	"gcbench/internal/algorithms"
	"gcbench/internal/behavior"
)

// TestGoldenCorpusSubset re-executes a small deterministic slice of the
// shipped standard corpus (runs-standard.json, profile=standard seed=42)
// and pins the counter-derived behavior against it, so engine or sweep
// refactors cannot silently shift the paper's numbers. WORK is wall-clock
// derived and excluded; UPDT/EREAD/MSG are exact counter ratios and must
// agree to floating-point noise.
func TestGoldenCorpusSubset(t *testing.T) {
	golden, err := LoadRunsFile("../../runs-standard.json")
	if err != nil {
		t.Fatalf("loading golden corpus: %v", err)
	}
	key := func(alg, label string, alpha float64) string {
		return fmt.Sprintf("%s|%s|%.2f", alg, label, alpha)
	}
	want := map[string]*behavior.Run{}
	for _, r := range golden {
		want[key(r.Algorithm, r.SizeLabel, r.Alpha)] = r
	}

	specs, err := BuildPlan(ProfileStandard, 42)
	if err != nil {
		t.Fatal(err)
	}
	// 2 algorithms × 2 graph structures, all at the fast 1e3 scale.
	targets := map[string]bool{
		key("CC", "1e3", 2.0): true, key("CC", "1e3", 2.5): true,
		key("PR", "1e3", 2.0): true, key("PR", "1e3", 2.5): true,
	}
	cache := &graphCache{}
	checked := 0
	for _, spec := range specs {
		k := key(string(spec.Algorithm), spec.SizeLabel, spec.Alpha)
		if !targets[k] {
			continue
		}
		g, ok := want[k]
		if !ok {
			t.Fatalf("golden corpus lacks %s", k)
		}
		got, _, err := runSpecTrace(context.Background(), spec, 0, algorithms.FrontierAuto, cache)
		if err != nil {
			t.Fatalf("%s: %v", spec.ID(), err)
		}
		if got.NumEdges != g.NumEdges {
			t.Errorf("%s: realized edges %d, golden %d", k, got.NumEdges, g.NumEdges)
		}
		if got.Iterations != g.Iterations || got.Converged != g.Converged {
			t.Errorf("%s: iterations %d/conv=%t, golden %d/conv=%t",
				k, got.Iterations, got.Converged, g.Iterations, g.Converged)
		}
		for _, d := range []int{behavior.UPDT, behavior.EREAD, behavior.MSG} {
			if !withinRel(got.Raw[d], g.Raw[d], 1e-9) {
				t.Errorf("%s: %s = %v, golden %v", k, behavior.DimNames[d], got.Raw[d], g.Raw[d])
			}
		}
		if len(got.ActiveFraction) != len(g.ActiveFraction) {
			t.Errorf("%s: active series length %d, golden %d",
				k, len(got.ActiveFraction), len(g.ActiveFraction))
		} else {
			for i := range got.ActiveFraction {
				if !withinRel(got.ActiveFraction[i], g.ActiveFraction[i], 1e-9) {
					t.Errorf("%s: activeFraction[%d] = %v, golden %v",
						k, i, got.ActiveFraction[i], g.ActiveFraction[i])
				}
			}
		}
		checked++
	}
	if checked != len(targets) {
		t.Fatalf("checked %d golden runs, want %d", checked, len(targets))
	}
}

// withinRel reports |a-b| <= tol * max(|a|, |b|), with exact match
// required when either side is zero.
func withinRel(a, b, tol float64) bool {
	if a == b {
		return true
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= tol*m
}

// TestGoldenPlanCoversStandardCorpus pins the campaign shape itself: the
// standard seed-42 plan must produce exactly the golden corpus's spec
// set, so plan refactors cannot silently drop or relabel runs.
func TestGoldenPlanCoversStandardCorpus(t *testing.T) {
	golden, err := LoadRunsFile("../../runs-standard.json")
	if err != nil {
		t.Fatal(err)
	}
	specs, err := BuildPlan(ProfileStandard, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != len(golden) {
		t.Fatalf("plan has %d specs, golden corpus %d", len(specs), len(golden))
	}
	planIDs := map[string]int{}
	for _, s := range specs {
		planIDs[fmt.Sprintf("%s|%s|%.2f", s.Algorithm, s.SizeLabel, s.Alpha)]++
	}
	for _, r := range golden {
		k := fmt.Sprintf("%s|%s|%.2f", r.Algorithm, r.SizeLabel, r.Alpha)
		if planIDs[k] == 0 {
			t.Fatalf("golden run %s missing from the standard plan", k)
		}
		planIDs[k]--
	}
}
