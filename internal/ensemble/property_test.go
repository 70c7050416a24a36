package ensemble

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"gcbench/internal/behavior"
	"gcbench/internal/rng"
)

// Property: spread is invariant under member permutation.
func TestSpreadPermutationInvariant(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(10)
		pts := make([]behavior.Vector, n)
		for i := range pts {
			for d := 0; d < behavior.Dims; d++ {
				pts[i][d] = r.Float64()
			}
		}
		s1 := Spread(pts)
		perm := r.Perm(n)
		shuffled := make([]behavior.Vector, n)
		for i, p := range perm {
			shuffled[i] = pts[p]
		}
		return math.Abs(s1-Spread(shuffled)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: uniformly scaling all coordinates scales spread linearly.
func TestSpreadScales(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(8)
		scale := 0.1 + r.Float64()
		a := make([]behavior.Vector, n)
		b := make([]behavior.Vector, n)
		for i := range a {
			for d := 0; d < behavior.Dims; d++ {
				a[i][d] = r.Float64()
				b[i][d] = a[i][d] * scale
			}
		}
		return math.Abs(Spread(b)-scale*Spread(a)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the behavior-space distance satisfies the metric axioms on
// random triples (symmetry, identity, triangle inequality).
func TestDistanceMetricAxioms(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		var a, b, c behavior.Vector
		for d := 0; d < behavior.Dims; d++ {
			a[d], b[d], c[d] = r.Float64(), r.Float64(), r.Float64()
		}
		if behavior.Distance(a, a) != 0 {
			return false
		}
		if behavior.Distance(a, b) != behavior.Distance(b, a) {
			return false
		}
		return behavior.Distance(a, c) <= behavior.Distance(a, b)+behavior.Distance(b, c)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: adding any member never decreases coverage (min distances are
// pointwise monotone).
func TestCoverageMonotoneUnderAddition(t *testing.T) {
	cov, err := NewCoverageEstimator(5000, 11)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(6)
		pts := make([]behavior.Vector, n+1)
		for i := range pts {
			for d := 0; d < behavior.Dims; d++ {
				pts[i][d] = r.Float64()
			}
		}
		return cov.Coverage(pts) >= cov.Coverage(pts[:n])-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: greedy coverage selection reproduces its reported members:
// re-evaluating the returned sets yields monotone coverage in k.
func TestGreedySetsAreNested(t *testing.T) {
	cov, err := NewCoverageEstimator(3000, 13)
	if err != nil {
		t.Fatal(err)
	}
	pool := randomPoolB(24, 17)
	idx := make([]int, len(pool))
	for i := range idx {
		idx[i] = i
	}
	sets, err := BestCoverageGreedyCtx(context.Background(), cov, pool, idx, 6)
	if err != nil {
		t.Fatal(err)
	}
	for k := 2; k <= 6; k++ {
		prev := map[int]bool{}
		for _, m := range sets[k-1] {
			prev[m] = true
		}
		missing := 0
		for _, m := range sets[k-1] {
			found := false
			for _, m2 := range sets[k] {
				if m2 == m {
					found = true
					break
				}
			}
			if !found {
				missing++
			}
		}
		if missing != 0 {
			t.Fatalf("greedy set of size %d is not a superset of size %d", k, k-1)
		}
	}
}
