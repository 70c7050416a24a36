package ensemble

import (
	"context"
	"math"
	"sort"
	"testing"

	"gcbench/internal/behavior"
	"gcbench/internal/rng"
)

// The differential harness for IncrementalCoverage: every incremental
// result must be BIT-IDENTICAL (==, not approximately equal) to a fresh
// full Monte-Carlo estimate from the same estimator, because the
// searches make strict float comparisons on these values and any ulp of
// drift could change a search trajectory.

// freshCoverage is the oracle: a full recompute over the same sample
// stream.
func freshCoverage(t *testing.T, est *CoverageEstimator, members []behavior.Vector) float64 {
	t.Helper()
	return est.Coverage(members)
}

func newIC(t *testing.T, est *CoverageEstimator, members []behavior.Vector) *IncrementalCoverage {
	t.Helper()
	ic, err := NewIncrementalCoverage(est, members)
	if err != nil {
		t.Fatal(err)
	}
	return ic
}

// gridEstimators returns estimators that exercise both the gridded
// (30k samples → 3 cells/axis) and flat single-cell (2k samples)
// layouts.
func gridEstimators(t *testing.T) []*CoverageEstimator {
	t.Helper()
	return []*CoverageEstimator{newCov(t, 30000), newCov(t, 2000)}
}

func TestIncrementalCoverageMatchesFresh(t *testing.T) {
	for _, est := range gridEstimators(t) {
		pool := randomPool(40, 101)
		ic := newIC(t, est, pool[:6])
		if got, want := ic.Coverage(), freshCoverage(t, est, pool[:6]); got != want {
			t.Fatalf("initial: incremental %v != fresh %v (n=%d)", got, want, est.NumSamples())
		}
	}
}

// TestIncrementalSwapMatchesFresh is the satellite equivalence test at
// the estimator level: after ANY single-member swap, both the
// non-mutating EvalSwap and the committed state equal a fresh full
// estimate with the same sample stream.
func TestIncrementalSwapMatchesFresh(t *testing.T) {
	for _, est := range gridEstimators(t) {
		r := rng.New(202)
		pool := randomPool(60, 103)
		members := append([]behavior.Vector(nil), pool[:8]...)
		ic := newIC(t, est, members)
		for step := 0; step < 40; step++ {
			pos := r.Intn(len(members))
			cand := pool[r.Intn(len(pool))]

			swapped := append([]behavior.Vector(nil), members...)
			swapped[pos] = cand
			want := freshCoverage(t, est, swapped)

			if got := ic.EvalSwap(pos, cand); got != want {
				t.Fatalf("step %d: EvalSwap(%d) = %v, fresh = %v (n=%d)",
					step, pos, got, want, est.NumSamples())
			}
			// EvalSwap must not have mutated anything.
			if got, want := ic.Coverage(), freshCoverage(t, est, members); got != want {
				t.Fatalf("step %d: EvalSwap mutated state: %v != %v", step, got, want)
			}
			// Commit every other proposal so the cache evolves through
			// many generations of dirty-cell rescoring.
			if step%2 == 0 {
				if got := ic.Swap(pos, cand); got != want {
					t.Fatalf("step %d: Swap = %v, fresh = %v", step, got, want)
				}
				members = swapped
			}
		}
	}
}

// TestIncrementalAddMatchesFresh: growing the ensemble one member at a
// time (the greedy pattern) stays bit-identical to fresh estimates,
// starting from an empty ensemble.
func TestIncrementalAddMatchesFresh(t *testing.T) {
	for _, est := range gridEstimators(t) {
		pool := randomPool(20, 107)
		ic := newIC(t, est, nil)
		var members []behavior.Vector
		for i, p := range pool {
			grown := append(append([]behavior.Vector(nil), members...), p)
			want := freshCoverage(t, est, grown)
			if got := ic.EvalAdd(p); got != want {
				t.Fatalf("add %d: EvalAdd = %v, fresh = %v (n=%d)", i, got, want, est.NumSamples())
			}
			if got := ic.Add(p); got != want {
				t.Fatalf("add %d: Add = %v, fresh = %v", i, got, want)
			}
			members = grown
		}
	}
}

// TestIncrementalDuplicateAndDegenerate: duplicate members, a swap that
// replaces a member with itself, and a swap to a duplicate of another
// member all stay bit-identical (these stress tie assignments).
func TestIncrementalDuplicateAndDegenerate(t *testing.T) {
	est := newCov(t, 30000)
	p := randomPool(6, 109)
	members := []behavior.Vector{p[0], p[1], p[0], p[2]} // duplicate up front
	ic := newIC(t, est, members)
	cases := []struct {
		pos  int
		cand behavior.Vector
	}{
		{1, p[1]}, // self-swap
		{3, p[0]}, // three-way duplicate
		{0, p[4]}, // break the duplicate pair
		{2, p[5]},
	}
	for i, c := range cases {
		swapped := append([]behavior.Vector(nil), members...)
		swapped[c.pos] = c.cand
		want := freshCoverage(t, est, swapped)
		if got := ic.EvalSwap(c.pos, c.cand); got != want {
			t.Fatalf("case %d: EvalSwap = %v, fresh = %v", i, got, want)
		}
		if got := ic.Swap(c.pos, c.cand); got != want {
			t.Fatalf("case %d: Swap = %v, fresh = %v", i, got, want)
		}
		members = swapped
	}
}

// TestIncrementalRandomizedProperty: randomized corpora across several
// seeds — interleaved adds and swaps, every result checked against the
// oracle.
func TestIncrementalRandomizedProperty(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		est := newCov(t, 30000)
		r := rng.New(seed * 7919)
		pool := randomPool(80, seed*31)
		members := append([]behavior.Vector(nil), pool[:5]...)
		ic := newIC(t, est, members)
		for step := 0; step < 25; step++ {
			cand := pool[r.Intn(len(pool))]
			if r.Intn(3) == 0 && len(members) < 15 {
				grown := append(append([]behavior.Vector(nil), members...), cand)
				want := freshCoverage(t, est, grown)
				if got := ic.Add(cand); got != want {
					t.Fatalf("seed %d step %d: Add = %v, fresh = %v", seed, step, got, want)
				}
				members = grown
			} else {
				pos := r.Intn(len(members))
				swapped := append([]behavior.Vector(nil), members...)
				swapped[pos] = cand
				want := freshCoverage(t, est, swapped)
				if got := ic.EvalSwap(pos, cand); got != want {
					t.Fatalf("seed %d step %d: EvalSwap = %v, fresh = %v", seed, step, got, want)
				}
				if got := ic.Swap(pos, cand); got != want {
					t.Fatalf("seed %d step %d: Swap = %v, fresh = %v", seed, step, got, want)
				}
				members = swapped
			}
		}
	}
}

func TestIncrementalRejectsEmptyEstimator(t *testing.T) {
	if _, err := NewIncrementalCoverage(nil, nil); err == nil {
		t.Fatal("nil estimator accepted")
	}
	if _, err := NewIncrementalCoverage(&CoverageEstimator{}, nil); err == nil {
		t.Fatal("zero-value estimator accepted")
	}
}

// --- search-trace oracles -------------------------------------------
//
// The naive searches below re-evaluate coverage with a fresh full
// Monte-Carlo pass per proposal — the implementations the rewired
// searches replaced. The traces (member sets AND scores) must match
// exactly, proving the incremental rewiring changed cost, not behavior.

// naiveCoverageGreedy is the full scan: every remaining candidate scored
// every round, a coverage tie going to the lowest position in idx. It
// returns the member set and the winning coverage at each size.
func naiveCoverageGreedy(cov *CoverageEstimator, pool []behavior.Vector, idx []int, maxSize int) ([][]int, []float64) {
	n := len(idx)
	if maxSize > n {
		maxSize = n
	}
	out := make([][]int, maxSize+1)
	covs := make([]float64, maxSize+1)
	var members []int
	inSet := make([]bool, n)
	pts := func(set []int, extra int) []behavior.Vector {
		o := make([]behavior.Vector, 0, len(set)+1)
		for _, m := range set {
			o = append(o, pool[m])
		}
		return append(o, pool[extra])
	}
	for k := 1; k <= maxSize; k++ {
		bestJ, bestCov := -1, -1.0
		for j := 0; j < n; j++ {
			if inSet[j] {
				continue
			}
			if c := cov.Coverage(pts(members, idx[j])); c > bestCov {
				bestCov, bestJ = c, j
			}
		}
		if bestJ < 0 {
			break
		}
		inSet[bestJ] = true
		members = append(members, idx[bestJ])
		set := append([]int(nil), members...)
		sort.Ints(set)
		out[k], covs[k] = set, bestCov
	}
	return out, covs
}

func naiveCoverageExchange(cov *CoverageEstimator, pool []behavior.Vector, members, candidates []int) []int {
	cur := append([]int(nil), members...)
	pts := func(set []int) []behavior.Vector {
		out := make([]behavior.Vector, len(set))
		for i, m := range set {
			out[i] = pool[m]
		}
		return out
	}
	curCov := cov.Coverage(pts(cur))
	inSet := make(map[int]bool, len(cur))
	for _, m := range cur {
		inSet[m] = true
	}
	const maxPasses = 5
	for pass := 0; pass < maxPasses; pass++ {
		bestGain := 1e-12
		bestPos, bestCand := -1, -1
		for pos := range cur {
			for _, cand := range candidates {
				if inSet[cand] {
					continue
				}
				old := cur[pos]
				cur[pos] = cand
				c := cov.Coverage(pts(cur))
				cur[pos] = old
				if gain := c - curCov; gain > bestGain {
					bestGain, bestPos, bestCand = gain, pos, cand
				}
			}
		}
		if bestPos < 0 {
			break
		}
		delete(inSet, cur[bestPos])
		inSet[bestCand] = true
		cur[bestPos] = bestCand
		curCov = cov.Coverage(pts(cur))
	}
	sort.Ints(cur)
	return cur
}

func naiveAnnealCoverage(t *testing.T, cov *CoverageEstimator, pool []behavior.Vector, idx []int, opt AnnealOptions) ([]int, float64) {
	t.Helper()
	steps := opt.Steps
	temp := opt.InitTemp
	if temp == 0 {
		temp = 0.1
	}
	r := rng.New(opt.Seed ^ 0xc0ffee51)
	seedSets, _ := naiveCoverageGreedy(cov, pool, idx, opt.Size)
	cur := append([]int(nil), seedSets[opt.Size]...)
	k := len(cur)
	inSet := make(map[int]bool, k)
	for _, m := range cur {
		inSet[m] = true
	}
	eval := func(members []int) float64 {
		pts := make([]behavior.Vector, len(members))
		for i, m := range members {
			pts[i] = pool[m]
		}
		return cov.Coverage(pts)
	}
	curCov := eval(cur)
	best := append([]int(nil), cur...)
	bestCov := curCov
	for step := 0; step < steps; step++ {
		t_ := temp * (1 - float64(step)/float64(steps))
		pos := r.Intn(k)
		cand := idx[r.Intn(len(idx))]
		if inSet[cand] {
			continue
		}
		old := cur[pos]
		cur[pos] = cand
		c := eval(cur)
		delta := c - curCov
		if delta >= 0 || r.Float64() < math.Exp(delta/math.Max(curCov, 1e-9)/math.Max(t_, 1e-9)) {
			delete(inSet, old)
			inSet[cand] = true
			curCov = c
			if c > bestCov {
				bestCov = c
				copy(best, cur)
			}
		} else {
			cur[pos] = old
		}
	}
	return best, bestCov
}

// TestCoverageGreedyTraceMatchesNaive: the greedy makes the same choices
// at every size as the full-recompute oracle (lazy_test.go has the
// harder pools).
func TestCoverageGreedyTraceMatchesNaive(t *testing.T) {
	for _, est := range gridEstimators(t) {
		checkLazyAgainstFullScan(t, est, randomPool(30, 211), allIdx(30), 8)
	}
}

// TestCoverageExchangeTraceMatchesNaive: the rewired exchange applies
// the same swaps as the full-recompute oracle.
func TestCoverageExchangeTraceMatchesNaive(t *testing.T) {
	for _, est := range gridEstimators(t) {
		for seed := uint64(1); seed <= 3; seed++ {
			pool := randomPool(25, 223*seed)
			members := []int{0, 1, 2, 3, 4}
			want := naiveCoverageExchange(est, pool, members, allIdx(25))
			got := ImproveCoverageExchange(est, pool, members, allIdx(25))
			if !equalInts(got, want) {
				t.Fatalf("n=%d seed %d: exchange %v, naive %v", est.NumSamples(), seed, got, want)
			}
		}
	}
}

// TestAnnealCoverageTraceMatchesNaive: the rewired annealer consumes
// the same RNG stream and makes the same accept/reject decisions as the
// full-recompute oracle — member set and score both identical.
func TestAnnealCoverageTraceMatchesNaive(t *testing.T) {
	for _, est := range gridEstimators(t) {
		pool := randomPool(30, 227)
		opt := AnnealOptions{Size: 5, Steps: 300, Seed: 99}
		wantSet, wantCov := naiveAnnealCoverage(t, est, pool, allIdx(30), opt)
		gotSet, gotCov, err := AnnealCoverage(est, pool, allIdx(30), opt)
		if err != nil {
			t.Fatal(err)
		}
		if !equalInts(gotSet, wantSet) || gotCov != wantCov {
			t.Fatalf("n=%d: anneal (%v, %v), naive (%v, %v)",
				est.NumSamples(), gotSet, gotCov, wantSet, wantCov)
		}
	}
}

func equalInts(a, b []int) bool {
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

// TestIncrementalSearchesHonorContext: the rewired searches still abort
// promptly on a pre-cancelled context.
func TestIncrementalSearchesHonorContext(t *testing.T) {
	est := newCov(t, 2000)
	pool := randomPool(10, 229)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BestCoverageGreedyCtx(ctx, est, pool, allIdx(10), 3); err == nil {
		t.Fatal("greedy ignored cancelled context")
	}
	if _, err := ImproveCoverageExchangeCtx(ctx, est, pool, []int{0, 1}, allIdx(10)); err == nil {
		t.Fatal("exchange ignored cancelled context")
	}
	if _, _, err := AnnealCoverageCtx(ctx, est, pool, allIdx(10), AnnealOptions{Size: 2, Steps: 10}); err == nil {
		t.Fatal("anneal ignored cancelled context")
	}
}
