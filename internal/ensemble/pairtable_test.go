package ensemble

import (
	"context"
	"math"
	"sync"
	"testing"

	"gcbench/internal/behavior"
	"gcbench/internal/corpus"
)

// The table of two-member totals against searches without one: the same
// member sets and score bits, fewer evaluations, under concurrency and
// at its cap.

// coverageBits returns the score bits of each size's member set.
func coverageBits(est *CoverageEstimator, pool []behavior.Vector, sets [][]int) []uint64 {
	out := make([]uint64, len(sets))
	for k, set := range sets {
		pts := make([]behavior.Vector, len(set))
		for i, m := range set {
			pts[i] = pool[m]
		}
		out[k] = math.Float64bits(est.Coverage(pts))
	}
	return out
}

// checkSameSearch fails unless two searches' member sets and score bits
// agree at every size.
func checkSameSearch(t *testing.T, label string, pool []behavior.Vector, est *CoverageEstimator, got [][]int, fresh *CoverageEstimator, want [][]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d sizes, fresh estimator %d", label, len(got)-1, len(want)-1)
	}
	gotBits, wantBits := coverageBits(est, pool, got), coverageBits(fresh, pool, want)
	for k := 1; k < len(want); k++ {
		if !equalInts(got[k], want[k]) {
			t.Fatalf("%s, size %d: %v, fresh estimator %v", label, k, got[k], want[k])
		}
		if gotBits[k] != wantBits[k] {
			t.Fatalf("%s, size %d: score bits %x, fresh estimator %x", label, k, gotBits[k], wantBits[k])
		}
	}
}

// TestCoverageTableMatchesFresh: one estimator walks the cold pools
// twice, as serve's estimator does across requests; each search must
// equal a fresh estimator's at every size. The second walk finds every
// round-1 and round-2 total in the table: a search to n = 2 evaluates
// nothing, and one to n = 8 evaluates exactly what a fresh search does
// in rounds 3–8.
func TestCoverageTableMatchesFresh(t *testing.T) {
	shared, pts, pools := coldShape(t, 10000)
	stride := 199
	if *allPools {
		stride = 1
	}
	fresh := func() *CoverageEstimator {
		est, err := NewCoverageEstimator(10000, 0x5eed)
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	search := func(est *CoverageEstimator, idx []int, n int) ([][]int, int) {
		sets, evals, err := coverageGreedy(context.Background(), est, pts, idx, n)
		if err != nil {
			t.Fatal(err)
		}
		return sets, evals
	}
	type want struct {
		sets  [][]int
		later int // evaluations a fresh search makes in rounds 3–8
		fresh *CoverageEstimator
	}
	wants := map[int]want{}
	var firstEvals, freshEvals int
	for i := 0; i < len(pools); i += stride {
		est := fresh()
		w, e8 := search(est, pools[i], 8)
		_, e2 := search(fresh(), pools[i], 2)
		got, e := search(shared, pools[i], 8)
		checkSameSearch(t, "first walk", pts, shared, got, est, w)
		wants[i] = want{sets: w, later: e8 - e2, fresh: est}
		firstEvals += e
		freshEvals += e8
	}
	if firstEvals > freshEvals {
		t.Fatalf("first walk: %d evaluations, more than fresh searches' %d", firstEvals, freshEvals)
	}
	for i := 0; i < len(pools); i += stride {
		if _, e := search(shared, pools[i], 2); e != 0 {
			t.Fatalf("second walk, pool %d: %d round-1/2 evaluations, want 0", i, e)
		}
		got, e := search(shared, pools[i], 8)
		checkSameSearch(t, "second walk", pts, shared, got, wants[i].fresh, wants[i].sets)
		if e != wants[i].later {
			t.Fatalf("second walk, pool %d: %d evaluations, want the fresh search's %d in rounds 3–8", i, e, wants[i].later)
		}
	}
	t.Logf("first walk: %d evaluations, fresh searches %d", firstEvals, freshEvals)
}

// TestPairTotalSymmetric: the total of {a, b} is the same bits with
// either point as the member and the other added, and {p, p} is the
// empty ensemble's total for p — on a gridded and a one-cell estimator,
// for the standard corpus's pool points, random points, repeated points
// and both signs of zero (one key in the table).
func TestPairTotalSymmetric(t *testing.T) {
	snap, err := corpus.LoadFile("../../runs-standard.json")
	if err != nil {
		t.Fatal(err)
	}
	points := append([]behavior.Vector(nil), snap.Pool.Points...)
	points = append(points, randomPool(32, 0xa5)...)
	points = append(points, points[3], behavior.Vector{0, 0.5, 0, 1}, behavior.Vector{math.Copysign(0, -1), 0.5, 0, 1})
	for _, est := range smallEstimators(t) {
		empty, err := NewIncrementalCoverage(est, nil)
		if err != nil {
			t.Fatal(err)
		}
		single := make([]*IncrementalCoverage, len(points))
		for i, p := range points {
			if single[i], err = NewIncrementalCoverage(est, []behavior.Vector{p}); err != nil {
				t.Fatal(err)
			}
			if got, want := single[i].evalAdd(p), empty.evalAdd(p); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%d samples, p = %v: {p, p} totals %v, {p} %v", est.NumSamples(), p, got, want)
			}
		}
		for i, a := range points {
			for j := i + 1; j < len(points); j++ {
				b := points[j]
				ab, ba := single[i].evalAdd(b), single[j].evalAdd(a)
				if math.Float64bits(ab) != math.Float64bits(ba) {
					t.Fatalf("%d samples: {%v, %v} totals %v one way, %v the other", est.NumSamples(), a, b, ab, ba)
				}
				kab, _ := pairKey(a, b)
				kba, _ := pairKey(b, a)
				if kab != kba {
					t.Fatalf("pairKey(%v, %v) = %v, reversed %v", a, b, kab, kba)
				}
			}
		}
	}
}

// TestCoverageTableConcurrent: eight searches at a time on one estimator,
// each walking the same pools from a different start, return what one
// goroutine does on a fresh estimator. Run under -race.
func TestCoverageTableConcurrent(t *testing.T) {
	shared, pts, pools := coldShape(t, 5000)
	pools = [][]int{pools[0], pools[199], pools[398], pools[597]}
	serial, err := NewCoverageEstimator(5000, 0x5eed)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][][]int, len(pools))
	for i, idx := range pools {
		if want[i], err = BestCoverageGreedyCtx(context.Background(), serial, pts, idx, 4); err != nil {
			t.Fatal(err)
		}
	}
	const goroutines = 8
	got := make([][][][]int, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		got[g] = make([][][]int, len(pools))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := range pools {
				i := (g + n) % len(pools)
				var err error
				if got[g][i], err = BestCoverageGreedyCtx(context.Background(), shared, pts, pools[i], 4); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for g := range got {
		for i := range pools {
			checkSameSearch(t, "concurrent", pts, shared, got[g][i], serial, want[i])
		}
	}
}

// TestCoverageTableBound: the table stops storing at its cap, still
// answers what it holds, and never stores a key that holds a NaN — not
// through store, and not from a search whose pool has a NaN point.
func TestCoverageTableBound(t *testing.T) {
	var tab pairTable
	for i := 0; i < maxPairTotals+100; i++ {
		tab.store(behavior.Vector{float64(i)}, behavior.Vector{0, float64(i)}, float64(i))
	}
	if n := len(tab.totals); n != maxPairTotals {
		t.Fatalf("table holds %d totals, cap %d", n, maxPairTotals)
	}
	if v, ok := tab.load(behavior.Vector{0, 1}, behavior.Vector{1}); !ok || v != 1 {
		t.Fatalf("stored total of {(1,0,0,0), (0,1,0,0)}: got %v, %v; want 1, true", v, ok)
	}
	if _, ok := tab.load(behavior.Vector{maxPairTotals}, behavior.Vector{0, maxPairTotals}); ok {
		t.Fatal("a total stored past the cap")
	}

	nan := math.NaN()
	var clean pairTable
	clean.store(behavior.Vector{nan}, behavior.Vector{0.5}, 1)
	clean.store(behavior.Vector{0.5}, behavior.Vector{0.5, nan}, 1)
	if len(clean.totals) != 0 {
		t.Fatalf("NaN keys stored: %v", clean.totals)
	}

	est := newCov(t, 5000)
	pool := randomPool(12, 0xbad)
	pool[5][2] = nan
	if _, err := BestCoverageGreedyCtx(context.Background(), est, pool, allIdx(len(pool)), 4); err != nil {
		t.Fatal(err)
	}
	if len(est.pairs.totals) == 0 {
		t.Fatal("search stored no totals")
	}
	for key := range est.pairs.totals {
		for _, v := range key {
			for _, x := range v {
				if math.IsNaN(x) {
					t.Fatalf("NaN key stored: %v", key)
				}
			}
		}
	}
}
