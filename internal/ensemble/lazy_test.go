package ensemble

import (
	"context"
	"flag"
	"fmt"
	"math"
	"testing"

	"gcbench/internal/behavior"
	"gcbench/internal/corpus"
)

// The lazy greedy against its oracle, the full scan naiveCoverageGreedy:
// member sets at every size AND the score bits of each, on the pools the
// benchmark's serve-design-cold workload sends and on pools built to
// force ties.

var allPools = flag.Bool("allpools", false,
	"TestLazyGreedyColdPools and TestCoverageTableMatchesFresh check all 825 cold pools instead of five (≈ 7.5 min and ≈ 1 min)")

// coldShape returns what a serve-design-cold search runs on: the
// estimator `gcbench serve -samples 10000` builds, the standard corpus's
// design pool, and the 825 restrictions of it the workload requests
// (bench/schedule.go) — three of the eleven grid algorithms and one of
// the five alphas left out, 128 of the 220 pool runs each. samples is
// the estimator's size: 10⁴ for the workload, DefaultSamples for the
// serve default.
func coldShape(tb testing.TB, samples int) (*CoverageEstimator, []behavior.Vector, [][]int) {
	tb.Helper()
	est, err := NewCoverageEstimator(samples, 0x5eed)
	if err != nil {
		tb.Fatal(err)
	}
	snap, err := corpus.LoadFile("../../runs-standard.json")
	if err != nil {
		tb.Fatal(err)
	}
	algs := []string{"CC", "KC", "TC", "SSSP", "PR", "AD", "KM", "ALS", "NMF", "SGD", "SVD"}
	alphas := []float64{2, 2.25, 2.5, 2.75, 3}
	var pools [][]int
	for a := range algs {
		for b := a + 1; b < len(algs); b++ {
			for c := b + 1; c < len(algs); c++ {
				for d := range alphas {
					var f corpus.Filter
					for i, alg := range algs {
						if i != a && i != b && i != c {
							f.Algorithms = append(f.Algorithms, alg)
						}
					}
					for i, alpha := range alphas {
						if i != d {
							f.Alphas = append(f.Alphas, alpha)
						}
					}
					idx := snap.PoolSelect(f)
					if len(idx) != 128 {
						tb.Fatalf("cold pool has %d runs, want 128", len(idx))
					}
					pools = append(pools, idx)
				}
			}
		}
	}
	return est, snap.Pool.Points, pools
}

// smallEstimators returns the smallest gridded estimator (2 cells per
// axis from 4096 samples) and a one-cell one: the oracle's cost grows
// with the square of the ensemble size, and these tests search to the
// whole pool.
func smallEstimators(t *testing.T) []*CoverageEstimator {
	t.Helper()
	return []*CoverageEstimator{newCov(t, 5000), newCov(t, 1000)}
}

// checkLazyAgainstFullScan runs both searches to maxSize and compares
// the whole trace. It returns the two evaluation counts.
func checkLazyAgainstFullScan(t *testing.T, est *CoverageEstimator, pool []behavior.Vector, idx []int, maxSize int) (lazy, full int) {
	t.Helper()
	want, wantCov := naiveCoverageGreedy(est, pool, idx, maxSize)
	got, lazy, err := coverageGreedy(context.Background(), est, pool, idx, maxSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("lazy returned %d sizes, full scan %d", len(got)-1, len(want)-1)
	}
	for k := 1; k < len(want); k++ {
		if !equalInts(got[k], want[k]) {
			t.Fatalf("size %d: lazy %v, full scan %v", k, got[k], want[k])
		}
		pts := make([]behavior.Vector, len(got[k]))
		for i, m := range got[k] {
			pts[i] = pool[m]
		}
		if c := est.Coverage(pts); math.Float64bits(c) != math.Float64bits(wantCov[k]) {
			t.Fatalf("size %d: lazy scores %v, full scan %v", k, c, wantCov[k])
		}
		full += len(idx) - (k - 1)
	}
	return lazy, full
}

// TestLazyGreedyColdPools: a search to n = 8 passes through the searches
// to n = 4…7, so one run per pool covers every request of the workload.
// The first pool also pins the pruning as an exact count — the search is
// deterministic, so any change to the bound or the visiting order shows
// there.
func TestLazyGreedyColdPools(t *testing.T) {
	est, pts, pools := coldShape(t, 10000)
	stride := 199 // prime, so the five pools meet all five alpha restrictions
	if *allPools {
		stride = 1
	}
	for i := 0; i < len(pools); i += stride {
		lazy, full := checkLazyAgainstFullScan(t, est, pts, pools[i], 8)
		if i > 0 {
			continue
		}
		if lazy != 357 || full != 996 { // 36 %
			t.Fatalf("pool 0: %d evaluations against the full scan's %d, recorded 357 against 996", lazy, full)
		}
	}
}

// TestLazyGreedyRoundOneColdPools: round 1 is the one round bounded by
// the estimator's bound grid rather than a measured reduction, so it
// gets every cold pool on its own. A one-member ensemble's coverage is
// the candidate's alone, so the full scan's pick is the argmax of the
// 220 pool coverages over the pool's positions (highest coverage, then
// lowest position); those coverages are computed once.
func TestLazyGreedyRoundOneColdPools(t *testing.T) {
	est, pts, pools := coldShape(t, 10000)
	single := make([]float64, len(pts))
	for i, p := range pts {
		single[i] = est.Coverage([]behavior.Vector{p})
	}
	var evals int
	for i, idx := range pools {
		best := 0
		for j := range idx {
			if single[idx[j]] > single[idx[best]] {
				best = j
			}
		}
		got, e, err := coverageGreedy(context.Background(), est, pts, idx, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(got[1]) != 1 || got[1][0] != idx[best] {
			t.Fatalf("pool %d: round 1 picks %v, full scan [%d]", i, got[1], idx[best])
		}
		evals += e
	}
	t.Logf("round 1: %d evaluations over %d pools of 128", evals, len(pools))
}

// TestLowerTotalBoundsRoundOne: lowerTotal(p), slack included, never
// exceeds the total the empty ensemble's evalAdd(p) computes — on the
// one-cell estimator and gridded ones, for the standard corpus's pool
// points, random points, points on cell faces of both grids, and points
// outside the unit cube (far enough out that the bound is tight).
func TestLowerTotalBoundsRoundOne(t *testing.T) {
	snap, err := corpus.LoadFile("../../runs-standard.json")
	if err != nil {
		t.Fatal(err)
	}
	points := append([]behavior.Vector(nil), snap.Pool.Points...)
	points = append(points, randomPool(64, 0xb0)...)
	r := randomPool(64, 0xb1)
	for _, g := range []int{2, 3, 5, 10} {
		for i := 0; i < 16; i++ {
			var p behavior.Vector
			for d := range p {
				p[d] = math.Floor(r[i][d]*float64(g+1)) / float64(g) // a face, 0 and 1 included
			}
			points = append(points, p)
		}
	}
	for _, v := range []float64{-0.5, 1.5, -3, 40, 1e3} {
		points = append(points, behavior.Vector{v, v, v, v}, behavior.Vector{v, 0.5, 1 - v, 0.25})
	}
	for _, ns := range []int{1000, 5000, 10000, 100000} {
		est, err := NewCoverageEstimator(ns, 0x5eed)
		if err != nil {
			t.Fatal(err)
		}
		ic, err := NewIncrementalCoverage(est, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range points {
			if lb, sum := est.lowerTotal(p), ic.evalAdd(p); !(lb <= sum) {
				t.Fatalf("%d samples, p = %v: lowerTotal %v exceeds the total %v", ns, p, lb, sum)
			}
		}
	}
}

// TestLazyGreedyTies: duplicated points tie exactly in coverage, and the
// full scan gives a tie to the lowest pool position. The lazy order
// visits by stale reduction, so it has to break the tie the same way —
// on one-cell and gridded estimators, through to n = pool size.
func TestLazyGreedyTies(t *testing.T) {
	for _, est := range smallEstimators(t) {
		base := randomPool(12, 307)
		// Every point three times, the copies far apart in position and
		// the idx order not the pool order.
		var pool []behavior.Vector
		for rep := 0; rep < 3; rep++ {
			pool = append(pool, base...)
		}
		idx := make([]int, len(pool))
		for i := range idx {
			idx[i] = (i*7 + 5) % len(pool)
		}
		checkLazyAgainstFullScan(t, est, pool, idx, len(pool))

		same := make([]behavior.Vector, 9)
		for i := range same {
			same[i] = behavior.Vector{0.3, 0.6, 0.2, 0.9}
		}
		checkLazyAgainstFullScan(t, est, same, allIdx(len(same)), len(same))
	}
}

// TestLazyGreedyTableFloor: round 1 takes a table total as {p}'s floor
// and lowerTotal where the table has none. Two points a hair apart near
// the cube's centre have round-1 totals far closer than lowerTotal's
// slack; with exactly one of them in the table, the search must still
// pick the one the full scan picks. An inflated table floor fails here.
func TestLazyGreedyTableFloor(t *testing.T) {
	pool := []behavior.Vector{{0.5, 0.5, 0.5, 0.5}, {0.501, 0.5, 0.5, 0.5}, {0.1, 0.9, 0.2, 0.8}}
	for _, samples := range []int{5000, 1000} {
		for warm := 0; warm < 2; warm++ {
			est := newCov(t, samples)
			if _, _, err := coverageGreedy(context.Background(), est, pool, []int{warm}, 1); err != nil {
				t.Fatal(err)
			}
			checkLazyAgainstFullScan(t, est, pool, allIdx(len(pool)), len(pool))
		}
	}
}

// TestLazyGreedyRandomPools: random pools on both estimator layouts, a
// third of the points duplicated, searched to the whole pool.
func TestLazyGreedyRandomPools(t *testing.T) {
	for _, est := range smallEstimators(t) {
		for seed := uint64(1); seed <= 3; seed++ {
			pool := randomPool(24, 311*seed)
			for i := 0; i < len(pool); i += 3 {
				pool[i] = pool[(i+7)%len(pool)]
			}
			checkLazyAgainstFullScan(t, est, pool, allIdx(len(pool)), len(pool))
		}
	}
}

// BenchmarkCoverageGreedyCold is one serve-design-cold search per
// iteration: the workload's pools in order, n cycling 4…8 and shifting
// by one each pass over the pools, so -benchtime=4125x walks the
// workload's whole request list once. samples=10000 is the workload's
// estimator, samples=1000000 the serve default's. table=shared runs
// every search on one estimator, as serve does, so its table of
// two-member totals fills over the first pass; table=fresh builds a new
// estimator for each search outside the timer — a server's first
// request. evals/op is the mean number of candidate evaluations.
func BenchmarkCoverageGreedyCold(b *testing.B) {
	for _, samples := range []int{10000, DefaultSamples} {
		for _, table := range []string{"shared", "fresh"} {
			b.Run(fmt.Sprintf("samples=%d/table=%s", samples, table), func(b *testing.B) {
				est, pts, pools := coldShape(b, samples)
				var evals int
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if table == "fresh" {
						b.StopTimer()
						var err error
						if est, err = NewCoverageEstimator(samples, 0x5eed); err != nil {
							b.Fatal(err)
						}
						b.StartTimer()
					}
					_, e, err := coverageGreedy(context.Background(), est, pts, pools[i%len(pools)], 4+(i+i/len(pools))%5)
					if err != nil {
						b.Fatal(err)
					}
					evals += e
				}
				b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
			})
		}
	}
}
