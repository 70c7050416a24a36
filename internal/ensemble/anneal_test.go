package ensemble

import (
	"context"
	"gcbench/internal/behavior"
	"math"
	"testing"
)

func TestAnnealSpreadAtLeastGreedy(t *testing.T) {
	pool := randomPoolB(60, 21)
	idx := allIdx(60)
	greedySets, err := BestSpreadGreedyCtx(context.Background(), pool, idx, 8)
	if err != nil {
		t.Fatal(err)
	}
	greedySpread := SpreadOf(pool, greedySets[8])
	members, annealSpread, err := AnnealSpreadCtx(context.Background(), pool, idx, AnnealOptions{Size: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 8 {
		t.Fatalf("ensemble size %d", len(members))
	}
	// Annealing is seeded with the greedy solution and keeps the best seen,
	// so it can never end below it.
	if annealSpread < greedySpread-1e-9 {
		t.Fatalf("anneal %v below greedy %v", annealSpread, greedySpread)
	}
	// Reported spread must match a recomputation.
	if got := SpreadOf(pool, members); math.Abs(got-annealSpread) > 1e-9 {
		t.Fatalf("reported spread %v, recomputed %v", annealSpread, got)
	}
	// Members must be distinct.
	seen := map[int]bool{}
	for _, m := range members {
		if seen[m] {
			t.Fatal("duplicate member")
		}
		seen[m] = true
	}
}

func TestAnnealSpreadMatchesExactOnSmallPool(t *testing.T) {
	pool := randomPoolB(14, 23)
	idx := allIdx(14)
	exact, err := BestSpreadExhaustiveCtx(context.Background(), pool, idx, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := SpreadOf(pool, exact[4])
	_, got, err := AnnealSpreadCtx(context.Background(), pool, idx, AnnealOptions{Size: 4, Seed: 5, Steps: 50000})
	if err != nil {
		t.Fatal(err)
	}
	if got < 0.98*want {
		t.Fatalf("anneal %v below 98%% of exact %v", got, want)
	}
}

func TestAnnealSpreadDeterministic(t *testing.T) {
	pool := randomPoolB(40, 25)
	idx := allIdx(40)
	a, sa, err := AnnealSpreadCtx(context.Background(), pool, idx, AnnealOptions{Size: 6, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, sb, err := AnnealSpreadCtx(context.Background(), pool, idx, AnnealOptions{Size: 6, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if sa != sb {
		t.Fatalf("same seed different spreads: %v vs %v", sa, sb)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed different members")
		}
	}
}

func TestAnnealSpreadErrors(t *testing.T) {
	pool := randomPoolB(5, 1)
	if _, _, err := AnnealSpreadCtx(context.Background(), pool, allIdx(5), AnnealOptions{Size: 1}); err == nil {
		t.Fatal("size 1 accepted")
	}
	if _, _, err := AnnealSpreadCtx(context.Background(), pool, allIdx(5), AnnealOptions{Size: 9}); err == nil {
		t.Fatal("oversize accepted")
	}
}

func TestAnnealCoverageAtLeastGreedy(t *testing.T) {
	cov := newCov(t, 5000)
	pool := randomPoolB(40, 27)
	idx := allIdx(40)
	greedySets, err := BestCoverageGreedyCtx(context.Background(), cov, pool, idx, 5)
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]int, len(greedySets[5]))
	copy(pts, greedySets[5])
	greedyCov := coverageOfIdx(cov, pool, pts)
	members, annealCov, err := AnnealCoverageCtx(context.Background(), cov, pool, idx, AnnealOptions{Size: 5, Seed: 3, Steps: 500})
	if err != nil {
		t.Fatal(err)
	}
	if annealCov < greedyCov-1e-9 {
		t.Fatalf("anneal coverage %v below greedy %v", annealCov, greedyCov)
	}
	if got := coverageOfIdx(cov, pool, members); math.Abs(got-annealCov) > 1e-9 {
		t.Fatalf("reported %v, recomputed %v", annealCov, got)
	}
}

func coverageOfIdx(cov *CoverageEstimator, pool []behavior.Vector, idx []int) float64 {
	pts := make([]behavior.Vector, len(idx))
	for i, j := range idx {
		pts[i] = pool[j]
	}
	return cov.Coverage(pts)
}

func TestAnnealCoverageErrors(t *testing.T) {
	pool := randomPoolB(5, 1)
	if _, _, err := AnnealCoverageCtx(context.Background(), nil, pool, allIdx(5), AnnealOptions{Size: 2}); err == nil {
		t.Fatal("nil estimator accepted")
	}
	cov := newCov(t, 1000)
	if _, _, err := AnnealCoverageCtx(context.Background(), cov, pool, allIdx(5), AnnealOptions{Size: 0}); err == nil {
		t.Fatal("size 0 accepted")
	}
}
