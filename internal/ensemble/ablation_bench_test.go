package ensemble

import (
	"context"
	"math"
	"testing"

	"gcbench/internal/behavior"
)

// Ablation: incremental coverage evaluation (CoverageWith over cached min
// distances) vs. recomputing the full ensemble coverage per candidate.
// Greedy selection makes one such call per candidate per step, so this
// ratio decides whether 1M-sample coverage search is tractable.

// CoverageWith evaluates the coverage of prev ∪ {p} given prev's min
// distances: the flat-sum baseline of the ablation. The searches use
// IncrementalCoverage.evalAdd, whose per-cell sum is the canonical one.
func (c *CoverageEstimator) CoverageWith(prevMin []float64, p behavior.Vector) float64 {
	if len(c.samples) == 0 {
		return 0
	}
	var sum float64
	for i, s := range c.samples {
		d := behavior.Distance(s, p)
		if prevMin != nil && prevMin[i] < d {
			d = prevMin[i]
		}
		sum += d
	}
	if sum == 0 {
		return math.Inf(1)
	}
	return float64(len(c.samples)) / sum
}

func benchPoolAndEstimator(b *testing.B, samples int) (*CoverageEstimator, []behavior.Vector, []float64) {
	b.Helper()
	cov, err := NewCoverageEstimator(samples, 3)
	if err != nil {
		b.Fatal(err)
	}
	pool := randomPoolB(64, 5)
	base := pool[:8]
	minDist := cov.MinDistances(nil, base)
	return cov, pool, minDist
}

func randomPoolB(n int, seed uint64) []behavior.Vector {
	pool := make([]behavior.Vector, n)
	s := seed
	next := func() float64 {
		s = s*6364136223846793005 + 1442695040888963407
		return float64(s>>11) / (1 << 53)
	}
	for i := range pool {
		for d := 0; d < behavior.Dims; d++ {
			pool[i][d] = next()
		}
	}
	return pool
}

func BenchmarkCoverageWithCachedMin(b *testing.B) {
	cov, pool, minDist := benchPoolAndEstimator(b, 200_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cov.CoverageWith(minDist, pool[9+i%32])
	}
}

func BenchmarkCoverageFullRecompute(b *testing.B) {
	cov, pool, _ := benchPoolAndEstimator(b, 200_000)
	base := append([]behavior.Vector(nil), pool[:8]...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cov.Coverage(append(base, pool[9+i%32]))
	}
}

// The ISSUE's headline pair: swap evaluation through the grid-backed
// IncrementalCoverage (only affected cells rescanned) vs a full
// Monte-Carlo coverage recompute of the proposed set. This is the inner
// loop of exchange and annealing at serving-size pools (n=120, k=12).

func benchIncrementalSetup(b *testing.B, samples int) (*IncrementalCoverage, *CoverageEstimator, []behavior.Vector) {
	b.Helper()
	cov, err := NewCoverageEstimator(samples, 3)
	if err != nil {
		b.Fatal(err)
	}
	pool := randomPoolB(120, 5)
	ic, err := NewIncrementalCoverage(cov, pool[:12])
	if err != nil {
		b.Fatal(err)
	}
	return ic, cov, pool
}

func BenchmarkCoverageIncremental(b *testing.B) {
	ic, _, pool := benchIncrementalSetup(b, 200_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ic.EvalSwap(i%12, pool[12+i%108])
	}
}

func BenchmarkCoverageNaive(b *testing.B) {
	_, cov, pool := benchIncrementalSetup(b, 200_000)
	members := append([]behavior.Vector(nil), pool[:12]...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		old := members[i%12]
		members[i%12] = pool[12+i%108]
		cov.Coverage(members)
		members[i%12] = old
	}
}

// Ablation: exact subset enumeration vs greedy+exchange for best-spread.
// Exhaustive is exact but exponential; greedy+exchange is the fallback
// for the 220-run unrestricted pool.

func BenchmarkBestSpreadExhaustive20(b *testing.B) {
	pool := randomPoolB(20, 7)
	idx := make([]int, 20)
	for i := range idx {
		idx[i] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BestSpreadExhaustiveCtx(context.Background(), pool, idx, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBestSpreadGreedy220(b *testing.B) {
	pool := randomPoolB(220, 7)
	idx := make([]int, 220)
	for i := range idx {
		idx[i] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BestSpreadGreedyCtx(context.Background(), pool, idx, 10); err != nil {
			b.Fatal(err)
		}
	}
}
