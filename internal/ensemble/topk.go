package ensemble

import (
	"context"
	"fmt"
	"sort"

	"gcbench/internal/behavior"
	"gcbench/internal/rng"
)

// Scored is an ensemble (pool indices, sorted) with its metric value.
type Scored struct {
	Members []int
	Score   float64
}

// Metric selects the objective of a top-K enumeration.
type Metric int

const (
	// MetricSpread ranks ensembles by Spread.
	MetricSpread Metric = iota
	// MetricCoverage ranks ensembles by Coverage.
	MetricCoverage
)

func (m Metric) String() string {
	if m == MetricCoverage {
		return "coverage"
	}
	return "spread"
}

// TopKOptions configures TopEnsemblesCtx.
type TopKOptions struct {
	// Size is the ensemble size to enumerate (the paper uses the 100 best
	// ensembles of each size n, §5.5).
	Size int
	// K is how many top ensembles to return (default 100).
	K int
	// BeamWidth bounds the partial-ensemble frontier per size step
	// (default 2000). Wider beams approach exact enumeration.
	BeamWidth int
	// Cov is required for MetricCoverage.
	Cov *CoverageEstimator
}

// TopEnsemblesCtx enumerates (approximately, by beam search) the K best
// ensembles of the given size from pool[idx] under the chosen metric —
// the input to the §5.5 "frequency of appearance" diversity analysis.
// To minimize the shadowing the paper worries about, the beam keeps many
// more partials than K. ctx is checked before each frontier partial's
// extension (coverage scoring makes one Monte-Carlo pass per extension,
// so that is the step granularity).
func TopEnsemblesCtx(ctx context.Context, metric Metric, pool []behavior.Vector, idx []int, opt TopKOptions) ([]Scored, error) {
	if opt.Size < 1 {
		return nil, fmt.Errorf("ensemble: top-K size must be positive, got %d", opt.Size)
	}
	if opt.Size > len(idx) {
		return nil, fmt.Errorf("ensemble: size %d exceeds pool %d", opt.Size, len(idx))
	}
	k := opt.K
	if k == 0 {
		k = 100
	}
	beam := opt.BeamWidth
	if beam == 0 {
		beam = 2000
	}
	if beam < k {
		beam = k
	}
	if metric == MetricCoverage && opt.Cov == nil {
		return nil, fmt.Errorf("ensemble: coverage metric needs a CoverageEstimator")
	}

	// Beam state: partial ensembles as sorted index slices, deduplicated
	// by requiring strictly increasing positions (combination order), so
	// no dedup map is needed: extend only with candidates after the last.
	type partial struct {
		members []int // positions into idx, increasing
		score   float64
	}
	frontier := make([]partial, 0, len(idx))
	for p := range idx {
		frontier = append(frontier, partial{members: []int{p}})
	}
	scoreOf := func(members []int) float64 {
		pts := make([]behavior.Vector, len(members))
		for i, p := range members {
			pts[i] = pool[idx[p]]
		}
		if metric == MetricSpread {
			return Spread(pts)
		}
		return opt.Cov.Coverage(pts)
	}

	for size := 2; size <= opt.Size; size++ {
		var next []partial
		for _, f := range frontier {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			last := f.members[len(f.members)-1]
			for p := last + 1; p < len(idx); p++ {
				m := append(append([]int(nil), f.members...), p)
				next = append(next, partial{members: m, score: scoreOf(m)})
			}
		}
		sort.Slice(next, func(i, j int) bool { return next[i].score > next[j].score })
		if len(next) > beam {
			next = next[:beam]
		}
		frontier = next
		if len(frontier) == 0 {
			break
		}
	}
	// Score singletons if Size == 1.
	if opt.Size == 1 {
		for i := range frontier {
			frontier[i].score = scoreOf(frontier[i].members)
		}
		sort.Slice(frontier, func(i, j int) bool { return frontier[i].score > frontier[j].score })
	}
	if len(frontier) > k {
		frontier = frontier[:k]
	}
	out := make([]Scored, len(frontier))
	for i, f := range frontier {
		members := make([]int, len(f.members))
		for j, p := range f.members {
			members[j] = idx[p]
		}
		sort.Ints(members)
		out[i] = Scored{Members: members, Score: f.score}
	}
	return out, nil
}

// Frequency counts how often each key (e.g. algorithm name) appears across
// the top ensembles — Figures 20 and 21.
func Frequency(tops []Scored, keyOf func(runIdx int) string) map[string]int {
	freq := make(map[string]int)
	for _, t := range tops {
		for _, m := range t.Members {
			freq[keyOf(m)]++
		}
	}
	return freq
}

// UpperBoundPool generates a synthetic candidate cloud for the empirical
// upper bounds of Figures 14-19: the 16 hypercube corners (the most
// dispersed points available) plus uniformly random fill.
func UpperBoundPool(extra int, seed uint64) []behavior.Vector {
	var pts []behavior.Vector
	for mask := 0; mask < 1<<behavior.Dims; mask++ {
		var v behavior.Vector
		for d := 0; d < behavior.Dims; d++ {
			if mask&(1<<d) != 0 {
				v[d] = 1
			}
		}
		pts = append(pts, v)
	}
	r := rng.New(seed)
	for i := 0; i < extra; i++ {
		var v behavior.Vector
		for d := 0; d < behavior.Dims; d++ {
			v[d] = r.Float64()
		}
		pts = append(pts, v)
	}
	return pts
}

// UpperBoundSpread returns the empirical spread upper bound for each
// ensemble size 1..maxSize, "computed assuming ensemble members uniformly
// and maximally distributed in the behavior space" — here by optimizing
// member placement over a corner-seeded candidate cloud.
func UpperBoundSpread(maxSize int, seed uint64) []float64 {
	pool := UpperBoundPool(512, seed)
	idx := make([]int, len(pool))
	for i := range idx {
		idx[i] = i
	}
	// Without a deadline or cancellation the search cannot fail.
	sets, _ := BestSpreadGreedyCtx(context.TODO(), pool, idx, maxSize)
	out := make([]float64, maxSize+1)
	for k := 1; k <= maxSize && k < len(sets); k++ {
		if sets[k] != nil {
			out[k] = SpreadOf(pool, sets[k])
		}
	}
	return out
}

// UpperBoundCoverage returns the empirical coverage upper bound per size:
// greedy k-median placement over a corner-seeded candidate cloud, refined
// by Lloyd iterations over the estimator's sample cloud so the centers are
// continuously optimized rather than pool-restricted.
func UpperBoundCoverage(cov *CoverageEstimator, maxSize int, seed uint64) []float64 {
	pool := UpperBoundPool(512, seed)
	idx := make([]int, len(pool))
	for i := range idx {
		idx[i] = i
	}
	// Without a deadline or cancellation the search cannot fail.
	sets, _ := BestCoverageGreedyCtx(context.TODO(), cov, pool, idx, maxSize)
	out := make([]float64, maxSize+1)
	for k := 1; k <= maxSize && k < len(sets); k++ {
		if sets[k] == nil {
			continue
		}
		pts := make([]behavior.Vector, len(sets[k]))
		for i, j := range sets[k] {
			pts[i] = pool[j]
		}
		out[k] = cov.Coverage(cov.LloydRefine(pts, 25))
	}
	return out
}
