package ensemble

import (
	"cmp"
	"context"
	"fmt"
	"slices"
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
// extensions are scored (coverage rebuilds its incremental cache over
// every sample once per partial, so that is the step granularity).
//
// Partials are sets of positions into idx, listed in increasing order,
// and a partial is extended only by positions after its last, so no set
// is reached twice. Level 1 keeps every singleton; each later level keeps
// the BeamWidth best extensions of the level before (the last level K).
// Ensembles rank by score descending (a NaN score last), then by their
// positions into idx in lexicographic order, and the result is in that
// order. The search holds O(BeamWidth × Size + len(idx)) values at a
// time, plus one IncrementalCoverage for coverage: each extension is
// scored as it is made and offered to a bounded heap of the level's best.
// Spread reuses the partial's pair distances and allocates nothing per
// extension; coverage rebuilds the IncrementalCoverage for each partial
// and scores an extension with evalAdd. Scores are bit-identical to
// Spread and Coverage of the ensemble's points in position order.
func TopEnsemblesCtx(ctx context.Context, metric Metric, pool []behavior.Vector, idx []int, opt TopKOptions) ([]Scored, error) {
	if opt.Size < 1 {
		return nil, fmt.Errorf("ensemble: top-K size must be positive, got %d", opt.Size)
	}
	if opt.Size > len(idx) {
		return nil, fmt.Errorf("ensemble: size %d exceeds pool %d", opt.Size, len(idx))
	}
	if opt.K < 0 {
		return nil, fmt.Errorf("ensemble: top-K count must be ≥ 0, got %d", opt.K)
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
	var ic *IncrementalCoverage // coverage: the frontier partial's cache
	if metric == MetricCoverage {
		if opt.Cov == nil {
			return nil, fmt.Errorf("ensemble: coverage metric needs a CoverageEstimator")
		}
		var err error
		if ic, err = NewIncrementalCoverage(opt.Cov, nil); err != nil {
			return nil, err
		}
	}

	n := len(idx)
	pts := make([]behavior.Vector, opt.Size)         // the ensemble being scored
	pairs := make([]float64, 0, opt.Size*opt.Size/2) // spread: the partial's pair distances
	lv := beamLevel{count: 1}                        // the frontier is the empty partial
	for size := 1; ; size++ {
		w := lv.width
		limit := beam
		if size == opt.Size {
			limit = k
		}
		// Singletons seed a longer search unscored and unpruned.
		ranked := size > 1 || opt.Size == 1
		if !ranked {
			limit = n
		}
		children := 0
		for r := 0; r < lv.count; r++ {
			children += n - lv.start(r)
		}
		lv.heap = make([]beamEntry, 0, min(limit, children))
		for r := 0; r < lv.count; r++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			for i, p := range lv.row(r) {
				pts[i] = pool[idx[p]]
			}
			switch {
			case !ranked:
			case metric == MetricSpread:
				pairs = pairs[:0]
				for i := 0; i < w; i++ {
					for j := i + 1; j < w; j++ {
						pairs = append(pairs, behavior.Distance(pts[i], pts[j]))
					}
				}
			default:
				ic.rebuild(pts[:w])
			}
			for p := lv.start(r); p < n; p++ {
				pts[w] = pool[idx[p]]
				e := beamEntry{parent: int32(r), pos: int32(p)}
				switch {
				case !ranked:
				case metric == MetricSpread:
					e.score = spreadExtended(pts[:size], pairs)
				default:
					e.score = ic.finish(ic.evalAdd(pts[w]))
				}
				lv.offer(e, limit)
			}
		}
		best := lv.heap
		slices.SortFunc(best, func(a, b beamEntry) int {
			if lv.better(a, b) {
				return -1
			}
			if lv.better(b, a) {
				return 1
			}
			return 0
		})
		if size == opt.Size {
			return lv.scored(best, idx), nil
		}
		next := make([]int32, 0, len(best)*(w+1))
		for _, e := range best {
			next = append(append(next, lv.row(int(e.parent))...), e.pos)
		}
		lv = beamLevel{rows: next, width: w + 1, count: len(best)}
	}
}

// spreadExtended is Spread(pts) when pairs holds the distances between
// pts[:len(pts)-1] in Spread's i<j order: it adds the same distances in
// the same order, computing only those to the last point.
func spreadExtended(pts []behavior.Vector, pairs []float64) float64 {
	n := len(pts)
	if n < 2 {
		return 0
	}
	last := pts[n-1]
	var sum float64
	at := 0
	for i := 0; i < n-1; i++ {
		for j := i + 1; j < n-1; j++ {
			sum += pairs[at]
			at++
		}
		sum += behavior.Distance(pts[i], last)
	}
	return sum / (float64(n) * float64(n-1) / 2)
}

// beamEntry is one extension of a frontier partial: the partial in
// frontier row parent, then position pos.
type beamEntry struct {
	score  float64
	parent int32
	pos    int32
}

// beamLevel is one level of the beam: the frontier it extends, count
// rows of width positions each, and a heap of the best extensions
// offered so far, the worst at the root.
type beamLevel struct {
	rows         []int32
	width, count int
	heap         []beamEntry
}

// row returns frontier row r's positions.
func (l *beamLevel) row(r int) []int32 { return l.rows[r*l.width : (r+1)*l.width] }

// start is the first position that extends frontier row r.
func (l *beamLevel) start(r int) int {
	if l.width == 0 {
		return 0
	}
	return int(l.rows[(r+1)*l.width-1]) + 1
}

// scored returns the ensembles of entries as pool indices, each sorted.
func (l *beamLevel) scored(entries []beamEntry, idx []int) []Scored {
	size := l.width + 1
	out := make([]Scored, len(entries))
	members := make([]int, len(entries)*size)
	for i, e := range entries {
		m := members[i*size : (i+1)*size : (i+1)*size]
		for j, p := range l.row(int(e.parent)) {
			m[j] = idx[p]
		}
		m[l.width] = idx[e.pos]
		sort.Ints(m)
		out[i] = Scored{Members: m, Score: e.score}
	}
	return out
}

// better reports whether a ranks before b: a higher score, then the
// lexicographically smaller positions. No two entries of a level hold the
// same positions, so this is a strict total order.
func (l *beamLevel) better(a, b beamEntry) bool {
	if c := cmp.Compare(a.score, b.score); c != 0 {
		return c > 0
	}
	if c := slices.Compare(l.row(int(a.parent)), l.row(int(b.parent))); c != 0 {
		return c < 0
	}
	return a.pos < b.pos
}

// offer keeps e if it is among the limit best entries offered so far.
// Most entries of a level score below a full heap's root; that test is
// kept small enough to inline.
func (l *beamLevel) offer(e beamEntry, limit int) {
	if len(l.heap) == limit && e.score < l.heap[0].score {
		return
	}
	l.push(e, limit)
}

// push is offer past the score test.
func (l *beamLevel) push(e beamEntry, limit int) {
	h := l.heap
	if len(h) < limit {
		h = append(h, e)
		for i := len(h) - 1; i > 0; {
			up := (i - 1) / 2
			if !l.better(h[up], h[i]) {
				break
			}
			h[up], h[i] = h[i], h[up]
			i = up
		}
		l.heap = h
		return
	}
	if !l.better(e, h[0]) {
		return
	}
	h[0] = e
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && l.better(h[c], h[c+1]) {
			c++
		}
		if !l.better(h[i], h[c]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
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
