// Package ensemble implements the paper's ensemble methodology (§5): an
// ensemble is a set of graph computations, and its quality as a benchmark
// suite is quantified by two metrics over the behavior space —
//
//   - Spread: the mean pairwise Euclidean distance between members
//     ("dispersion"; higher is better, §5.1);
//   - Coverage: how close a uniformly random point of the space is, on
//     average, to its nearest member, reported as the reciprocal of that
//     mean minimum distance so that thorough sampling scores higher and
//     the values match the paper's magnitudes (≈4 at 20 well-spread
//     members; see DESIGN.md §2 for why the reciprocal reading is the
//     consistent one).
//
// The package also provides the ensemble searches behind Figures 14-23 and
// Table 3: exhaustive subset search for small pools, greedy construction
// with pairwise-exchange refinement for the unrestricted 215-run corpus,
// beam-searched top-K enumeration for the §5.5 frequency analysis, and
// empirical upper bounds from maximally dispersed synthetic point sets.
package ensemble

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"gcbench/internal/behavior"
	"gcbench/internal/rng"
)

// Spread returns the mean pairwise distance of the given points (§5.1).
// Ensembles with fewer than two members (including nil and singleton
// inputs) have zero spread by definition — no pairs, no dispersion —
// never NaN from the 0/0 pair mean.
func Spread(points []behavior.Vector) float64 {
	n := len(points)
	if n < 2 {
		return 0
	}
	var sum float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			sum += behavior.Distance(points[i], points[j])
		}
	}
	// Mean over ordered pairs N(N-1) equals mean over unordered pairs.
	return sum / (float64(n) * float64(n-1) / 2)
}

// SpreadOf evaluates Spread over pool[idx].
func SpreadOf(pool []behavior.Vector, idx []int) float64 {
	pts := make([]behavior.Vector, len(idx))
	for i, j := range idx {
		pts[i] = pool[j]
	}
	return Spread(pts)
}

// CoverageEstimator Monte-Carlo-samples the unit behavior hypercube once
// and reuses the sample set for every coverage evaluation, so comparisons
// between ensembles are exact (same sample noise) and incremental greedy
// selection is cheap. The paper uses one million samples (§5.1).
//
// The samples are stored grouped by a uniform grid over the hypercube
// (grid cells per axis, cell-major order, original draw order preserved
// within each cell). The grid is what makes IncrementalCoverage's
// dirty-cell rescoring possible: a member swap touches only the cells
// whose samples it could affect, and each cell carries a tight bounding
// box (cellLo/cellHi, from the actual sample coordinates) so whole cells
// are skipped by a single box-distance test. Coverage totals are always
// accumulated per cell and then across cells in cell order — the
// canonical summation both the fresh and incremental paths share, which
// is what makes them bit-identical (see DESIGN.md §13).
//
// A second, finer grid serves bounds only (lowerTotal): per non-empty
// cell, its sample count and tight box. Nothing is summed over it, so it
// leaves the canonical order and every coverage bit alone.
//
// The estimator also keeps a table of two-member totals (pairTable),
// which the greedy coverage search reads in its first two rounds, so
// searches over restrictions of one pool share that work. An estimator
// is safe for concurrent use: the samples and grids are read-only after
// construction and the table has its own lock.
type CoverageEstimator struct {
	samples []behavior.Vector
	workers int
	// grid is the number of cells per axis (≥1). cellStart has
	// numCells+1 entries; samples[cellStart[c]:cellStart[c+1]] is cell c.
	grid      int
	cellStart []int
	cellLo    []behavior.Vector
	cellHi    []behavior.Vector
	// boundN[f] samples lie in the box boundLo[f]..boundHi[f]: the
	// non-empty cells of the bound grid (boundResolution per axis).
	boundN  []float64
	boundLo []behavior.Vector
	boundHi []behavior.Vector
	// pairs holds the totals of the ensembles {a, b} and {p}.
	pairs pairTable
}

// DefaultSamples matches the paper's sample count.
const DefaultSamples = 1_000_000

// gridResolution picks cells-per-axis so a cell holds ≥256 samples on
// average (enough to amortize the per-cell box test), capped at 10 per
// axis. Below 4096 samples the grid degenerates to a single cell and the
// estimator behaves exactly like the historical flat implementation.
func gridResolution(numSamples int) int { return cellsPerAxis(numSamples, 256) }

// boundResolution picks the bound grid's cells-per-axis so a cell holds
// ≥8 samples on average, capped at 10 per axis: 5 at 10⁴ samples, 10
// from 80 000. A finer grid gives tighter boxes; a bound costs one box
// distance per cell, against one distance per sample for the total it
// bounds.
func boundResolution(numSamples int) int { return cellsPerAxis(numSamples, 8) }

// cellsPerAxis is the largest g ≤ 10 whose g⁴ cells average at least
// perCell samples (1 when even one cell cannot).
func cellsPerAxis(numSamples, perCell int) int {
	g := 1
	for g < 10 && (g+1)*(g+1)*(g+1)*(g+1)*perCell <= numSamples {
		g++
	}
	return g
}

// NewCoverageEstimator draws numSamples uniform points with a fixed seed.
func NewCoverageEstimator(numSamples int, seed uint64) (*CoverageEstimator, error) {
	if numSamples <= 0 {
		return nil, fmt.Errorf("ensemble: need a positive sample count, got %d", numSamples)
	}
	r := rng.New(seed)
	samples := make([]behavior.Vector, numSamples)
	for i := range samples {
		for d := 0; d < behavior.Dims; d++ {
			samples[i][d] = r.Float64()
		}
	}
	c := &CoverageEstimator{samples: samples, workers: runtime.GOMAXPROCS(0)}
	c.buildGrid(gridResolution(numSamples))
	c.buildBounds(boundResolution(numSamples))
	return c, nil
}

// cellOf buckets a point into its cell id (dim-major) on a grid of g
// cells per axis.
func cellOf(s behavior.Vector, g int) int {
	id := 0
	for d := 0; d < behavior.Dims; d++ {
		b := int(s[d] * float64(g))
		if b >= g {
			b = g - 1
		}
		if b < 0 {
			b = 0
		}
		id = id*g + b
	}
	return id
}

// cellBoxes returns, per cell of a grid of g cells per axis, the
// estimator's sample count and the samples' tight bounding box (+Inf to
// -Inf on every axis for an empty cell).
func (c *CoverageEstimator) cellBoxes(g int) (counts []int, lo, hi []behavior.Vector) {
	numCells := g * g * g * g
	counts = make([]int, numCells)
	lo = make([]behavior.Vector, numCells)
	hi = make([]behavior.Vector, numCells)
	for ci := range lo {
		for d := 0; d < behavior.Dims; d++ {
			lo[ci][d], hi[ci][d] = math.Inf(1), math.Inf(-1)
		}
	}
	for _, s := range c.samples {
		ci := cellOf(s, g)
		counts[ci]++
		for d := 0; d < behavior.Dims; d++ {
			lo[ci][d] = min(lo[ci][d], s[d])
			hi[ci][d] = max(hi[ci][d], s[d])
		}
	}
	return counts, lo, hi
}

// buildGrid regroups the samples cell-major (stable: draw order is kept
// within each cell) and computes per-cell tight bounding boxes.
func (c *CoverageEstimator) buildGrid(g int) {
	c.grid = g
	counts, lo, hi := c.cellBoxes(g)
	numCells := len(counts)
	c.cellStart = make([]int, numCells+1)
	for ci := 0; ci < numCells; ci++ {
		c.cellStart[ci+1] = c.cellStart[ci] + counts[ci]
	}
	ordered := make([]behavior.Vector, len(c.samples))
	next := append([]int(nil), c.cellStart[:numCells]...)
	for _, s := range c.samples {
		ci := cellOf(s, g)
		ordered[next[ci]] = s
		next[ci]++
	}
	c.samples = ordered
	c.cellLo, c.cellHi = lo, hi
}

// buildBounds keeps the non-empty cells of a grid of g cells per axis
// as the bound grid lowerTotal reads.
func (c *CoverageEstimator) buildBounds(g int) {
	counts, lo, hi := c.cellBoxes(g)
	for ci, n := range counts {
		if n > 0 {
			c.boundN = append(c.boundN, float64(n))
			c.boundLo = append(c.boundLo, lo[ci])
			c.boundHi = append(c.boundHi, hi[ci])
		}
	}
}

// numCells returns the grid cell count (0 for a zero-value estimator,
// which has no grid and falls back to flat summation).
func (c *CoverageEstimator) numCells() int {
	if len(c.cellStart) == 0 {
		return 0
	}
	return len(c.cellStart) - 1
}

// boxDistance returns a lower bound on the distance from p to any sample
// in cell ci, computed with the same dimension-order accumulation and
// square root as behavior.Distance. Monotonicity of correctly-rounded
// float operations makes the computed bound ≤ the computed
// behavior.Distance of every sample in the box, so comparisons against
// it never wrongly skip a cell.
func (c *CoverageEstimator) boxDistance(ci int, p behavior.Vector) float64 {
	return boxDist(&c.cellLo[ci], &c.cellHi[ci], p)
}

// boxDist is the distance from p to the box lo..hi, accumulated like
// behavior.Distance (see boxDistance).
func boxDist(lo, hi *behavior.Vector, p behavior.Vector) float64 {
	var s float64
	for d := 0; d < behavior.Dims; d++ {
		var diff float64
		if p[d] < lo[d] {
			diff = lo[d] - p[d]
		} else if p[d] > hi[d] {
			diff = p[d] - hi[d]
		}
		s += diff * diff
	}
	return math.Sqrt(s)
}

// lowerTotal returns a lower bound on the sample-distance total of the
// one-member ensemble {p} — what IncrementalCoverage.evalAdd(p) returns
// on an empty ensemble — from the bound grid alone: Σ_f n_f ·
// boxDist(f, p), less roundingSlack. Every sample of cell f is at
// computed distance ≥ boxDist(f, p) (see boxDistance), so the bound
// holds in real arithmetic; the slack covers the rounding of both float
// sums (at most NS terms each), so it holds for the computed totals too.
func (c *CoverageEstimator) lowerTotal(p behavior.Vector) float64 {
	var sum float64
	for f, n := range c.boundN {
		sum += n * boxDist(&c.boundLo[f], &c.boundHi[f], p)
	}
	return sum - c.roundingSlack(sum)
}

// roundingSlack is 4·NS·2⁻⁵³·total: twice the worst-case rounding error
// of two float sums of NS non-negative terms that come to about total.
// Bounds that relate two computed totals give up this much.
func (c *CoverageEstimator) roundingSlack(total float64) float64 {
	return 4 * float64(len(c.samples)) * 0x1p-53 * total
}

// NumSamples returns the sample count.
func (c *CoverageEstimator) NumSamples() int { return len(c.samples) }

// Coverage returns NS / Σ min-distance for the ensemble — the reciprocal
// of the mean distance from a random behavior point to its nearest member.
// An empty ensemble covers nothing and scores a defined 0 (every sample's
// nearest-member distance is unbounded), never NaN or a division panic.
func (c *CoverageEstimator) Coverage(points []behavior.Vector) float64 {
	if len(points) == 0 {
		return 0
	}
	minDist := c.MinDistances(points)
	return c.coverageFromMin(minDist)
}

func (c *CoverageEstimator) coverageFromMin(minDist []float64) float64 {
	// No samples means no evidence either way; report 0 rather than the
	// 0/0 NaN the bare formula would produce.
	if len(minDist) == 0 {
		return 0
	}
	// Canonical summation: per-cell sequential sums, then a sequential
	// sum across cells in cell order. IncrementalCoverage caches the
	// per-cell sums and reproduces this exact accumulation, which is what
	// makes the fast path bit-identical to this fresh one. With one cell
	// (small estimators, zero-value estimators) this is the historical
	// flat sum.
	var sum float64
	if nc := c.numCells(); nc > 1 && len(minDist) == len(c.samples) {
		for ci := 0; ci < nc; ci++ {
			var cellSum float64
			for _, d := range minDist[c.cellStart[ci]:c.cellStart[ci+1]] {
				cellSum += d
			}
			sum += cellSum
		}
	} else {
		for _, d := range minDist {
			sum += d
		}
	}
	if sum == 0 {
		return math.Inf(1)
	}
	return float64(len(minDist)) / sum
}

// MinDistances returns, per sample, the distance to the nearest of the
// given points.
func (c *CoverageEstimator) MinDistances(points []behavior.Vector) []float64 {
	out := make([]float64, len(c.samples))
	for i := range out {
		out[i] = math.Inf(1)
	}
	c.parallelSamples(func(lo, hi int) {
		for i := lo; i < hi; i++ {
			best := out[i]
			for _, p := range points {
				if d := behavior.Distance(c.samples[i], p); d < best {
					best = d
				}
			}
			out[i] = best
		}
	})
	return out
}

// LloydRefine improves a set of coverage centers by Lloyd iterations on
// the estimator's own sample cloud: each sample joins its nearest center,
// centers move to their cluster means, and the best configuration seen
// (by coverage) is returned. Because the centers move continuously rather
// than being restricted to a candidate pool, the result upper-bounds any
// pool-restricted ensemble of the same size in practice — which is what
// the paper's empirical coverage upper bound requires.
func (c *CoverageEstimator) LloydRefine(centers []behavior.Vector, iters int) []behavior.Vector {
	if len(centers) == 0 {
		return nil
	}
	cur := append([]behavior.Vector(nil), centers...)
	best := append([]behavior.Vector(nil), centers...)
	bestCov := c.Coverage(cur)
	k := len(cur)
	for it := 0; it < iters; it++ {
		sums := make([]behavior.Vector, k)
		counts := make([]float64, k)
		for _, s := range c.samples {
			nearest, nd := 0, math.Inf(1)
			for j, p := range cur {
				if d := behavior.Distance(s, p); d < nd {
					nd, nearest = d, j
				}
			}
			for d := 0; d < behavior.Dims; d++ {
				sums[nearest][d] += s[d]
			}
			counts[nearest]++
		}
		for j := 0; j < k; j++ {
			if counts[j] == 0 {
				continue
			}
			for d := 0; d < behavior.Dims; d++ {
				cur[j][d] = sums[j][d] / counts[j]
			}
		}
		if cov := c.Coverage(cur); cov > bestCov {
			bestCov = cov
			copy(best, cur)
		}
	}
	return best
}

func (c *CoverageEstimator) parallelSamples(fn func(lo, hi int)) {
	n := len(c.samples)
	w := c.workers
	if w > n {
		w = n
	}
	// Below ~50k samples goroutine fan-out costs more than it saves.
	if w <= 1 || n < 50_000 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + w - 1) / w
	for lo := 0; lo < n; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, min(lo+chunk, n))
	}
	wg.Wait()
}
