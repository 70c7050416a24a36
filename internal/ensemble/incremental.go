package ensemble

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"gcbench/internal/behavior"
)

// IncrementalCoverage maintains the coverage of one evolving ensemble
// against a CoverageEstimator's sample set, re-scoring only the dirty
// subset of samples when a member is swapped or added — the coverage
// analogue of ImproveSpreadExchangeCtx's delta-scoring. It caches, per
// sample, the distances to (and positions of) the nearest AND
// second-nearest members, and per grid cell the sequential sum and max
// of those distances. Because the second-nearest distance is exactly
// "the minimum over every position except the assigned one", removing
// the assigned member never forces a rescan during evaluation: the
// proposed minimum is min(minDist2, d(s, incoming)) for samples
// assigned to the removed position and min(minDist, d(s, incoming)) for
// everyone else — one distance computation per affected sample. A
// proposal therefore touches only:
//
//   - cells holding a sample assigned to the removed position (the
//     cached sum is invalid there); and
//   - cells whose bounding box lies closer to the incoming point than
//     the cell's max min-distance, where the new point may lower some
//     samples' minima.
//
// Every other cell keeps its cached sum. Totals accumulate per cell and
// then across cells in cell order — the same canonical summation
// coverageFromMin uses — and min-of-floats is an exact, order-free
// value, so Coverage, EvalSwap, and evalAdd return results
// bit-identical to a fresh CoverageEstimator.Coverage over the same
// members (the property the differential tests in incremental_test.go
// pin).
//
// Commits are where rescans happen: a sample whose nearest or
// second-nearest was the outgoing member may need a fresh two-minima
// pass over the members to restore the cache invariant. Commit
// classification uses the per-cell second-distance counters and maxima
// (posCount2, cellMax2) so those cells are never skipped.
//
// The skip test is float-safe: boxDistance accumulates in the same
// order as behavior.Distance, and correctly-rounded operations are
// monotone, so the computed bound never exceeds the computed distance
// of any sample in the cell, and a skipped cell provably had nothing to
// improve.
//
// Eval* methods do not mutate; Swap/Add commit. The struct is not safe
// for concurrent use (it reuses internal scratch), matching the
// single-goroutine searches it serves; the internal fan-out over
// affected cells writes disjoint per-cell slots and stays deterministic.
type IncrementalCoverage struct {
	est     *CoverageEstimator
	members []behavior.Vector

	minDist  []float64 // per sample: distance to nearest member
	assign   []int32   // per sample: a member position achieving minDist (-1 if none)
	minDist2 []float64 // per sample: min distance over positions != assign (+Inf if < 2 members)
	assign2  []int32   // per sample: a position != assign achieving minDist2 (-1 if none)
	cellSum  []float64 // per cell: sequential sum of minDist over the cell
	cellMax  []float64 // per cell: max of minDist over the cell
	cellMax2 []float64 // per cell: max of minDist2 over the cell

	// posCount[c][pos] and posCount2[c][pos] count the cell's samples
	// whose nearest (resp. second-nearest) member is pos, so removal
	// dirtiness is a single lookup.
	posCount  [][]int32
	posCount2 [][]int32

	// Reusable scratch (the reason Eval* are single-goroutine).
	affected   []int // cell ids needing re-scoring this proposal
	newSum     []float64
	isAffected []bool
}

// NewIncrementalCoverage builds the cache for the given members. The
// members slice is copied. The estimator must come from
// NewCoverageEstimator (a zero-value estimator has no sample grid).
func NewIncrementalCoverage(est *CoverageEstimator, members []behavior.Vector) (*IncrementalCoverage, error) {
	if est == nil || est.numCells() == 0 {
		return nil, fmt.Errorf("ensemble: incremental coverage needs an estimator with samples")
	}
	nc := est.numCells()
	ic := &IncrementalCoverage{
		est:        est,
		minDist:    make([]float64, len(est.samples)),
		assign:     make([]int32, len(est.samples)),
		minDist2:   make([]float64, len(est.samples)),
		assign2:    make([]int32, len(est.samples)),
		cellSum:    make([]float64, nc),
		cellMax:    make([]float64, nc),
		cellMax2:   make([]float64, nc),
		posCount:   make([][]int32, nc),
		posCount2:  make([][]int32, nc),
		newSum:     make([]float64, nc),
		isAffected: make([]bool, nc),
	}
	ic.rebuild(members)
	return ic, nil
}

// rebuild makes a copy of members the ensemble and recomputes every
// cache for it, reusing the buffers: what NewIncrementalCoverage returns
// for members, without its allocations.
func (ic *IncrementalCoverage) rebuild(members []behavior.Vector) {
	ic.members = append(ic.members[:0], members...)
	for ci := range ic.posCount {
		ic.posCount[ci] = slices.Grow(ic.posCount[ci][:0], len(members))[:len(members)]
		ic.posCount2[ci] = slices.Grow(ic.posCount2[ci][:0], len(members))[:len(members)]
	}
	ic.forEachCell(allCells(len(ic.posCount)), ic.rescoreCell)
}

func allCells(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// Coverage returns the coverage of the current members, bit-identical
// to est.Coverage over a copy of them.
func (ic *IncrementalCoverage) Coverage() float64 {
	if len(ic.members) == 0 {
		return 0
	}
	return ic.finish(ic.total())
}

func (ic *IncrementalCoverage) finish(sum float64) float64 {
	n := len(ic.est.samples)
	if n == 0 {
		return 0
	}
	if sum == 0 {
		return math.Inf(1)
	}
	return float64(n) / sum
}

// twoMins computes the nearest and second-nearest members of sample i
// from scratch.
func (ic *IncrementalCoverage) twoMins(i int) (m1 float64, a1 int32, m2 float64, a2 int32) {
	m1, a1 = math.Inf(1), -1
	m2, a2 = math.Inf(1), -1
	s := ic.est.samples[i]
	for p, m := range ic.members {
		d := behavior.Distance(s, m)
		if d < m1 {
			m2, a2 = m1, a1
			m1, a1 = d, int32(p)
		} else if d < m2 {
			m2, a2 = d, int32(p)
		}
	}
	return m1, a1, m2, a2
}

// rescoreCell recomputes every cache slot of one cell against the
// current member set, writing only that cell's slots — safe to run for
// disjoint cells concurrently.
func (ic *IncrementalCoverage) rescoreCell(ci int) {
	est := ic.est
	lo, hi := est.cellStart[ci], est.cellStart[ci+1]
	pc, pc2 := ic.posCount[ci], ic.posCount2[ci]
	for p := range pc {
		pc[p], pc2[p] = 0, 0
	}
	var sum float64
	cellMax, cellMax2 := math.Inf(-1), math.Inf(-1)
	for i := lo; i < hi; i++ {
		m1, a1, m2, a2 := ic.twoMins(i)
		ic.minDist[i], ic.assign[i] = m1, a1
		ic.minDist2[i], ic.assign2[i] = m2, a2
		if a1 >= 0 {
			pc[a1]++
		}
		if a2 >= 0 {
			pc2[a2]++
		}
		sum += m1
		if m1 > cellMax {
			cellMax = m1
		}
		if m2 > cellMax2 {
			cellMax2 = m2
		}
	}
	ic.cellSum[ci], ic.cellMax[ci], ic.cellMax2[ci] = sum, cellMax, cellMax2
}

// classify fills ic.affected for a proposal that removes position
// removed (-1 for pure adds) and introduces point p. Evaluation only
// needs cells where the cached sum could change (a sample assigned to
// the removed position, or p beating a nearest distance); a commit must
// additionally repair second-nearest caches, so it widens the net to
// cells where the removed position is any sample's second-nearest or p
// beats a second distance.
func (ic *IncrementalCoverage) classify(removed int, p behavior.Vector, commit bool) {
	est := ic.est
	ic.affected = ic.affected[:0]
	for ci := 0; ci < est.numCells(); ci++ {
		lo, hi := est.cellStart[ci], est.cellStart[ci+1]
		if lo == hi {
			continue
		}
		hit := removed >= 0 && ic.posCount[ci][removed] > 0
		if commit && !hit && removed >= 0 {
			hit = ic.posCount2[ci][removed] > 0
		}
		if !hit {
			bound := ic.cellMax[ci]
			if commit {
				bound = ic.cellMax2[ci]
			}
			if est.boxDistance(ci, p) >= bound {
				continue // p cannot lower any tracked distance here
			}
		}
		ic.isAffected[ci] = true
		ic.affected = append(ic.affected, ci)
	}
}

// forEachCell runs fn over the given cells, fanning out across the
// estimator's workers when the cells hold enough samples to amortize
// goroutine startup. fn must write only its own cell's slots.
func (ic *IncrementalCoverage) forEachCell(cells []int, fn func(ci int)) {
	est := ic.est
	w := est.workers
	if w > len(cells) {
		w = len(cells)
	}
	if w <= 1 || len(est.samples) < 50_000 {
		for _, ci := range cells {
			fn(ci)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (len(cells) + w - 1) / w
	for lo := 0; lo < len(cells); lo += chunk {
		hi := lo + chunk
		if hi > len(cells) {
			hi = len(cells)
		}
		wg.Add(1)
		go func(cells []int) {
			defer wg.Done()
			for _, ci := range cells {
				fn(ci)
			}
		}(cells[lo:hi])
	}
	wg.Wait()
}

// evalCells computes, without mutating, each affected cell's would-be
// sum into ic.newSum: one distance computation per sample. removed is
// the position the proposal vacates (-1 for adds) and p its incoming
// point. For a sample assigned to the removed position, the minimum
// over the remaining members is exactly its cached second distance.
//
// This loop is ≈ all of a coverage search, so it is written for the
// compiler: the cell's slices are cut to one length up front (no bounds
// checks inside), p's coordinates live in locals, the squared distance
// accumulates in behavior.Distance's dimension order (0 + x is exact, so
// the bits are Distance's), and the fold is the builtin min — branch-free
// on amd64/arm64 and equal to `if d < v` because distances are never NaN
// or -0. For an add, removed is -1, which matches only the -1 an empty
// ensemble assigns — and there both cached distances are +Inf.
func (ic *IncrementalCoverage) evalCells(removed int, p behavior.Vector) {
	est := ic.est
	rm := int32(removed)
	p0, p1, p2, p3 := p[0], p[1], p[2], p[3]
	ic.forEachCell(ic.affected, func(ci int) {
		lo, hi := est.cellStart[ci], est.cellStart[ci+1]
		samples := est.samples[lo:hi]
		minDist := ic.minDist[lo:hi][:len(samples)]
		minDist2 := ic.minDist2[lo:hi][:len(samples)]
		assign := ic.assign[lo:hi][:len(samples)]
		var sum float64
		for i := range samples {
			s := &samples[i]
			d0, d1, d2, d3 := s[0]-p0, s[1]-p1, s[2]-p2, s[3]-p3
			q := d0 * d0
			q += d1 * d1
			q += d2 * d2
			q += d3 * d3
			v := minDist[i]
			if assign[i] == rm {
				v = minDist2[i]
			}
			sum += min(v, math.Sqrt(q))
		}
		ic.newSum[ci] = sum
	})
}

// total sums cached and proposed cell sums across all cells in cell
// order — the canonical accumulation shared with coverageFromMin.
func (ic *IncrementalCoverage) total() float64 {
	var sum float64
	for ci, s := range ic.cellSum {
		if ic.isAffected[ci] {
			s = ic.newSum[ci]
		}
		sum += s
	}
	return sum
}

// reset clears the per-proposal scratch marks.
func (ic *IncrementalCoverage) reset() {
	for _, ci := range ic.affected {
		ic.isAffected[ci] = false
	}
}

// EvalSwap returns the coverage the ensemble would have with
// members[pos] replaced by p, bit-identical to a fresh
// est.Coverage(swapped members). No state is mutated.
func (ic *IncrementalCoverage) EvalSwap(pos int, p behavior.Vector) float64 {
	ic.classify(pos, p, false)
	ic.evalCells(pos, p)
	sum := ic.total()
	ic.reset()
	return ic.finish(sum)
}

// Swap commits: members[pos] = p, re-scoring only the affected cells,
// and returns the new coverage.
func (ic *IncrementalCoverage) Swap(pos int, p behavior.Vector) float64 {
	ic.classify(pos, p, true)
	ic.members[pos] = p
	ic.commitCells(pos, true, p)
	ic.reset()
	return ic.Coverage()
}

// evalAdd returns the sample-distance total the ensemble would have with
// p appended; finish turns it into the coverage, bit-identical to a fresh
// est.Coverage(members+p). No state is mutated.
func (ic *IncrementalCoverage) evalAdd(p behavior.Vector) float64 {
	ic.classify(-1, p, false)
	ic.evalCells(-1, p)
	sum := ic.total()
	ic.reset()
	return sum
}

// Add commits: appends p as a new member, re-scoring only the affected
// cells, and returns the new coverage.
func (ic *IncrementalCoverage) Add(p behavior.Vector) float64 {
	ic.classify(-1, p, true)
	pos := len(ic.members)
	ic.members = append(ic.members, p)
	for ci := range ic.posCount {
		ic.posCount[ci] = append(ic.posCount[ci], 0)
		ic.posCount2[ci] = append(ic.posCount2[ci], 0)
	}
	ic.commitCells(pos, false, p)
	ic.reset()
	return ic.Coverage()
}

// commitCells updates the caches of every affected cell for the
// committed member set, where incoming is the position now holding the
// new point p (for swaps that position is also the removed one). Most
// samples update in O(1) from the cached pair; only a sample whose
// nearest or second-nearest was the outgoing member — and whose new
// pair the cache cannot determine — pays a fresh two-minima rescan.
func (ic *IncrementalCoverage) commitCells(incoming int, swapped bool, p behavior.Vector) {
	est := ic.est
	in := int32(incoming)
	ic.forEachCell(ic.affected, func(ci int) {
		lo, hi := est.cellStart[ci], est.cellStart[ci+1]
		pc, pc2 := ic.posCount[ci], ic.posCount2[ci]
		var sum float64
		cellMax, cellMax2 := math.Inf(-1), math.Inf(-1)
		for i := lo; i < hi; i++ {
			m1, a1 := ic.minDist[i], ic.assign[i]
			m2, a2 := ic.minDist2[i], ic.assign2[i]
			d := behavior.Distance(est.samples[i], p)
			switch {
			case swapped && a1 == in:
				// Nearest member was replaced: the min over the others is
				// exactly m2. If p beats it, p is the new nearest and the
				// runner-up set is unchanged; otherwise the cache cannot
				// name the new runner-up — rescan.
				if d < m2 {
					m1 = d // a1 stays == in
				} else {
					m1, a1, m2, a2 = ic.twoMins(i)
				}
			case swapped && a2 == in:
				// Second-nearest was replaced. If p beats the nearest, the
				// old nearest becomes the runner-up; otherwise the new
				// runner-up is unknowable from the cache — rescan.
				if d < m1 {
					m2, a2 = m1, a1
					m1, a1 = d, in
				} else {
					m1, a1, m2, a2 = ic.twoMins(i)
				}
			default:
				// Both cached positions survive; p can only displace them.
				if d < m1 {
					m2, a2 = m1, a1
					m1, a1 = d, in
				} else if d < m2 {
					m2, a2 = d, in
				}
			}
			if old := ic.assign[i]; old != a1 {
				if old >= 0 {
					pc[old]--
				}
				if a1 >= 0 {
					pc[a1]++
				}
				ic.assign[i] = a1
			}
			if old := ic.assign2[i]; old != a2 {
				if old >= 0 {
					pc2[old]--
				}
				if a2 >= 0 {
					pc2[a2]++
				}
				ic.assign2[i] = a2
			}
			ic.minDist[i], ic.minDist2[i] = m1, m2
			sum += m1
			if m1 > cellMax {
				cellMax = m1
			}
			if m2 > cellMax2 {
				cellMax2 = m2
			}
		}
		ic.cellSum[ci], ic.cellMax[ci], ic.cellMax2[ci] = sum, cellMax, cellMax2
	})
}
