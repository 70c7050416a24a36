package ensemble

import (
	"context"
	"fmt"
	"math"

	"gcbench/internal/behavior"
	"gcbench/internal/rng"
)

// Simulated-annealing ensemble design — a stronger optimizer for the §7
// question "can we design optimal ensembles?". Greedy+exchange stops at
// the first local optimum; annealing accepts occasional worsening swaps
// and escapes it. Spread proposals are evaluated in O(k) via the pairwise
// sum delta; coverage proposals need a full Monte-Carlo evaluation, so
// coverage annealing should use a moderate sample count.

// AnnealOptions configures the annealing schedule.
type AnnealOptions struct {
	// Size is the ensemble size to design.
	Size int
	// Steps is the number of proposal steps (default 20000 for spread,
	// 2000 for coverage).
	Steps int
	// Seed selects the proposal stream.
	Seed uint64
}

// annealInitTemp is the initial temperature relative to the objective
// scale; it cools linearly to zero over the schedule.
const annealInitTemp = 0.1

// annealCancelStride is how many cheap (O(k)) spread proposals run
// between cancellation checks; coverage proposals check every step
// because each one is a full Monte-Carlo pass.
const annealCancelStride = 64

// AnnealSpreadCtx searches for a maximum-spread ensemble of the given
// size from pool[idx], seeded by the greedy solution. Returns the best
// member set found and its spread. ctx is checked every
// annealCancelStride proposal steps.
func AnnealSpreadCtx(ctx context.Context, pool []behavior.Vector, idx []int, opt AnnealOptions) ([]int, float64, error) {
	if opt.Size < 2 {
		return nil, 0, fmt.Errorf("ensemble: annealing needs size ≥ 2, got %d", opt.Size)
	}
	if opt.Size > len(idx) {
		return nil, 0, fmt.Errorf("ensemble: size %d exceeds pool %d", opt.Size, len(idx))
	}
	steps := opt.Steps
	if steps == 0 {
		steps = 20000
	}
	r := rng.New(opt.Seed ^ 0xa11ea1)

	// Seed with greedy+exchange.
	seedSets, err := BestSpreadGreedyCtx(ctx, pool, idx, opt.Size)
	if err != nil {
		return nil, 0, err
	}
	cur := append([]int(nil), seedSets[opt.Size]...)
	k := len(cur)
	inSet := make(map[int]bool, k)
	for _, m := range cur {
		inSet[m] = true
	}
	// Pairwise sums: distSum[i] = Σ_{j∈cur, j≠i-th} d(cur[i], cur[j]).
	pairSum := 0.0
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			pairSum += behavior.Distance(pool[cur[i]], pool[cur[j]])
		}
	}
	pairs := float64(k) * float64(k-1) / 2
	best := append([]int(nil), cur...)
	bestSum := pairSum

	candidates := idx
	for step := 0; step < steps; step++ {
		if step%annealCancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
		}
		t := annealInitTemp * (1 - float64(step)/float64(steps))
		pos := r.Intn(k)
		cand := candidates[r.Intn(len(candidates))]
		if inSet[cand] {
			continue
		}
		old := cur[pos]
		// Delta: replace old with cand.
		var removed, added float64
		for i := 0; i < k; i++ {
			if i == pos {
				continue
			}
			removed += behavior.Distance(pool[old], pool[cur[i]])
			added += behavior.Distance(pool[cand], pool[cur[i]])
		}
		delta := added - removed
		if delta >= 0 || r.Float64() < math.Exp(delta/pairs/math.Max(t, 1e-9)) {
			delete(inSet, old)
			inSet[cand] = true
			cur[pos] = cand
			pairSum += delta
			if pairSum > bestSum {
				bestSum = pairSum
				copy(best, cur)
			}
		}
	}
	return best, bestSum / pairs, nil
}

// AnnealCoverageCtx searches for a maximum-coverage ensemble. Each
// proposal re-evaluates coverage over the estimator's samples, so pass a
// moderately sized estimator (~20k samples) and refine the winner with a
// larger one if needed. ctx is checked before every proposal's
// Monte-Carlo evaluation.
func AnnealCoverageCtx(ctx context.Context, cov *CoverageEstimator, pool []behavior.Vector, idx []int, opt AnnealOptions) ([]int, float64, error) {
	if opt.Size < 1 {
		return nil, 0, fmt.Errorf("ensemble: annealing needs size ≥ 1, got %d", opt.Size)
	}
	if opt.Size > len(idx) {
		return nil, 0, fmt.Errorf("ensemble: size %d exceeds pool %d", opt.Size, len(idx))
	}
	if cov == nil {
		return nil, 0, fmt.Errorf("ensemble: coverage annealing needs an estimator")
	}
	steps := opt.Steps
	if steps == 0 {
		steps = 2000
	}
	r := rng.New(opt.Seed ^ 0xc0ffee51)

	seedSets, err := BestCoverageGreedyCtx(ctx, cov, pool, idx, opt.Size)
	if err != nil {
		return nil, 0, err
	}
	cur := append([]int(nil), seedSets[opt.Size]...)
	k := len(cur)
	inSet := make(map[int]bool, k)
	for _, m := range cur {
		inSet[m] = true
	}
	pts := make([]behavior.Vector, k)
	for i, m := range cur {
		pts[i] = pool[m]
	}
	// Proposals are scored through IncrementalCoverage.EvalSwap: only the
	// sample cells the swap can affect are rescanned, with results
	// bit-identical to the full Monte-Carlo evaluation this loop used to
	// run per proposal (pinned by TestAnnealCoverageTraceMatchesNaive) —
	// the RNG stream and accept/reject decisions are unchanged.
	ic, err := NewIncrementalCoverage(cov, pts)
	if err != nil {
		return nil, 0, err
	}
	curCov := ic.Coverage()
	best := append([]int(nil), cur...)
	bestCov := curCov

	for step := 0; step < steps; step++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		t := annealInitTemp * (1 - float64(step)/float64(steps))
		pos := r.Intn(k)
		cand := idx[r.Intn(len(idx))]
		if inSet[cand] {
			continue
		}
		old := cur[pos]
		c := ic.EvalSwap(pos, pool[cand])
		delta := c - curCov
		if delta >= 0 || r.Float64() < math.Exp(delta/math.Max(curCov, 1e-9)/math.Max(t, 1e-9)) {
			delete(inSet, old)
			inSet[cand] = true
			cur[pos] = cand
			ic.Swap(pos, pool[cand])
			curCov = c
			if c > bestCov {
				bestCov = c
				copy(best, cur)
			}
		}
	}
	return best, bestCov, nil
}
