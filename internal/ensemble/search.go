package ensemble

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"gcbench/internal/behavior"
)

// maxExhaustivePool bounds the pool size for exact subset enumeration
// (2^22 subset DFS nodes stay well under a second).
const maxExhaustivePool = 22

// Cancellation contract: every search in this package takes a context
// and checks it between search steps — one greedy growth round, one
// exchange pass, one annealing proposal, one beam extension — so a
// deadline-exceeded design request returns within a single step rather
// than running the search to completion. Each search has exactly one
// entry point; callers without a deadline pass context.Background().
// The Ctx suffix is historical.

// checkMaxSize is the size check every subset search makes first: a
// negative bound asks for no ensemble size at all.
func checkMaxSize(maxSize int) error {
	if maxSize < 0 {
		return fmt.Errorf("ensemble: maximum ensemble size must be ≥ 0, got %d", maxSize)
	}
	return nil
}

// BestSpreadExhaustiveCtx finds, for every size 1..maxSize, the subset of
// pool[idx] with maximum spread, by a single DFS over all subsets with an
// incrementally maintained pairwise-distance sum. Exact, usable for the
// single-algorithm pools of Figure 14 (20 runs each). Returns best[k] for
// ensemble size k (best[0] and best[1] are trivial). ctx is checked at
// every top-level DFS branch.
func BestSpreadExhaustiveCtx(ctx context.Context, pool []behavior.Vector, idx []int, maxSize int) ([][]int, error) {
	if err := checkMaxSize(maxSize); err != nil {
		return nil, err
	}
	n := len(idx)
	if n > maxExhaustivePool {
		return nil, fmt.Errorf("ensemble: pool of %d too large for exhaustive search (max %d)", n, maxExhaustivePool)
	}
	if maxSize > n {
		maxSize = n
	}
	// Pairwise distances within the pool.
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
		for j := range dist[i] {
			dist[i][j] = behavior.Distance(pool[idx[i]], pool[idx[j]])
		}
	}
	bestSum := make([]float64, maxSize+1)
	bestSet := make([][]int, maxSize+1)
	for k := range bestSum {
		bestSum[k] = -1
	}
	cur := make([]int, 0, maxSize)
	var dfs func(start int, sum float64)
	dfs = func(start int, sum float64) {
		k := len(cur)
		if k >= 1 && sum > bestSum[k] {
			bestSum[k] = sum
			bestSet[k] = append([]int(nil), cur...)
		}
		if k == maxSize {
			return
		}
		for j := start; j < n; j++ {
			add := 0.0
			for _, i := range cur {
				add += dist[i][j]
			}
			cur = append(cur, j)
			dfs(j+1, sum+add)
			cur = cur[:len(cur)-1]
		}
	}
	for j := 0; j < n && maxSize > 0; j++ { // size 0 has no subset to visit
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cur = append(cur, j)
		dfs(j+1, 0)
		cur = cur[:0]
	}

	out := make([][]int, maxSize+1)
	for k := 1; k <= maxSize; k++ {
		set := make([]int, len(bestSet[k]))
		for i, j := range bestSet[k] {
			set[i] = idx[j]
		}
		out[k] = set
	}
	return out, nil
}

// BestSpreadGreedyCtx grows an ensemble by repeatedly adding the
// candidate maximizing the resulting spread, then refines each size with
// pairwise exchange (ImproveSpreadExchangeCtx). Used for pools too large
// to enumerate (the unrestricted 215-run corpus of Figure 18). Returns
// best[k] for k = 1..maxSize. ctx is checked before every growth round
// and inside the exchange refinement.
func BestSpreadGreedyCtx(ctx context.Context, pool []behavior.Vector, idx []int, maxSize int) ([][]int, error) {
	if err := checkMaxSize(maxSize); err != nil {
		return nil, err
	}
	n := len(idx)
	if maxSize > n {
		maxSize = n
	}
	out := make([][]int, maxSize+1)
	if n == 0 || maxSize == 0 {
		return out, nil
	}

	// Start from the farthest pair (or the single first point for k=1).
	var a, b int
	bestD := -1.0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if d := behavior.Distance(pool[idx[i]], pool[idx[j]]); d > bestD {
				bestD, a, b = d, i, j
			}
		}
	}
	out[1] = []int{idx[a]}

	members := []int{a, b}
	// distSum[j] = Σ_{i∈members} d(j, i) for every pool element.
	distSum := make([]float64, n)
	for j := 0; j < n; j++ {
		distSum[j] = behavior.Distance(pool[idx[j]], pool[idx[a]]) +
			behavior.Distance(pool[idx[j]], pool[idx[b]])
	}
	inSet := make([]bool, n)
	inSet[a], inSet[b] = true, true

	emit := func(k int) error {
		set := make([]int, len(members))
		for i, j := range members {
			set[i] = idx[j]
		}
		refined, err := ImproveSpreadExchangeCtx(ctx, pool, set, idx)
		if err != nil {
			return err
		}
		out[k] = refined
		return nil
	}
	if maxSize >= 2 {
		if err := emit(2); err != nil {
			return nil, err
		}
	}
	for k := 3; k <= maxSize; k++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		bestJ, bestAdd := -1, -1.0
		for j := 0; j < n; j++ {
			if inSet[j] {
				continue
			}
			// Adding j: new mean = (pairSum + distSum[j]) / C(k,2).
			if distSum[j] > bestAdd {
				bestAdd, bestJ = distSum[j], j
			}
		}
		if bestJ < 0 {
			break
		}
		inSet[bestJ] = true
		members = append(members, bestJ)
		for j := 0; j < n; j++ {
			distSum[j] += behavior.Distance(pool[idx[j]], pool[idx[bestJ]])
		}
		if err := emit(k); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ImproveSpreadExchangeCtx refines an ensemble by swapping members with
// outside candidates while any swap improves spread. Deterministic:
// candidates are scanned in order and the best single swap is applied per
// pass, up to a fixed pass budget. ctx is checked once per exchange pass.
//
// Spread is the mean pairwise distance, so a single swap's effect on the
// pair total can be scored from two maintained aggregates instead of a
// full O(k²) recomputation: memSum[pos] (each member's distance sum to
// the other members) and candSum[ci] (each candidate's distance sum to
// all members). Replacing cur[pos] with cand changes the pair total by
// candSum[ci] - memSum[pos] - d(cur[pos], cand), making each swap
// evaluation O(1) after an O(k·(k+C)) setup and an O(k+C) refresh per
// applied swap — the exchange step drops from O(k³·C) to O(k·C) distance
// evaluations per pass.
func ImproveSpreadExchangeCtx(ctx context.Context, pool []behavior.Vector, members, candidates []int) ([]int, error) {
	cur := append([]int(nil), members...)
	k := len(cur)
	if k < 2 {
		// Spread of a singleton is identically zero; no swap can help.
		sort.Ints(cur)
		return cur, nil
	}
	denom := float64(k * (k - 1) / 2)
	inSet := make(map[int]bool, k)
	for _, m := range cur {
		inSet[m] = true
	}
	memSum := make([]float64, k)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			d := behavior.Distance(pool[cur[i]], pool[cur[j]])
			memSum[i] += d
			memSum[j] += d
		}
	}
	// candSum stays exact for in-set candidates too (their self-distance
	// is zero), so the uniform per-swap refresh below covers members that
	// get swapped out and become eligible again.
	candSum := make([]float64, len(candidates))
	for ci, c := range candidates {
		for _, m := range cur {
			candSum[ci] += behavior.Distance(pool[c], pool[m])
		}
	}
	const maxPasses = 20
	for pass := 0; pass < maxPasses; pass++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		bestGain := 1e-12
		bestPos, bestCi := -1, -1
		for pos := range cur {
			for ci, cand := range candidates {
				if inSet[cand] {
					continue
				}
				delta := candSum[ci] - memSum[pos] - behavior.Distance(pool[cur[pos]], pool[cand])
				if gain := delta / denom; gain > bestGain {
					bestGain, bestPos, bestCi = gain, pos, ci
				}
			}
		}
		if bestPos < 0 {
			break
		}
		old, next := cur[bestPos], candidates[bestCi]
		dON := behavior.Distance(pool[old], pool[next])
		for q := range cur {
			if q == bestPos {
				continue
			}
			memSum[q] += behavior.Distance(pool[cur[q]], pool[next]) -
				behavior.Distance(pool[cur[q]], pool[old])
		}
		memSum[bestPos] = candSum[bestCi] - dON
		for ci, c := range candidates {
			candSum[ci] += behavior.Distance(pool[c], pool[next]) -
				behavior.Distance(pool[c], pool[old])
		}
		delete(inSet, old)
		inSet[next] = true
		cur[bestPos] = next
	}
	sort.Ints(cur)
	return cur, nil
}

// BestCoverageGreedyCtx grows an ensemble by repeatedly adding the
// candidate that maximizes coverage, using incremental min-distance
// maintenance. Greedy is the standard near-optimal heuristic for this
// k-median-style objective. Returns best[k] for k = 1..maxSize. ctx is
// checked before every candidate's evaluation (the dominant cost of a
// coverage search step). It returns exactly what a
// full scan — every remaining candidate evaluated every round, ties to
// the lowest pool position — returns (naiveCoverageGreedy in the tests
// is that scan), while evaluating about 40 % of the candidates.
func BestCoverageGreedyCtx(ctx context.Context, cov *CoverageEstimator, pool []behavior.Vector, idx []int, maxSize int) ([][]int, error) {
	out, _, err := coverageGreedy(ctx, cov, pool, idx, maxSize)
	return out, err
}

// coverageGreedy is the lazy greedy behind BestCoverageGreedyCtx; evals
// counts the candidate evaluations it made.
//
// Adding candidate j lowers the sample-distance total by
// Σ max(0, minDist − d(sample, j)), which can only shrink as the ensemble
// grows, so the reduction measured when j was last evaluated bounds what
// j can do now. Each round visits candidates by descending stale
// reduction and stops at the first whose best possible coverage is
// strictly below the incumbent's; every candidate behind it is bounded
// lower still. Two details make that exact rather than approximate:
//
//   - the totals are float sums of NS terms, so the real-number bound
//     holds for them only up to rounding: the stale reduction carries
//     the slack of the two sums it was measured from, and the bound
//     subtracts the slack of the two it is applied to (roundingSlack);
//   - the test compares coverages, not totals, because two totals can
//     round to one coverage and the full scan breaks coverage ties by
//     pool position — so a tying candidate is still evaluated, and the
//     winner is the highest coverage, then the lowest position.
//
// The empty ensemble's total is +Inf, so round 1 has no reduction to
// bound with. Its floor is {p}'s exact total where the estimator's
// table holds it, else the estimator's lowerTotal: round 1 visits by
// ascending floor (then pool position) and stops with the same test.
// Every round-1 gain is +Inf, evaluated or not, so round 2 visits
// everyone in pool order, as the full scan would.
//
// The totals rounds 1 and 2 visit are those of the ensembles {p} and
// {m₁, p}, which depend on no other member and no other candidate: they
// come from the estimator's table of two-member totals (pairTable), and
// only a miss is evaluated, stored and counted in evals. Hits change
// which candidates round 1 visits, as exact floors stop it sooner, but
// no chosen member and no bit.
func coverageGreedy(ctx context.Context, cov *CoverageEstimator, pool []behavior.Vector, idx []int, maxSize int) (out [][]int, evals int, err error) {
	if err := checkMaxSize(maxSize); err != nil {
		return nil, 0, err
	}
	n := len(idx)
	if maxSize > n {
		maxSize = n
	}
	out = make([][]int, maxSize+1)
	if n == 0 || maxSize == 0 {
		return out, 0, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	ic, err := NewIncrementalCoverage(cov, nil)
	if err != nil {
		return nil, 0, err
	}
	var members []int
	rest := make([]int, n)      // candidates not yet chosen, as positions in idx
	gain := make([]float64, n)  // per position: upper bound on its reduction
	first := make([]float64, n) // per position: lower bound on its round-1 total
	for j := range rest {
		rest[j], gain[j] = j, math.Inf(1)
		p := pool[idx[j]]
		if total, hit := cov.pairs.load(p, p); hit {
			first[j] = total
		} else {
			first[j] = cov.lowerTotal(p)
		}
	}
	for k := 1; k <= maxSize; k++ {
		if k == 1 {
			slices.SortFunc(rest, func(a, b int) int { return cmp.Or(cmp.Compare(first[a], first[b]), a-b) })
		} else {
			slices.SortFunc(rest, func(a, b int) int { return cmp.Or(cmp.Compare(gain[b], gain[a]), a-b) })
		}
		cur := ic.total()
		slack := cov.roundingSlack(cur)
		best, bestCov := -1, -1.0
		for at, j := range rest {
			floor := cur - gain[j] - slack
			if k == 1 {
				floor = first[j]
			}
			if floor > 0 && ic.finish(floor) < bestCov {
				break
			}
			if err := ctx.Err(); err != nil {
				return nil, evals, err
			}
			p := pool[idx[j]]
			pair := p // the ensemble is {pair, p}: {p} in round 1, {m₁, p} in round 2
			if k == 2 {
				pair = pool[members[0]]
			}
			sum, hit := 0.0, false
			if k <= 2 {
				sum, hit = cov.pairs.load(pair, p)
			}
			if !hit {
				sum = ic.evalAdd(p)
				evals++
				if k <= 2 {
					cov.pairs.store(pair, p, sum)
				}
			}
			gain[j] = cur - sum + slack
			if c := ic.finish(sum); c > bestCov || (c == bestCov && j < rest[best]) {
				bestCov, best = c, at
			}
		}
		j := rest[best]
		rest = slices.Delete(rest, best, best+1)
		members = append(members, idx[j])
		ic.Add(pool[idx[j]])
		set := append([]int(nil), members...)
		sort.Ints(set)
		out[k] = set
	}
	return out, evals, nil
}

// ImproveCoverageExchangeCtx refines a coverage ensemble by swapping
// members with outside candidates while any swap improves coverage. Swap
// proposals are scored through IncrementalCoverage.EvalSwap — dirty-cell
// rescoring instead of a full Monte-Carlo pass — with results
// bit-identical to the fresh estimates the full-recompute implementation
// used (pinned by TestCoverageExchangeTraceMatchesNaive), so the pass
// budget no longer needs to be tight. Deterministic. ctx is checked
// before every candidate evaluation.
func ImproveCoverageExchangeCtx(ctx context.Context, cov *CoverageEstimator, pool []behavior.Vector, members, candidates []int) ([]int, error) {
	cur := append([]int(nil), members...)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pts := make([]behavior.Vector, len(cur))
	for i, m := range cur {
		pts[i] = pool[m]
	}
	ic, err := NewIncrementalCoverage(cov, pts)
	if err != nil {
		return nil, err
	}
	curCov := ic.Coverage()
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
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				c := ic.EvalSwap(pos, pool[cand])
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
		// Exact, not curCov += bestGain: committing re-reads the updated
		// cell sums, so accumulated float drift can't steer later passes.
		curCov = ic.Swap(bestPos, pool[bestCand])
	}
	sort.Ints(cur)
	return cur, nil
}
