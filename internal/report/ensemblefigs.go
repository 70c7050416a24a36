package report

import (
	"context"
	"fmt"
	"sort"

	"gcbench/internal/algorithms"
	"gcbench/internal/behavior"
	"gcbench/internal/ensemble"
)

// ensembleFigure dispatches the §5 analyses (Figures 14-23, Table 3).
func ensembleFigure(c *Corpus, id string, opt FigureOptions) (*Report, error) {
	if c.Pool == nil || c.Pool.Len() == 0 {
		return nil, fmt.Errorf("report: corpus has no graph-varying runs for ensemble analysis")
	}
	switch id {
	case "14":
		return figSpreadSingleAlg(c, opt)
	case "15":
		return figCoverageSingleAlg(c, opt)
	case "16":
		return figSpreadSingleGraph(c, opt)
	case "17":
		return figCoverageSingleGraph(c, opt)
	case "18":
		return figSpreadUnrestricted(c, opt)
	case "19":
		return figCoverageUnrestricted(c, opt)
	case "table3":
		return table3(c, opt)
	case "20":
		return figFrequency(c, opt, ensemble.MetricSpread)
	case "21":
		return figFrequency(c, opt, ensemble.MetricCoverage)
	case "22":
		return figLimited(c, opt, ensemble.MetricSpread)
	case "23":
		return figLimited(c, opt, ensemble.MetricCoverage)
	}
	return nil, fmt.Errorf("report: unknown ensemble figure %q", id)
}

// sortedKeys returns map keys in sorted order for deterministic columns.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// bestSpreadPerGroup computes, per group, the best-achievable spread at
// each ensemble size — exhaustively when the group is small enough,
// greedy+exchange otherwise.
func bestSpreadPerGroup(pool []behavior.Vector, groups map[string][]int, maxSize int) (map[string][]float64, error) {
	out := make(map[string][]float64, len(groups))
	for key, idx := range groups {
		search := ensemble.BestSpreadGreedyCtx
		if len(idx) <= 22 {
			search = ensemble.BestSpreadExhaustiveCtx
		}
		sets, err := search(context.TODO(), pool, idx, maxSize)
		if err != nil {
			return nil, err
		}
		curve := make([]float64, maxSize+1)
		for k := 1; k <= maxSize && k < len(sets); k++ {
			if sets[k] != nil {
				curve[k] = ensemble.SpreadOf(pool, sets[k])
			}
		}
		out[key] = curve
	}
	return out, nil
}

// bestCoveragePerGroup computes greedy best-coverage curves per group.
func bestCoveragePerGroup(cov *ensemble.CoverageEstimator, pool []behavior.Vector, groups map[string][]int, maxSize int) (map[string][]float64, error) {
	out := make(map[string][]float64, len(groups))
	for key, idx := range groups {
		sets, err := ensemble.BestCoverageGreedyCtx(context.TODO(), cov, pool, idx, maxSize)
		if err != nil {
			return nil, err
		}
		curve := make([]float64, maxSize+1)
		for k := 1; k <= maxSize && k < len(sets); k++ {
			if sets[k] == nil {
				continue
			}
			pts := make([]behavior.Vector, len(sets[k]))
			for i, j := range sets[k] {
				pts[i] = pool[j]
			}
			curve[k] = cov.Coverage(pts)
		}
		out[key] = curve
	}
	return out, nil
}

// curveTable renders per-size curves, one column per group plus an
// optional upper bound.
func curveTable(groups map[string][]float64, upper []float64, maxSize int) *Table {
	keys := sortedKeys(groups)
	t := &Table{Header: append([]string{"size"}, keys...)}
	if upper != nil {
		t.Header = append(t.Header, "UpperBound")
	}
	for k := 1; k <= maxSize; k++ {
		cells := []string{fmt.Sprint(k)}
		for _, key := range keys {
			curve := groups[key]
			if k < len(curve) && curve[k] != 0 {
				cells = append(cells, fmt.Sprintf("%.4f", curve[k]))
			} else {
				cells = append(cells, "-")
			}
		}
		if upper != nil {
			cells = append(cells, fmt.Sprintf("%.4f", upper[k]))
		}
		t.AddRow(cells...)
	}
	return t
}

func figSpreadSingleAlg(c *Corpus, opt FigureOptions) (*Report, error) {
	groups := c.PoolIdxByAlgorithm()
	curves, err := bestSpreadPerGroup(c.Pool.Points, groups, opt.MaxSize)
	if err != nil {
		return nil, err
	}
	upper := c.upperBoundSpread(opt.MaxSize)
	rep := &Report{ID: "Figure 14", Title: "Spread: Single Algorithm Ensembles",
		Notes: []string{
			"Best-achievable spread per ensemble size, restricted to one algorithm's runs (exhaustive subset search).",
			"Upper bound: maximally dispersed synthetic members in the unit behavior cube.",
		}}
	rep.Tables = append(rep.Tables, curveTable(curves, upper, opt.MaxSize))
	return rep, nil
}

func figCoverageSingleAlg(c *Corpus, opt FigureOptions) (*Report, error) {
	cov, err := c.Coverage(opt.CoverageSamples)
	if err != nil {
		return nil, err
	}
	groups := c.PoolIdxByAlgorithm()
	curves, err := bestCoveragePerGroup(cov, c.Pool.Points, groups, opt.MaxSize)
	if err != nil {
		return nil, err
	}
	upper := c.upperBoundCoverage(cov, opt.MaxSize)
	rep := &Report{ID: "Figure 15", Title: "Coverage: Single Algorithm Ensembles",
		Notes: []string{
			fmt.Sprintf("Greedy best-coverage per ensemble size, restricted to one algorithm's runs (NS = %d).", cov.NumSamples()),
			"Coverage = reciprocal mean distance from a random behavior point to its nearest member (see DESIGN.md §2).",
		}}
	rep.Tables = append(rep.Tables, curveTable(curves, upper, opt.MaxSize))
	return rep, nil
}

// singleGraphGroups restricts the §5.3 pool to the paper's fifteen
// structures: the three smallest size ranks × five alphas.
func singleGraphGroups(c *Corpus) map[string][]int {
	groups := map[string][]int{}
	for i, r := range c.Pool.Runs {
		rank := c.SizeRank(r)
		if rank > 2 || r.Alpha == 0 {
			continue
		}
		key := fmt.Sprintf("size#%d/α=%.2f", rank, r.Alpha)
		groups[key] = append(groups[key], i)
	}
	return groups
}

func figSpreadSingleGraph(c *Corpus, opt FigureOptions) (*Report, error) {
	groups := singleGraphGroups(c)
	curves, err := bestSpreadPerGroup(c.Pool.Points, groups, opt.MaxSize)
	if err != nil {
		return nil, err
	}
	upper := c.upperBoundSpread(opt.MaxSize)
	rep := &Report{ID: "Figure 16", Title: "Spread: Single Graph Ensembles",
		Notes: []string{
			"Fifteen graph structures (3 size ranks × 5 alphas), 11 algorithm runs each (§5.3).",
			"Ensemble size is capped by the 11 runs available per graph.",
		}}
	rep.Tables = append(rep.Tables, curveTable(curves, upper, opt.MaxSize))
	return rep, nil
}

func figCoverageSingleGraph(c *Corpus, opt FigureOptions) (*Report, error) {
	cov, err := c.Coverage(opt.CoverageSamples)
	if err != nil {
		return nil, err
	}
	groups := singleGraphGroups(c)
	curves, err := bestCoveragePerGroup(cov, c.Pool.Points, groups, opt.MaxSize)
	if err != nil {
		return nil, err
	}
	upper := c.upperBoundCoverage(cov, opt.MaxSize)
	rep := &Report{ID: "Figure 17", Title: "Coverage: Single Graph Ensembles",
		Notes: []string{
			"Fifteen graph structures (3 size ranks × 5 alphas), 11 algorithm runs each (§5.3).",
		}}
	rep.Tables = append(rep.Tables, curveTable(curves, upper, opt.MaxSize))
	return rep, nil
}

// allPoolIdx returns 0..len(pool)-1.
func allPoolIdx(c *Corpus) []int {
	idx := make([]int, c.Pool.Len())
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// summarizeBest reduces per-group curves to the per-size maximum.
func summarizeBest(curves map[string][]float64, maxSize int) []float64 {
	best := make([]float64, maxSize+1)
	for _, curve := range curves {
		for k := 1; k <= maxSize && k < len(curve); k++ {
			if curve[k] > best[k] {
				best[k] = curve[k]
			}
		}
	}
	return best
}

func figSpreadUnrestricted(c *Corpus, opt FigureOptions) (*Report, error) {
	sets, err := ensemble.BestSpreadGreedyCtx(context.TODO(), c.Pool.Points, allPoolIdx(c), opt.MaxSize)
	if err != nil {
		return nil, err
	}
	unrestricted := make([]float64, opt.MaxSize+1)
	for k := 1; k <= opt.MaxSize && k < len(sets); k++ {
		if sets[k] != nil {
			unrestricted[k] = ensemble.SpreadOf(c.Pool.Points, sets[k])
		}
	}
	algCurves, err := bestSpreadPerGroup(c.Pool.Points, c.PoolIdxByAlgorithm(), opt.MaxSize)
	if err != nil {
		return nil, err
	}
	graphCurves, err := bestSpreadPerGroup(c.Pool.Points, singleGraphGroups(c), opt.MaxSize)
	if err != nil {
		return nil, err
	}
	curves := map[string][]float64{
		"Unrestricted":    unrestricted,
		"BestSingleAlg":   summarizeBest(algCurves, opt.MaxSize),
		"BestSingleGraph": summarizeBest(graphCurves, opt.MaxSize),
	}
	upper := c.upperBoundSpread(opt.MaxSize)
	rep := &Report{ID: "Figure 18", Title: "Spread: Unrestricted Ensembles",
		Notes: []string{
			"Unrestricted ensembles draw from all graph-varying runs (greedy + exchange search).",
			"The paper's headline: unrestricted spread stays ~3x above single-algorithm ensembles at size 20.",
		}}
	rep.Tables = append(rep.Tables, curveTable(curves, upper, opt.MaxSize))
	return rep, nil
}

func figCoverageUnrestricted(c *Corpus, opt FigureOptions) (*Report, error) {
	cov, err := c.Coverage(opt.CoverageSamples)
	if err != nil {
		return nil, err
	}
	all := map[string][]int{"Unrestricted": allPoolIdx(c)}
	unrestricted, err := bestCoveragePerGroup(cov, c.Pool.Points, all, opt.MaxSize)
	if err != nil {
		return nil, err
	}
	algCurves, err := bestCoveragePerGroup(cov, c.Pool.Points, c.PoolIdxByAlgorithm(), opt.MaxSize)
	if err != nil {
		return nil, err
	}
	graphCurves, err := bestCoveragePerGroup(cov, c.Pool.Points, singleGraphGroups(c), opt.MaxSize)
	if err != nil {
		return nil, err
	}
	curves := map[string][]float64{
		"Unrestricted":    unrestricted["Unrestricted"],
		"BestSingleAlg":   summarizeBest(algCurves, opt.MaxSize),
		"BestSingleGraph": summarizeBest(graphCurves, opt.MaxSize),
	}
	upper := c.upperBoundCoverage(cov, opt.MaxSize)
	rep := &Report{ID: "Figure 19", Title: "Coverage: Unrestricted Ensembles",
		Notes: []string{
			"The paper's headline: ~30% better coverage than single-algorithm ensembles, ≈3.9 at 20 members.",
		}}
	rep.Tables = append(rep.Tables, curveTable(curves, upper, opt.MaxSize))
	return rep, nil
}

// table3 lists the members of the best spread and coverage ensembles at
// sizes 5, 10, 15, 20.
func table3(c *Corpus, opt FigureOptions) (*Report, error) {
	cov, err := c.Coverage(opt.CoverageSamples)
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "Table 3", Title: "Members of Ensembles Achieving Best Spread and Coverage",
		Notes: []string{"Runs are <algorithm, size, alpha> tuples; sizes ≥ 10 list algorithms only, as in the paper."}}
	idx := allPoolIdx(c)
	spreadSets, err := ensemble.BestSpreadGreedyCtx(context.TODO(), c.Pool.Points, idx, opt.MaxSize)
	if err != nil {
		return nil, err
	}
	covSets, err := ensemble.BestCoverageGreedyCtx(context.TODO(), cov, c.Pool.Points, idx, opt.MaxSize)
	if err != nil {
		return nil, err
	}
	t := &Table{Header: []string{"type", "size", "runs"}}
	for _, size := range []int{5, 10, 15, 20} {
		if size <= opt.MaxSize && size < len(spreadSets) && spreadSets[size] != nil {
			t.AddRow("Best spread", fmt.Sprint(size), memberList(c, spreadSets[size], size >= 10))
		}
	}
	for _, size := range []int{5, 10, 15, 20} {
		if size <= opt.MaxSize && size < len(covSets) && covSets[size] != nil {
			t.AddRow("Best coverage", fmt.Sprint(size), memberList(c, covSets[size], size >= 10))
		}
	}
	rep.Tables = append(rep.Tables, t)
	return rep, nil
}

func memberList(c *Corpus, members []int, algsOnly bool) string {
	out := ""
	for i, m := range members {
		if i > 0 {
			out += ", "
		}
		r := c.Pool.Runs[m]
		if algsOnly {
			out += r.Algorithm
		} else {
			out += r.ID()
		}
	}
	return out
}

// figFrequency is Figures 20/21: how often each algorithm appears in the
// 100 best ensembles of size TopKSize.
func figFrequency(c *Corpus, opt FigureOptions, metric ensemble.Metric) (*Report, error) {
	tkOpt := ensemble.TopKOptions{Size: opt.TopKSize, K: 100}
	if metric == ensemble.MetricCoverage {
		cov, err := c.Coverage(opt.TopKSamples)
		if err != nil {
			return nil, err
		}
		tkOpt.Cov = cov
		tkOpt.BeamWidth = 500
	}
	tops, err := ensemble.TopEnsemblesCtx(context.TODO(), metric, c.Pool.Points, allPoolIdx(c), tkOpt)
	if err != nil {
		return nil, err
	}
	freq := ensemble.Frequency(tops, func(i int) string { return c.Pool.Runs[i].Algorithm })
	figID := "Figure 20"
	if metric == ensemble.MetricCoverage {
		figID = "Figure 21"
	}
	rep := &Report{ID: figID,
		Title: fmt.Sprintf("Frequency of Appearance of Each Algorithm in Top100 Sets for %s", titleCase(metric.String())),
		Notes: []string{
			fmt.Sprintf("Top-100 ensembles of size %d by beam search (§5.5's shadowing-minimizing analysis).", opt.TopKSize),
		}}
	t := &Table{Header: []string{"algorithm", "appearances"}}
	for _, alg := range algorithms.AllNames() {
		if alg.GraphVarying() {
			t.AddRow(string(alg), fmt.Sprint(freq[string(alg)]))
		}
	}
	rep.Tables = append(rep.Tables, t)
	return rep, nil
}

func titleCase(s string) string {
	if s == "" {
		return s
	}
	return string(s[0]-'a'+'A') + s[1:]
}

// limitedPools builds the §5.6 constrained candidate pools.
func limitedPools(c *Corpus) map[string][]int {
	pools := map[string][]int{}
	// (a) limited algorithms: the three that contribute most to both
	// spread and coverage — KM, ALS, TC.
	for i, r := range c.Pool.Runs {
		switch r.Algorithm {
		case "KM", "ALS", "TC":
			pools["LimitedAlgs(KM,ALS,TC)"] = append(pools["LimitedAlgs(KM,ALS,TC)"], i)
		}
	}
	// (b) limited graphs: three structures — the largest size ranks at
	// α = 2.0, as the paper's best limited-graph ensembles use.
	for i, r := range c.Pool.Runs {
		if r.Alpha == 2.0 && c.SizeRank(r) >= 1 {
			pools["LimitedGraphs(3,α=2.0)"] = append(pools["LimitedGraphs(3,α=2.0)"], i)
		}
	}
	// (c) limited runtime: the constant-behavior algorithms whose runs can
	// be shortened without changing their behavior vector.
	for i, r := range c.Pool.Runs {
		if algorithms.Name(r.Algorithm).ConstantBehavior() {
			pools["LimitedRuntime(const-behavior)"] = append(pools["LimitedRuntime(const-behavior)"], i)
		}
	}
	return pools
}

// figLimited is Figures 22/23: spread/coverage under limited algorithms,
// graphs and runtime, compared with the unrestricted curve.
func figLimited(c *Corpus, opt FigureOptions, metric ensemble.Metric) (*Report, error) {
	pools := limitedPools(c)
	pools["Unrestricted"] = allPoolIdx(c)
	var curves map[string][]float64
	var upper []float64
	var figID, title string
	if metric == ensemble.MetricSpread {
		var err error
		curves, err = bestSpreadPerGroup(c.Pool.Points, pools, opt.MaxSize)
		if err != nil {
			return nil, err
		}
		upper = c.upperBoundSpread(opt.MaxSize)
		figID, title = "Figure 22", "Spread: Limited Algorithms, Graphs, Runtime"
	} else {
		cov, err := c.Coverage(opt.CoverageSamples)
		if err != nil {
			return nil, err
		}
		curves, err = bestCoveragePerGroup(cov, c.Pool.Points, pools, opt.MaxSize)
		if err != nil {
			return nil, err
		}
		upper = c.upperBoundCoverage(cov, opt.MaxSize)
		figID, title = "Figure 23", "Coverage: Limited Algorithms, Graphs, Runtime"
	}
	rep := &Report{ID: figID, Title: title,
		Notes: []string{
			"LimitedAlgs: only KM, ALS, TC (the top diversity contributors).",
			"LimitedGraphs: three structures (large sizes, α=2.0) across all algorithms.",
			"LimitedRuntime: only constant-behavior algorithms (AD, KM, NMF, SGD, SVD), whose runs can be truncated.",
		}}
	rep.Tables = append(rep.Tables, curveTable(curves, upper, opt.MaxSize))
	return rep, nil
}
