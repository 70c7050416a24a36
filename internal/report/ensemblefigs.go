package report

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"gcbench/internal/algorithms"
	"gcbench/internal/behavior"
	"gcbench/internal/ensemble"
)

// candidates names the candidate groups a §5 curve figure searches.
type candidates int

const (
	byAlgorithm  candidates = iota + 1 // one group per algorithm (§5.2)
	singleGraph                        // one group per graph structure (§5.3)
	unrestricted                       // the whole pool, beside the best single-algorithm and single-graph curves (§5.4)
	limited                            // the §5.6 constrained pools, beside the whole pool
)

// groups returns the pool indices of each candidate group, by name.
func (c *Corpus) groups(kind candidates) map[string][]int {
	if kind == byAlgorithm {
		return c.Pool.ByAlgorithm()
	}
	out := map[string][]int{}
	add := func(group string, i int) { out[group] = append(out[group], i) }
	for i, r := range c.Pool.Runs {
		if kind == singleGraph {
			// The paper's fifteen structures: the three smallest size
			// ranks × five alphas.
			if rank := c.SizeRank(r); rank <= 2 && r.Alpha != 0 {
				add(fmt.Sprintf("size#%d/α=%.2f", rank, r.Alpha), i)
			}
			continue
		}
		add("Unrestricted", i)
		if kind != limited {
			continue
		}
		// (a) limited algorithms: the three that contribute most to both
		// spread and coverage.
		if r.Algorithm == "KM" || r.Algorithm == "ALS" || r.Algorithm == "TC" {
			add("LimitedAlgs(KM,ALS,TC)", i)
		}
		// (b) limited graphs: three structures — the largest size ranks
		// at α = 2.0, as the paper's best limited-graph ensembles use.
		if r.Alpha == 2.0 && c.SizeRank(r) >= 1 {
			add("LimitedGraphs(3,α=2.0)", i)
		}
		// (c) limited runtime: the constant-behavior algorithms, whose
		// runs can be shortened without changing their behavior vector.
		if algorithms.Name(r.Algorithm).ConstantBehavior() {
			add("LimitedRuntime(const-behavior)", i)
		}
	}
	return out
}

// measure is one §5 metric over the corpus pool; coverage carries the
// Monte-Carlo estimator it is scored with.
type measure struct {
	c      *Corpus
	metric ensemble.Metric
	cov    *ensemble.CoverageEstimator
}

// measure returns the metric's scorer. Coverage draws samples points
// with the figures' fixed seed, so equal sample counts score alike.
func (c *Corpus) measure(metric ensemble.Metric, samples int) (*measure, error) {
	if c.Pool == nil || c.Pool.Len() == 0 {
		return nil, fmt.Errorf("report: corpus has no graph-varying runs for ensemble analysis")
	}
	m := &measure{c: c, metric: metric}
	if metric == ensemble.MetricCoverage {
		cov, err := ensemble.NewCoverageEstimator(samples, 0x5eed)
		if err != nil {
			return nil, err
		}
		m.cov = cov
	}
	return m, nil
}

// bestCurves returns, per candidate group, the metric of the best
// ensemble found at each size 1..maxSize (0 where the group is smaller).
// Spread searches exhaustively in groups of at most 22 runs and by
// greedy + exchange above that; coverage searches greedily.
func (m *measure) bestCurves(groups map[string][]int, maxSize int) (map[string][]float64, error) {
	pool := m.c.Pool.Points
	out := make(map[string][]float64, len(groups))
	for key, idx := range groups {
		var sets [][]int
		var err error
		switch {
		case m.cov != nil:
			sets, err = ensemble.BestCoverageGreedyCtx(context.TODO(), m.cov, pool, idx, maxSize)
		case len(idx) <= 22:
			sets, err = ensemble.BestSpreadExhaustiveCtx(context.TODO(), pool, idx, maxSize)
		default:
			sets, err = ensemble.BestSpreadGreedyCtx(context.TODO(), pool, idx, maxSize)
		}
		if err != nil {
			return nil, err
		}
		curve := make([]float64, maxSize+1)
		for k := 1; k <= maxSize && k < len(sets); k++ {
			if sets[k] == nil {
				continue
			}
			if m.cov == nil {
				curve[k] = ensemble.SpreadOf(pool, sets[k])
				continue
			}
			pts := make([]behavior.Vector, len(sets[k]))
			for i, j := range sets[k] {
				pts[i] = pool[j]
			}
			curve[k] = m.cov.Coverage(pts)
		}
		out[key] = curve
	}
	return out, nil
}

// upperBound returns the cached empirical upper bound of the metric at
// each size 0..maxSize.
func (m *measure) upperBound(maxSize int) []float64 {
	key := boundKey{metric: m.metric, size: maxSize}
	if m.cov != nil {
		key.samples = m.cov.NumSamples()
	}
	if ub, ok := m.c.bounds[key]; ok {
		return ub
	}
	ub := ensemble.UpperBoundSpread(maxSize, 0xface)
	if m.cov != nil {
		ub = ensemble.UpperBoundCoverage(m.cov, maxSize, 0xface)
	}
	m.c.bounds[key] = ub
	return ub
}

// curveFigure renders a curve figure (14-19, 22, 23): the best metric per
// ensemble size for each of the figure's candidate groups, beside the
// empirical upper bound.
func curveFigure(c *Corpus, f figure, opt FigureOptions) (*Report, error) {
	m, err := c.measure(f.metric, opt.CoverageSamples)
	if err != nil {
		return nil, err
	}
	curves, err := m.bestCurves(c.groups(f.groups), opt.MaxSize)
	if err != nil {
		return nil, err
	}
	if f.groups == unrestricted {
		for name, kind := range map[string]candidates{"BestSingleAlg": byAlgorithm, "BestSingleGraph": singleGraph} {
			per, err := m.bestCurves(c.groups(kind), opt.MaxSize)
			if err != nil {
				return nil, err
			}
			curves[name] = make([]float64, opt.MaxSize+1)
			for _, curve := range per {
				for k, v := range curve {
					curves[name][k] = max(curves[name][k], v)
				}
			}
		}
	}
	rep := &Report{ID: "Figure " + f.id, Title: f.title}
	for _, n := range f.notes {
		rep.Notes = append(rep.Notes, strings.ReplaceAll(n, "{NS}", fmt.Sprint(opt.CoverageSamples)))
	}
	rep.Tables = append(rep.Tables, curveTable(curves, m.upperBound(opt.MaxSize), opt.MaxSize))
	return rep, nil
}

// curveTable renders per-size curves, one column per group plus the
// upper bound.
func curveTable(groups map[string][]float64, upper []float64, maxSize int) *Table {
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	t := &Table{Header: append(append([]string{"size"}, keys...), "UpperBound")}
	for k := 1; k <= maxSize; k++ {
		cells := []string{fmt.Sprint(k)}
		for _, key := range keys {
			if curve := groups[key]; curve[k] != 0 {
				cells = append(cells, fmt.Sprintf("%.4f", curve[k]))
			} else {
				cells = append(cells, "-")
			}
		}
		t.AddRow(append(cells, fmt.Sprintf("%.4f", upper[k]))...)
	}
	return t
}

// table3 lists the members of the best spread and coverage ensembles of
// the whole pool at sizes 5, 10, 15, 20.
func table3(c *Corpus, f figure, opt FigureOptions) (*Report, error) {
	m, err := c.measure(ensemble.MetricCoverage, opt.CoverageSamples)
	if err != nil {
		return nil, err
	}
	all := c.groups(unrestricted)["Unrestricted"]
	spreadSets, err := ensemble.BestSpreadGreedyCtx(context.TODO(), c.Pool.Points, all, opt.MaxSize)
	if err != nil {
		return nil, err
	}
	covSets, err := ensemble.BestCoverageGreedyCtx(context.TODO(), m.cov, c.Pool.Points, all, opt.MaxSize)
	if err != nil {
		return nil, err
	}
	t := &Table{Header: []string{"type", "size", "runs"}}
	for _, best := range []struct {
		name string
		sets [][]int
	}{{"Best spread", spreadSets}, {"Best coverage", covSets}} {
		for _, size := range []int{5, 10, 15, 20} {
			if size >= len(best.sets) || best.sets[size] == nil {
				continue
			}
			// Sizes ≥ 10 list algorithms only, as in the paper.
			var runs []string
			for _, i := range best.sets[size] {
				if r := c.Pool.Runs[i]; size >= 10 {
					runs = append(runs, r.Algorithm)
				} else {
					runs = append(runs, r.ID())
				}
			}
			t.AddRow(best.name, fmt.Sprint(size), strings.Join(runs, ", "))
		}
	}
	return &Report{ID: "Table 3", Title: f.title, Notes: f.notes, Tables: []*Table{t}}, nil
}

// frequencyFigure is Figures 20/21: how often each algorithm appears in
// the 100 best ensembles of size TopKSize.
func frequencyFigure(c *Corpus, f figure, opt FigureOptions) (*Report, error) {
	m, err := c.measure(f.metric, opt.TopKSamples)
	if err != nil {
		return nil, err
	}
	tkOpt := ensemble.TopKOptions{Size: opt.TopKSize, K: 100, Cov: m.cov}
	if m.cov != nil {
		tkOpt.BeamWidth = 500
	}
	tops, err := ensemble.TopEnsemblesCtx(context.TODO(), f.metric, c.Pool.Points, c.groups(unrestricted)["Unrestricted"], tkOpt)
	if err != nil {
		return nil, err
	}
	freq := ensemble.Frequency(tops, func(i int) string { return c.Pool.Runs[i].Algorithm })
	t := &Table{Header: []string{"algorithm", "appearances"}}
	for _, alg := range algorithms.AllNames() {
		if alg.GraphVarying() {
			t.AddRow(string(alg), fmt.Sprint(freq[string(alg)]))
		}
	}
	return &Report{ID: "Figure " + f.id, Title: f.title,
		Notes: []string{
			fmt.Sprintf("Top-100 ensembles of size %d by beam search (§5.5's shadowing-minimizing analysis).", opt.TopKSize),
		},
		Tables: []*Table{t}}, nil
}
