package report

import (
	"fmt"
	"sort"
	"strings"

	"gcbench/internal/behavior"
	"gcbench/internal/ensemble"
)

// FigureOptions tunes the analysis figures.
type FigureOptions struct {
	// CoverageSamples is the Monte-Carlo sample count for coverage
	// (default 1,000,000 — the paper's NS).
	CoverageSamples int
	// TopKSamples is the (smaller) sample count used inside the top-100
	// beam search, where a full-precision estimate per candidate is
	// unaffordable (default 20,000).
	TopKSamples int
	// MaxSize is the largest ensemble size analyzed (default 20).
	MaxSize int
	// TopKSize is the ensemble size of the §5.5 top-100 frequency
	// analysis (default 5).
	TopKSize int
}

// activeRows caps the iteration rows printed for the active fraction
// figures; longer series are downsampled.
const activeRows = 25

// Validate refuses a negative sample count or size bound (zero selects
// the default), so a caller printing several figures fails before the
// first one rather than at the first figure that reads the bad value.
func (o FigureOptions) Validate() error {
	if o.CoverageSamples < 0 {
		return fmt.Errorf("report: coverage sample count must be ≥ 0, got %d", o.CoverageSamples)
	}
	if o.MaxSize < 0 {
		return fmt.Errorf("report: maximum ensemble size must be ≥ 0, got %d", o.MaxSize)
	}
	return nil
}

func (o FigureOptions) withDefaults() FigureOptions {
	if o.CoverageSamples == 0 {
		o.CoverageSamples = 1_000_000
	}
	if o.TopKSamples == 0 {
		o.TopKSamples = 20_000
	}
	if o.MaxSize == 0 {
		o.MaxSize = 20
	}
	if o.TopKSize == 0 {
		o.TopKSize = 5
	}
	return o
}

// figure is one row of the figure table.
type figure struct {
	id, title string
	notes     []string // "{NS}" stands for the coverage sample count
	algs      []string // the algorithms shown (Figures 1-12)
	// Curve figures name a metric and their candidate groups; Figures
	// 20/21 name a metric only.
	metric ensemble.Metric
	groups candidates
	render func(c *Corpus, f figure, opt FigureOptions) (*Report, error)
}

// figures is the figure table: every reproducible table and figure, in
// the order `gcbench figures -fig all` prints them.
var figures = []figure{
	{id: "table1", title: "Comparative Graph Processing System Evaluations (survey reprint)", render: table1},
	{id: "table2", title: "Graph Feature Variables", render: table2},
	{id: "1", title: "GA Active Fraction for All Graphs", algs: []string{"CC", "KC", "TC", "SSSP", "PR", "AD"}, render: activeFractionFigure},
	{id: "2", title: "KC Metric Values", algs: []string{"KC"}, render: metricFigure},
	{id: "3", title: "TC Metric Values", algs: []string{"TC"}, render: metricFigure},
	{id: "4", title: "PR Metric Values", algs: []string{"PR"}, render: metricFigure},
	{id: "5", title: "KM Active Fraction for All Graphs", algs: []string{"KM"}, render: activeFractionFigure},
	{id: "6", title: "KM Metric Values", algs: []string{"KM"}, render: metricFigure},
	{id: "7", title: "ALS Active Fraction for All Graphs", algs: []string{"ALS"}, render: activeFractionFigure},
	{id: "8", title: "ALS Metric Values", algs: []string{"ALS"}, render: metricFigure},
	{id: "9", title: "SGD Metric Values", algs: []string{"SGD"}, render: metricFigure},
	{id: "10", title: "SVD Metric Values", algs: []string{"SVD"}, render: metricFigure},
	{id: "11", title: "Active Fraction for LBP", algs: []string{"LBP"}, render: activeFractionFigure},
	{id: "12", title: "Metric Values for Jacobi, LBP, and DD", algs: []string{"Jacobi", "LBP", "DD"}, render: metricFigure},
	{id: "13", title: "Metric Values for All Algorithms", render: allAlgorithmsFigure},
	{id: "14", title: "Spread: Single Algorithm Ensembles", metric: ensemble.MetricSpread, groups: byAlgorithm, render: curveFigure,
		notes: []string{
			"Best-achievable spread per ensemble size, restricted to one algorithm's runs (" + spreadSearch + ").",
			"Upper bound: maximally dispersed synthetic members in the unit behavior cube.",
		}},
	{id: "15", title: "Coverage: Single Algorithm Ensembles", metric: ensemble.MetricCoverage, groups: byAlgorithm, render: curveFigure,
		notes: []string{
			"Greedy best-coverage per ensemble size, restricted to one algorithm's runs (NS = {NS}).",
			"Coverage = reciprocal mean distance from a random behavior point to its nearest member (see DESIGN.md §2).",
		}},
	{id: "16", title: "Spread: Single Graph Ensembles", metric: ensemble.MetricSpread, groups: singleGraph, render: curveFigure,
		notes: []string{
			"Fifteen graph structures (3 size ranks × 5 alphas), 11 algorithm runs each (§5.3).",
			"Ensemble size is capped by the 11 runs available per graph.",
		}},
	{id: "17", title: "Coverage: Single Graph Ensembles", metric: ensemble.MetricCoverage, groups: singleGraph, render: curveFigure,
		notes: []string{
			"Fifteen graph structures (3 size ranks × 5 alphas), 11 algorithm runs each (§5.3).",
		}},
	{id: "18", title: "Spread: Unrestricted Ensembles", metric: ensemble.MetricSpread, groups: unrestricted, render: curveFigure,
		notes: []string{
			"Unrestricted ensembles draw from all graph-varying runs (" + spreadSearch + ").",
			"The paper's headline: unrestricted spread stays ~3x above single-algorithm ensembles at size 20.",
		}},
	{id: "19", title: "Coverage: Unrestricted Ensembles", metric: ensemble.MetricCoverage, groups: unrestricted, render: curveFigure,
		notes: []string{
			"The paper's headline: ~30% better coverage than single-algorithm ensembles, ≈3.9 at 20 members.",
		}},
	{id: "table3", title: "Members of Ensembles Achieving Best Spread and Coverage", render: table3,
		notes: []string{"Runs are <algorithm, size, alpha> tuples; sizes ≥ 10 list algorithms only, as in the paper."}},
	{id: "20", title: "Frequency of Appearance of Each Algorithm in Top100 Sets for Spread", metric: ensemble.MetricSpread, render: frequencyFigure},
	{id: "21", title: "Frequency of Appearance of Each Algorithm in Top100 Sets for Coverage", metric: ensemble.MetricCoverage, render: frequencyFigure},
	{id: "22", title: "Spread: Limited Algorithms, Graphs, Runtime", metric: ensemble.MetricSpread, groups: limited, render: curveFigure, notes: limitedNotes},
	{id: "23", title: "Coverage: Limited Algorithms, Graphs, Runtime", metric: ensemble.MetricCoverage, groups: limited, render: curveFigure, notes: limitedNotes},
	// "space" is an extra (behavior-space scatter), not a paper figure.
	{id: "space", title: "Behavior Space Projections", render: spaceScatter},
}

var limitedNotes = []string{
	"LimitedAlgs: only KM, ALS, TC (the top diversity contributors).",
	"LimitedGraphs: three structures (large sizes, α=2.0) across all algorithms.",
	"LimitedRuntime: only constant-behavior algorithms (AD, KM, NMF, SGD, SVD), whose runs can be truncated.",
}

// FigureIDs lists every reproducible table/figure identifier.
func FigureIDs() []string {
	ids := make([]string, len(figures))
	for i, f := range figures {
		ids[i] = f.id
	}
	return ids
}

// Figure builds the named figure/table reproduction from the corpus.
func Figure(c *Corpus, id string, opt FigureOptions) (*Report, error) {
	for _, f := range figures {
		if f.id == id {
			return f.render(c, f, opt.withDefaults())
		}
	}
	return nil, fmt.Errorf("report: unknown figure %q (known: %v)", id, FigureIDs())
}

// runsOf returns the corpus runs of one algorithm, sorted by (size, α).
func runsOf(c *Corpus, alg string) []*behavior.Run {
	var runs []*behavior.Run
	for _, r := range c.Runs {
		if r.Algorithm == alg {
			runs = append(runs, r)
		}
	}
	sort.Slice(runs, func(i, j int) bool {
		si, sj := parseSizeLabel(runs[i].SizeLabel), parseSizeLabel(runs[j].SizeLabel)
		if si != sj {
			return si < sj
		}
		return runs[i].Alpha < runs[j].Alpha
	})
	return runs
}

// activeFractionFigure prints per-iteration active fractions, one column
// per graph, iterations downsampled to activeRows rows.
func activeFractionFigure(c *Corpus, f figure, _ FigureOptions) (*Report, error) {
	rep := &Report{ID: "Figure " + f.id, Title: f.title,
		Notes: []string{
			"Active fraction = active vertices / all vertices per iteration (§3.4).",
			"Iterations are downsampled to at most " + fmt.Sprint(activeRows) + " rows; column = one graph run.",
		}}
	for _, alg := range f.algs {
		runs := runsOf(c, alg)
		if len(runs) == 0 {
			continue
		}
		maxIter, minIter := 0, runs[0].Iterations
		for _, r := range runs {
			maxIter = max(maxIter, len(r.ActiveFraction))
			minIter = min(minIter, r.Iterations)
		}
		rows := min(activeRows, maxIter)
		t := &Table{Title: fmt.Sprintf("%s (converges in %d-%d iterations)", alg, minIter, maxIter)}
		t.Header = append(t.Header, "iter")
		for _, r := range runs {
			if r.Alpha != 0 {
				t.Header = append(t.Header, fmt.Sprintf("%s/α%.2f", r.SizeLabel, r.Alpha))
			} else {
				t.Header = append(t.Header, r.SizeLabel)
			}
		}
		for k := 0; k < rows; k++ {
			iter := k
			if rows > 1 {
				iter = k * (maxIter - 1) / (rows - 1)
			}
			cells := []string{fmt.Sprint(iter)}
			for _, r := range runs {
				if iter < len(r.ActiveFraction) {
					cells = append(cells, fmt.Sprintf("%.3f", r.ActiveFraction[iter]))
				} else {
					cells = append(cells, "-") // converged earlier
				}
			}
			t.AddRow(cells...)
		}
		rep.Tables = append(rep.Tables, t)
	}
	return rep, nil
}

// maxNormalized formats each vector's dimensions divided by that
// dimension's largest value in vs (0 where it is 0): the within-figure
// max-normalization of §3.4.
func maxNormalized(vs []behavior.Vector) [][]string {
	var maxV behavior.Vector
	for _, v := range vs {
		for d := range maxV {
			maxV[d] = max(maxV[d], v[d])
		}
	}
	out := make([][]string, len(vs))
	for i, v := range vs {
		for d := range maxV {
			x := 0.0
			if maxV[d] > 0 {
				x = v[d] / maxV[d]
			}
			out[i] = append(out[i], fmt.Sprintf("%.4f", x))
		}
	}
	return out
}

// metricFigure prints the four per-edge metrics of the figure's runs,
// max-normalized within the figure: one algorithm across its graph sweep
// (Figures 2-10, keyed by size and α), or several across their sizes
// (Figure 12: Jacobi, LBP and DD, keyed by algorithm and size).
func metricFigure(c *Corpus, f figure, _ FigureOptions) (*Report, error) {
	var runs []*behavior.Run
	for _, alg := range f.algs {
		runs = append(runs, runsOf(c, alg)...)
	}
	raw := make([]behavior.Vector, len(runs))
	for i, r := range runs {
		raw[i] = r.Raw
	}
	metrics := []string{"UPDT", "WORK", "EREAD", "MSG", "iters"}
	note := "Per-edge metrics (value / iteration / edge), max-normalized to ≤ 1.0 within this figure (§3.4)."
	t := &Table{Header: append([]string{"size", "alpha"}, metrics...)}
	if len(f.algs) > 1 {
		note = "Per-edge metrics max-normalized to ≤ 1.0 within this figure (§3.4)."
		t.Header = append([]string{"algorithm", "size"}, metrics...)
	}
	for i, cells := range maxNormalized(raw) {
		r := runs[i]
		key := []string{r.SizeLabel, fmt.Sprintf("%.2f", r.Alpha)}
		if len(f.algs) > 1 {
			key = []string{r.Algorithm, r.SizeLabel}
		}
		t.AddRow(append(append(key, cells...), fmt.Sprint(r.Iterations))...)
	}
	return &Report{ID: "Figure " + f.id, Title: f.title, Notes: []string{note}, Tables: []*Table{t}}, nil
}

// allAlgorithmsFigure is Figure 13: every algorithm's mean metric values
// on one normalized scale, plus the §1 "1000-fold variation" check.
func allAlgorithmsFigure(c *Corpus, f figure, _ FigureOptions) (*Report, error) {
	rep := &Report{ID: "Figure " + f.id, Title: f.title,
		Notes: []string{
			"Mean per-edge metrics per algorithm, max-normalized across all algorithms.",
		}}
	byAlg := map[string][]*behavior.Run{}
	var order []string
	for _, r := range c.Runs {
		if _, ok := byAlg[r.Algorithm]; !ok {
			order = append(order, r.Algorithm)
		}
		byAlg[r.Algorithm] = append(byAlg[r.Algorithm], r)
	}
	means := make([]behavior.Vector, len(order))
	for i, alg := range order {
		for _, r := range byAlg[alg] {
			for d := range means[i] {
				means[i][d] += r.Raw[d]
			}
		}
		for d := range means[i] {
			means[i][d] /= float64(len(byAlg[alg]))
		}
	}
	t := &Table{Header: []string{"algorithm", "UPDT", "WORK", "EREAD", "MSG"}}
	for i, cells := range maxNormalized(means) {
		t.AddRow(append([]string{order[i]}, cells...)...)
	}
	rep.Tables = append(rep.Tables, t)

	rr := behavior.RangeRatio(c.Runs)
	v := &Table{Title: "Behavior variation across the corpus (contribution 1: ~1000-fold)",
		Header: []string{"dimension", "max/min ratio"}}
	for d := 0; d < behavior.Dims; d++ {
		v.AddRow(behavior.DimNames[d], F(rr[d]))
	}
	rep.Tables = append(rep.Tables, v)
	return rep, nil
}

// table1 reprints the paper's survey of prior comparative studies — it is
// background, not an experiment, and is included for completeness.
func table1(_ *Corpus, f figure, _ FigureOptions) (*Report, error) {
	rep := &Report{ID: "Table 1", Title: f.title,
		Notes: []string{"Static background from the paper; nothing to measure."}}
	t := &Table{Header: []string{"study", "systems", "algorithms", "graphs"}}
	t.AddRow("M. Han [10]", "Giraph, GPS, Mizan, GraphLab",
		"PageRank, SSSP, WCC, DMST",
		"soc-LiveJournal, com-Orkut, Arabic-2005, Twitter-2010, UK-2007-05")
	t.AddRow("B. Elser [6]", "Map-Reduce, Stratosphere, Hama, Giraph, GraphLab",
		"K-core decomposition",
		"ca.AstroPh, ca.CondMat, Amazon0601, web-BerkStan, com.Youtube, wiki-Talk, com.Orkut")
	t.AddRow("Y. Guo [9]", "Hadoop, YARN, Stratosphere, Giraph, GraphLab, Neo4j",
		"Statistics, BFS, CC, CD, GE",
		"Amazon, WikiTalk, KGS, Citation, DotaLeague, Synth, Friendster")
	rep.Tables = append(rep.Tables, t)
	return rep, nil
}

// table2 prints the realized campaign matrix: the graph feature variables
// per domain, as measured from the corpus.
func table2(c *Corpus, f figure, _ FigureOptions) (*Report, error) {
	rep := &Report{ID: "Table 2", Title: f.title,
		Notes: []string{
			"Scales are the laptop-scale mapping of the paper's Table 2 (see DESIGN.md §3).",
		}}
	sizes := map[string]map[string]bool{}
	alphas := map[string]map[string]bool{}
	algsOf := map[string]map[string]bool{}
	var domains []string
	for _, r := range c.Runs {
		if _, ok := sizes[r.Domain]; !ok {
			domains = append(domains, r.Domain)
			sizes[r.Domain] = map[string]bool{}
			alphas[r.Domain] = map[string]bool{}
			algsOf[r.Domain] = map[string]bool{}
		}
		sizes[r.Domain][r.SizeLabel] = true
		if r.Alpha != 0 {
			alphas[r.Domain][fmt.Sprintf("%.2f", r.Alpha)] = true
		}
		algsOf[r.Domain][r.Algorithm] = true
	}
	t := &Table{Header: []string{"domain", "algorithms", "sizes", "alpha"}}
	for _, d := range domains {
		t.AddRow(d, joinSortedBySize(algsOf[d], false), joinSortedBySize(sizes[d], true),
			joinSortedBySize(alphas[d], false))
	}
	rep.Tables = append(rep.Tables, t)
	return rep, nil
}

func joinSortedBySize(set map[string]bool, numeric bool) string {
	var xs []string
	for k := range set {
		xs = append(xs, k)
	}
	if numeric {
		sort.Slice(xs, func(i, j int) bool { return parseSizeLabel(xs[i]) < parseSizeLabel(xs[j]) })
	} else {
		sort.Strings(xs)
	}
	return strings.Join(xs, ", ")
}
