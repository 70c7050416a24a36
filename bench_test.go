// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation, so `go test -bench=.` exercises every experiment's
// regeneration path. Figures 1-12 benchmark the workload behind the
// figure (the instrumented graph computation); Figure 13 benchmarks a
// whole mini-campaign; Figures 14-23 and Table 3 benchmark the ensemble
// analytics on a prebuilt corpus. `gcbench figures` prints the actual
// rows/series; these targets measure the cost of producing them.
package gcbench_test

import (
	"sync"
	"testing"

	"gcbench"
)

// benchEdges sizes the workload benchmarks.
const benchEdges = 50_000

func benchGraph(b *testing.B, alpha float64) *gcbench.Graph {
	b.Helper()
	g, err := gcbench.PowerLaw(gcbench.PowerLawConfig{
		NumEdges: benchEdges, Alpha: alpha, Seed: 7, SortAdjacency: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	pts := gcbench.GaussianPoints2D(g.NumVertices(), 8, 15, 7)
	if err := g.SetFeatures(2, pts); err != nil {
		b.Fatal(err)
	}
	return g
}

func benchRating(b *testing.B) (*gcbench.Graph, int) {
	b.Helper()
	g, users, err := gcbench.Bipartite(gcbench.BipartiteConfig{
		NumEdges: benchEdges / 5, Alpha: 2.5, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	return g, users
}

// --- corpus shared by the ensemble-analysis benchmarks ---

var (
	corpusOnce sync.Once
	corpus     *gcbench.Corpus
	corpusErr  error
)

func benchCorpus(b *testing.B) *gcbench.Corpus {
	b.Helper()
	corpusOnce.Do(func() {
		specs, err := gcbench.BuildPlan(gcbench.ProfileQuick, 42)
		if err != nil {
			corpusErr = err
			return
		}
		runs, err := gcbench.Sweep(specs, gcbench.SweepConfig{})
		if err != nil {
			corpusErr = err
			return
		}
		corpus, corpusErr = gcbench.NewCorpus(runs)
	})
	if corpusErr != nil {
		b.Fatal(corpusErr)
	}
	return corpus
}

// benchFigureOpt keeps the analysis benchmarks fast but representative.
var benchFigureOpt = gcbench.FigureOptions{
	CoverageSamples: 100_000,
	TopKSamples:     5_000,
	MaxSize:         10,
	TopKSize:        4,
}

func benchFigure(b *testing.B, id string) {
	c := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gcbench.Figure(c, id, benchFigureOpt); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Tables ---

func BenchmarkTable1Survey(b *testing.B)       { benchFigure(b, "table1") }
func BenchmarkTable2CampaignPlan(b *testing.B) { benchFigure(b, "table2") }
func BenchmarkTable3BestEnsembles(b *testing.B) {
	benchFigure(b, "table3")
}

// --- Figures 1-12: the workloads behind the behavior figures ---

func BenchmarkFig01GAActiveFraction(b *testing.B) {
	// The GA campaign's frontier-style algorithm: SSSP's active fraction
	// growth is the shape Figure 1 contrasts against CC/KC/PR.
	g := benchGraph(b, 2.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := gcbench.SingleSourceShortestPath(g, 0, gcbench.AlgorithmOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig02KCMetrics(b *testing.B) {
	g := benchGraph(b, 2.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := gcbench.KCoreDecomposition(g, gcbench.AlgorithmOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig03TCMetrics(b *testing.B) {
	g := benchGraph(b, 2.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := gcbench.TriangleCounting(g, gcbench.AlgorithmOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig04PRMetrics(b *testing.B) {
	g := benchGraph(b, 2.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := gcbench.PageRank(g, gcbench.PageRankOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig05KMActive(b *testing.B) {
	g := benchGraph(b, 2.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt := gcbench.KMeansOptions{Seed: 7}
		opt.MaxIterations = 50
		if _, _, err := gcbench.KMeans(g, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig06KMMetrics(b *testing.B) { BenchmarkFig05KMActive(b) }

func BenchmarkFig07ALSActive(b *testing.B) {
	g, users := benchRating(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := gcbench.AlternatingLeastSquares(g, users, gcbench.AlgorithmOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig08ALSMetrics(b *testing.B) { BenchmarkFig07ALSActive(b) }

func BenchmarkFig09SGDMetrics(b *testing.B) {
	g, users := benchRating(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := gcbench.StochasticGradientDescent(g, users, gcbench.AlgorithmOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10SVDMetrics(b *testing.B) {
	g, users := benchRating(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := gcbench.SingularValueDecomposition(g, users, gcbench.AlgorithmOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11LBPActive(b *testing.B) {
	m, err := gcbench.Grid(gcbench.GridConfig{Rows: 40, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := gcbench.LoopyBeliefPropagation(m, gcbench.AlgorithmOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12SolverMetrics(b *testing.B) {
	sys, err := gcbench.Matrix(gcbench.JacobiConfig{NumRows: 2000, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	mrf, err := gcbench.RandomMRF(gcbench.MRFConfig{NumEdges: 1056, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := gcbench.JacobiSolve(sys, gcbench.AlgorithmOptions{}); err != nil {
			b.Fatal(err)
		}
		if _, _, err := gcbench.DualDecomposition(mrf, gcbench.AlgorithmOptions{MaxIterations: 200}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13AllAlgorithms(b *testing.B) { benchFigure(b, "13") }

// --- Figures 14-23: ensemble analytics ---

func BenchmarkFig14SpreadSingleAlg(b *testing.B)      { benchFigure(b, "14") }
func BenchmarkFig15CoverageSingleAlg(b *testing.B)    { benchFigure(b, "15") }
func BenchmarkFig16SpreadSingleGraph(b *testing.B)    { benchFigure(b, "16") }
func BenchmarkFig17CoverageSingleGraph(b *testing.B)  { benchFigure(b, "17") }
func BenchmarkFig18SpreadUnrestricted(b *testing.B)   { benchFigure(b, "18") }
func BenchmarkFig19CoverageUnrestricted(b *testing.B) { benchFigure(b, "19") }
func BenchmarkFig20FreqSpread(b *testing.B)           { benchFigure(b, "20") }
func BenchmarkFig21FreqCoverage(b *testing.B)         { benchFigure(b, "21") }
func BenchmarkFig22SpreadLimited(b *testing.B)        { benchFigure(b, "22") }
func BenchmarkFig23CoverageLimited(b *testing.B)      { benchFigure(b, "23") }
