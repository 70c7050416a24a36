// Integration tests over the public API: the workflows README promises.
package gcbench_test

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"

	"gcbench"
)

func TestPublicAPIWorkflow(t *testing.T) {
	// Generate → run → behavior vector, all through the facade.
	g, err := gcbench.PowerLaw(gcbench.PowerLawConfig{NumEdges: 2000, Alpha: 2.3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	out, ranks, err := gcbench.PageRank(g, gcbench.PageRankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ranks) != g.NumVertices() {
		t.Fatalf("ranks length %d", len(ranks))
	}
	if out.Trace.NumIterations() == 0 {
		t.Fatal("no iterations")
	}
}

func TestPublicAPISweepToFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("mini sweep")
	}
	// A reduced hand-built plan, through sweep → corpus → figure.
	var specs []gcbench.Spec
	for _, alg := range []gcbench.AlgorithmName{"CC", "PR", "TC", "KM", "AD", "SSSP", "KC"} {
		for _, alpha := range []float64{2.0, 3.0} {
			specs = append(specs, gcbench.Spec{
				Algorithm: alg, NumEdges: 500, Alpha: alpha,
				SizeLabel: "500", Seed: uint64(alpha * 10),
			})
		}
	}
	for _, alg := range []gcbench.AlgorithmName{"ALS", "NMF", "SGD", "SVD"} {
		for _, alpha := range []float64{2.0, 3.0} {
			specs = append(specs, gcbench.Spec{
				Algorithm: alg, NumEdges: 200, Alpha: alpha,
				SizeLabel: "200", Seed: uint64(alpha * 10),
			})
		}
	}
	runs, err := gcbench.Sweep(specs, gcbench.SweepConfig{})
	if err != nil {
		t.Fatal(err)
	}

	// Persistence round trip.
	path := filepath.Join(t.TempDir(), "runs.json")
	if err := gcbench.SaveRuns(path, runs); err != nil {
		t.Fatal(err)
	}
	loaded, err := gcbench.LoadRuns(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(runs) {
		t.Fatalf("loaded %d runs, want %d", len(loaded), len(runs))
	}

	corpus, err := gcbench.NewCorpus(loaded)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := gcbench.Figure(corpus, "13", gcbench.FigureOptions{CoverageSamples: 1000})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.Render(&buf); err != nil {
		t.Fatal(err)
	}
	for _, alg := range []string{"CC", "PR", "ALS"} {
		if !strings.Contains(buf.String(), alg) {
			t.Fatalf("figure 13 missing %s:\n%s", alg, buf.String())
		}
	}
}

func TestParseAlgorithm(t *testing.T) {
	n, err := gcbench.ParseAlgorithm("pagerank")
	if err == nil {
		t.Fatalf("fuzzy name accepted: %v", n)
	}
	n, err = gcbench.ParseAlgorithm("pr")
	if err != nil || n != "PR" {
		t.Fatalf("ParseAlgorithm(pr) = %v, %v", n, err)
	}
	n, err = gcbench.ParseAlgorithm("Jacobi")
	if err != nil || n != "Jacobi" {
		t.Fatalf("ParseAlgorithm(Jacobi) = %v, %v", n, err)
	}
	if len(gcbench.AllAlgorithms()) != 14 {
		t.Fatalf("AllAlgorithms = %d entries, want 14", len(gcbench.AllAlgorithms()))
	}
}

func TestEnsembleAPIEndToEnd(t *testing.T) {
	// Spread/coverage over hand-made vectors through the facade.
	pts := []gcbench.Vector{
		{0, 0, 0, 0}, {1, 1, 1, 1}, {1, 0, 0, 1}, {0.5, 0.5, 0.5, 0.5},
	}
	if s := gcbench.Spread(pts[:2]); s != 2 {
		t.Fatalf("spread = %v, want 2", s)
	}
	cov, err := gcbench.NewCoverageEstimator(5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c := cov.Coverage(pts); c <= 0 {
		t.Fatalf("coverage = %v", c)
	}
	idx := []int{0, 1, 2, 3}
	best, err := gcbench.BestSpreadExhaustive(context.Background(), pts, idx, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(best[2]) != 2 {
		t.Fatalf("best pair size %d", len(best[2]))
	}
}
