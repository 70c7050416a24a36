package report

import (
	"bytes"
	"strings"
	"testing"

	"gcbench/internal/algorithms"
	"gcbench/internal/behavior"
	"gcbench/internal/sweep"
)

func TestTableRender(t *testing.T) {
	tab := &Table{
		Title:  "demo",
		Header: []string{"a", "long-header", "c"},
		Rows:   [][]string{{"1", "2", "3"}, {"wide-cell", "x", "y"}},
	}
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"demo", "long-header", "wide-cell", "---"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTableRenderCSV(t *testing.T) {
	tab := &Table{
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "has,comma"}, {"q\"uote", "z"}},
	}
	var buf bytes.Buffer
	if err := tab.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"has,comma"`) {
		t.Fatalf("comma not quoted: %s", out)
	}
	if !strings.Contains(out, `"q""uote"`) {
		t.Fatalf("quote not escaped: %s", out)
	}
}

func TestF(t *testing.T) {
	if F(0) != "0" {
		t.Fatal("F(0)")
	}
	if F(0.5) != "0.5000" {
		t.Fatalf("F(0.5) = %q", F(0.5))
	}
	if !strings.Contains(F(1e-9), "e") {
		t.Fatalf("F(1e-9) = %q, want scientific", F(1e-9))
	}
}

// miniCorpus runs a small but complete campaign: every algorithm, two
// sizes, two alphas — enough structure for every figure to render.
func miniCorpus(t testing.TB) *Corpus {
	t.Helper()
	var specs []sweep.Spec
	gaAlgs := []algorithms.Name{algorithms.CC, algorithms.KC, algorithms.TC,
		algorithms.SSSP, algorithms.PR, algorithms.AD, algorithms.KM}
	for _, alg := range gaAlgs {
		for _, size := range []int64{300, 1000} {
			for _, alpha := range []float64{2.0, 2.5, 3.0} {
				specs = append(specs, sweep.Spec{Algorithm: alg, NumEdges: size,
					Alpha: alpha, SizeLabel: sizeLabelFor(size), Seed: uint64(size) ^ uint64(alpha*100)})
			}
		}
	}
	for _, alg := range []algorithms.Name{algorithms.ALS, algorithms.NMF, algorithms.SGD, algorithms.SVD} {
		for _, size := range []int64{100, 400} {
			for _, alpha := range []float64{2.0, 2.5, 3.0} {
				specs = append(specs, sweep.Spec{Algorithm: alg, NumEdges: size,
					Alpha: alpha, SizeLabel: sizeLabelFor(size), Seed: uint64(size) ^ uint64(alpha*100)})
			}
		}
	}
	specs = append(specs,
		sweep.Spec{Algorithm: algorithms.Jacobi, NumRows: 100, SizeLabel: "100", Seed: 1},
		sweep.Spec{Algorithm: algorithms.Jacobi, NumRows: 200, SizeLabel: "200", Seed: 2},
		sweep.Spec{Algorithm: algorithms.LBP, NumRows: 8, SizeLabel: "8", Seed: 3},
		sweep.Spec{Algorithm: algorithms.LBP, NumRows: 12, SizeLabel: "12", Seed: 4},
		sweep.Spec{Algorithm: algorithms.DD, NumEdges: 60, SizeLabel: "60", Seed: 5},
		sweep.Spec{Algorithm: algorithms.DD, NumEdges: 90, SizeLabel: "90", Seed: 6},
	)
	runs, err := sweep.Execute(specs, sweep.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCorpus(runs)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// sizeLabelFor is the Table 2 scale label of the mini campaign's sizes.
func sizeLabelFor(n int64) string {
	return map[int64]string{100: "100", 300: "300", 400: "400", 1000: "1e3"}[n]
}

var testOpt = FigureOptions{
	CoverageSamples: 20000,
	TopKSamples:     2000,
	MaxSize:         8,
	TopKSize:        3,
}

func TestAllFiguresRender(t *testing.T) {
	if testing.Short() {
		t.Skip("mini campaign takes a few seconds")
	}
	c := miniCorpus(t)
	for _, id := range FigureIDs() {
		rep, err := Figure(c, id, testOpt)
		if err != nil {
			t.Fatalf("figure %s: %v", id, err)
		}
		var buf bytes.Buffer
		if err := rep.Render(&buf); err != nil {
			t.Fatalf("figure %s render: %v", id, err)
		}
		if buf.Len() < 40 {
			t.Fatalf("figure %s suspiciously empty:\n%s", id, buf.String())
		}
		if len(rep.Tables) == 0 {
			t.Fatalf("figure %s has no tables", id)
		}
	}
}

func TestUnknownFigure(t *testing.T) {
	c := &Corpus{}
	if _, err := Figure(c, "99", FigureOptions{}); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestParseSizeLabel(t *testing.T) {
	cases := map[string]int64{"1e3": 1000, "2e4": 20000, "300": 300, "1056": 1056}
	for s, want := range cases {
		if got := parseSizeLabel(s); got != want {
			t.Fatalf("parseSizeLabel(%q) = %d, want %d", s, got, want)
		}
	}
}

func TestCorpusSizeRanks(t *testing.T) {
	runs := []*behavior.Run{
		{Algorithm: "CC", Domain: "Graph Analytics", SizeLabel: "1e3", Alpha: 2.0, Raw: behavior.Vector{1, 1, 1, 1}},
		{Algorithm: "CC", Domain: "Graph Analytics", SizeLabel: "1e4", Alpha: 2.0, Raw: behavior.Vector{1, 1, 1, 1}},
		{Algorithm: "ALS", Domain: "Collaborative Filtering", SizeLabel: "100", Alpha: 2.0, Raw: behavior.Vector{1, 1, 1, 1}},
		{Algorithm: "ALS", Domain: "Collaborative Filtering", SizeLabel: "1e3", Alpha: 2.0, Raw: behavior.Vector{1, 1, 1, 1}},
	}
	c, err := NewCorpus(runs)
	if err != nil {
		t.Fatal(err)
	}
	// Ranks align the smallest size of each domain at 0 even though the
	// absolute scales differ by a decade.
	if c.SizeRank(runs[0]) != 0 || c.SizeRank(runs[1]) != 1 {
		t.Fatalf("GA ranks: %d, %d", c.SizeRank(runs[0]), c.SizeRank(runs[1]))
	}
	if c.SizeRank(runs[2]) != 0 || c.SizeRank(runs[3]) != 1 {
		t.Fatalf("CF ranks: %d, %d", c.SizeRank(runs[2]), c.SizeRank(runs[3]))
	}
	// Pool excludes nothing here (all graph-varying).
	if c.Pool.Len() != 4 {
		t.Fatalf("pool size %d, want 4", c.Pool.Len())
	}
}

func TestCorpusPoolExcludesFixedGraphAlgorithms(t *testing.T) {
	runs := []*behavior.Run{
		{Algorithm: "CC", Domain: "Graph Analytics", SizeLabel: "1e3", Alpha: 2.0, Raw: behavior.Vector{1, 1, 1, 1}},
		{Algorithm: "Jacobi", Domain: "Linear Solver", SizeLabel: "500", Raw: behavior.Vector{2, 2, 2, 2}},
		{Algorithm: "DD", Domain: "Graphical Model", SizeLabel: "1056", Raw: behavior.Vector{3, 3, 3, 3}},
	}
	c, err := NewCorpus(runs)
	if err != nil {
		t.Fatal(err)
	}
	if c.Pool.Len() != 1 || c.Pool.Runs[0].Algorithm != "CC" {
		t.Fatalf("pool = %d runs", c.Pool.Len())
	}
	// Full space still normalizes over everything.
	if c.Space.Max != (behavior.Vector{3, 3, 3, 3}) {
		t.Fatalf("space max = %v", c.Space.Max)
	}
}
