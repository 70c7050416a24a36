package pregel

import (
	"math"
	"reflect"
	"testing"

	"gcbench/internal/algorithms"
	"gcbench/internal/gen"
	"gcbench/internal/graph"
	"gcbench/internal/trace"
)

func testGraph(t *testing.T, edges int64, alpha float64, seed uint64) *graph.Graph {
	t.Helper()
	g, err := gen.PowerLaw(gen.PowerLawConfig{NumEdges: edges, Alpha: alpha, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCCMatchesGAS(t *testing.T) {
	g := testGraph(t, 2500, 2.4, 3)
	res, err := Run(g, FromKernel[uint32](algorithms.MinLabel{}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, gasLabels, err := algorithms.ConnectedComponents(g, algorithms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v := range gasLabels {
		if res.States[v] != gasLabels[v] {
			t.Fatalf("vertex %d: pregel %d, GAS %d", v, res.States[v], gasLabels[v])
		}
	}
	if !res.Trace.Converged {
		t.Fatal("did not converge")
	}
}

func TestSSSPMatchesGAS(t *testing.T) {
	g := testGraph(t, 2500, 2.2, 5)
	res, err := Run(g, FromKernel[float64](algorithms.Relax{Source: 0}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, gasDist, err := algorithms.SingleSourceShortestPath(g, 0, algorithms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v := range gasDist {
		if res.States[v] != gasDist[v] {
			t.Fatalf("vertex %d: pregel %v, GAS %v", v, res.States[v], gasDist[v])
		}
	}
}

func TestPageRankMatchesPowerIteration(t *testing.T) {
	g := testGraph(t, 2000, 2.5, 7)
	const steps = 60
	res, err := Run[float64, float64](g, PRProgram{Damping: 0.85, Supersteps: steps}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// GAS PageRank with a tight tolerance converges to the same fixed
	// point the Pregel fixed-superstep run approaches.
	_, gasRanks, err := algorithms.PageRank(g, algorithms.PageRankOptions{Tolerance: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	for v := range gasRanks {
		if math.Abs(res.States[v]-gasRanks[v]) > 1e-4*(1+gasRanks[v]) {
			t.Fatalf("vertex %d: pregel %v, GAS %v", v, res.States[v], gasRanks[v])
		}
	}
}

func TestVoteToHaltAndReactivation(t *testing.T) {
	// On a path, SSSP's frontier sweeps once: each superstep exactly one
	// new vertex improves (plus the initial source announcement).
	n := 12
	b := graph.NewBuilder(n, false)
	for i := 0; i < n-1; i++ {
		b.AddEdge(uint32(i), uint32(i+1))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, FromKernel[float64](algorithms.Relax{Source: 0}), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < n; v++ {
		if res.States[v] != float64(v) {
			t.Fatalf("dist[%d] = %v", v, res.States[v])
		}
	}
	its := res.Trace.Iterations
	// Superstep 0: all vertices compute (Pregel starts everyone active),
	// then all vote to halt except those the source's message reactivates.
	if its[0].Active != int64(n) {
		t.Fatalf("superstep 0 active = %d, want %d", its[0].Active, n)
	}
	// After the initial all-active superstep, only the frontier vertex and
	// (from superstep 2 on) its reactivated-but-unimproved predecessor
	// compute — undirected edges message both ways.
	for s := 1; s < len(its)-1; s++ {
		if its[s].Active < 1 || its[s].Active > 2 {
			t.Fatalf("superstep %d active = %d, want 1 or 2 (path frontier + rear)", s, its[s].Active)
		}
	}
}

func TestCombinerReducesDelivery(t *testing.T) {
	// A star: all leaves message the hub in superstep 0 of CC. The
	// combiner must deliver exactly one combined message (the minimum),
	// and the hub must adopt label 0.
	n := 9
	b := graph.NewBuilder(n, false)
	for i := 1; i < n; i++ {
		b.AddEdge(0, uint32(i))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, FromKernel[uint32](algorithms.MinLabel{}), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < n; v++ {
		if res.States[v] != 0 {
			t.Fatalf("label[%d] = %d, want 0", v, res.States[v])
		}
	}
	// Messages counted pre-combining: superstep 0 sends one per arc.
	if res.Trace.Iterations[0].Messages != g.NumArcs() {
		t.Fatalf("superstep 0 messages = %d, want %d", res.Trace.Iterations[0].Messages, g.NumArcs())
	}
}

// TestDeterministicAcrossWorkers runs each program at 1, 2 and 8 workers,
// where sends fold into per-worker outboxes concurrently (go test -race
// covers the in-place fold) and merge in worker order. CC labels and SSSP
// distances are minima, so they agree exactly; PR ranks are sums, and a
// worker's partial sum can round differently, so they agree to 1e-12
// relative. The counters do not depend on the worker count at all.
func TestDeterministicAcrossWorkers(t *testing.T) {
	g := testGraph(t, 3000, 2.3, 9)
	acrossWorkers(t, g, FromKernel[uint32](algorithms.MinLabel{}), 0)
	acrossWorkers(t, g, FromKernel[float64](algorithms.Relax{Source: g.MaxDegreeVertex()}), 0)
	acrossWorkers[float64, float64](t, g, PRProgram{Damping: 0.85, Supersteps: 30}, 1e-12)
}

func acrossWorkers[S interface{ ~uint32 | ~float64 }, M any](t *testing.T, g *graph.Graph, p Program[S, M], rel float64) {
	t.Helper()
	var base *trace.Result[S]
	for _, workers := range []int{1, 2, 8} {
		res, err := Run(g, p, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res
			continue
		}
		for v, want := range base.States {
			if got := res.States[v]; got != want && math.Abs(float64(got-want)) > rel*math.Abs(float64(want)) {
				t.Fatalf("%T, workers=%d: vertex %d = %v, at one worker %v", p, workers, v, got, want)
			}
		}
		if !reflect.DeepEqual(counters(res.Trace), counters(base.Trace)) {
			t.Fatalf("%T, workers=%d: counters differ from one worker's", p, workers)
		}
	}
}

// counters strips the wall times from a trace.
func counters(tr *trace.RunTrace) [][4]int64 {
	var c [][4]int64
	for _, it := range tr.Iterations {
		c = append(c, [4]int64{it.Active, it.Updates, it.EdgeReads, it.Messages})
	}
	return c
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(nil, FromKernel[uint32](algorithms.MinLabel{}), Options{}); err == nil {
		t.Fatal("nil graph accepted")
	}
}
