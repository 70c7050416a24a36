package engine

import (
	"sync"
	"testing"

	"gcbench/internal/gen"
	"gcbench/internal/graph"
	"gcbench/internal/obs"
)

func TestParseFrontierMode(t *testing.T) {
	cases := map[string]FrontierMode{
		"": FrontierAuto, "auto": FrontierAuto, "AUTO": FrontierAuto,
		"dense": FrontierDense, "Sparse": FrontierSparse,
	}
	for in, want := range cases {
		got, err := ParseFrontierMode(in)
		if err != nil || got != want {
			t.Fatalf("ParseFrontierMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseFrontierMode("bogus"); err == nil {
		t.Fatal("bogus frontier mode accepted")
	}
	for m, s := range map[FrontierMode]string{FrontierAuto: "auto", FrontierDense: "dense", FrontierSparse: "sparse"} {
		if m.String() != s {
			t.Fatalf("%d.String() = %q, want %q", m, m.String(), s)
		}
	}
}

// counterVector flattens the deterministic per-iteration counters of a
// trace for exact comparison across schedules.
func counterVector(t *testing.T, res *Result[float64]) []int64 {
	t.Helper()
	var out []int64
	for _, it := range res.Trace.Iterations {
		out = append(out, it.Active, it.Updates, it.EdgeReads, it.Messages)
	}
	return out
}

// TestFrontierModesIdenticalBehavior runs the same BFS under every
// frontier mode and worker count and requires bit-identical states and
// per-iteration behavior counters: execution strategy is an engine
// concern, behavior is the paper's invariant.
func TestFrontierModesIdenticalBehavior(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{NumEdges: 8000, Alpha: 2.2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	base, err := runEdge[float64, float64](g, &bfsProgram{source: 0}, Options{Workers: 1, Frontier: FrontierDense})
	if err != nil {
		t.Fatal(err)
	}
	want := counterVector(t, base)
	for _, mode := range []FrontierMode{FrontierDense, FrontierSparse, FrontierAuto} {
		for _, workers := range []int{1, 4, 8} {
			res, err := runEdge[float64, float64](g, &bfsProgram{source: 0}, Options{Workers: workers, Frontier: mode})
			if err != nil {
				t.Fatalf("mode=%v workers=%d: %v", mode, workers, err)
			}
			for v := range base.States {
				if res.States[v] != base.States[v] {
					t.Fatalf("mode=%v workers=%d: state[%d] = %v, want %v",
						mode, workers, v, res.States[v], base.States[v])
				}
			}
			got := counterVector(t, res)
			if len(got) != len(want) {
				t.Fatalf("mode=%v workers=%d: %d counter entries, want %d", mode, workers, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("mode=%v workers=%d: counter %d = %d, want %d", mode, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// hubGraph builds a hub-heavy graph: one vertex adjacent to every other —
// the power-law extreme where one frontier vertex owns nearly all edges
// and must not serialize an entire sparse slice behind it.
func hubGraph(t testing.TB, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n, false)
	for v := 1; v < n; v++ {
		b.AddEdge(0, uint32(v))
	}
	// A sparse ring among the leaves so the BFS has more than one wave.
	for v := 1; v < n-1; v++ {
		b.AddEdge(uint32(v), uint32(v+1))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSparseFrontierHubHeavy forces the sparse schedule on a hub-heavy
// graph under full parallelism — the race-enabled regression for
// edge-balanced slice dealing (run with -race in CI).
func TestSparseFrontierHubHeavy(t *testing.T) {
	g := hubGraph(t, 20_000)
	dense, err := runEdge[float64, float64](g, &bfsProgram{source: 0}, Options{Workers: 1, Frontier: FrontierDense})
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := runEdge[float64, float64](g, &bfsProgram{source: 0}, Options{Workers: 8, Frontier: FrontierSparse})
	if err != nil {
		t.Fatal(err)
	}
	for v := range dense.States {
		if sparse.States[v] != dense.States[v] {
			t.Fatalf("state[%d] = %v, want %v", v, sparse.States[v], dense.States[v])
		}
	}
	dc, sc := counterVector(t, dense), counterVector(t, sparse)
	if len(dc) != len(sc) {
		t.Fatalf("trace lengths differ: %d vs %d", len(dc), len(sc))
	}
	for i := range dc {
		if dc[i] != sc[i] {
			t.Fatalf("counter %d: sparse %d != dense %d", i, sc[i], dc[i])
		}
	}
	for _, it := range sparse.Trace.Iterations {
		if it.GatherMode != modeSparse || it.ApplyMode != modeSparse || it.ScatterMode != modeSparse {
			t.Fatalf("iteration %d: forced-sparse run recorded modes %q/%q/%q",
				it.Iteration, it.GatherMode, it.ApplyMode, it.ScatterMode)
		}
	}
}

// TestAutoModeSelection checks the adaptive heuristic end to end: a
// one-vertex frontier on a large graph schedules sparse, an all-active
// frontier schedules dense, and the trace records the decisions.
func TestAutoModeSelection(t *testing.T) {
	g := pathGraph(t, 20_000)
	res, err := runEdge[float64, float64](g, &bfsProgram{source: 0}, Options{Workers: 4, Frontier: FrontierAuto})
	if err != nil {
		t.Fatal(err)
	}
	// BFS on a path keeps at most 2 vertices active: every iteration is
	// deep in the sparse regime.
	for _, it := range res.Trace.Iterations {
		if it.GatherMode != modeSparse {
			t.Fatalf("iteration %d (active=%d): gather ran %q, want sparse", it.Iteration, it.Active, it.GatherMode)
		}
	}

	pl, err := gen.PowerLaw(gen.PowerLawConfig{NumEdges: 20_000, Alpha: 2.2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dense, err := runEdge[float64, float64](pl, rankLike{}, Options{Workers: 4, MaxIterations: 3, Frontier: FrontierAuto})
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range dense.Trace.Iterations {
		if it.GatherMode != modeDense || it.ApplyMode != modeDense || it.ScatterMode != modeDense {
			t.Fatalf("all-active iteration %d recorded modes %q/%q/%q, want dense",
				it.Iteration, it.GatherMode, it.ApplyMode, it.ScatterMode)
		}
	}
}

// TestHubPhaseStaysDenseUnderAuto: a tiny frontier holding a hub that
// reaches most arcs keeps its edge phases dense (the degree-prefix
// estimate), while the edge-free apply phase goes sparse.
func TestHubPhaseStaysDenseUnderAuto(t *testing.T) {
	g := hubGraph(t, 50_000)
	res, err := runEdge[float64, float64](g, &bfsProgram{source: 0}, Options{Workers: 4, Frontier: FrontierAuto})
	if err != nil {
		t.Fatal(err)
	}
	it0 := res.Trace.Iterations[0]
	if it0.Active != 1 {
		t.Fatalf("iteration 0 active = %d, want 1 (the hub)", it0.Active)
	}
	// The hub alone reaches ~all arcs: scatter must run dense despite the
	// singleton frontier; apply has no edges and must run sparse.
	if it0.ScatterMode != modeDense {
		t.Fatalf("hub scatter ran %q, want dense (edge estimate)", it0.ScatterMode)
	}
	if it0.ApplyMode != modeSparse {
		t.Fatalf("hub apply ran %q, want sparse", it0.ApplyMode)
	}
}

// TestParallelDealCapsSpawn: a phase with fewer granules than workers
// must not hand work to more worker IDs than there are granules (the
// goroutine-per-phase startup fix), while per-worker arrays stay sized
// at Options.Workers.
func TestParallelDealCapsSpawn(t *testing.T) {
	g := pathGraph(t, 2*chunkSize) // exactly 2 chunks
	e := &engine[int, int]{g: g, ws: make([]worker, 8)}
	var mu sync.Mutex
	seen := map[int]bool{}
	e.parallelDeal(e.numChunks(), func(worker int, _ int64) {
		mu.Lock()
		seen[worker] = true
		mu.Unlock()
	})
	if len(seen) > 2 {
		t.Fatalf("2-chunk graph used %d workers, want <= 2", len(seen))
	}
	for w := range seen {
		if w < 0 || w >= 8 {
			t.Fatalf("worker id %d out of range", w)
		}
	}

	// Span arrays keep full Workers length regardless of spawn count.
	res, err := runEdge[float64, float64](g, &bfsProgram{source: 0}, Options{Workers: 8, MaxIterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range res.Trace.Iterations {
		if len(it.WorkerSpans) != 8 {
			t.Fatalf("iteration %d: %d worker spans, want 8", it.Iteration, len(it.WorkerSpans))
		}
	}
}

func TestBitsetCountRange(t *testing.T) {
	b := newBitset(300)
	for _, i := range []uint32{0, 63, 64, 127, 128, 255, 299} {
		b.SetSerial(i)
	}
	cases := []struct {
		lo, hi uint32
		want   int64
	}{
		{0, 300, 7}, {0, 64, 2}, {64, 128, 2}, {128, 300, 3}, {192, 256, 1}, {256, 300, 1},
	}
	for _, c := range cases {
		if got := b.CountRange(c.lo, c.hi); got != c.want {
			t.Fatalf("CountRange(%d, %d) = %d, want %d", c.lo, c.hi, got, c.want)
		}
	}
	if got, want := b.CountRange(0, 300), b.Count(); got != want {
		t.Fatalf("full CountRange %d != Count %d", got, want)
	}
}

// TestFrontierMetricsAdvance: a sparse run feeds the obs registry's
// frontier counters.
func TestFrontierMetricsAdvance(t *testing.T) {
	before := obs.Default().Snapshot()
	g := pathGraph(t, 20_000)
	if _, err := runEdge[float64, float64](g, &bfsProgram{source: 0}, Options{Workers: 2, Frontier: FrontierAuto}); err != nil {
		t.Fatal(err)
	}
	after := obs.Default().Snapshot()
	if d := after["gcbench_engine_frontier_mode_total"] - before["gcbench_engine_frontier_mode_total"]; d <= 0 {
		t.Fatalf("frontier mode decisions advanced by %v, want > 0", d)
	}
	if d := after["gcbench_engine_frontier_sparse_phases_total"] - before["gcbench_engine_frontier_sparse_phases_total"]; d <= 0 {
		t.Fatalf("sparse phase counter advanced by %v, want > 0", d)
	}
}

// TestFrontierSwitchCounted: a run whose frontier collapses from
// all-active to a trickle flips dense→sparse exactly once under Auto.
func TestFrontierSwitchCounted(t *testing.T) {
	before := obs.Default().Snapshot()
	// CC-like start (everyone active) that quiesces down a path: use BFS
	// from all sources via alwaysOn? Simpler: run dense-heavy rankLike for
	// 2 iterations, then a path BFS — the switch metric is process-wide,
	// so assert it advances across a run that mixes regimes.
	g := pathGraph(t, 20_000)
	p := &denseThenSparse{}
	if _, err := runEdge[float64, float64](g, p, Options{Workers: 2, Frontier: FrontierAuto}); err != nil {
		t.Fatal(err)
	}
	after := obs.Default().Snapshot()
	if d := after["gcbench_engine_frontier_switches_total"] - before["gcbench_engine_frontier_switches_total"]; d < 1 {
		t.Fatalf("switch counter advanced by %v, want >= 1", d)
	}
}

// denseThenSparse keeps everyone active for the first iterations, then
// collapses to a single vertex — forcing a dense→sparse transition.
type denseThenSparse struct{}

func (denseThenSparse) Init(_ *graph.Graph, _ uint32) (float64, bool) { return 0, true }
func (denseThenSparse) GatherDirection() Direction                    { return None }
func (denseThenSparse) Gather(uint32, Arc, float64, float64) float64  { return 0 }
func (denseThenSparse) Sum(a, b float64) float64                      { return a + b }
func (denseThenSparse) Apply(_ uint32, self, _ float64, _ bool) float64 {
	return self + 1
}
func (denseThenSparse) ScatterDirection() Direction { return None }
func (denseThenSparse) Scatter(uint32, Arc, float64, float64) bool {
	return false
}
func (denseThenSparse) PostIteration(c *Control[float64]) bool {
	switch c.Iteration() {
	case 0, 1:
		c.ActivateAll()
		return false
	case 2, 3:
		c.Activate(7)
		return false
	}
	return true
}
