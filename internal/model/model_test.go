package model

import (
	"context"
	"math"
	"strings"
	"testing"

	"gcbench/internal/algorithms"
	"gcbench/internal/gen"
	"gcbench/internal/graph"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.PowerLaw(gen.PowerLawConfig{NumEdges: 4000, Alpha: 2.1, Seed: 7})
	if err != nil {
		t.Fatalf("generating graph: %v", err)
	}
	return g
}

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		want Name
	}{
		{"", GAS},
		{"gas", GAS},
		{"GAS", GAS},
		{"Pregel", Pregel},
		{"xstream", XStream},
		{"GraphCentric", GraphCentric},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if err != nil || got != c.want {
			t.Errorf("Parse(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	if _, err := Parse("giraph"); err == nil {
		t.Fatal("Parse(giraph) succeeded")
	} else {
		// The error must teach the valid names, mirroring algorithms.Parse.
		for _, n := range AllNames() {
			if !strings.Contains(err.Error(), string(n)) {
				t.Errorf("Parse error %q does not list %s", err, n)
			}
		}
	}
}

func TestTagRoundTrip(t *testing.T) {
	if Tag(GAS) != "" {
		t.Errorf("Tag(GAS) = %q, want empty (pre-model-axis encoding)", Tag(GAS))
	}
	if Tag("") != "" {
		t.Errorf("Tag(\"\") = %q, want empty", Tag(""))
	}
	for _, n := range AllNames() {
		if Canonical(Tag(n)) != n {
			t.Errorf("Canonical(Tag(%s)) = %s", n, Canonical(Tag(n)))
		}
	}
}

func TestSupportsMatrix(t *testing.T) {
	for _, n := range AllNames() {
		m, err := ForName(n)
		if err != nil {
			t.Fatalf("ForName(%s): %v", n, err)
		}
		if m.Name() != n {
			t.Errorf("ForName(%s).Name() = %s", n, m.Name())
		}
		var algs []algorithms.Name
		for _, a := range algorithms.AllNames() {
			if m.Supports(a) {
				algs = append(algs, a)
			}
		}
		if n == GAS && len(algs) != len(algorithms.AllNames()) {
			t.Errorf("GAS supports %d algorithms, want all %d", len(algs), len(algorithms.AllNames()))
		}
		if n != GAS && len(algs) == 0 {
			t.Errorf("%s supports no algorithms", n)
		}
	}
	// Every multi-model algorithm includes GAS, so cross-model result
	// equivalence always has the paper's engine as its oracle.
	for _, a := range algorithms.AllNames() {
		ms := Supporting(a)
		if len(ms) == 0 || ms[0] != GAS {
			t.Errorf("Supporting(%s) = %v, want GAS first", a, ms)
		}
	}
}

// TestCrossModelResultEquivalence runs every algorithm that ≥2 models
// implement under each of them on one fixed graph and asserts the
// results agree: exact for the discrete outcomes (CC components, SSSP
// reachability), tolerance-bounded for PR ranks (each model has its own
// convergence criterion). This is §3.3's conservation claim made
// executable.
func TestCrossModelResultEquivalence(t *testing.T) {
	g := testGraph(t)
	w := Workload{Graph: g}
	type check struct {
		key string
		tol float64 // 0 = exact
	}
	checks := map[algorithms.Name][]check{
		algorithms.CC:   {{key: "components"}},
		algorithms.SSSP: {{key: "reached"}, {key: "maxDistance"}},
		algorithms.PR:   {{key: "sumRank", tol: 1e-3}, {key: "maxRank", tol: 1e-2}},
	}
	for alg, cs := range checks {
		models := Supporting(alg)
		if len(models) < 2 {
			t.Fatalf("%s is supported by %v, want ≥2 models", alg, models)
		}
		results := map[Name]*Result{}
		for _, n := range models {
			m, err := ForName(n)
			if err != nil {
				t.Fatal(err)
			}
			res, err := m.Run(context.Background(), w, alg, Options{})
			if err != nil {
				t.Fatalf("%s/%s: %v", n, alg, err)
			}
			results[n] = res
		}
		oracle := results[GAS]
		for _, n := range models[1:] {
			for _, c := range cs {
				want, got := oracle.Summary[c.key], results[n].Summary[c.key]
				if c.tol == 0 && want != got {
					t.Errorf("%s/%s %s = %v, GAS %v", n, alg, c.key, got, want)
				}
				if c.tol > 0 && math.Abs(got-want) > c.tol*math.Max(math.Abs(want), 1) {
					t.Errorf("%s/%s %s = %v, GAS %v (tol %v)", n, alg, c.key, got, want, c.tol)
				}
			}
		}
	}
}

// TestMetricMappingInvariants pins the per-model metric mapping
// documented on behavior.Run.Model: what each trace counter measures
// under each model.
func TestMetricMappingInvariants(t *testing.T) {
	g := testGraph(t)
	w := Workload{Graph: g}

	t.Run("pregel", func(t *testing.T) {
		// UPDT = Compute invocations: exactly one per vertex active at
		// superstep start, so Updates == Active in every superstep.
		m, _ := ForName(Pregel)
		res, err := m.Run(context.Background(), w, algorithms.CC, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range res.Trace.Iterations {
			if it.Updates != it.Active {
				t.Errorf("superstep %d: Updates = %d, Active = %d (Compute must run once per active vertex)",
					it.Iteration, it.Updates, it.Active)
			}
			if it.Messages > it.EdgeReads {
				t.Errorf("superstep %d: Messages %d > EdgeReads %d (a combined message costs its edge sends)",
					it.Iteration, it.Messages, it.EdgeReads)
			}
		}
	})

	t.Run("xstream", func(t *testing.T) {
		// EREAD = streamed edges scanned from active sources. CC starts
		// all-active, so iteration 0 scans the entire arc list.
		m, _ := ForName(XStream)
		res, err := m.Run(context.Background(), w, algorithms.CC, Options{})
		if err != nil {
			t.Fatal(err)
		}
		its := res.Trace.Iterations
		if len(its) == 0 {
			t.Fatal("no iterations")
		}
		if its[0].EdgeReads != g.NumArcs() {
			t.Errorf("iteration 0 EdgeReads = %d, want the full arc list %d", its[0].EdgeReads, g.NumArcs())
		}
		for _, it := range its {
			if it.Messages > it.EdgeReads {
				t.Errorf("iteration %d: Messages %d > EdgeReads %d (updates are emitted by scans)",
					it.Iteration, it.Messages, it.EdgeReads)
			}
			if it.Updates > it.Messages && it.Messages > 0 {
				t.Errorf("iteration %d: Updates %d > Messages %d (folds merge emitted updates)",
					it.Iteration, it.Updates, it.Messages)
			}
		}
	})

	t.Run("graphcentric", func(t *testing.T) {
		// MSG = boundary crossings only: a strict subset of the
		// propagations evaluated, and nonzero on a graph whose components
		// span the default 8 contiguous partitions.
		m, _ := ForName(GraphCentric)
		res, err := m.Run(context.Background(), w, algorithms.CC, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var messages, reads int64
		for _, it := range res.Trace.Iterations {
			if it.Messages > it.EdgeReads {
				t.Errorf("superstep %d: Messages %d > EdgeReads %d (crossings are evaluated propagations)",
					it.Iteration, it.Messages, it.EdgeReads)
			}
			messages += it.Messages
			reads += it.EdgeReads
		}
		if messages == 0 {
			t.Error("no boundary crossings on a multi-partition power-law graph")
		}
		if messages >= reads {
			t.Errorf("boundary crossings %d ≥ propagations %d; partition-local work must dominate", messages, reads)
		}
	})

	t.Run("every model reports the shared vocabulary", func(t *testing.T) {
		for _, n := range AllNames() {
			m, _ := ForName(n)
			res, err := m.Run(context.Background(), w, algorithms.CC, Options{})
			if err != nil {
				t.Fatalf("%s: %v", n, err)
			}
			tr := res.Trace
			if tr == nil || len(tr.Iterations) == 0 {
				t.Fatalf("%s: empty trace", n)
			}
			if tr.NumEdges != g.NumEdges() || tr.NumVertices != g.NumVertices() {
				t.Errorf("%s: trace scale %d/%d, want %d/%d",
					n, tr.NumVertices, tr.NumEdges, g.NumVertices(), g.NumEdges())
			}
			if !tr.Converged {
				t.Errorf("%s: CC did not converge", n)
			}
			if tr.MeanUpdates() <= 0 || tr.MeanEdgeReads() <= 0 {
				t.Errorf("%s: degenerate counters (UPDT %v, EREAD %v)",
					n, tr.MeanUpdates(), tr.MeanEdgeReads())
			}
		}
	})
}

// TestRunCancellation: every model must honor context cancellation at
// its iteration barrier with the engine's error convention.
func TestRunCancellation(t *testing.T) {
	g := testGraph(t)
	w := Workload{Graph: g}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, n := range AllNames() {
		m, _ := ForName(n)
		_, err := m.Run(ctx, w, algorithms.CC, Options{})
		if err == nil {
			t.Errorf("%s: run with cancelled context succeeded", n)
			continue
		}
		if !strings.Contains(err.Error(), "stopped") {
			t.Errorf("%s: error %q does not follow the 'run stopped at' convention", n, err)
		}
	}
}

func TestUnsupportedAlgorithm(t *testing.T) {
	g := testGraph(t)
	w := Workload{Graph: g}
	for _, n := range []Name{Pregel, XStream, GraphCentric} {
		m, _ := ForName(n)
		if m.Supports(algorithms.ALS) {
			t.Fatalf("%s claims to support ALS", n)
		}
		if _, err := m.Run(context.Background(), w, algorithms.ALS, Options{}); err == nil {
			t.Errorf("%s: ALS run succeeded", n)
		}
	}
	// A graph model without a graph workload must fail, not panic.
	for _, n := range AllNames() {
		m, _ := ForName(n)
		if _, err := m.Run(context.Background(), Workload{}, algorithms.CC, Options{}); err == nil {
			t.Errorf("%s: CC without a graph succeeded", n)
		}
	}

	// Under GAS every algorithm rejects the workload of every other
	// family before it runs. LBP and DD share the MRF field, so an MRF
	// built for one is a valid input of the other.
	grid, err := gen.Grid(gen.GridConfig{Rows: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := gen.Matrix(gen.JacobiConfig{NumRows: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	workloads := map[algorithms.Family]Workload{
		algorithms.FamilyGA:     w,
		algorithms.FamilyCF:     {Ratings: g, Users: 1},
		algorithms.FamilyJacobi: {System: sys},
		algorithms.FamilyLBP:    {MRF: grid},
		algorithms.FamilyDD:     {MRF: grid},
	}
	gas, _ := ForName(GAS)
	for _, alg := range algorithms.AllNames() {
		want := unsupported(GAS, alg).Error()
		if alg.Family() == algorithms.FamilyGA {
			want = "model: gas run requires a graph workload"
		}
		for fam, other := range workloads {
			if fam == alg.Family() || other.MRF != nil && workloads[alg.Family()].MRF != nil {
				continue
			}
			if _, err := gas.Run(context.Background(), other, alg, Options{}); err == nil || err.Error() != want {
				t.Errorf("gas/%s over a %s workload: error %v, want %q", alg, fam, err, want)
			}
		}
	}
}

// TestPregelPageRankSupersteps: Pregel PageRank runs its fixed superstep
// budget, and every vertex halts with nothing in flight after the last,
// so the run has converged.
func TestPregelPageRankSupersteps(t *testing.T) {
	m, _ := ForName(Pregel)
	res, err := m.Run(context.Background(), Workload{Graph: testGraph(t)}, algorithms.PR, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Trace.NumIterations(); n != pregelPRSupersteps || !res.Trace.Converged {
		t.Fatalf("%d supersteps, converged=%t; want %d, true", n, res.Trace.Converged, pregelPRSupersteps)
	}
}

// TestParseAllocs: resolving a known name allocates nothing, and an
// unknown one keeps its error text.
func TestParseAllocs(t *testing.T) {
	for _, s := range []string{"", "gas", "Pregel", "XSTREAM", "graphcentric"} {
		if a := testing.AllocsPerRun(100, func() {
			if _, err := Parse(s); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("Parse(%q): %v allocs, want 0", s, a)
		}
	}
	const want = `model: unknown execution model "giraph" (known: [gas pregel xstream graphcentric])`
	if _, err := Parse("giraph"); err == nil || err.Error() != want {
		t.Fatalf("Parse(giraph) error = %v, want %s", err, want)
	}
}
