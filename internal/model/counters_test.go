package model

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"gcbench/internal/algorithms"
	"gcbench/internal/gen"
	"gcbench/internal/graph"
)

// The frozen counter oracle: one SHA-256 per (model, algorithm, input) of
// the support matrix over the run's iteration count, Converged flag and
// per-iteration (Active, Updates, EdgeReads, Messages) series, recorded
// at f0c84b4 (PR 14) — the last commit where CC and SSSP were written
// out once per execution model. Lines are "<sha256>  <model>/<alg>/<input>";
// the header comment in the file states the command that produced it.
// There is deliberately no -update path: a change that means to move a
// counter replaces that line's hash by hand, where review sees it.
const frozenCountersPath = "testdata/model_counters.sha256"

// counterInput is one named workload of the oracle and the algorithms
// that run on it (under every model that supports them).
type counterInput struct {
	name string
	w    Workload
	algs []algorithms.Name
}

func counterInputs(t testing.TB) []counterInput {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	var ins []counterInput
	for _, alpha := range []float64{2.0, 2.5, 3.0} {
		g, err := gen.PowerLaw(gen.PowerLawConfig{NumEdges: 3000, Alpha: alpha, Seed: 1, SortAdjacency: true})
		must(err)
		must(g.SetFeatures(2, gen.GaussianPoints2D(g.NumVertices(), 8, 15, 1^0xfeed)))
		ratings, users, err := gen.Bipartite(gen.BipartiteConfig{NumEdges: 1000, Alpha: alpha, Seed: 1})
		must(err)
		ins = append(ins, counterInput{
			name: fmt.Sprintf("powerlaw-%.1f", alpha),
			w:    Workload{Graph: g, Ratings: ratings, Users: users},
			algs: []algorithms.Name{algorithms.CC, algorithms.KC, algorithms.TC, algorithms.SSSP,
				algorithms.PR, algorithms.AD, algorithms.KM,
				algorithms.ALS, algorithms.NMF, algorithms.SGD, algorithms.SVD},
		})
	}

	// A weighted multigraph with parallel edges, self-loops and isolated
	// vertices: the only input on which SSSP's edge lengths differ.
	r := rand.New(rand.NewSource(13))
	const n = 800
	b := graph.NewBuilder(n, false).KeepSelfLoops().Weighted()
	for i := 0; i < 2400; i++ {
		b.AddWeightedEdge(uint32(r.Intn(n*3/4)), uint32(r.Intn(n*3/4)), 0.25+4*r.Float64())
	}
	weighted, err := b.Build()
	must(err)
	ins = append(ins, counterInput{name: "weighted-random", w: Workload{Graph: weighted},
		algs: []algorithms.Name{algorithms.CC, algorithms.SSSP}})

	sys, err := gen.Matrix(gen.JacobiConfig{NumRows: 200, Seed: 1})
	must(err)
	ins = append(ins, counterInput{name: "matrix-200", w: Workload{System: sys}, algs: []algorithms.Name{algorithms.Jacobi}})
	grid, err := gen.Grid(gen.GridConfig{Rows: 16, Seed: 1})
	must(err)
	ins = append(ins, counterInput{name: "grid-16", w: Workload{MRF: grid}, algs: []algorithms.Name{algorithms.LBP}})
	mrf, err := gen.MRF(gen.MRFConfig{NumEdges: 1056, Seed: 1})
	must(err)
	ins = append(ins, counterInput{name: "mrf-1056", w: Workload{MRF: mrf}, algs: []algorithms.Name{algorithms.DD}})
	return ins
}

// modelCounterSums runs the whole support matrix on one worker and
// returns the digest of each run's counters by "<model>/<alg>/<input>",
// plus the IDs in run order.
func modelCounterSums(t testing.TB) (map[string]string, []string) {
	t.Helper()
	sums := map[string]string{}
	var ids []string
	for _, in := range counterInputs(t) {
		for _, alg := range in.algs {
			for _, n := range Supporting(alg) {
				m, err := ForName(n)
				if err != nil {
					t.Fatal(err)
				}
				id := fmt.Sprintf("%s/%s/%s", n, alg, in.name)
				res, err := m.Run(context.Background(), in.w, alg, Options{Workers: 1, Seed: 1})
				if err != nil {
					t.Fatalf("%s: %v", id, err)
				}
				var sb strings.Builder
				fmt.Fprintf(&sb, "iterations=%d converged=%t\n", len(res.Trace.Iterations), res.Trace.Converged)
				for _, it := range res.Trace.Iterations {
					fmt.Fprintf(&sb, "%d %d %d %d\n", it.Active, it.Updates, it.EdgeReads, it.Messages)
				}
				sums[id] = fmt.Sprintf("%x", sha256.Sum256([]byte(sb.String())))
				ids = append(ids, id)
			}
		}
	}
	return sums, ids
}

// TestModelCountersFrozen holds every (model, algorithm) of the support
// matrix to the counters it produced before CC and SSSP were derived
// from one kernel: the behavior series the corpus is built from may not
// move under a refactor of how a model's programs are written.
func TestModelCountersFrozen(t *testing.T) {
	raw, err := os.ReadFile(frozenCountersPath)
	if err != nil {
		t.Fatal(err)
	}
	oracle := map[string]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sum, id, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", frozenCountersPath, line)
		}
		oracle[id] = sum
	}
	sums, ids := modelCounterSums(t)
	if len(sums) != len(oracle) {
		t.Errorf("%d runs, %s freezes %d", len(sums), frozenCountersPath, len(oracle))
	}
	for _, id := range ids {
		if want, ok := oracle[id]; !ok {
			t.Errorf("%s: no frozen counters in %s", id, frozenCountersPath)
		} else if sums[id] != want {
			t.Errorf("%s: counters diverge from the frozen series (sha256 %s, want %s)", id, sums[id], want)
		}
	}
}
