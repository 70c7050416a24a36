package model

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
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

// The frozen result oracle, in the same format: one SHA-256 per run of the
// support matrix over its Summary (see summaryDigest), recorded at 5a458c0,
// before Pregel and X-Stream programs became run-shaped. The same rule
// holds: no -update path.
const frozenSummariesPath = "testdata/model_summaries.sha256"

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

	// A weighted multigraph with parallel edges, dropped self-loops and isolated
	// vertices: the only input on which SSSP's edge lengths differ.
	r := rand.New(rand.NewSource(13))
	const n = 800
	b := graph.NewBuilder(n, false).Weighted()
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

// modelRunSums runs the whole support matrix on one worker and returns,
// by "<model>/<alg>/<input>", the digest of each run's counters and of its
// Summary, plus the IDs in run order.
func modelRunSums(t testing.TB) (counters, summaries map[string]string, ids []string) {
	t.Helper()
	counters, summaries = map[string]string{}, map[string]string{}
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
				counters[id] = fmt.Sprintf("%x", sha256.Sum256([]byte(sb.String())))
				summaries[id] = summaryDigest(res.Summary)
				ids = append(ids, id)
			}
		}
	}
	return counters, summaries, ids
}

// summaryDigest hashes a Summary as "<key>=<value>\n" lines in key order,
// each float in its shortest round-trip form, so a digest moves with any
// bit of any value.
func summaryDigest(summary map[string]float64) string {
	keys := make([]string, 0, len(summary))
	for k := range summary {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s=%s\n", k, strconv.FormatFloat(summary[k], 'g', -1, 64))
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(sb.String())))
}

// checkFrozen compares one digest per run against the oracle file at path
// ("<sha256>  <id>" lines, '#' comments); what names the digested field
// in failures.
func checkFrozen(t *testing.T, path, what string, sums map[string]string, ids []string) {
	t.Helper()
	raw, err := os.ReadFile(path)
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
			t.Fatalf("%s: malformed line %q", path, line)
		}
		oracle[id] = sum
	}
	if len(sums) != len(oracle) {
		t.Errorf("%d runs, %s freezes %d", len(sums), path, len(oracle))
	}
	for _, id := range ids {
		if want, ok := oracle[id]; !ok {
			t.Errorf("%s: nothing frozen in %s", id, path)
		} else if sums[id] != want {
			t.Errorf("%s: %s diverge from the frozen run (sha256 %s, want %s)", id, what, sums[id], want)
		}
	}
}

// TestModelCountersFrozen holds every (model, algorithm) of the support
// matrix to the counters it produced before CC and SSSP were derived
// from one kernel: the behavior series the corpus is built from may not
// move under a refactor of how a model's programs are written.
func TestModelCountersFrozen(t *testing.T) {
	counters, _, ids := modelRunSums(t)
	checkFrozen(t, frozenCountersPath, "counters", counters, ids)
}

// TestModelSummariesFrozen holds every run of the support matrix to the
// Summary it produced at 5a458c0 — what the counters cannot see. Pregel
// PageRank runs a fixed superstep budget, so its counters are the same
// whatever its ranks are; a reordered rank sum or a share computed as
// s*(1/d) moves only this digest.
func TestModelSummariesFrozen(t *testing.T) {
	_, summaries, ids := modelRunSums(t)
	checkFrozen(t, frozenSummariesPath, "summaries", summaries, ids)
}
