package algorithms

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"testing"
	"time"

	"gcbench/internal/engine"
	"gcbench/internal/graph"
	"gcbench/internal/trace"
)

// runTotals are one run's behavior counters and per-phase times, from the
// engine's trace or from the floor.
type runTotals struct {
	iterations, updates, edgeReads, messages int64
	gather, apply, scatter                   time.Duration
}

// floorMinPropagation is the hand-coded floor under the engine: the same
// synchronous gather/apply/scatter min-propagation CC and SSSP run (CC:
// step 0 from every vertex; unit-length SSSP: step 1 from one source),
// written straight against the CSR arrays on one goroutine with nothing
// in between — no program interface, no scheduler, no spans. It takes
// its minimum and signals without a branch, as the engine's programs do
// (a compare-and-branch per edge is a coin flip the predictor loses), so
// the floor stays below the engine. Its counters are the engine's by
// construction, so the time between the two is what the engine layer
// costs; what is left is memory.
func floorMinPropagation[T uint32 | float64](g *graph.Graph, state []T, active []uint32, step, inf T) runTotals {
	csr := g.OutCSR() // undirected: both sides
	off, adj := csr.Off, csr.Adj
	acc := make([]T, len(state))
	next := make([]uint64, (len(state)+63)/64)
	var tot runTotals
	for len(active) > 0 {
		tot.iterations++
		t0 := time.Now()
		for _, v := range active {
			a := inf
			for _, o := range adj[off[v]:off[v+1]] {
				a = min(a, state[o]+step)
			}
			acc[v] = a
			tot.edgeReads += off[v+1] - off[v]
		}
		t1 := time.Now()
		for _, v := range active {
			state[v] = min(state[v], acc[v])
		}
		tot.updates += int64(len(active))
		t2 := time.Now()
		var messages uint64
		for _, v := range active {
			self := state[v] + step
			for _, o := range adj[off[v]:off[v+1]] {
				var b uint64
				if self < state[o] {
					b = 1
				}
				next[o>>6] |= b << (o & 63)
				messages += b
			}
		}
		tot.messages += int64(messages)
		tot.gather += t1.Sub(t0)
		tot.apply += t2.Sub(t1)
		tot.scatter += time.Since(t2)
		active = drainFrontier(next, active)
	}
	return tot
}

// drainFrontier lists next's set vertices in ascending order into
// active's storage and clears next: the floors' frontier swap.
func drainFrontier(next []uint64, active []uint32) []uint32 {
	active = active[:0]
	for wi, w := range next {
		for ; w != 0; w &= w - 1 {
			active = append(active, uint32(wi<<6+bits.TrailingZeros64(w)))
		}
		next[wi] = 0
	}
	return active
}

// floorPageRank is PR's floor: the same delta-driven pull iteration,
// written against the CSR arrays on one goroutine with the ranks and
// deltas in arrays of their own. Each active vertex sums
// rank[o]/outdeg(o) over its in-run in CSR order into acc, from +0 —
// which adds nothing to a first term that is never −0 — so its ranks are
// bit-equal to the engine's.
func floorPageRank(g *graph.Graph, damping, tol float64) ([]float64, runTotals) {
	in, out := g.InCSR(), g.OutCSR()
	n := g.NumVertices()
	rank, delta, acc := make([]float64, n), make([]float64, n), make([]float64, n)
	active := make([]uint32, n)
	for v := range rank {
		rank[v], active[v] = 1, uint32(v)
	}
	next := make([]uint64, (n+63)/64)
	var tot runTotals
	for len(active) > 0 && tot.iterations < trace.DefaultMaxSteps {
		tot.iterations++
		t0 := time.Now()
		for _, v := range active {
			sum := 0.0
			for _, o := range in.Adj[in.Off[v]:in.Off[v+1]] {
				sum += rank[o] / float64(out.Off[o+1]-out.Off[o])
			}
			acc[v] = sum
			tot.edgeReads += in.Off[v+1] - in.Off[v]
		}
		t1 := time.Now()
		for _, v := range active {
			r := (1 - damping) + damping*acc[v]
			rank[v], delta[v] = r, math.Abs(r-rank[v])
		}
		tot.updates += int64(len(active))
		t2 := time.Now()
		for _, v := range active {
			if delta[v] > tol {
				run := out.Adj[out.Off[v]:out.Off[v+1]]
				for _, o := range run {
					next[o>>6] |= 1 << (o & 63)
				}
				tot.messages += int64(len(run))
			}
		}
		tot.gather += t1.Sub(t0)
		tot.apply += t2.Sub(t1)
		tot.scatter += time.Since(t2)
		active = drainFrontier(next, active)
	}
	return rank, tot
}

// floorTriangles is TC's floor: one pass over every vertex's sorted
// neighbor list, intersecting it with the list of each neighbor at or
// above it — the per-vertex counts the engine's one gather/apply
// iteration leaves, with nothing to scatter.
func floorTriangles(g *graph.Graph) ([]int64, runTotals) {
	csr := g.OutCSR() // undirected: both sides
	off, adj := csr.Off, csr.Adj
	count := make([]int64, g.NumVertices())
	tot := runTotals{iterations: 1, updates: int64(len(count)), edgeReads: int64(len(adj))}
	t0 := time.Now()
	for v := range count {
		mine := adj[off[v]:off[v+1]]
		for _, u := range mine {
			if uint32(v) <= u {
				count[v] += intersectSize(mine, adj[off[u]:off[u+1]])
			}
		}
	}
	tot.gather = time.Since(t0)
	return count, tot
}

func floorCC(g *graph.Graph) ([]uint32, runTotals) {
	n := g.NumVertices()
	state, active := make([]uint32, n), make([]uint32, n)
	for v := range state {
		state[v], active[v] = uint32(v), uint32(v)
	}
	return state, floorMinPropagation(g, state, active, 0, math.MaxUint32)
}

func floorSSSP(g *graph.Graph, source uint32) ([]float64, runTotals) {
	state := make([]float64, g.NumVertices())
	for v := range state {
		state[v] = math.Inf(1)
	}
	state[source] = 0
	active := make([]uint32, 1, len(state))
	active[0] = source
	return state, floorMinPropagation(g, state, active, 1, math.Inf(1))
}

func traceTotals(tr *trace.RunTrace) runTotals {
	var tot runTotals
	for _, it := range tr.Iterations {
		tot.iterations++
		tot.updates += it.Updates
		tot.edgeReads += it.EdgeReads
		tot.messages += it.Messages
		tot.gather += it.GatherWall
		tot.apply += it.ApplyWall
		tot.scatter += it.ScatterWall
	}
	return tot
}

// TestFloorMatchesEngine pins the floor to the engine: same final states
// and same behavior counters, or the distance between them means nothing.
func TestFloorMatchesEngine(t *testing.T) {
	g := powerLawGraph(t, 20_000, 2.2, 5, true)
	out, labels, err := ConnectedComponents(g, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	floorLabels, floor := floorCC(g)
	if !slices.Equal(labels, floorLabels) {
		t.Fatal("CC: engine and floor labels differ")
	}
	sameCounters(t, "CC", traceTotals(out.Trace), floor)

	src := g.MaxDegreeVertex()
	out, dist, err := SingleSourceShortestPath(g, src, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	floorDist, floor := floorSSSP(g, src)
	if !slices.Equal(dist, floorDist) {
		t.Fatal("SSSP: engine and floor distances differ")
	}
	sameCounters(t, "SSSP", traceTotals(out.Trace), floor)

	out, ranks, err := PageRank(g, PageRankOptions{Options: Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	floorRanks, floor := floorPageRank(g, 0.85, 1e-3)
	if !slices.Equal(ranks, floorRanks) {
		t.Fatal("PR: engine and floor ranks differ")
	}
	sameCounters(t, "PR", traceTotals(out.Trace), floor)

	res, err := engine.Run[int64, int64](g, tcProgram{}, engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	floorCounts, floor := floorTriangles(g)
	if !slices.Equal(res.States, floorCounts) {
		t.Fatal("TC: engine and floor per-vertex counts differ")
	}
	sameCounters(t, "TC", traceTotals(res.Trace), floor)
}

func sameCounters(t testing.TB, name string, eng, floor runTotals) {
	t.Helper()
	if eng.iterations != floor.iterations || eng.updates != floor.updates ||
		eng.edgeReads != floor.edgeReads || eng.messages != floor.messages {
		t.Fatalf("%s counters (iterations/updates/edge reads/messages): engine %d/%d/%d/%d, floor %d/%d/%d/%d",
			name, eng.iterations, eng.updates, eng.edgeReads, eng.messages,
			floor.iterations, floor.updates, floor.edgeReads, floor.messages)
	}
}

// BenchmarkEngineScale runs CC, SSSP (from the max-degree vertex), PR
// and TC on 1e6-edge power-law graphs — campaign-scale's graphs — on one
// worker, each beside its hand-coded floor with asserted-equal counters. ns/edge-read
// and the per-phase milliseconds are per run; engine minus floor is the
// engine layer's own cost.
func BenchmarkEngineScale(b *testing.B) {
	for _, alpha := range []float64{2.0, 2.5, 3.0} {
		g := powerLawGraph(b, 1_000_000, alpha, 1, true)
		src := g.MaxDegreeVertex()
		engine := func(out *Output, err error) runTotals {
			if err != nil {
				b.Fatal(err)
			}
			return traceTotals(out.Trace)
		}
		algs := []struct {
			name          string
			engine, floor func() runTotals
		}{
			{"CC", func() runTotals {
				out, _, err := ConnectedComponents(g, Options{Workers: 1})
				return engine(out, err)
			}, func() runTotals { _, tot := floorCC(g); return tot }},
			{"SSSP", func() runTotals {
				out, _, err := SingleSourceShortestPath(g, src, Options{Workers: 1})
				return engine(out, err)
			}, func() runTotals { _, tot := floorSSSP(g, src); return tot }},
			{"PR", func() runTotals {
				out, _, err := PageRank(g, PageRankOptions{Options: Options{Workers: 1}})
				return engine(out, err)
			}, func() runTotals { _, tot := floorPageRank(g, 0.85, 1e-3); return tot }},
			{"TC", func() runTotals {
				out, _, err := TriangleCounting(g, Options{Workers: 1})
				return engine(out, err)
			}, func() runTotals { _, tot := floorTriangles(g); return tot }},
		}
		for _, alg := range algs {
			sameCounters(b, alg.name, alg.engine(), alg.floor())
			for _, side := range []struct {
				name string
				run  func() runTotals
			}{{"engine", alg.engine}, {"floor", alg.floor}} {
				b.Run(fmt.Sprintf("%s/alpha=%.1f/%s", alg.name, alpha, side.name), func(b *testing.B) {
					var sum runTotals
					for i := 0; i < b.N; i++ {
						tot := side.run()
						sum.edgeReads += tot.edgeReads
						sum.gather += tot.gather
						sum.apply += tot.apply
						sum.scatter += tot.scatter
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(sum.edgeReads), "ns/edge-read")
					ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 / float64(b.N) }
					b.ReportMetric(ms(sum.gather), "gather-ms")
					b.ReportMetric(ms(sum.apply), "apply-ms")
					b.ReportMetric(ms(sum.scatter), "scatter-ms")
				})
			}
		}
	}
}

// BenchmarkWideGather runs the algorithms whose gather folds an
// accumulator wider than a couple of words on one worker: ALS, NMF and
// SGD on a bipartite rating graph, KM and AD on an α = 2.5 graph, each at
// two sizes. edges=3e3 (CF) and edges=1e4 (KM, AD) are the quick
// profile's largest graphs, the ones campaign-breadth runs, where the
// factor state fits in cache and the folds' own instructions set the
// pace; at edges=1e5 memory does. ns/edge-read is the whole run over its
// edge reads; allocs/op is per run — set-up and the per-iteration trace,
// nothing per vertex or edge.
func BenchmarkWideGather(b *testing.B) {
	type alg struct {
		name string
		run  func() (*Output, error)
	}
	for _, size := range []struct {
		ratings, edges int64
		cf, ga         string
	}{
		{3_000, 10_000, "edges=3e3", "edges=1e4"},
		{100_000, 100_000, "edges=1e5", "edges=1e5"},
	} {
		ratings, users := ratingGraph(b, size.ratings, 2.5, 1)
		g := kmGraph(b, size.edges, 0, 1)
		for _, alg := range []alg{
			{"ALS/" + size.cf, func() (*Output, error) {
				out, _, err := AlternatingLeastSquares(ratings, users, Options{Workers: 1})
				return out, err
			}},
			{"NMF/" + size.cf, func() (*Output, error) {
				out, _, err := NonnegativeMatrixFactorization(ratings, users, Options{Workers: 1})
				return out, err
			}},
			{"SGD/" + size.cf, func() (*Output, error) {
				out, _, err := StochasticGradientDescent(ratings, users, Options{Workers: 1})
				return out, err
			}},
			{"KM/" + size.ga, func() (*Output, error) {
				out, _, err := KMeans(g, KMeansOptions{Options: Options{Workers: 1}, Seed: 1})
				return out, err
			}},
			{"AD/" + size.ga, func() (*Output, error) {
				out, _, err := ApproximateDiameter(g, Options{Workers: 1})
				return out, err
			}},
		} {
			b.Run(alg.name, func(b *testing.B) {
				b.ReportAllocs()
				var reads int64
				for i := 0; i < b.N; i++ {
					out, err := alg.run()
					if err != nil {
						b.Fatal(err)
					}
					reads += traceTotals(out.Trace).edgeReads
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(reads), "ns/edge-read")
			})
		}
	}
}
