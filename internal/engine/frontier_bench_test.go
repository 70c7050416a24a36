package engine

import (
	"runtime"
	"testing"

	"gcbench/internal/gen"
	"gcbench/internal/graph"
)

// chainsGraph is the low-active extreme: a source fanning out to k
// independent chains of length l. BFS keeps exactly k vertices active
// per wave — k/(k·l) of the graph — for l iterations, the regime where
// a dense O(V) scan per phase dwarfs the real work.
func chainsGraph(tb testing.TB, k, l int) *graph.Graph {
	tb.Helper()
	n := 1 + k*l
	b := graph.NewBuilder(n, true)
	for c := 0; c < k; c++ {
		first := uint32(1 + c*l)
		b.AddEdge(0, first)
		for i := 0; i < l-1; i++ {
			b.AddEdge(first+uint32(i), first+uint32(i)+1)
		}
	}
	g, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

var frontierBenchModes = []FrontierMode{FrontierDense, FrontierSparse, FrontierAuto}

// BenchmarkFrontierLowActive: BFS over chains — ~0.1% active per
// iteration for ~1000 iterations. Sparse should win by the dense-scan
// overhead factor; Auto should track sparse.
func BenchmarkFrontierLowActive(b *testing.B) {
	g := chainsGraph(b, 64, 4096)
	for _, mode := range frontierBenchModes {
		b.Run("mode="+mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := runEdge[float64, float64](g, &bfsProgram{source: 0}, Options{
					Workers:  runtime.GOMAXPROCS(0),
					Frontier: mode,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFrontierHighActive: all-active PageRank-like iterations on a
// power-law graph — the dense regime. Sparse must not fall off a cliff
// here, and Auto should track dense.
func BenchmarkFrontierHighActive(b *testing.B) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{NumEdges: 200_000, Alpha: 2.1, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range frontierBenchModes {
		b.Run("mode="+mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := runEdge[float64, float64](g, rankLike{}, Options{
					Workers:       runtime.GOMAXPROCS(0),
					MaxIterations: 5,
					Frontier:      mode,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
