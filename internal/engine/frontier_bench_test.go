package engine

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

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

// engineBenchArtifact is the BENCH_engine.json schema consumed by the CI
// bench job as a regression baseline.
type engineBenchArtifact struct {
	Workers    int                   `json:"workers"`
	Benchmarks []frontierBenchResult `json:"benchmarks"`
}

type frontierBenchResult struct {
	Name           string  `json:"name"`
	Mode           string  `json:"mode"`
	RunSeconds     float64 `json:"runSeconds"`
	SpeedupVsDense float64 `json:"speedupVsDense"`
}

// TestWriteEngineBenchArtifact measures the frontier microbenchmarks and
// writes BENCH_engine.json when GCBENCH_BENCH_ARTIFACT names the output
// path. It also enforces the tentpole's acceptance bar: sparse at least
// 3x faster than dense on the low-active workload.
func TestWriteEngineBenchArtifact(t *testing.T) {
	out := os.Getenv("GCBENCH_BENCH_ARTIFACT")
	if out == "" {
		t.Skip("set GCBENCH_BENCH_ARTIFACT=<path> to measure and write the engine bench artifact")
	}
	workers := runtime.GOMAXPROCS(0)

	lowG := chainsGraph(t, 64, 4096)
	highG, err := gen.PowerLaw(gen.PowerLawConfig{NumEdges: 200_000, Alpha: 2.1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	measure := func(g *graph.Graph, run func(FrontierMode) error, reps int, mode FrontierMode) float64 {
		_ = g
		// One warm-up, then best-of-reps to shed scheduler noise.
		if err := run(mode); err != nil {
			t.Fatal(err)
		}
		best := time.Duration(1<<62 - 1)
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			if err := run(mode); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(t0); d < best {
				best = d
			}
		}
		return best.Seconds()
	}
	lowRun := func(m FrontierMode) error {
		_, err := runEdge[float64, float64](lowG, &bfsProgram{source: 0}, Options{Workers: workers, Frontier: m})
		return err
	}
	highRun := func(m FrontierMode) error {
		_, err := runEdge[float64, float64](highG, rankLike{}, Options{Workers: workers, MaxIterations: 5, Frontier: m})
		return err
	}

	art := engineBenchArtifact{Workers: workers}
	times := map[string]map[string]float64{"FrontierLowActive": {}, "FrontierHighActive": {}}
	for _, mode := range frontierBenchModes {
		times["FrontierLowActive"][mode.String()] = measure(lowG, lowRun, 5, mode)
		times["FrontierHighActive"][mode.String()] = measure(highG, highRun, 5, mode)
	}
	for _, name := range []string{"FrontierLowActive", "FrontierHighActive"} {
		dense := times[name]["dense"]
		for _, mode := range frontierBenchModes {
			s := times[name][mode.String()]
			art.Benchmarks = append(art.Benchmarks, frontierBenchResult{
				Name:           name,
				Mode:           mode.String(),
				RunSeconds:     s,
				SpeedupVsDense: dense / s,
			})
		}
	}

	lowSpeedup := times["FrontierLowActive"]["dense"] / times["FrontierLowActive"]["sparse"]
	t.Logf("low-active sparse speedup vs dense: %.2fx", lowSpeedup)
	t.Logf("high-active sparse slowdown vs dense: %.2fx", times["FrontierHighActive"]["sparse"]/times["FrontierHighActive"]["dense"])
	if lowSpeedup < 3 {
		t.Errorf("low-active sparse speedup %.2fx, want >= 3x", lowSpeedup)
	}

	buf, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("wrote %s\n", out)
}
