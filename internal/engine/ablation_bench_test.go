package engine

import (
	"fmt"
	"testing"

	"gcbench/internal/gen"
	"gcbench/internal/graph"
)

// Ablation: worker scaling of the three-phase synchronous engine on a
// dense-frontier workload (PageRank-like all-active iterations). Dynamic
// word-aligned chunk dealing should scale until memory bandwidth binds;
// on power-law graphs static vertex partitions would not, because hub
// chunks dominate.

// rankLike keeps every vertex active and touches every edge — the
// worst-case dense iteration.
type rankLike struct{}

func (rankLike) Init(_ *graph.Graph, _ uint32) (float64, bool) { return 1, true }
func (rankLike) GatherDirection() Direction                    { return In }
func (rankLike) Gather(_ uint32, _ Arc, _, other float64) float64 {
	return other * 0.5
}
func (rankLike) Sum(a, b float64) float64 { return a + b }
func (rankLike) Apply(_ uint32, self, acc float64, _ bool) float64 {
	return 0.15 + 0.85*acc
}
func (rankLike) ScatterDirection() Direction                { return Out }
func (rankLike) Scatter(uint32, Arc, float64, float64) bool { return true }

func BenchmarkWorkerScaling(b *testing.B) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{NumEdges: 200_000, Alpha: 2.1, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := runEdge[float64, float64](g, rankLike{}, Options{
					Workers:       workers,
					MaxIterations: 5,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
