package algorithms

import (
	"math"

	"gcbench/internal/graph"
)

// Kernel is a monotone propagation rule — the paper's §3.3 "basic
// behavior": information moves along an edge, a unit adopts it when it is
// an improvement, and an improved unit is active. States only ever
// improve (per Better), so any schedule that keeps applying the rule
// reaches the same fixed point; the Pregel, X-Stream and graph-centric
// engines each derive their program from a Kernel and differ only in
// that schedule. The GAS ccProgram and ssspProgram are the same two
// rules hand-specialised to granules of CSR arc runs, held to the kernels by
// TestRunShapedMatchesPerEdgeOracle; OfferRun is the one run-shaped method
// the Pregel and X-Stream programs fold their sends through.
type Kernel[S any] interface {
	// Init returns vertex v's initial state and whether it starts active.
	Init(v uint32) (S, bool)
	// Along returns the state an edge of the given weight offers its
	// target when its source holds src.
	Along(src S, weight float64) S
	// Better reports whether a strictly improves on b.
	Better(a, b S) bool
	// OfferRun folds the offers of a source holding src along v's run on
	// side into slot: for the arc to t, offer = Along(src, its weight) and
	// slot[t] = offer when has[t] is false or slot[t] is not Better than
	// offer (old ⊕ new, keeping old only when it wins), and has[t] is set.
	OfferRun(src S, side *graph.CSR, v uint32, slot []S, has []bool)
}

// MinLabel is the CC kernel: every vertex starts active under its own ID
// and adopts the smallest label offered.
type MinLabel struct{}

func (MinLabel) Init(v uint32) (uint32, bool)       { return v, true }
func (MinLabel) Along(src uint32, _ float64) uint32 { return src }
func (MinLabel) Better(a, b uint32) bool            { return a < b }

func (MinLabel) OfferRun(src uint32, side *graph.CSR, v uint32, slot []uint32, has []bool) {
	for _, t := range side.Adj[side.Off[v]:side.Off[v+1]] {
		if has[t] {
			slot[t] = min(slot[t], src)
		} else {
			slot[t], has[t] = src, true
		}
	}
}

// Relax is the SSSP kernel: only Source starts active, at distance zero,
// and a vertex adopts the shortest path length offered (unit edge
// lengths on unweighted graphs, so hop distance).
type Relax struct {
	Source uint32
}

func (k Relax) Init(v uint32) (float64, bool) {
	if v == k.Source {
		return 0, true
	}
	return math.Inf(1), false
}
func (Relax) Along(src, weight float64) float64 { return src + weight }
func (Relax) Better(a, b float64) bool          { return a < b }

func (Relax) OfferRun(src float64, side *graph.CSR, v uint32, slot []float64, has []bool) {
	lo, hi := side.Off[v], side.Off[v+1]
	for a := lo; a < hi; a++ {
		t, d := side.Adj[a], src+arcLength(side, a)
		if !has[t] || !(slot[t] < d) {
			slot[t], has[t] = d, true
		}
	}
}

// ComponentsSummary is the Summary of a CC run under any model:
// "components", the number of distinct labels. Labels are vertex IDs, so
// they are counted by marking.
func ComponentsSummary(labels []uint32) map[string]float64 {
	seen := make([]bool, len(labels))
	components := 0
	for _, label := range labels {
		if !seen[label] {
			seen[label] = true
			components++
		}
	}
	return map[string]float64{"components": float64(components)}
}

// DistanceSummary is the Summary of an SSSP run under any model:
// "reached" and "maxDistance" over the finite distances.
func DistanceSummary(dist []float64) map[string]float64 {
	reached, maxDist := 0, 0.0
	for _, d := range dist {
		if !math.IsInf(d, 1) {
			reached++
			if d > maxDist {
				maxDist = d
			}
		}
	}
	return map[string]float64{"reached": float64(reached), "maxDistance": maxDist}
}

// RankSummary is the Summary of a PageRank run under any model:
// "maxRank" and "sumRank".
func RankSummary(ranks []float64) map[string]float64 {
	maxRank, sum := 0.0, 0.0
	for _, r := range ranks {
		sum += r
		if r > maxRank {
			maxRank = r
		}
	}
	return map[string]float64{"maxRank": maxRank, "sumRank": sum}
}
