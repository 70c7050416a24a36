package xstream

import (
	"math"

	"gcbench/internal/algorithms"
	"gcbench/internal/graph"
)

// kernelProgram is a monotone propagation kernel under the edge-centric
// schedule: every streamed edge with an active source offers its target
// the source's state carried along the edge, offers merge to the best
// one, and a target that adopts it is active next iteration.
type kernelProgram[S any] struct {
	k algorithms.Kernel[S]
}

// FromKernel derives the edge-centric program of a propagation kernel —
// CC from algorithms.MinLabel, SSSP from algorithms.Relax.
func FromKernel[S any](k algorithms.Kernel[S]) Program[S, S] {
	return kernelProgram[S]{k}
}

func (p kernelProgram[S]) Init(_ *graph.Graph, v uint32) (S, bool) { return p.k.Init(v) }

func (p kernelProgram[S]) ScatterEdge(e Edge, src S) (S, bool) {
	return p.k.Along(src, e.Weight), true
}

// Merge keeps the better offer.
func (p kernelProgram[S]) Merge(a, b S) S {
	if p.k.Better(a, b) {
		return a
	}
	return b
}

// Apply adopts an improving offer.
func (p kernelProgram[S]) Apply(_ uint32, s, u S) (S, bool) {
	if p.k.Better(u, s) {
		return u, true
	}
	return s, false
}

// PRState carries accumulated rank and the still-unpropagated delta.
type PRState struct {
	Rank  float64
	Delta float64
}

// PRProgram is delta-PageRank, the standard edge-centric formulation:
// updates carry rank *increments* instead of totals, so inactive
// (converged) vertices need not re-send their contribution. It converges
// to the same fixed point r = 0.15 + 0.85·M·r as the GAS pull version.
type PRProgram struct {
	G         *graph.Graph
	Damping   float64
	Tolerance float64
}

// Init seeds every vertex with the teleport mass as unpropagated delta.
func (p PRProgram) Init(_ *graph.Graph, _ uint32) (PRState, bool) {
	base := 1 - p.Damping
	return PRState{Rank: base, Delta: base}, true
}

// ScatterEdge forwards the damped share of the source's delta.
func (p PRProgram) ScatterEdge(e Edge, src PRState) (float64, bool) {
	d := p.G.OutDegree(e.Src)
	if d == 0 {
		return 0, false
	}
	return p.Damping * src.Delta / float64(d), true
}

// Merge sums incoming increments.
func (p PRProgram) Merge(a, b float64) float64 { return a + b }

// Apply folds the increment and stays active while it is material.
func (p PRProgram) Apply(_ uint32, s PRState, u float64) (PRState, bool) {
	next := PRState{Rank: s.Rank + u, Delta: u}
	return next, math.Abs(u) > p.Tolerance
}
