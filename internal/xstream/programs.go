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

// Scatter offers each source's state along each arc of its run; offers
// merge to the best one through the kernel's OfferRun.
func (p kernelProgram[S]) Scatter(vs []uint32, out *graph.CSR, state, acc []S, has []bool) (emitted int64) {
	for _, v := range vs {
		p.k.OfferRun(state[v], out, v, acc, has)
		emitted += out.Off[v+1] - out.Off[v]
	}
	return emitted
}

// Apply adopts each improving offer.
func (p kernelProgram[S]) Apply(vs []uint32, state, acc []S, next []bool) (changed int64) {
	for _, v := range vs {
		if p.k.Better(acc[v], state[v]) {
			state[v], next[v] = acc[v], true
			changed++
		}
	}
	return changed
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
	Damping   float64
	Tolerance float64
}

// Init seeds every vertex with the teleport mass as unpropagated delta.
func (p PRProgram) Init(_ *graph.Graph, _ uint32) (PRState, bool) {
	base := 1 - p.Damping
	return PRState{Rank: base, Delta: base}, true
}

// Scatter forwards the damped share of each source's delta along each
// arc of its run, summing increments per target. acc starts zeroed and
// Apply zeroes what it reads, so the first share lands on 0 without a
// branch on has; shares are never −0, so 0 + share is share exactly.
func (p PRProgram) Scatter(vs []uint32, out *graph.CSR, state []PRState, acc []float64, has []bool) (emitted int64) {
	for _, v := range vs {
		run := out.Adj[out.Off[v]:out.Off[v+1]]
		share := p.Damping * state[v].Delta / float64(len(run))
		for _, t := range run {
			acc[t] += share
			has[t] = true
		}
		emitted += int64(len(run))
	}
	return emitted
}

// Apply folds each increment; a vertex stays active while its increment
// is material.
func (p PRProgram) Apply(vs []uint32, state []PRState, acc []float64, next []bool) (changed int64) {
	for _, v := range vs {
		u := acc[v]
		acc[v] = 0
		state[v] = PRState{Rank: state[v].Rank + u, Delta: u}
		if math.Abs(u) > p.Tolerance {
			next[v] = true
			changed++
		}
	}
	return changed
}
