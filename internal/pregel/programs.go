package pregel

import (
	"gcbench/internal/algorithms"
	"gcbench/internal/graph"
)

// kernelProgram is a monotone propagation kernel under the Pregel
// schedule: the vertices the kernel starts active announce their state in
// superstep 0, every vertex adopts the best offer among its messages, an
// improved vertex offers its new state along each out-edge (weights ride
// on edges, so the send is per edge), and everyone votes to halt until
// the next message arrives.
type kernelProgram[S any] struct {
	k algorithms.Kernel[S]
}

// FromKernel derives the Pregel program of a propagation kernel — CC
// from algorithms.MinLabel, SSSP from algorithms.Relax.
func FromKernel[S any](k algorithms.Kernel[S]) Program[S, S] {
	return kernelProgram[S]{k}
}

func (p kernelProgram[S]) Init(_ *graph.Graph, v uint32) S {
	s, _ := p.k.Init(v)
	return s
}

// Compute adopts each vertex's best message and, when that (or, in
// superstep 0, the kernel's start) improved it, folds its offer along
// every out-arc into the outbox through the kernel's OfferRun.
func (p kernelProgram[S]) Compute(step int, vs []uint32, w *Worker[S, S]) {
	off := w.Out.Off
	var sent int64
	for _, v := range vs {
		s, improved := w.State[v], false
		if step == 0 {
			_, improved = p.k.Init(v)
		}
		if w.InHas[v] && p.k.Better(w.InMsg[v], s) {
			s, improved = w.InMsg[v], true
			w.State[v] = s
		}
		if improved {
			p.k.OfferRun(s, &w.Out, v, w.Msg, w.Has)
			sent += off[v+1] - off[v]
		}
		w.Active[v] = false
	}
	w.Messages += sent
	w.EdgeReads += sent
}

// Combine keeps the better offer.
func (p kernelProgram[S]) Combine(a, b S) S {
	if p.k.Better(a, b) {
		return a
	}
	return b
}

// PRProgram is the Pregel paper's PageRank: run a fixed number of
// supersteps, each vertex dividing its rank among its neighbors.
type PRProgram struct {
	Damping    float64
	Supersteps int
}

// Init gives every vertex unit rank.
func (p PRProgram) Init(_ *graph.Graph, _ uint32) float64 { return 1 }

// Compute sums incoming shares, applies damping, and re-shares: each
// vertex's share is added to the outbox slot of each out-neighbor in arc
// order, until the last superstep, where every vertex votes to halt.
// Shares are never −0, so adding the first to an empty slot's zero is
// exact.
func (p PRProgram) Compute(step int, vs []uint32, w *Worker[float64, float64]) {
	off, adj := w.Out.Off, w.Out.Adj
	var sent int64
	for _, v := range vs {
		s := w.State[v]
		if step > 0 {
			sum := 0.0
			if w.InHas[v] {
				sum += w.InMsg[v]
			}
			s = (1 - p.Damping) + p.Damping*sum
			w.State[v] = s
		}
		if step >= p.Supersteps-1 {
			w.Active[v] = false
			continue
		}
		run := adj[off[v]:off[v+1]]
		if len(run) == 0 {
			continue
		}
		share := s / float64(len(run))
		for _, t := range run {
			w.Msg[t] += share // on 0 when !Has[t]: 0 + share is share
			w.Has[t] = true
		}
		sent += int64(len(run))
	}
	w.Messages += sent
	w.EdgeReads += sent
}

// Combine sums rank shares.
func (p PRProgram) Combine(a, b float64) float64 { return a + b }
