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

func (p kernelProgram[S]) Compute(ctx *Context[S], step int, v uint32, s S, msgs []S) S {
	improved := false
	if step == 0 {
		_, improved = p.k.Init(v)
	}
	for _, m := range msgs {
		if p.k.Better(m, s) {
			s = m
			improved = true
		}
	}
	if improved {
		g := ctx.g
		lo, hi := g.OutArcRange(v)
		for a := lo; a < hi; a++ {
			ctx.SendTo(g.ArcTarget(a), p.k.Along(s, g.ArcWeight(a)))
			ctx.out.edgeReads++
		}
	}
	ctx.VoteToHalt()
	return s
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
	G          *graph.Graph
	Damping    float64
	Supersteps int
}

// Init gives every vertex unit rank.
func (p PRProgram) Init(_ *graph.Graph, _ uint32) float64 { return 1 }

// Compute sums incoming shares, applies damping, and re-shares.
func (p PRProgram) Compute(ctx *Context[float64], step int, v uint32, s float64, msgs []float64) float64 {
	if step > 0 {
		sum := 0.0
		for _, m := range msgs {
			sum += m
		}
		s = (1 - p.Damping) + p.Damping*sum
	}
	if step < p.Supersteps-1 {
		if d := ctx.Degree(v); d > 0 {
			ctx.SendToNeighbors(v, s/float64(d))
		}
	} else {
		ctx.VoteToHalt()
	}
	return s
}

// Combine sums rank shares.
func (p PRProgram) Combine(a, b float64) float64 { return a + b }
