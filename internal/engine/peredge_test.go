package engine

import "gcbench/internal/graph"

// The per-edge form of a vertex program, kept for the engine's own tests:
// its programs (bfsProgram, weightSum, bothSum, rankLike, …) state one
// edge's work at a time, and PerEdge runs them as granule-shaped Programs.

// Arc describes one edge endpoint visit in an EdgeProgram.
type Arc struct {
	// Index is the canonical out-arc index of this edge in CSR order —
	// stable across gather directions, usable to index per-arc program
	// state such as belief-propagation messages.
	Index int64
	// Other is the neighbor vertex on the far side of the edge.
	Other uint32
	// Weight is the edge weight (1 for unweighted graphs).
	Weight float64
}

// arcOf returns the i-th arc of the run nb points at.
func arcOf[S any](nb *Edges[S], i int) Arc {
	return Arc{Index: nb.Index(i), Other: nb.Other[i], Weight: nb.Weight(i)}
}

// EdgeProgram is a vertex program written one edge at a time: Gather maps
// an edge to a contribution, Sum folds contributions, Scatter decides one
// signal; PerEdge turns one into the Program the engine runs.
type EdgeProgram[S, A any] interface {
	// Init returns vertex v's initial state and whether it starts active.
	Init(g *graph.Graph, v uint32) (state S, active bool)

	// GatherDirection selects the edges Gather visits.
	GatherDirection() Direction
	// Gather computes the contribution of one edge. self is the central
	// vertex's state, other the neighbor's.
	Gather(v uint32, e Arc, self, other S) A
	// Sum combines two gather contributions (must be commutative and
	// associative for deterministic parallel execution over a vertex's
	// sequential edge scan).
	Sum(a, b A) A

	// Apply computes v's next state. hasAcc is false when no edges were
	// gathered (isolated vertex or GatherDirection None).
	Apply(v uint32, self S, acc A, hasAcc bool) S

	// ScatterDirection selects the edges Scatter visits.
	ScatterDirection() Direction
	// Scatter inspects one edge after Apply and reports whether to signal
	// (activate) the neighbor for the next iteration.
	Scatter(v uint32, e Arc, self, other S) bool
}

// PerEdge adapts an EdgeProgram to the granule-shaped Program: it owns the
// per-vertex and per-edge loops, visiting each run's arcs in CSR order and
// folding with Sum left to right. Pre/PostIteration hooks of p are
// forwarded.
func PerEdge[S, A any](p EdgeProgram[S, A]) Program[S, A] {
	a := &perEdge[S, A]{EdgeProgram: p}
	a.pre, _ = p.(PreIterator[S])
	a.post, _ = p.(PostIterator[S])
	return a
}

type perEdge[S, A any] struct {
	EdgeProgram[S, A]
	pre  PreIterator[S]
	post PostIterator[S]
}

func (a *perEdge[S, A]) Gather(vs []uint32, side *graph.CSR, state []S, acc []A, hasAcc []bool) {
	p, nb := a.EdgeProgram, NewEdges(side, state)
	for _, v := range vs {
		if !nb.Of(v) {
			continue
		}
		self, fold, has := state[v], &acc[v], hasAcc[v]
		for i, o := range nb.Other {
			c := p.Gather(v, arcOf(&nb, i), self, state[o])
			if has {
				*fold = p.Sum(*fold, c)
			} else {
				*fold, has = c, true
			}
		}
		hasAcc[v] = has
	}
}

func (a *perEdge[S, A]) Apply(vs []uint32, state []S, acc []A, hasAcc []bool) {
	p := a.EdgeProgram
	for _, v := range vs {
		state[v] = p.Apply(v, state[v], acc[v], hasAcc[v])
	}
}

func (a *perEdge[S, A]) Scatter(vs []uint32, side *graph.CSR, state []S, out *Signals) {
	p, nb := a.EdgeProgram, NewEdges(side, state)
	for _, v := range vs {
		if !nb.Of(v) {
			continue
		}
		self := state[v]
		for i, o := range nb.Other {
			if p.Scatter(v, arcOf(&nb, i), self, state[o]) {
				out.Send(o)
			}
		}
	}
}

func (a *perEdge[S, A]) PreIteration(c *Control[S]) {
	if a.pre != nil {
		a.pre.PreIteration(c)
	}
}

func (a *perEdge[S, A]) PostIteration(c *Control[S]) bool {
	return a.post != nil && a.post.PostIteration(c)
}
