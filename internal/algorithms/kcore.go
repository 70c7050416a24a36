package algorithms

import (
	"fmt"

	"gcbench/internal/engine"
	"gcbench/internal/graph"
)

// kcState tracks peeling: whether the vertex survives at the current
// level, its core number once removed, and whether it died this iteration
// (so scatter knows to notify neighbors exactly once).
type kcState struct {
	Alive bool
	Dying bool
	Core  int32
}

// kcProgram decomposes the graph into K-Cores by recursive removal: "the
// KC program recursively removes all vertices with degree d = 0, 1, 2, …"
// (§2.1). Within a level k, removals cascade until stable; the
// PostIteration driver then advances k and reactivates survivors.
type kcProgram struct {
	k int32
}

func (p *kcProgram) Init(_ *graph.Graph, _ uint32) (kcState, bool) {
	return kcState{Alive: true}, true
}

func (p *kcProgram) GatherDirection() engine.Direction { return engine.In }

// Gather counts surviving neighbors — the vertex's effective degree.
func (p *kcProgram) Gather(_ uint32, _ engine.Arc, _, other kcState) int32 {
	if other.Alive {
		return 1
	}
	return 0
}

func (p *kcProgram) Sum(a, b int32) int32 { return a + b }

func (p *kcProgram) Apply(_ uint32, self kcState, acc int32, hasAcc bool) kcState {
	if !self.Alive {
		self.Dying = false
		return self
	}
	deg := int32(0)
	if hasAcc {
		deg = acc
	}
	if deg < p.k {
		return kcState{Alive: false, Dying: true, Core: p.k - 1}
	}
	return kcState{Alive: true}
}

func (p *kcProgram) ScatterDirection() engine.Direction { return engine.Out }

// Scatter: a dying vertex notifies its neighbors so they re-check their
// effective degree ("vertices only receive data from neighbors that
// activate it").
func (p *kcProgram) Scatter(_ uint32, _ engine.Arc, self, other kcState) bool {
	return self.Dying && other.Alive
}

// PostIteration advances the peeling level once level k is stable: if no
// vertex was signaled, every remaining vertex survives level k, so k
// increments and all survivors re-check against the new threshold.
func (p *kcProgram) PostIteration(c *engine.Control[kcState]) bool {
	if c.NextActiveCount() > 0 {
		return false
	}
	states := c.States()
	any := false
	for v, s := range states {
		if s.Alive {
			c.Activate(uint32(v))
			any = true
		}
	}
	if !any {
		return true // everything peeled; core numbers final
	}
	p.k++
	return false
}

// KCoreDecomposition computes every vertex's core number (the largest k
// such that the vertex belongs to a subgraph of minimum degree k). The
// graph must be undirected. Summary reports "maxCore".
func KCoreDecomposition(g *graph.Graph, opt Options) (*Output, []int32, error) {
	if g.Directed() {
		return nil, nil, fmt.Errorf("algorithms: KC requires an undirected graph")
	}
	p := &kcProgram{k: 1}
	res, err := engine.Run(g, engine.PerEdge[kcState, int32](p), opt.engineOptions())
	if err != nil {
		return nil, nil, err
	}
	cores := make([]int32, len(res.States))
	var maxCore int32
	for v, s := range res.States {
		cores[v] = s.Core
		if s.Core > maxCore {
			maxCore = s.Core
		}
	}
	out := &Output{
		Trace:   res.Trace,
		Summary: map[string]float64{"maxCore": float64(maxCore)},
	}
	return out, cores, nil
}
