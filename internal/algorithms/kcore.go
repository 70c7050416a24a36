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

// Gather counts each granule vertex's surviving neighbors — its
// effective degree — from zero on the one side In visits (see
// tcProgram.Gather).
func (p *kcProgram) Gather(vs []uint32, side *graph.CSR, state []kcState, acc []int32, _ []bool) {
	off, adj := side.Off, side.Adj
	for _, v := range vs {
		var deg int32
		for _, o := range adj[off[v]:off[v+1]] {
			if state[o].Alive {
				deg++
			}
		}
		acc[v] = deg
	}
}

func (p *kcProgram) Apply(vs []uint32, state []kcState, acc []int32, _ []bool) {
	for _, v := range vs {
		switch s := &state[v]; {
		case !s.Alive:
			s.Dying = false
		case acc[v] < p.k:
			*s = kcState{Alive: false, Dying: true, Core: p.k - 1}
		default:
			*s = kcState{Alive: true}
		}
	}
}

func (p *kcProgram) ScatterDirection() engine.Direction { return engine.Out }

// Scatter: a dying vertex notifies its surviving neighbors so they
// re-check their effective degree ("vertices only receive data from
// neighbors that activate it").
func (p *kcProgram) Scatter(vs []uint32, side *graph.CSR, state []kcState, out *engine.Signals) {
	off, adj := side.Off, side.Adj
	for _, v := range vs {
		if !state[v].Dying {
			continue
		}
		for _, o := range adj[off[v]:off[v+1]] {
			out.SendIf(o, state[o].Alive)
		}
	}
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
	res, err := engine.Run[kcState, int32](g, p, opt.engineOptions())
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
