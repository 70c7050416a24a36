package algorithms

import (
	"fmt"
	"math/bits"

	"gcbench/internal/engine"
	"gcbench/internal/graph"
)

// adSketches is the number of Flajolet-Martin bitmasks per vertex; more
// sketches tighten the neighborhood-size estimate.
const adSketches = 4

// adState holds a vertex's FM sketches of its h-hop neighborhood plus a
// changed flag for the convergence test.
type adState struct {
	Masks   [adSketches]uint64
	Changed bool
}

// adProgram estimates the graph diameter by iterative neighborhood-
// function growth (the HyperANF/FM scheme): after h iterations each
// vertex's sketch estimates |N(v, h)|; the diameter is the h at which
// growth stops. All vertices stay active for the whole lifecycle
// ("Specially, AD has active fraction = 1.0", §4.1).
type adProgram struct{}

func (p *adProgram) Init(_ *graph.Graph, v uint32) (adState, bool) {
	var s adState
	for k := 0; k < adSketches; k++ {
		s.Masks[k] = 1 << fmBit(v, uint64(k))
	}
	s.Changed = true
	return s, true
}

// fmBit hashes v into a geometrically distributed bit position.
func fmBit(v uint32, salt uint64) uint {
	x := uint64(v)*0x9e3779b97f4a7c15 + salt*0xbf58476d1ce4e5b9
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	// Geometric: position = trailing zeros, capped at 62.
	b := uint(bits.TrailingZeros64(x | 1<<62))
	return b
}

func (p *adProgram) GatherDirection() engine.Direction { return engine.In }

// Gather ORs each granule vertex's run of neighbor sketches into its
// accumulator.
func (p *adProgram) Gather(vs []uint32, side *graph.CSR, state []adState, acc []adState, hasAcc []bool) {
	off, adj := side.Off, side.Adj
	for _, v := range vs {
		run := adj[off[v]:off[v+1]]
		if len(run) == 0 {
			continue
		}
		a := &acc[v]
		if !hasAcc[v] {
			*a = adState{}
		}
		for _, o := range run {
			for k, m := range &state[o].Masks {
				a.Masks[k] |= m
			}
		}
		hasAcc[v] = true
	}
}

func (p *adProgram) Apply(vs []uint32, state []adState, acc []adState, hasAcc []bool) {
	for _, v := range vs {
		self := &state[v]
		changed := false
		if hasAcc[v] {
			for k, m := range &acc[v].Masks {
				merged := self.Masks[k] | m
				if merged != self.Masks[k] {
					changed = true
				}
				self.Masks[k] = merged
			}
		}
		self.Changed = changed
	}
}

func (p *adProgram) ScatterDirection() engine.Direction { return engine.Out }

// Scatter keeps the whole graph active every iteration, as the paper
// observes for AD; convergence is decided globally in PostIteration.
func (p *adProgram) Scatter(vs []uint32, side *graph.CSR, _ []adState, out *engine.Signals) {
	sendAll(vs, side, out)
}

func (p *adProgram) PostIteration(c *engine.Control[adState]) bool {
	for _, s := range c.States() {
		if s.Changed {
			// Not converged: keep the whole graph (including isolated
			// vertices) active, per the paper's constant 1.0 activity.
			c.ActivateAll()
			return false
		}
	}
	return true
}

// ApproximateDiameter estimates the longest shortest path in an undirected
// graph. Summary reports "diameter" (the estimate) and "reachEstimate"
// (the FM estimate of the largest neighborhood size).
func ApproximateDiameter(g *graph.Graph, opt Options) (*Output, int, error) {
	if g.Directed() {
		return nil, 0, fmt.Errorf("algorithms: AD requires an undirected graph")
	}
	p := &adProgram{}
	res, err := engine.Run[adState, adState](g, p, opt.engineOptions())
	if err != nil {
		return nil, 0, err
	}
	// Sketches stop changing one iteration after the last real expansion:
	// the final iteration only confirms stability.
	diameter := res.Trace.NumIterations() - 1
	if diameter < 0 {
		diameter = 0
	}
	// FM estimate of the largest h-hop neighborhood: 2^meanLowestZero/φ.
	var best float64
	for _, s := range res.States {
		var sum float64
		for k := 0; k < adSketches; k++ {
			sum += float64(bits.TrailingZeros64(^s.Masks[k]))
		}
		est := float64(uint64(1)<<uint(sum/adSketches+0.5)) / 0.77351
		if est > best {
			best = est
		}
	}
	out := &Output{
		Trace: res.Trace,
		Summary: map[string]float64{
			"diameter":      float64(diameter),
			"reachEstimate": best,
		},
	}
	return out, diameter, nil
}
