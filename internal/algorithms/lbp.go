package algorithms

import (
	"fmt"
	"math"

	"gcbench/internal/engine"
	"gcbench/internal/graph"
)

// lbpMaxStates bounds variable cardinality so per-edge products fit in a
// fixed-size accumulator.
const lbpMaxStates = 4

// lbpBelief is a vertex's (unnormalized) belief over its states, combined
// multiplicatively during gather.
type lbpBelief [lbpMaxStates]float64

// lbpState tracks the vertex's normalized belief and its last residual,
// which drives deactivation: LBP "exhibits a sharp drop in the number of
// active vertices over time" (§4.4).
type lbpState struct {
	Belief   lbpBelief
	Residual float64
}

// lbpProgram is synchronous sum-product Loopy Belief Propagation on a
// pairwise MRF. Messages live on arcs: msg[a] is the message sent along
// arc a = (u→v), i.e. from u to v. Gather reads the incoming message on
// the reverse arc of each out-arc (an edge read) and caches it in the
// vertex-owned inbox so scatter can divide it back out race-free; scatter
// writes this vertex's outgoing messages and signals neighbors whose
// inputs changed materially.
type lbpProgram struct {
	m     *graph.MRF
	rev   []int64
	msg   []float64 // numArcs × states, current messages
	inbox []float64 // numArcs × states, gather-time snapshot of incoming
	tol   float64
}

func (p *lbpProgram) states() int { return p.m.Card[0] }

func (p *lbpProgram) Init(_ *graph.Graph, v uint32) (lbpState, bool) {
	var s lbpState
	n := p.states()
	sum := 0.0
	for x := 0; x < n; x++ {
		s.Belief[x] = p.m.Unary[v][x]
		sum += s.Belief[x]
	}
	for x := 0; x < n; x++ {
		s.Belief[x] /= sum
	}
	s.Residual = math.Inf(1)
	return s, true
}

func (p *lbpProgram) GatherDirection() engine.Direction { return engine.Out }

func (p *lbpProgram) Gather(vs []uint32, side *graph.CSR, state []lbpState, acc []lbpBelief, hasAcc []bool) {
	nb := engine.NewEdges(side, state)
	for _, v := range vs {
		if nb.Of(v) {
			hasAcc[v] = p.gatherRun(&nb, &acc[v], hasAcc[v])
		}
	}
}

// gatherRun reads, per arc of the run, the incoming message m_{u→v} on the
// reverse arc, caches it in v's inbox slot, and multiplies it into the
// belief product (slots past the cardinality stay stale; Apply never
// reads them).
func (p *lbpProgram) gatherRun(nb *engine.Edges[lbpState], acc *lbpBelief, has bool) bool {
	n := int64(p.states())
	for e := range nb.Other {
		a := nb.Index(e)
		in := p.msg[p.rev[a]*n : p.rev[a]*n+n]
		copy(p.inbox[a*n:a*n+n], in)
		if !has {
			copy(acc[:], in)
			has = true
			continue
		}
		for x, m := range in {
			acc[x] *= m
		}
	}
	return true
}

func (p *lbpProgram) Apply(vs []uint32, state []lbpState, acc []lbpBelief, hasAcc []bool) {
	for _, v := range vs {
		state[v] = p.belief(v, &state[v], &acc[v], hasAcc[v])
	}
}

// belief returns v's next normalized belief and its residual.
func (p *lbpProgram) belief(v uint32, self *lbpState, acc *lbpBelief, hasAcc bool) lbpState {
	n := p.states()
	var next lbpState
	sum := 0.0
	for x := 0; x < n; x++ {
		b := p.m.Unary[v][x]
		if hasAcc {
			b *= acc[x]
		}
		next.Belief[x] = b
		sum += b
	}
	if sum > 0 {
		for x := 0; x < n; x++ {
			next.Belief[x] /= sum
		}
	}
	res := 0.0
	for x := 0; x < n; x++ {
		res += math.Abs(next.Belief[x] - self.Belief[x])
	}
	next.Residual = res
	return next
}

func (p *lbpProgram) ScatterDirection() engine.Direction { return engine.Out }

func (p *lbpProgram) Scatter(vs []uint32, side *graph.CSR, state []lbpState, sig *engine.Signals) {
	nb := engine.NewEdges(side, state)
	for _, v := range vs {
		if nb.Of(v) {
			p.scatterRun(v, &nb, sig)
		}
	}
}

// scatterRun computes v's outgoing message along each arc e = (v→u) of
// its run:
//
//	m_{v→u}(x_u) = Σ_{x_v} φ(x_v, x_u) · ψ_v(x_v) · Π_{w≠u} m_{w→v}(x_v)
//
// using the cached inbox for the division-free product, then signals u if
// the message moved more than the tolerance.
func (p *lbpProgram) scatterRun(v uint32, nb *engine.Edges[lbpState], sig *engine.Signals) {
	n := p.states()
	lo, hi := p.m.G.OutArcRange(v)
	for i, u := range nb.Other {
		e := nb.Index(i)
		// Product of all incoming messages except the one from u, times
		// the unary potential.
		var prod [lbpMaxStates]float64
		for x := 0; x < n; x++ {
			prod[x] = p.m.Unary[v][x]
		}
		for a := lo; a < hi; a++ {
			if a == e {
				continue
			}
			in := p.inbox[a*int64(n) : a*int64(n)+int64(n)]
			for x := 0; x < n; x++ {
				prod[x] *= in[x]
			}
		}
		out := p.msg[e*int64(n) : e*int64(n)+int64(n)]
		var next [lbpMaxStates]float64
		sum := 0.0
		nu := p.m.Card[u]
		for xu := 0; xu < nu; xu++ {
			var s float64
			for xv := 0; xv < n; xv++ {
				s += p.m.PairwiseFor(e, v, xv, xu) * prod[xv]
			}
			next[xu] = s
			sum += s
		}
		if sum <= 0 {
			continue
		}
		change := 0.0
		for xu := 0; xu < nu; xu++ {
			next[xu] /= sum
			change += math.Abs(next[xu] - out[xu])
			out[xu] = next[xu]
		}
		if change > p.tol {
			sig.Send(u)
		}
	}
}

// LBPOptions extends Options with the message-residual tolerance
// (default 1e-4).
type LBPOptions struct {
	Options
	Tolerance float64
}

// LoopyBeliefPropagation runs synchronous sum-product BP on a pairwise MRF
// whose variables share one cardinality (≤ 4). It returns per-vertex
// max-belief assignments. Summary reports "avgResidual" at convergence.
func LoopyBeliefPropagation(m *graph.MRF, opt LBPOptions) (*Output, []int, error) {
	n := m.Card[0]
	if n > lbpMaxStates {
		return nil, nil, fmt.Errorf("algorithms: LBP supports at most %d states, got %d", lbpMaxStates, n)
	}
	for v, c := range m.Card {
		if c != n {
			return nil, nil, fmt.Errorf("algorithms: LBP requires uniform cardinality (vertex %d has %d, want %d)", v, c, n)
		}
	}
	tol := opt.Tolerance
	if tol == 0 {
		tol = 1e-4
	}
	if opt.MaxIterations == 0 {
		opt.MaxIterations = 500
	}
	arcs := m.G.NumArcs()
	p := &lbpProgram{
		m:     m,
		rev:   m.G.ReverseArcs(),
		msg:   make([]float64, arcs*int64(n)),
		inbox: make([]float64, arcs*int64(n)),
		tol:   tol,
	}
	// Uniform initial messages.
	uniform := 1.0 / float64(n)
	for i := range p.msg {
		p.msg[i] = uniform
	}
	copy(p.inbox, p.msg)

	res, err := engine.Run[lbpState, lbpBelief](m.G, p, opt.engineOptions())
	if err != nil {
		return nil, nil, err
	}
	assign := make([]int, len(res.States))
	var resid float64
	for v, s := range res.States {
		best := 0
		for x := 1; x < n; x++ {
			if s.Belief[x] > s.Belief[best] {
				best = x
			}
		}
		assign[v] = best
		resid += s.Residual
	}
	out := &Output{
		Trace: res.Trace,
		Summary: map[string]float64{
			"avgResidual": resid / float64(len(res.States)),
		},
	}
	return out, assign, nil
}
