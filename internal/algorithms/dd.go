package algorithms

import (
	"fmt"
	"math"

	"gcbench/internal/engine"
	"gcbench/internal/graph"
)

// ddMaxStates bounds variable cardinality for fixed-size scratch.
const ddMaxStates = 4

// ddState is a vertex's current primal choice from its own subproblem,
// the disagreement count against its edge subproblems, and this vertex's
// contribution to the dual objective (its own subproblem minimum plus half
// of each incident edge subproblem's minimum).
type ddState struct {
	Assign   int32
	Disagree int32
	DualPart float64
}

// ddProgram solves MAP inference by projected-subgradient Dual
// Decomposition (§2.1: "solves a relaxation of difficult optimization
// problems by decomposing them into simpler sub-problems"). The MRF is
// decomposed into one subproblem per edge plus one per vertex, coupled by
// Lagrange multipliers λ_{v,e}(x_v) stored on the arcs (arc a = v→u holds
// v's duals for edge {v,u}).
//
// Each iteration:
//   - gather solves every incident edge subproblem (an edge read per arc):
//     min over (x_v, x_u) of θ_e − λ_{v,e}(x_v) − λ_{u,e}(x_u), recording
//     the minimizing x_v in arc-owned scratch;
//   - apply solves the vertex subproblem min_x θ_v(x) + Σ_e λ_{v,e}(x) and
//     counts disagreements with the edge minimizers;
//   - scatter takes the subgradient step λ_{v,e}(x) += step·(1[x = x̂_v^e]
//     − 1[x = x̂_v]) on the vertex's own duals, and signals neighbors.
//
// All vertices stay active every iteration (§4.4) and the decaying
// 1/√t step makes DD the slowest-converging algorithm in the suite, as
// the paper notes (three orders of magnitude more iterations than TC).
type ddProgram struct {
	m    *graph.MRF
	rev  []int64
	dual []float64 // numArcs × states: λ of the arc's source vertex
	// edgeMin[a] is the x_v minimizer of arc a's edge subproblem as seen
	// from the source vertex of a; written during v's gather, read during
	// v's apply and scatter (vertex-owned).
	edgeMin []int32
	step    float64
	theta   [][]float64 // negative log unary: θ_v(x) = -log ψ_v(x)
	// thetaE is the negative log pairwise potential per arc, numArcs ×
	// states²: θ_e(x_v, x_u) = -log φ(x_v, x_u) at a*n² + x_v*n + x_u for
	// arc a = v→u, computed once instead of on every gather.
	thetaE []float64

	// bestDual is the best (largest) dual lower bound seen so far — by
	// weak duality it never exceeds the MAP energy.
	bestDual float64
}

// newDDProgram sets up DD on an MRF of uniform cardinality: zero duals
// and the negative log potentials, unary and per arc.
func newDDProgram(m *graph.MRF) *ddProgram {
	n, arcs := m.Card[0], m.G.NumArcs()
	theta := make([][]float64, m.G.NumVertices())
	for v := range theta {
		theta[v] = make([]float64, n)
		for x := 0; x < n; x++ {
			theta[v][x] = -math.Log(m.Unary[v][x])
		}
	}
	thetaE := make([]float64, 0, arcs*int64(n*n))
	for v := uint32(0); int(v) < m.G.NumVertices(); v++ {
		lo, hi := m.G.OutArcRange(v)
		for a := lo; a < hi; a++ {
			for xv := 0; xv < n; xv++ {
				for xu := 0; xu < n; xu++ {
					thetaE = append(thetaE, -math.Log(m.PairwiseFor(a, v, xv, xu)))
				}
			}
		}
	}
	return &ddProgram{
		m:       m,
		rev:     m.G.ReverseArcs(),
		dual:    make([]float64, arcs*int64(n)),
		edgeMin: make([]int32, arcs),
		step:    ddStep0,
		theta:   theta,
		thetaE:  thetaE,
	}
}

func (p *ddProgram) states() int { return p.m.Card[0] }

func (p *ddProgram) Init(_ *graph.Graph, _ uint32) (ddState, bool) {
	return ddState{Assign: 0, Disagree: math.MaxInt32}, true
}

func (p *ddProgram) GatherDirection() engine.Direction { return engine.Out }

// Gather solves the edge subproblem of each arc of a granule vertex's run
// and sums their minima left to right in CSR order. Out is one side on
// the undirected MRF graph, so the first minimum starts the fold.
func (p *ddProgram) Gather(vs []uint32, side *graph.CSR, state []ddState, acc []float64, hasAcc []bool) {
	nb := engine.NewEdges(side, state)
	for _, v := range vs {
		if !nb.Of(v) {
			continue
		}
		sum := p.solveEdge(nb.Index(0))
		for i := 1; i < len(nb.Other); i++ {
			sum += p.solveEdge(nb.Index(i))
		}
		acc[v], hasAcc[v] = sum, true
	}
}

// solveEdge solves arc a's edge subproblem from its source vertex's
// perspective and records the minimizing x_v. It returns the subproblem
// minimum — the edge's contribution to the dual objective — halved.
func (p *ddProgram) solveEdge(a int64) float64 {
	n := int64(p.states())
	myDual := p.dual[a*n : a*n+n]
	otherDual := p.dual[p.rev[a]*n : p.rev[a]*n+n]
	thetaE := p.thetaE[a*n*n : (a+1)*n*n]
	best := math.Inf(1)
	bestXv := int32(0)
	for xv, md := range myDual {
		for xu, od := range otherDual {
			// θ_e = -log φ; duals shift the endpoint costs.
			if cost := thetaE[int64(xv)*n+int64(xu)] + md + od; cost < best {
				best = cost
				bestXv = int32(xv)
			}
		}
	}
	p.edgeMin[a] = bestXv
	// Each edge subproblem is shared by two endpoints; halve so the dual
	// objective counts it once.
	return best / 2
}

// Apply solves each granule vertex's subproblem and counts its edge
// disagreements.
func (p *ddProgram) Apply(vs []uint32, state []ddState, acc []float64, hasAcc []bool) {
	n := p.states()
	for _, v := range vs {
		lo, hi := p.m.G.OutArcRange(v)
		best := math.Inf(1)
		bestX := int32(0)
		for x := 0; x < n; x++ {
			cost := p.theta[v][x]
			for a := lo; a < hi; a++ {
				cost -= p.dual[a*int64(n)+int64(x)]
			}
			if cost < best {
				best = cost
				bestX = int32(x)
			}
		}
		var dis int32
		for a := lo; a < hi; a++ {
			if p.edgeMin[a] != bestX {
				dis++
			}
		}
		dual := best
		if hasAcc[v] {
			dual += acc[v] // the halved incident-edge subproblem minima
		}
		state[v] = ddState{Assign: bestX, Disagree: dis, DualPart: dual}
	}
}

func (p *ddProgram) ScatterDirection() engine.Direction { return engine.Out }

// Scatter applies the subgradient step on each granule vertex's own duals
// and keeps the whole graph active.
func (p *ddProgram) Scatter(vs []uint32, side *graph.CSR, state []ddState, out *engine.Signals) {
	n := int64(p.states())
	nb := engine.NewEdges(side, state)
	for _, v := range vs {
		if !nb.Of(v) {
			continue
		}
		assign := state[v].Assign
		for i, u := range nb.Other {
			a := nb.Index(i)
			if em := p.edgeMin[a]; em != assign {
				// Push the edge minimizer up and the vertex minimizer down
				// so the two subproblems move toward agreement.
				d := p.dual[a*n : a*n+n]
				d[em] += p.step
				d[assign] -= p.step
			}
			out.Send(u)
		}
	}
}

func (p *ddProgram) PostIteration(c *engine.Control[ddState]) bool {
	it := c.Iteration()
	p.step = ddStep0 / math.Sqrt(float64(it+1))
	disagreements := 0
	dual := 0.0
	for _, s := range c.States() {
		disagreements += int(s.Disagree)
		dual += s.DualPart
	}
	if dual > p.bestDual || it == 0 {
		p.bestDual = dual
	}
	if disagreements == 0 {
		return true // primal agreement: MAP certificate
	}
	// All vertices (even isolated variables) stay active every iteration.
	c.ActivateAll()
	return false
}

// ddStep0 is DD's fixed initial subgradient step; the schedule is
// ddStep0/√t.
const ddStep0 = 0.5

// DualDecomposition runs MAP inference on a pairwise MRF with uniform
// cardinality (≤ 4). It returns per-vertex assignments from the vertex
// subproblems. Summary reports "disagreements" at the final iteration and
// "energy" of the returned assignment (−log potential sum).
func DualDecomposition(m *graph.MRF, opt Options) (*Output, []int, error) {
	n := m.Card[0]
	if n > ddMaxStates {
		return nil, nil, fmt.Errorf("algorithms: DD supports at most %d states, got %d", ddMaxStates, n)
	}
	for v, c := range m.Card {
		if c != n {
			return nil, nil, fmt.Errorf("algorithms: DD requires uniform cardinality (vertex %d has %d, want %d)", v, c, n)
		}
	}
	if opt.MaxIterations == 0 {
		opt.MaxIterations = 3000
	}
	p := newDDProgram(m)
	res, err := engine.Run[ddState, float64](m.G, p, opt.engineOptions())
	if err != nil {
		return nil, nil, err
	}
	assign := make([]int, len(res.States))
	disagreements := 0.0
	for v, s := range res.States {
		assign[v] = int(s.Assign)
		disagreements += float64(s.Disagree)
	}
	out := &Output{
		Trace: res.Trace,
		Summary: map[string]float64{
			"disagreements": disagreements,
			"energy":        mrfEnergy(m, assign),
			"bestDual":      p.bestDual,
		},
	}
	return out, assign, nil
}

// mrfEnergy returns −log of the unnormalized probability of an assignment.
func mrfEnergy(m *graph.MRF, assign []int) float64 {
	var e float64
	for v := range assign {
		e += -math.Log(m.Unary[v][assign[v]])
	}
	g := m.G
	for u := uint32(0); int(u) < g.NumVertices(); u++ {
		lo, hi := g.OutArcRange(u)
		for a := lo; a < hi; a++ {
			if g.ArcTarget(a) < u {
				continue // count each edge once
			}
			e += -math.Log(m.PairwiseFor(a, u, assign[u], assign[g.ArcTarget(a)]))
		}
	}
	return e
}
