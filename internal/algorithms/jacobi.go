package algorithms

import (
	"fmt"
	"math"

	"gcbench/internal/engine"
	"gcbench/internal/gen"
	"gcbench/internal/graph"
)

// jacobiState holds a solution component and its last change.
type jacobiState struct {
	X, Delta float64
}

// jacobiProgram iterates x_i ← (b_i − Σ_{j≠i} a_ij·x_j) / a_ii on the
// matrix graph (edges are matrix elements, §2.2). Every component depends
// on the whole current iterate, so all vertices stay active for all
// iterations (§4.4); convergence is a global residual test in the
// PostIteration driver.
type jacobiProgram struct {
	diag []float64
	b    []float64
	tol  float64
}

func (p *jacobiProgram) Init(_ *graph.Graph, _ uint32) (jacobiState, bool) {
	return jacobiState{Delta: math.Inf(1)}, true
}

func (p *jacobiProgram) GatherDirection() engine.Direction { return engine.Out }

// Gather sums each granule row's entries a_ij · x_j left to right in CSR
// order. Out is one side on any graph, so the first entry starts the
// fold.
func (p *jacobiProgram) Gather(vs []uint32, side *graph.CSR, state []jacobiState, acc []float64, hasAcc []bool) {
	nb := engine.NewEdges(side, state)
	for _, v := range vs {
		if !nb.Of(v) {
			continue
		}
		sum := nb.Weight(0) * state[nb.Other[0]].X
		for i := 1; i < len(nb.Other); i++ {
			sum += nb.Weight(i) * state[nb.Other[i]].X
		}
		acc[v], hasAcc[v] = sum, true
	}
}

func (p *jacobiProgram) Apply(vs []uint32, state []jacobiState, acc []float64, hasAcc []bool) {
	for _, v := range vs {
		sum := 0.0
		if hasAcc[v] {
			sum = acc[v]
		}
		x := (p.b[v] - sum) / p.diag[v]
		state[v] = jacobiState{X: x, Delta: math.Abs(x - state[v].X)}
	}
}

func (p *jacobiProgram) ScatterDirection() engine.Direction { return engine.In }

// Scatter signals the rows that reference a component while it still
// moves.
func (p *jacobiProgram) Scatter(vs []uint32, side *graph.CSR, state []jacobiState, out *engine.Signals) {
	for _, v := range vs {
		if state[v].Delta > p.tol {
			sendRun(side, v, out)
		}
	}
}

func (p *jacobiProgram) PostIteration(c *engine.Control[jacobiState]) bool {
	maxDelta := 0.0
	for _, s := range c.States() {
		if s.Delta > maxDelta {
			maxDelta = s.Delta
		}
	}
	if maxDelta > p.tol {
		c.ActivateAll()
		return false
	}
	return true
}

// JacobiOptions extends Options with the convergence tolerance
// (default 1e-9 on the max component change).
type JacobiOptions struct {
	Options
	Tolerance float64
}

// JacobiSolve solves the diagonally dominant system sys by Jacobi
// iteration. Summary reports "residual" (max |A·x − b| component).
func JacobiSolve(sys *gen.MatrixSystem, opt JacobiOptions) (*Output, []float64, error) {
	g := sys.G
	if !g.Directed() || !g.Weighted() {
		return nil, nil, fmt.Errorf("algorithms: Jacobi requires a directed weighted matrix graph")
	}
	if len(sys.Diag) != g.NumVertices() || len(sys.B) != g.NumVertices() {
		return nil, nil, fmt.Errorf("algorithms: Jacobi system arrays don't match the graph")
	}
	for i, d := range sys.Diag {
		if d == 0 {
			return nil, nil, fmt.Errorf("algorithms: Jacobi diagonal entry %d is zero", i)
		}
	}
	tol := opt.Tolerance
	if tol == 0 {
		tol = 1e-9
	}
	if opt.MaxIterations == 0 {
		opt.MaxIterations = 10000
	}
	p := &jacobiProgram{diag: sys.Diag, b: sys.B, tol: tol}
	res, err := engine.Run[jacobiState, float64](g, p, opt.engineOptions())
	if err != nil {
		return nil, nil, err
	}
	x := make([]float64, len(res.States))
	for v, s := range res.States {
		x[v] = s.X
	}
	// Residual check: max |A·x − b|.
	residual := 0.0
	for i := uint32(0); int(i) < g.NumVertices(); i++ {
		sum := sys.Diag[i] * x[i]
		lo, hi := g.OutArcRange(i)
		for a := lo; a < hi; a++ {
			sum += g.ArcWeight(a) * x[g.ArcTarget(a)]
		}
		if r := math.Abs(sum - sys.B[i]); r > residual {
			residual = r
		}
	}
	out := &Output{
		Trace:   res.Trace,
		Summary: map[string]float64{"residual": residual},
	}
	return out, x, nil
}
