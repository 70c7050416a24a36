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

// Gather reads one row entry: a_ij · x_j.
func (p *jacobiProgram) Gather(_ uint32, e engine.Arc, _, other jacobiState) float64 {
	return e.Weight * other.X
}

func (p *jacobiProgram) Sum(a, b float64) float64 { return a + b }

func (p *jacobiProgram) Apply(v uint32, self jacobiState, acc float64, hasAcc bool) jacobiState {
	sum := 0.0
	if hasAcc {
		sum = acc
	}
	x := (p.b[v] - sum) / p.diag[v]
	return jacobiState{X: x, Delta: math.Abs(x - self.X)}
}

func (p *jacobiProgram) ScatterDirection() engine.Direction { return engine.In }

// Scatter signals the rows that reference this component while it still
// moves.
func (p *jacobiProgram) Scatter(_ uint32, _ engine.Arc, self, _ jacobiState) bool {
	return self.Delta > p.tol
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
	res, err := engine.Run(g, engine.PerEdge[jacobiState, float64](p), opt.engineOptions())
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
