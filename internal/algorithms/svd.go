package algorithms

import (
	"math"

	"gcbench/internal/engine"
	"gcbench/internal/graph"
	"gcbench/internal/linalg"
)

// svdState holds one component of the current Lanczos vector (u for
// users, v for items) plus the previous vector needed by the three-term
// recurrence.
type svdState struct {
	X, Xprev float64
}

// svdProgram computes the top singular values of the rating matrix by
// restarted Golub-Kahan-Lanczos bidiagonalization (§2.1: "decomposes a
// matrix … using Restarted Lanczos algorithm"). Each GAS iteration is one
// half-step of the recurrence — a sparse matrix-vector product through the
// rating arcs:
//
//	phase 0 (users): u_j = A·v_j − β_{j-1}·u_{j-1}, α_j = ‖u_j‖
//	phase 1 (items): v_{j+1} = Aᵀ·u_j − α_j·v_j,   β_j = ‖v_{j+1}‖
//
// with normalization and the α/β bookkeeping done in the PostIteration
// driver. After Steps half-step pairs, singular values come from the
// bidiagonal matrix's tridiagonal Gram matrix; the run restarts from the
// converged v direction until the top singular value stabilizes. All
// vertices stay active for the whole lifecycle, as the paper observes for
// the CF algorithms other than ALS (§4.3).
type svdProgram struct {
	numUsers int
	steps    int
	maxRuns  int
	tol      float64

	phase         int // 0: users compute, 1: items compute
	alphas        []float64
	betas         []float64
	prevTop       float64
	topSV         float64
	restarts      int
	converged     bool
	needNormalize bool
}

// PreIteration normalizes the freshly seeded item vector before the first
// half-step; the three-term recurrence requires a unit v_1.
func (p *svdProgram) PreIteration(c *engine.Control[svdState]) {
	if !p.needNormalize {
		return
	}
	p.needNormalize = false
	states := c.States()
	var norm float64
	for i := p.numUsers; i < len(states); i++ {
		norm += states[i].X * states[i].X
	}
	norm = math.Sqrt(norm)
	if norm == 0 {
		return
	}
	inv := 1 / norm
	for i := p.numUsers; i < len(states); i++ {
		states[i].X *= inv
	}
}

func (p *svdProgram) Init(_ *graph.Graph, v uint32) (svdState, bool) {
	if int(v) < p.numUsers {
		return svdState{}, true
	}
	// Deterministic pseudo-random start vector on the item side;
	// normalized by the driver before the first user half-step — handled
	// by treating the first PostIteration normalization uniformly.
	f := initFactor(v, 1)
	return svdState{X: f[0] - 0.5}, true
}

func (p *svdProgram) GatherDirection() engine.Direction { return engine.Both }

// Gather is the matvec: rating × the counterpart's current component,
// summed left to right in CSR order — on a directed graph over the
// out-run and then, continuing the same fold, the in-run.
func (p *svdProgram) Gather(vs []uint32, side *graph.CSR, state []svdState, acc []float64, hasAcc []bool) {
	nb := engine.NewEdges(side, state)
	for _, v := range vs {
		if !nb.Of(v) {
			continue
		}
		sum, has := acc[v], hasAcc[v]
		for i, o := range nb.Other {
			if c := nb.Weight(i) * state[o].X; has {
				sum += c
			} else {
				sum, has = c, true
			}
		}
		acc[v], hasAcc[v] = sum, true
	}
}

func (p *svdProgram) Apply(vs []uint32, state []svdState, acc []float64, hasAcc []bool) {
	var coef float64
	if p.phase == 0 {
		// u_j = A·v_j − β_{j-1}·u_{j-1}; X holds u_{j-1}.
		if len(p.betas) > 0 {
			coef = p.betas[len(p.betas)-1]
		}
	} else {
		// v_{j+1} = Aᵀ·u_j − α_j·v_j; X holds v_j.
		coef = p.alphas[len(p.alphas)-1]
	}
	for _, v := range vs {
		if (p.phase == 0) != (int(v) < p.numUsers) {
			continue // the other side's half-step
		}
		raw := 0.0
		if hasAcc[v] {
			raw = acc[v]
		}
		x := state[v].X
		state[v] = svdState{X: raw - coef*x, Xprev: x}
	}
}

func (p *svdProgram) ScatterDirection() engine.Direction { return engine.Both }

func (p *svdProgram) Scatter(vs []uint32, side *graph.CSR, _ []svdState, out *engine.Signals) {
	if !p.converged {
		sendAll(vs, side, out)
	}
}

// PostIteration normalizes the just-computed half-vector, records α or β,
// and decides on restarts and convergence.
func (p *svdProgram) PostIteration(c *engine.Control[svdState]) bool {
	// All vertices, including unrated ones, stay active for the whole
	// lifecycle (§4.3).
	c.ActivateAll()
	states := c.States()
	lo, hi := 0, p.numUsers
	if p.phase == 1 {
		lo, hi = p.numUsers, len(states)
	}
	var norm float64
	for i := lo; i < hi; i++ {
		norm += states[i].X * states[i].X
	}
	norm = math.Sqrt(norm)
	if norm > 0 {
		inv := 1 / norm
		for i := lo; i < hi; i++ {
			states[i].X *= inv
		}
	}
	if p.phase == 0 {
		p.alphas = append(p.alphas, norm)
		p.phase = 1
		return false
	}
	p.betas = append(p.betas, norm)
	p.phase = 0

	if len(p.alphas) < p.steps && norm > 1e-12 {
		return false // keep extending the Krylov basis
	}

	// End of one Lanczos run: singular values of the lower-bidiagonal B
	// (diag α, subdiag β) via eigenvalues of the tridiagonal BᵀB.
	k := len(p.alphas)
	diag := make([]float64, k)
	off := make([]float64, k)
	for j := 0; j < k; j++ {
		diag[j] = p.alphas[j]*p.alphas[j] + p.betas[j]*p.betas[j]
		if j+1 < k {
			off[j] = p.alphas[j+1] * p.betas[j]
		}
	}
	eig, err := linalg.SymTriEigenvalues(diag, off)
	if err == nil && len(eig) > 0 {
		p.topSV = math.Sqrt(math.Max(0, eig[len(eig)-1]))
	}
	p.restarts++
	relChange := math.Abs(p.topSV-p.prevTop) / math.Max(p.topSV, 1e-12)
	p.prevTop = p.topSV
	// norm here is the final β: ~0 means the Krylov space is invariant and
	// the bidiagonal matrix's singular values are exact — stop.
	if p.restarts >= p.maxRuns || relChange < p.tol || norm <= 1e-12 {
		p.converged = true
		return true
	}
	// Restart: continue from the current item vector (which the completed
	// recurrence has rotated toward the dominant right singular
	// direction); clear the recurrence history.
	p.alphas = p.alphas[:0]
	p.betas = p.betas[:0]
	for i := range states {
		states[i].Xprev = 0
		if i < p.numUsers {
			states[i].X = 0
		}
	}
	return false
}

// SVD's fixed Lanczos settings: the Krylov basis size per run, the bound
// on the restart loop, and the relative top-singular-value stability
// threshold.
const (
	svdSteps       = 10
	svdMaxRestarts = 8
	svdTolerance   = 1e-4
)

// SingularValueDecomposition estimates the top singular value of the
// bipartite rating matrix. Summary reports "topSingularValue" and
// "restarts".
func SingularValueDecomposition(g *graph.Graph, numUsers int, opt Options) (*Output, float64, error) {
	if err := checkBipartite(g, numUsers); err != nil {
		return nil, 0, err
	}
	p := &svdProgram{
		numUsers:      numUsers,
		steps:         svdSteps,
		maxRuns:       svdMaxRestarts,
		tol:           svdTolerance,
		needNormalize: true,
	}
	res, err := engine.Run[svdState, float64](g, p, opt.engineOptions())
	if err != nil {
		return nil, 0, err
	}
	out := &Output{
		Trace: res.Trace,
		Summary: map[string]float64{
			"topSingularValue": p.topSV,
			"restarts":         float64(p.restarts),
		},
	}
	return out, p.topSV, nil
}
