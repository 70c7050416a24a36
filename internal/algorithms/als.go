package algorithms

import (
	"fmt"
	"math"

	"gcbench/internal/engine"
	"gcbench/internal/graph"
	"gcbench/internal/linalg"
)

// cfRank is the latent factor rank shared by the collaborative-filtering
// algorithms. Fixed at compile time so gather accumulators are plain
// arrays with no per-edge allocation.
const cfRank = 8

// cfFactor is one latent factor vector.
type cfFactor [cfRank]float64

// cfState is a CF vertex's factor and the magnitude of its last update.
type cfState struct {
	F     cfFactor
	Delta float64
}

// initFactor deterministically seeds a vertex's factor from its ID.
func initFactor(v uint32, scale float64) cfFactor {
	var f cfFactor
	x := uint64(v)*0x9e3779b97f4a7c15 + 0x243f6a8885a308d3
	for i := range f {
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		x ^= x >> 33
		// Map to (0, scale] — strictly positive so NMF can share it.
		f[i] = scale * (float64(x>>11)/(1<<53) + 1e-3)
	}
	return f
}

// cfDot is ⟨a, b⟩, summed in index order from +0 with each product
// rounded before it is added, so no platform fuses a step.
func cfDot(a, b *cfFactor) float64 {
	return 0 + float64(a[0]*b[0]) + float64(a[1]*b[1]) + float64(a[2]*b[2]) + float64(a[3]*b[3]) +
		float64(a[4]*b[4]) + float64(a[5]*b[5]) + float64(a[6]*b[6]) + float64(a[7]*b[7])
}

// alsAccum carries the per-vertex normal equations: A = Σ f·fᵀ over rated
// counterparts, b = Σ rating·f. Only the lower triangle of A is kept —
// f·fᵀ is symmetric bit for bit and the solver reads nothing above the
// diagonal.
type alsAccum struct {
	A [cfRank][cfRank]float64
	B cfFactor
	N float64
}

// alsProgram is Alternating Least Squares (§2.1): users and items take
// turns solving their ridge-regularized least-squares subproblems. Users
// are sources and items targets of the bipartite rating arcs, so gathering
// and scattering Both directions gives each side exactly its ratings, and
// the alternation emerges from scatter signaling the opposite side.
type alsProgram struct {
	numUsers int
	lambda   float64
	tol      float64
}

func (p *alsProgram) Init(_ *graph.Graph, v uint32) (cfState, bool) {
	// Items get random factors; users start at zero and solve first.
	if int(v) < p.numUsers {
		return cfState{}, true
	}
	return cfState{F: initFactor(v, 1)}, false
}

func (p *alsProgram) GatherDirection() engine.Direction { return engine.Both }

func (p *alsProgram) Gather(vs []uint32, side *graph.CSR, state []cfState, acc []alsAccum, hasAcc []bool) {
	nb := engine.NewEdges(side, state)
	for _, v := range vs {
		if nb.Of(v) {
			hasAcc[v] = p.gatherRun(&nb, &acc[v], hasAcc[v])
		}
	}
}

// gatherRun adds one run of ratings to the normal equations: per rating,
// 8 updates of b and the 36 of A's lower triangle, written out over the
// rated counterpart's factor in locals. Products are rounded before they
// are added (the float64 conversions), as when each rating's contribution
// was a value of its own, so no platform fuses them; each slot sums its
// ratings in run order. A vertex's first rating of the iteration sets the
// slots instead. The run is never empty (Of reported it).
func (p *alsProgram) gatherRun(nb *engine.Edges[cfState], acc *alsAccum, has bool) bool {
	a, b, run := &acc.A, &acc.B, nb.Other
	e := 0
	if !has {
		f, w := &nb.State[run[0]].F, nb.Weight(0)
		f0, f1, f2, f3, f4, f5, f6, f7 := f[0], f[1], f[2], f[3], f[4], f[5], f[6], f[7]
		b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7] = w*f0, w*f1, w*f2, w*f3, w*f4, w*f5, w*f6, w*f7
		a[0][0] = f0 * f0
		a[1][0], a[1][1] = f1*f0, f1*f1
		a[2][0], a[2][1], a[2][2] = f2*f0, f2*f1, f2*f2
		a[3][0], a[3][1], a[3][2], a[3][3] = f3*f0, f3*f1, f3*f2, f3*f3
		a[4][0], a[4][1], a[4][2], a[4][3], a[4][4] = f4*f0, f4*f1, f4*f2, f4*f3, f4*f4
		a[5][0], a[5][1], a[5][2], a[5][3], a[5][4], a[5][5] = f5*f0, f5*f1, f5*f2, f5*f3, f5*f4, f5*f5
		a[6][0], a[6][1], a[6][2], a[6][3], a[6][4], a[6][5], a[6][6] = f6*f0, f6*f1, f6*f2, f6*f3, f6*f4, f6*f5, f6*f6
		a[7][0], a[7][1], a[7][2], a[7][3], a[7][4], a[7][5], a[7][6], a[7][7] = f7*f0, f7*f1, f7*f2, f7*f3, f7*f4, f7*f5, f7*f6, f7*f7
		acc.N, e = 0, 1
	}
	for ; e < len(run); e++ {
		f, w := &nb.State[run[e]].F, nb.Weight(e)
		f0, f1, f2, f3, f4, f5, f6, f7 := f[0], f[1], f[2], f[3], f[4], f[5], f[6], f[7]
		b[0] += float64(w * f0)
		b[1] += float64(w * f1)
		b[2] += float64(w * f2)
		b[3] += float64(w * f3)
		b[4] += float64(w * f4)
		b[5] += float64(w * f5)
		b[6] += float64(w * f6)
		b[7] += float64(w * f7)
		a[0][0] += float64(f0 * f0)
		a[1][0] += float64(f1 * f0)
		a[1][1] += float64(f1 * f1)
		a[2][0] += float64(f2 * f0)
		a[2][1] += float64(f2 * f1)
		a[2][2] += float64(f2 * f2)
		a[3][0] += float64(f3 * f0)
		a[3][1] += float64(f3 * f1)
		a[3][2] += float64(f3 * f2)
		a[3][3] += float64(f3 * f3)
		a[4][0] += float64(f4 * f0)
		a[4][1] += float64(f4 * f1)
		a[4][2] += float64(f4 * f2)
		a[4][3] += float64(f4 * f3)
		a[4][4] += float64(f4 * f4)
		a[5][0] += float64(f5 * f0)
		a[5][1] += float64(f5 * f1)
		a[5][2] += float64(f5 * f2)
		a[5][3] += float64(f5 * f3)
		a[5][4] += float64(f5 * f4)
		a[5][5] += float64(f5 * f5)
		a[6][0] += float64(f6 * f0)
		a[6][1] += float64(f6 * f1)
		a[6][2] += float64(f6 * f2)
		a[6][3] += float64(f6 * f3)
		a[6][4] += float64(f6 * f4)
		a[6][5] += float64(f6 * f5)
		a[6][6] += float64(f6 * f6)
		a[7][0] += float64(f7 * f0)
		a[7][1] += float64(f7 * f1)
		a[7][2] += float64(f7 * f2)
		a[7][3] += float64(f7 * f3)
		a[7][4] += float64(f7 * f4)
		a[7][5] += float64(f7 * f5)
		a[7][6] += float64(f7 * f6)
		a[7][7] += float64(f7 * f7)
	}
	acc.N += float64(len(run))
	return true
}

// Apply solves the granule's normal equations four at a time. A final
// group of one to three is padded with identity systems of its own, never
// a second reference to a real accumulator, since the solve factors in
// place.
func (p *alsProgram) Apply(vs []uint32, state []cfState, acc []alsAccum, hasAcc []bool) {
	var (
		group [4]uint32
		a     [4]*[cfRank][cfRank]float64
		b     [4]*[cfRank]float64
		n     int
	)
	for _, v := range vs {
		if !hasAcc[v] {
			state[v].Delta = 0
			continue
		}
		// Ridge: (A + λ·n·I) f = b, weighted-λ ALS regularization. acc is
		// dead after Apply, so the solve may factor in it.
		ac := &acc[v]
		for i := range ac.A {
			ac.A[i][i] += p.lambda * ac.N
		}
		group[n], a[n], b[n] = v, &ac.A, (*[cfRank]float64)(&ac.B)
		if n++; n == len(group) {
			p.solve(group[:], &a, &b, state)
			n = 0
		}
	}
	if n > 0 {
		var pad [3][cfRank][cfRank]float64
		var zero [cfRank]float64
		for s := n; s < len(group); s++ {
			for i := range pad[s-n] {
				pad[s-n][i][i] = 1
			}
			a[s], b[s] = &pad[s-n], &zero
		}
		p.solve(group[:n], &a, &b, state)
	}
}

// solve runs one batched solve and moves each of the group's vertices to
// its solution; a numerically degenerate system keeps the old factor.
func (p *alsProgram) solve(group []uint32, a *[4]*[cfRank][cfRank]float64, b *[4]*[cfRank]float64, state []cfState) {
	var x [4][cfRank]float64
	ok := linalg.CholeskySolve8x4(a, b, &x)
	for s, v := range group {
		self := &state[v]
		if !ok[s] {
			self.Delta = 0
			continue
		}
		next := cfState{F: x[s]}
		for i, f := range next.F {
			if d := math.Abs(f - self.F[i]); d > next.Delta {
				next.Delta = d
			}
		}
		*self = next
	}
}

func (p *alsProgram) ScatterDirection() engine.Direction { return engine.Both }

// Scatter wakes the opposite side while this side's factors still move.
func (p *alsProgram) Scatter(vs []uint32, side *graph.CSR, state []cfState, out *engine.Signals) {
	for _, v := range vs {
		if state[v].Delta > p.tol {
			sendRun(side, v, out)
		}
	}
}

// ALSOptions extends Options with factorization parameters.
type ALSOptions struct {
	Options
	// Lambda is the ridge regularization weight (default 0.05).
	Lambda float64
	// Tolerance stops the alternation when no factor coordinate moves
	// more than this (default 5e-3).
	Tolerance float64
}

// AlternatingLeastSquares factorizes the bipartite rating graph (users are
// vertices [0, numUsers), items the rest) into rank-8 latent factors.
// Summary reports "rmse" over the observed ratings.
func AlternatingLeastSquares(g *graph.Graph, numUsers int, opt ALSOptions) (*Output, []cfFactor, error) {
	if err := checkBipartite(g, numUsers); err != nil {
		return nil, nil, err
	}
	lambda := opt.Lambda
	if lambda == 0 {
		lambda = 0.05
	}
	tol := opt.Tolerance
	if tol == 0 {
		tol = 5e-3
	}
	if opt.MaxIterations == 0 {
		opt.MaxIterations = 500
	}
	p := &alsProgram{numUsers: numUsers, lambda: lambda, tol: tol}
	res, err := engine.Run[cfState, alsAccum](g, p, opt.engineOptions())
	if err != nil {
		return nil, nil, err
	}
	factors := make([]cfFactor, len(res.States))
	for v, s := range res.States {
		factors[v] = s.F
	}
	out := &Output{
		Trace:   res.Trace,
		Summary: map[string]float64{"rmse": ratingRMSE(g, factors)},
	}
	return out, factors, nil
}

// checkBipartite validates the CF input convention.
func checkBipartite(g *graph.Graph, numUsers int) error {
	if !g.Directed() || !g.Weighted() {
		return fmt.Errorf("algorithms: CF requires a directed weighted rating graph")
	}
	if numUsers <= 0 || numUsers >= g.NumVertices() {
		return fmt.Errorf("algorithms: numUsers %d outside (0, %d)", numUsers, g.NumVertices())
	}
	return nil
}

// ratingRMSE computes the root-mean-square reconstruction error over all
// observed ratings.
func ratingRMSE(g *graph.Graph, f []cfFactor) float64 {
	var se float64
	var n int64
	for u := uint32(0); int(u) < g.NumVertices(); u++ {
		lo, hi := g.OutArcRange(u)
		for a := lo; a < hi; a++ {
			d := cfDot(&f[u], &f[g.ArcTarget(a)]) - g.ArcWeight(a)
			se += d * d
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Sqrt(se / float64(n))
}
