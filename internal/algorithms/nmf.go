package algorithms

import (
	"gcbench/internal/engine"
	"gcbench/internal/graph"
)

// cfIterationCap is the paper's iteration budget for the algorithms that
// do not converge on their own: "we set a maximum number of iterations
// (20) for these two algorithms [NMF and SGD]" (§3.3).
const cfIterationCap = 20

// nmfAccum carries the multiplicative-update numerator and denominator.
type nmfAccum struct {
	Num, Den cfFactor
}

// nmfProgram is Non-negative Matrix Factorization by Lee-Seung
// multiplicative updates over the observed ratings. Both sides update
// every iteration from the other side's previous factors (synchronous
// semantics make this a Jacobi-style update), keeping all vertices active
// for the entire lifecycle as the paper observes for NMF (§4.3).
type nmfProgram struct {
	iters int
}

func (p *nmfProgram) Init(_ *graph.Graph, v uint32) (cfState, bool) {
	return cfState{F: initFactor(v, 1)}, true
}

func (p *nmfProgram) GatherDirection() engine.Direction { return engine.Both }

func (p *nmfProgram) Gather(vs []uint32, side *graph.CSR, state []cfState, acc []nmfAccum, hasAcc []bool) {
	nb := engine.NewEdges(side, state)
	for _, v := range vs {
		if nb.Of(v) {
			hasAcc[v] = p.gatherRun(&state[v], &nb, &acc[v], hasAcc[v])
		}
	}
}

// gatherRun adds one run of ratings, written out per slot over the rated
// counterpart's factor in locals; products are rounded before they are
// added (see alsProgram.gatherRun).
func (p *nmfProgram) gatherRun(self *cfState, nb *engine.Edges[cfState], acc *nmfAccum, has bool) bool {
	num, den, run := &acc.Num, &acc.Den, nb.Other
	e := 0
	if !has {
		f, w := &nb.State[run[0]].F, nb.Weight(0)
		pred := cfDot(&self.F, f)
		f0, f1, f2, f3, f4, f5, f6, f7 := f[0], f[1], f[2], f[3], f[4], f[5], f[6], f[7]
		num[0], num[1], num[2], num[3], num[4], num[5], num[6], num[7] = w*f0, w*f1, w*f2, w*f3, w*f4, w*f5, w*f6, w*f7
		den[0], den[1], den[2], den[3], den[4], den[5], den[6], den[7] = pred*f0, pred*f1, pred*f2, pred*f3, pred*f4, pred*f5, pred*f6, pred*f7
		e = 1
	}
	for ; e < len(run); e++ {
		f, w := &nb.State[run[e]].F, nb.Weight(e)
		pred := cfDot(&self.F, f)
		f0, f1, f2, f3, f4, f5, f6, f7 := f[0], f[1], f[2], f[3], f[4], f[5], f[6], f[7]
		num[0] += float64(w * f0)
		den[0] += float64(pred * f0)
		num[1] += float64(w * f1)
		den[1] += float64(pred * f1)
		num[2] += float64(w * f2)
		den[2] += float64(pred * f2)
		num[3] += float64(w * f3)
		den[3] += float64(pred * f3)
		num[4] += float64(w * f4)
		den[4] += float64(pred * f4)
		num[5] += float64(w * f5)
		den[5] += float64(pred * f5)
		num[6] += float64(w * f6)
		den[6] += float64(pred * f6)
		num[7] += float64(w * f7)
		den[7] += float64(pred * f7)
	}
	return true
}

func (p *nmfProgram) Apply(vs []uint32, state []cfState, acc []nmfAccum, hasAcc []bool) {
	const eps = 1e-9
	for _, v := range vs {
		if !hasAcc[v] {
			continue
		}
		f, a := &state[v].F, &acc[v]
		for i := 0; i < cfRank; i++ {
			f[i] *= a.Num[i] / (a.Den[i] + eps)
		}
	}
}

func (p *nmfProgram) ScatterDirection() engine.Direction { return engine.Both }

// Scatter signals unconditionally: the iteration budget, not quiescence,
// ends the run.
func (p *nmfProgram) Scatter(vs []uint32, side *graph.CSR, _ []cfState, out *engine.Signals) {
	sendAll(vs, side, out)
}

func (p *nmfProgram) PostIteration(c *engine.Control[cfState]) bool {
	if c.Iteration() >= p.iters-1 {
		return true
	}
	// Keep even isolated vertices active: NMF has "all vertices active for
	// entire lifecycle" (§4.3).
	c.ActivateAll()
	return false
}

// NonnegativeMatrixFactorization factorizes the rating graph into
// non-negative rank-8 factors. Summary reports "rmse".
func NonnegativeMatrixFactorization(g *graph.Graph, numUsers int, opt Options) (*Output, []cfFactor, error) {
	if err := checkBipartite(g, numUsers); err != nil {
		return nil, nil, err
	}
	p := &nmfProgram{iters: cfIterationCap}
	res, err := engine.Run[cfState, nmfAccum](g, p, opt.engineOptions())
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
