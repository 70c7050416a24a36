package algorithms

import (
	"gcbench/internal/engine"
	"gcbench/internal/graph"
)

// sgdProgram minimizes squared rating-reconstruction error by gradient
// descent (§2.1: "a gradient descent optimization method for minimizing an
// objective function that is written as a sum of differentiable
// functions"). In the synchronous GAS model each vertex accumulates its
// edge gradients in gather and steps in apply; both sides update every
// iteration, all vertices stay active, and the run stops at the paper's
// 20-iteration cap. SGD "requires the most message transferring" (Fig. 13)
// because every vertex signals every rated counterpart every iteration.
type sgdProgram struct {
	lr    float64
	reg   float64
	iters int
}

func (p *sgdProgram) Init(_ *graph.Graph, v uint32) (cfState, bool) {
	return cfState{F: initFactor(v, 0.5)}, true
}

func (p *sgdProgram) GatherDirection() engine.Direction { return engine.Both }

func (p *sgdProgram) Gather(vs []uint32, side *graph.CSR, state []cfState, acc []cfFactor, hasAcc []bool) {
	nb := engine.NewEdges(side, state)
	for _, v := range vs {
		if nb.Of(v) {
			hasAcc[v] = p.gatherRun(&state[v], &nb, &acc[v], hasAcc[v])
		}
	}
}

// gatherRun adds the gradient contribution of each rating in one run:
// err·f_other where err = rating − ⟨f_self, f_other⟩, written out per
// slot over f_other in locals and rounded before it is added (see
// alsProgram.gatherRun).
func (p *sgdProgram) gatherRun(self *cfState, nb *engine.Edges[cfState], acc *cfFactor, has bool) bool {
	run := nb.Other
	e := 0
	if !has {
		f := &nb.State[run[0]].F
		errTerm := nb.Weight(0) - cfDot(&self.F, f)
		f0, f1, f2, f3, f4, f5, f6, f7 := f[0], f[1], f[2], f[3], f[4], f[5], f[6], f[7]
		acc[0], acc[1], acc[2], acc[3], acc[4], acc[5], acc[6], acc[7] = errTerm*f0, errTerm*f1, errTerm*f2, errTerm*f3, errTerm*f4, errTerm*f5, errTerm*f6, errTerm*f7
		e = 1
	}
	for ; e < len(run); e++ {
		f := &nb.State[run[e]].F
		errTerm := nb.Weight(e) - cfDot(&self.F, f)
		f0, f1, f2, f3, f4, f5, f6, f7 := f[0], f[1], f[2], f[3], f[4], f[5], f[6], f[7]
		acc[0] += float64(errTerm * f0)
		acc[1] += float64(errTerm * f1)
		acc[2] += float64(errTerm * f2)
		acc[3] += float64(errTerm * f3)
		acc[4] += float64(errTerm * f4)
		acc[5] += float64(errTerm * f5)
		acc[6] += float64(errTerm * f6)
		acc[7] += float64(errTerm * f7)
	}
	return true
}

func (p *sgdProgram) Apply(vs []uint32, state []cfState, acc []cfFactor, hasAcc []bool) {
	for _, v := range vs {
		if !hasAcc[v] {
			continue
		}
		f, g := &state[v].F, &acc[v]
		for i := 0; i < cfRank; i++ {
			f[i] += p.lr * (g[i] - p.reg*f[i])
		}
	}
}

func (p *sgdProgram) ScatterDirection() engine.Direction { return engine.Both }

func (p *sgdProgram) Scatter(vs []uint32, side *graph.CSR, _ []cfState, out *engine.Signals) {
	sendAll(vs, side, out)
}

func (p *sgdProgram) PostIteration(c *engine.Control[cfState]) bool {
	if c.Iteration() >= p.iters-1 {
		return true
	}
	// Keep even isolated vertices active for the paper's all-active
	// lifecycle (§4.3).
	c.ActivateAll()
	return false
}

// SGD's fixed learning schedule: the step size and the regularization
// weight; the run stops at cfIterationCap.
const (
	sgdLearningRate   = 0.01
	sgdRegularization = 0.05
)

// StochasticGradientDescent factorizes the rating graph by gradient
// steps. Summary reports "rmse".
func StochasticGradientDescent(g *graph.Graph, numUsers int, opt Options) (*Output, []cfFactor, error) {
	if err := checkBipartite(g, numUsers); err != nil {
		return nil, nil, err
	}
	p := &sgdProgram{lr: sgdLearningRate, reg: sgdRegularization, iters: cfIterationCap}
	res, err := engine.Run[cfState, cfFactor](g, p, opt.engineOptions())
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
