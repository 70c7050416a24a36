package model

import (
	"context"

	"gcbench/internal/algorithms"
)

// gasModel is the default execution model: the paper's GAS vertex
// programs (internal/engine), which implement all fourteen study
// algorithms. Metric mapping: UPDT = apply invocations, EREAD = gather/
// scatter edge traversals, MSG = scatter signals, WORK = apply time.
type gasModel struct{}

func (gasModel) Name() Name { return GAS }

func (gasModel) Supports(alg algorithms.Name) bool {
	for _, a := range algorithms.AllNames() {
		if a == alg {
			return true
		}
	}
	return false
}

func (gasModel) Run(ctx context.Context, w Workload, alg algorithms.Name, opt Options) (*Result, error) {
	aopt := algorithms.Options{
		Workers:       opt.Workers,
		MaxIterations: opt.MaxIterations,
		Context:       runContext(ctx, opt),
		Frontier:      opt.Frontier,
	}
	var out *algorithms.Output
	var err error
	switch alg {
	case algorithms.CC, algorithms.KC, algorithms.TC, algorithms.SSSP,
		algorithms.PR, algorithms.AD, algorithms.KM:
		g, gerr := needGraph(GAS, w)
		if gerr != nil {
			return nil, gerr
		}
		switch alg {
		case algorithms.CC:
			out, _, err = algorithms.ConnectedComponents(g, aopt)
		case algorithms.KC:
			out, _, err = algorithms.KCoreDecomposition(g, aopt)
		case algorithms.TC:
			out, _, err = algorithms.TriangleCounting(g, aopt)
		case algorithms.SSSP:
			out, _, err = algorithms.SingleSourceShortestPath(g, g.MaxDegreeVertex(), aopt)
		case algorithms.PR:
			out, _, err = algorithms.PageRank(g, algorithms.PageRankOptions{Options: aopt})
		case algorithms.AD:
			out, _, err = algorithms.ApproximateDiameter(g, aopt)
		case algorithms.KM:
			kmOpt := algorithms.KMeansOptions{Options: aopt, Seed: opt.Seed}
			if kmOpt.MaxIterations == 0 {
				kmOpt.MaxIterations = 1000
			}
			out, _, err = algorithms.KMeans(g, kmOpt)
		}

	case algorithms.ALS, algorithms.NMF, algorithms.SGD, algorithms.SVD:
		if w.Ratings == nil {
			return nil, unsupported(GAS, alg)
		}
		switch alg {
		case algorithms.ALS:
			out, _, err = algorithms.AlternatingLeastSquares(w.Ratings, w.Users, algorithms.ALSOptions{Options: aopt})
		case algorithms.NMF:
			out, _, err = algorithms.NonnegativeMatrixFactorization(w.Ratings, w.Users, algorithms.NMFOptions{Options: aopt})
		case algorithms.SGD:
			out, _, err = algorithms.StochasticGradientDescent(w.Ratings, w.Users, algorithms.SGDOptions{Options: aopt})
		case algorithms.SVD:
			out, _, err = algorithms.SingularValueDecomposition(w.Ratings, w.Users, algorithms.SVDOptions{Options: aopt})
		}

	case algorithms.Jacobi:
		if w.System == nil {
			return nil, unsupported(GAS, alg)
		}
		out, _, err = algorithms.JacobiSolve(w.System, algorithms.JacobiOptions{Options: aopt})

	case algorithms.LBP:
		if w.MRF == nil {
			return nil, unsupported(GAS, alg)
		}
		out, _, err = algorithms.LoopyBeliefPropagation(w.MRF, algorithms.LBPOptions{Options: aopt})

	case algorithms.DD:
		if w.MRF == nil {
			return nil, unsupported(GAS, alg)
		}
		out, _, err = algorithms.DualDecomposition(w.MRF, algorithms.DDOptions{Options: aopt})

	default:
		return nil, unsupported(GAS, alg)
	}
	if err != nil {
		return nil, err
	}
	return &Result{Trace: out.Trace, Summary: out.Summary}, nil
}
