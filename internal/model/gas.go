package model

import "gcbench/internal/algorithms"

// gasRunners is the GAS row of the support matrix: the paper's vertex
// programs (internal/engine), which implement all fourteen study
// algorithms. Metric mapping: UPDT = apply invocations, EREAD = gather/
// scatter edge traversals, MSG = scatter signals, WORK = apply time.
// Model.Run has already checked that w carries the algorithm's family.
var gasRunners = map[algorithms.Name]runner{
	algorithms.CC: func(_ Name, w Workload, o Options) (*Result, error) {
		return gasResult(algorithms.ConnectedComponents(w.Graph, o.gas()))
	},
	algorithms.KC: func(_ Name, w Workload, o Options) (*Result, error) {
		return gasResult(algorithms.KCoreDecomposition(w.Graph, o.gas()))
	},
	algorithms.TC: func(_ Name, w Workload, o Options) (*Result, error) {
		return gasResult(algorithms.TriangleCounting(w.Graph, o.gas()))
	},
	algorithms.SSSP: func(_ Name, w Workload, o Options) (*Result, error) {
		return gasResult(algorithms.SingleSourceShortestPath(w.Graph, w.Graph.MaxDegreeVertex(), o.gas()))
	},
	algorithms.PR: func(_ Name, w Workload, o Options) (*Result, error) {
		return gasResult(algorithms.PageRank(w.Graph, algorithms.PageRankOptions{Options: o.gas()}))
	},
	algorithms.AD: func(_ Name, w Workload, o Options) (*Result, error) {
		return gasResult(algorithms.ApproximateDiameter(w.Graph, o.gas()))
	},
	algorithms.KM: func(_ Name, w Workload, o Options) (*Result, error) {
		km := algorithms.KMeansOptions{Options: o.gas(), Seed: o.Seed}
		if km.MaxIterations == 0 {
			km.MaxIterations = 1000
		}
		return gasResult(algorithms.KMeans(w.Graph, km))
	},
	algorithms.ALS: func(_ Name, w Workload, o Options) (*Result, error) {
		return gasResult(algorithms.AlternatingLeastSquares(w.Ratings, w.Users, algorithms.ALSOptions{Options: o.gas()}))
	},
	algorithms.NMF: func(_ Name, w Workload, o Options) (*Result, error) {
		return gasResult(algorithms.NonnegativeMatrixFactorization(w.Ratings, w.Users, algorithms.NMFOptions{Options: o.gas()}))
	},
	algorithms.SGD: func(_ Name, w Workload, o Options) (*Result, error) {
		return gasResult(algorithms.StochasticGradientDescent(w.Ratings, w.Users, algorithms.SGDOptions{Options: o.gas()}))
	},
	algorithms.SVD: func(_ Name, w Workload, o Options) (*Result, error) {
		return gasResult(algorithms.SingularValueDecomposition(w.Ratings, w.Users, algorithms.SVDOptions{Options: o.gas()}))
	},
	algorithms.Jacobi: func(_ Name, w Workload, o Options) (*Result, error) {
		return gasResult(algorithms.JacobiSolve(w.System, algorithms.JacobiOptions{Options: o.gas()}))
	},
	algorithms.LBP: func(_ Name, w Workload, o Options) (*Result, error) {
		return gasResult(algorithms.LoopyBeliefPropagation(w.MRF, algorithms.LBPOptions{Options: o.gas()}))
	},
	algorithms.DD: func(_ Name, w Workload, o Options) (*Result, error) {
		return gasResult(algorithms.DualDecomposition(w.MRF, algorithms.DDOptions{Options: o.gas()}))
	},
}

// gas maps the run options onto the vertex-program engine's.
func (o Options) gas() algorithms.Options {
	return algorithms.Options{Workers: o.Workers, MaxIterations: o.MaxIterations, Context: o.Context, Frontier: o.Frontier}
}

// gasResult keeps a vertex program's trace and summary and drops its
// typed answer, which differs per algorithm and no model run reports.
func gasResult[A any](out *algorithms.Output, _ A, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	return &Result{Trace: out.Trace, Summary: out.Summary}, nil
}
