package model

import (
	"gcbench/internal/algorithms"
	"gcbench/internal/graph"
	"gcbench/internal/graphcentric"
	"gcbench/internal/pregel"
	"gcbench/internal/trace"
	"gcbench/internal/xstream"
)

// runner executes one algorithm under execution model m. w carries the
// input of the algorithm's family and opt.Context is the run's effective
// context; Model.Run sees to both.
type runner func(m Name, w Workload, opt Options) (*Result, error)

// runners is the support matrix: which model implements which algorithm,
// and how. Outside GAS, CC and SSSP are one kernel each under the
// engine's schedule; the PageRank entries are different algorithms per
// engine and stay hand-written there. What each trace counter measures
// under each engine is tabulated on behavior.Run.Model and pinned by
// TestMetricMappingInvariants.
var runners = map[Name]map[algorithms.Name]runner{
	GAS:          gasRunners,
	Pregel:       {algorithms.CC: cc, algorithms.SSSP: sssp, algorithms.PR: pregelPageRank},
	XStream:      {algorithms.CC: cc, algorithms.SSSP: sssp, algorithms.PR: xstreamPageRank},
	GraphCentric: {algorithms.CC: cc, algorithms.SSSP: sssp},
}

var (
	cc = propagate(func(*graph.Graph) algorithms.Kernel[uint32] {
		return algorithms.MinLabel{}
	}, algorithms.ComponentsSummary)
	// SSSP starts from the source every model shares.
	sssp = propagate(func(g *graph.Graph) algorithms.Kernel[float64] {
		return algorithms.Relax{Source: g.MaxDegreeVertex()}
	}, algorithms.DistanceSummary)
)

// propagate builds the runner of a kernel-defined algorithm: the kernel
// under whichever engine's schedule the run names.
func propagate[S any](kernel func(*graph.Graph) algorithms.Kernel[S], summary func([]S) map[string]float64) runner {
	return func(m Name, w Workload, opt Options) (*Result, error) {
		var (
			g   = w.Graph
			k   = kernel(g)
			res *trace.Result[S]
			err error
		)
		switch m {
		case Pregel:
			res, err = pregel.Run(g, pregel.FromKernel(k), pregelOptions(opt))
		case XStream:
			res, err = xstream.Run(g, xstream.FromKernel(k), xstreamOptions(opt))
		case GraphCentric:
			res, err = graphcentric.Run(g, k, graphcentric.Options{Context: opt.Context})
		}
		if err != nil {
			return nil, err
		}
		return &Result{Trace: res.Trace, Summary: summary(res.States)}, nil
	}
}

func pregelOptions(opt Options) pregel.Options {
	return pregel.Options{Workers: opt.Workers, Context: opt.Context}
}

func xstreamOptions(opt Options) xstream.Options {
	return xstream.Options{Context: opt.Context}
}

// pregelPRSupersteps is the fixed superstep budget of the Pregel paper's
// PageRank formulation. At damping 0.85 the rank error after 60
// supersteps is below 1e-4 relative, comfortably inside the GAS default
// tolerance.
const pregelPRSupersteps = 60

func pregelPageRank(_ Name, w Workload, opt Options) (*Result, error) {
	g := w.Graph
	p := pregel.PRProgram{Damping: 0.85, Supersteps: pregelPRSupersteps}
	res, err := pregel.Run[float64, float64](g, p, pregelOptions(opt))
	if err != nil {
		return nil, err
	}
	return &Result{Trace: res.Trace, Summary: algorithms.RankSummary(res.States)}, nil
}

// xstreamPRTolerance is the delta threshold below which a vertex stops
// re-propagating rank increments — the edge-centric analogue of the GAS
// PageRank stability tolerance (default 1e-3). It is tighter because a
// delta-PR increment bounds the *remaining* mass a vertex will ever
// forward, not its final rank error.
const xstreamPRTolerance = 1e-6

func xstreamPageRank(_ Name, w Workload, opt Options) (*Result, error) {
	g := w.Graph
	p := xstream.PRProgram{Damping: 0.85, Tolerance: xstreamPRTolerance}
	res, err := xstream.Run[xstream.PRState, float64](g, p, xstreamOptions(opt))
	if err != nil {
		return nil, err
	}
	ranks := make([]float64, len(res.States))
	for i, s := range res.States {
		ranks[i] = s.Rank
	}
	return &Result{Trace: res.Trace, Summary: algorithms.RankSummary(ranks)}, nil
}
