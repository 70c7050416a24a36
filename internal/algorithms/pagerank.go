package algorithms

import (
	"math"

	"gcbench/internal/engine"
	"gcbench/internal/graph"
)

// prState carries a vertex's rank and the change from its last update,
// which scatter consults to decide whether neighbors must recompute.
type prState struct {
	Rank  float64
	Delta float64
}

// prProgram is GraphLab-style PageRank: all vertices start active; a
// vertex gathers the out-degree-normalized ranks of its in-neighbors,
// applies the damped update, and signals out-neighbors only while its own
// rank still moves more than the tolerance. "A vertex becomes inactive
// when its rank remains stable within a given tolerance" (§2.1).
type prProgram struct {
	g       *graph.Graph
	damping float64
	tol     float64
}

func (p *prProgram) Init(_ *graph.Graph, _ uint32) (prState, bool) {
	return prState{Rank: 1, Delta: math.Inf(1)}, true
}

func (p *prProgram) GatherDirection() engine.Direction { return engine.In }

// Gather sums each granule vertex's in-neighbor ranks over their
// out-degrees left to right in CSR order. In is one side on any graph,
// so the first contribution starts the fold.
func (p *prProgram) Gather(vs []uint32, side *graph.CSR, state []prState, acc []float64, hasAcc []bool) {
	off, adj := side.Off, side.Adj
	for _, v := range vs {
		run := adj[off[v]:off[v+1]]
		if len(run) == 0 {
			continue
		}
		sum := state[run[0]].Rank / float64(p.g.OutDegree(run[0]))
		for _, o := range run[1:] {
			sum += state[o].Rank / float64(p.g.OutDegree(o))
		}
		acc[v], hasAcc[v] = sum, true
	}
}

func (p *prProgram) Apply(vs []uint32, state []prState, acc []float64, hasAcc []bool) {
	for _, v := range vs {
		sum := 0.0
		if hasAcc[v] {
			sum = acc[v]
		}
		newRank := (1 - p.damping) + p.damping*sum
		state[v] = prState{Rank: newRank, Delta: math.Abs(newRank - state[v].Rank)}
	}
}

func (p *prProgram) ScatterDirection() engine.Direction { return engine.Out }

// Scatter signals every out-neighbor of a vertex whose rank still moves.
func (p *prProgram) Scatter(vs []uint32, side *graph.CSR, state []prState, out *engine.Signals) {
	for _, v := range vs {
		if state[v].Delta > p.tol {
			sendRun(side, v, out)
		}
	}
}

// pageRankDamping is PageRank's fixed damping factor.
const pageRankDamping = 0.85

// PageRankOptions extends Options with the rank stability tolerance
// (default 1e-3).
type PageRankOptions struct {
	Options
	Tolerance float64
}

// PageRank ranks vertices by the damped random-surfer model. On the
// paper's undirected Graph Analytics inputs every edge carries rank both
// ways. Summary reports "maxRank" and "sumRank".
func PageRank(g *graph.Graph, opt PageRankOptions) (*Output, []float64, error) {
	tol := opt.Tolerance
	if tol == 0 {
		tol = 1e-3
	}
	p := &prProgram{g: g, damping: pageRankDamping, tol: tol}
	res, err := engine.Run[prState, float64](g, p, opt.engineOptions())
	if err != nil {
		return nil, nil, err
	}
	ranks := make([]float64, len(res.States))
	for i, s := range res.States {
		ranks[i] = s.Rank
	}
	return &Output{Trace: res.Trace, Summary: RankSummary(ranks)}, ranks, nil
}
