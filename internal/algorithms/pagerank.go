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

func (p *prProgram) Gather(_ uint32, e engine.Arc, _, other prState) float64 {
	return other.Rank / float64(p.g.OutDegree(e.Other))
}

func (p *prProgram) Sum(a, b float64) float64 { return a + b }

func (p *prProgram) Apply(_ uint32, self prState, acc float64, hasAcc bool) prState {
	sum := 0.0
	if hasAcc {
		sum = acc
	}
	newRank := (1 - p.damping) + p.damping*sum
	return prState{Rank: newRank, Delta: math.Abs(newRank - self.Rank)}
}

func (p *prProgram) ScatterDirection() engine.Direction { return engine.Out }

func (p *prProgram) Scatter(_ uint32, _ engine.Arc, self, _ prState) bool {
	return self.Delta > p.tol
}

// PageRankOptions extends Options with the damping factor and stability
// tolerance (defaults 0.85 and 1e-3).
type PageRankOptions struct {
	Options
	Damping   float64
	Tolerance float64
}

// PageRank ranks vertices by the damped random-surfer model. On the
// paper's undirected Graph Analytics inputs every edge carries rank both
// ways. Summary reports "maxRank" and "sumRank".
func PageRank(g *graph.Graph, opt PageRankOptions) (*Output, []float64, error) {
	damping := opt.Damping
	if damping == 0 {
		damping = 0.85
	}
	tol := opt.Tolerance
	if tol == 0 {
		tol = 1e-3
	}
	p := &prProgram{g: g, damping: damping, tol: tol}
	res, err := engine.Run(g, engine.PerEdge[prState, float64](p), opt.engineOptions())
	if err != nil {
		return nil, nil, err
	}
	ranks := make([]float64, len(res.States))
	for i, s := range res.States {
		ranks[i] = s.Rank
	}
	return &Output{Trace: res.Trace, Summary: RankSummary(ranks)}, ranks, nil
}
