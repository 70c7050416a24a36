package algorithms

import (
	"fmt"
	"math"

	"gcbench/internal/engine"
	"gcbench/internal/graph"
	"gcbench/internal/rng"
)

// maxK bounds the cluster count so gather accumulators stay fixed-size
// (no allocation per edge read).
const maxK = 16

// kmState is a vertex's cluster assignment plus a change flag consulted by
// scatter and the convergence driver.
type kmState struct {
	Assign  int32
	Changed bool
}

// kmVotes accumulates neighbor assignment votes, weighted by edge weight —
// the "pairwise rewards between vertices" of the paper's clustering inputs
// (§3.2).
type kmVotes [maxK]float64

// kmProgram is graph-regularized K-Means: each vertex (a 2-D data point)
// joins the cluster minimizing squared distance to the centroid minus a
// reward for agreeing with its graph neighbors. Centroids are recomputed
// each iteration in the PreIteration aggregator, exactly where GraphLab's
// K-Means puts its map-reduce step. Per the paper, all vertices stay
// active the whole lifecycle (Fig. 5); scatter messages flow to neighbors
// of vertices whose assignment changed (§2.1).
type kmProgram struct {
	g         *graph.Graph
	k         int
	lambda    float64
	centroids [][2]float64
	counts    []float64
	anyChange bool
	moved     float64
	tol       float64
}

func (p *kmProgram) Init(g *graph.Graph, v uint32) (kmState, bool) {
	// Initial assignment: nearest seed centroid.
	return kmState{Assign: p.nearest(g.Features(v), nil), Changed: true}, true
}

// nearest returns the centroid index minimizing cost for the point,
// with optional neighbor votes.
func (p *kmProgram) nearest(pt []float64, votes *kmVotes) int32 {
	best := int32(0)
	bestCost := math.Inf(1)
	for c := 0; c < p.k; c++ {
		dx := pt[0] - p.centroids[c][0]
		dy := pt[1] - p.centroids[c][1]
		cost := dx*dx + dy*dy
		if votes != nil {
			cost -= p.lambda * votes[c]
		}
		if cost < bestCost {
			bestCost = cost
			best = int32(c)
		}
	}
	return best
}

func (p *kmProgram) GatherDirection() engine.Direction { return engine.Out }

func (p *kmProgram) Gather(vs []uint32, side *graph.CSR, state []kmState, acc []kmVotes, hasAcc []bool) {
	nb := engine.NewEdges(side, state)
	for _, v := range vs {
		if nb.Of(v) {
			p.gatherRun(&nb, &acc[v], hasAcc[v])
			hasAcc[v] = true
		}
	}
}

// gatherRun reads the neighbor's assignment through each edge of one run —
// this is why K-Means "requires the most data transferring" (Fig. 13):
// every edge is read every iteration.
func (p *kmProgram) gatherRun(nb *engine.Edges[kmState], acc *kmVotes, has bool) {
	if !has {
		*acc = kmVotes{}
	}
	for e, o := range nb.Other {
		if c := nb.State[o].Assign; int(c) < p.k {
			acc[c] += nb.Weight(e)
		}
	}
}

func (p *kmProgram) Apply(vs []uint32, state []kmState, acc []kmVotes, hasAcc []bool) {
	for _, v := range vs {
		var votes *kmVotes
		if hasAcc[v] {
			votes = &acc[v]
		}
		next := p.nearest(p.g.Features(v), votes)
		state[v] = kmState{Assign: next, Changed: next != state[v].Assign}
	}
}

func (p *kmProgram) ScatterDirection() engine.Direction { return engine.Out }

// Scatter: "each vertex sends messages to neighbors when the cluster
// assignment has changed" (§2.1).
func (p *kmProgram) Scatter(vs []uint32, side *graph.CSR, state []kmState, out *engine.Signals) {
	for _, v := range vs {
		if state[v].Changed {
			sendRun(side, v, out)
		}
	}
}

// PreIteration recomputes centroids from the current assignments — the
// aggregator half of Lloyd's algorithm.
func (p *kmProgram) PreIteration(c *engine.Control[kmState]) {
	for i := range p.centroids {
		p.counts[i] = 0
	}
	sums := make([][2]float64, p.k)
	for v, s := range c.States() {
		pt := p.g.Features(uint32(v))
		sums[s.Assign][0] += pt[0]
		sums[s.Assign][1] += pt[1]
		p.counts[s.Assign]++
	}
	p.moved = 0
	for i := 0; i < p.k; i++ {
		if p.counts[i] == 0 {
			continue // empty cluster keeps its centroid
		}
		nx := sums[i][0] / p.counts[i]
		ny := sums[i][1] / p.counts[i]
		p.moved += math.Hypot(nx-p.centroids[i][0], ny-p.centroids[i][1])
		p.centroids[i] = [2]float64{nx, ny}
	}
}

// PostIteration keeps every vertex active while anything still moves
// (assignments or centroids), reproducing the paper's constant active
// fraction of 1.0 for KM.
func (p *kmProgram) PostIteration(c *engine.Control[kmState]) bool {
	p.anyChange = false
	for _, s := range c.States() {
		if s.Changed {
			p.anyChange = true
			break
		}
	}
	if p.anyChange || p.moved > p.tol {
		c.ActivateAll()
		return false
	}
	return true
}

// KMeansOptions extends Options with clustering parameters.
type KMeansOptions struct {
	Options
	// K is the cluster count (default 8, max 16).
	K int
	// Lambda is the neighbor-agreement reward weight (default 0.1).
	Lambda float64
	// Seed selects the centroid initialization.
	Seed uint64
}

// KMeans clusters the graph's 2-D vertex features into k groups with a
// graph-smoothness reward. The graph must carry 2-D features (use
// gen.GaussianPoints2D). Summary reports "inertia" (sum of squared
// distances) and "clusters" (non-empty count).
func KMeans(g *graph.Graph, opt KMeansOptions) (*Output, []int32, error) {
	if g.FeatureDim() != 2 {
		return nil, nil, fmt.Errorf("algorithms: KM requires 2-D vertex features, have dim %d", g.FeatureDim())
	}
	k := opt.K
	if k == 0 {
		k = 8
	}
	if k < 1 || k > maxK {
		return nil, nil, fmt.Errorf("algorithms: KM cluster count %d outside [1, %d]", k, maxK)
	}
	lambda := opt.Lambda
	if lambda == 0 {
		lambda = 0.1
	}
	if opt.MaxIterations == 0 {
		opt.MaxIterations = 2000
	}
	p := &kmProgram{
		g:      g,
		k:      k,
		lambda: lambda,
		counts: make([]float64, k),
		tol:    1e-9,
	}
	// Seed centroids from k random vertices' points.
	r := rng.New(opt.Seed ^ 0x6b6d) // "km"
	p.centroids = make([][2]float64, k)
	for i := 0; i < k; i++ {
		pt := g.Features(uint32(r.Intn(g.NumVertices())))
		p.centroids[i] = [2]float64{pt[0], pt[1]}
	}

	res, err := engine.Run[kmState, kmVotes](g, p, opt.engineOptions())
	if err != nil {
		return nil, nil, err
	}
	assign := make([]int32, len(res.States))
	inertia := 0.0
	used := make(map[int32]struct{})
	for v, s := range res.States {
		assign[v] = s.Assign
		used[s.Assign] = struct{}{}
		pt := g.Features(uint32(v))
		dx := pt[0] - p.centroids[s.Assign][0]
		dy := pt[1] - p.centroids[s.Assign][1]
		inertia += dx*dx + dy*dy
	}
	out := &Output{
		Trace: res.Trace,
		Summary: map[string]float64{
			"inertia":  inertia,
			"clusters": float64(len(used)),
		},
	}
	return out, assign, nil
}
