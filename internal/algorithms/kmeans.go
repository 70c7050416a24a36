package algorithms

import (
	"fmt"
	"math"

	"gcbench/internal/engine"
	"gcbench/internal/graph"
	"gcbench/internal/rng"
)

// KM's fixed settings: the cluster count, which also sizes the gather
// accumulator (no allocation per edge read), and the neighbor-agreement
// reward weight.
const (
	kmK      = 8
	kmLambda = 0.1
)

// kmState is a vertex's cluster assignment plus a change flag consulted by
// scatter and the convergence driver.
type kmState struct {
	Assign  int32
	Changed bool
}

// kmVotes accumulates neighbor assignment votes, weighted by edge weight —
// the "pairwise rewards between vertices" of the paper's clustering inputs
// (§3.2).
type kmVotes [kmK]float64

// kmProgram is graph-regularized K-Means: each vertex (a 2-D data point)
// joins the cluster minimizing squared distance to the centroid minus a
// reward for agreeing with its graph neighbors. Centroids are recomputed
// each iteration in the PreIteration aggregator, exactly where GraphLab's
// K-Means puts its map-reduce step. Per the paper, all vertices stay
// active the whole lifecycle (Fig. 5); scatter messages flow to neighbors
// of vertices whose assignment changed (§2.1).
type kmProgram struct {
	g         *graph.Graph
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

// nearest returns the centroid index minimizing cost for the point, with
// optional neighbor votes (nil scores as zero votes). The scan is a
// compare-and-select running minimum over a local copy of the votes, with
// no data-dependent branch: a tie keeps the lower index and a NaN cost
// never wins.
func (p *kmProgram) nearest(pt []float64, votes *kmVotes) int32 {
	var w kmVotes
	if votes != nil {
		w = *votes
	}
	x, y := pt[0], pt[1]
	best, bestBits := int32(0), math.Float64bits(math.Inf(1))
	for c, m := range p.centroids {
		dx := x - m[0]
		dy := y - m[1]
		cost := dx*dx + dy*dy
		cost -= p.lambda * w[c]
		// Selecting the bits and the index as integers keeps the select a
		// conditional move.
		bits := math.Float64bits(cost)
		if cost < math.Float64frombits(bestBits) {
			best, bestBits = int32(c), bits
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
		acc[nb.State[o].Assign] += nb.Weight(e)
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
	sums := make([][2]float64, len(p.centroids))
	for v, s := range c.States() {
		pt := p.g.Features(uint32(v))
		sums[s.Assign][0] += pt[0]
		sums[s.Assign][1] += pt[1]
		p.counts[s.Assign]++
	}
	p.moved = 0
	for i := range p.centroids {
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

// KMeansOptions extends Options with the centroid initialization seed.
type KMeansOptions struct {
	Options
	// Seed selects the centroid initialization.
	Seed uint64
}

// newKMProgram seeds kmK centroids from random vertices' points.
func newKMProgram(g *graph.Graph, seed uint64) *kmProgram {
	p := &kmProgram{
		g:         g,
		lambda:    kmLambda,
		centroids: make([][2]float64, kmK),
		counts:    make([]float64, kmK),
		tol:       1e-9,
	}
	r := rng.New(seed ^ 0x6b6d) // "km"
	for i := range p.centroids {
		pt := g.Features(uint32(r.Intn(g.NumVertices())))
		p.centroids[i] = [2]float64{pt[0], pt[1]}
	}
	return p
}

// KMeans clusters the graph's 2-D vertex features into kmK groups with a
// graph-smoothness reward. The graph must carry 2-D features (use
// gen.GaussianPoints2D). Summary reports "inertia" (sum of squared
// distances) and "clusters" (non-empty count).
func KMeans(g *graph.Graph, opt KMeansOptions) (*Output, []int32, error) {
	if g.FeatureDim() != 2 {
		return nil, nil, fmt.Errorf("algorithms: KM requires 2-D vertex features, have dim %d", g.FeatureDim())
	}
	if opt.MaxIterations == 0 {
		opt.MaxIterations = 2000
	}
	p := newKMProgram(g, opt.Seed)
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
