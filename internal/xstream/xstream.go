// Package xstream implements an edge-centric execution model in the style
// of X-Stream (Roy et al., SOSP'13), the alternative computation model the
// paper's §3.3 discusses: "there are also other computation models used in
// current graph-processing systems (edge-centric model and graph-centric
// model), but the basic behavior of graph computation is conserved —
// transferring information through edges, performing computation on an
// independent unit, and activations."
//
// Instead of iterating active vertices over their adjacency (CSR), each
// iteration streams the entire unordered edge list: edges whose source is
// active emit updates toward their targets, updates are merged per target,
// and targets apply them — becoming active when they change. Both phases
// run sequentially, as in a single streaming partition. The same five
// behavior quantities are measured, so this package lets the conservation
// claim be checked quantitatively (see the package tests, which run
// CC/PR/SSSP under both models and compare results and activation
// behavior).
package xstream

import (
	"context"
	"time"

	"gcbench/internal/graph"
	"gcbench/internal/trace"
)

// Edge is one streamed edge.
type Edge struct {
	Src, Dst uint32
	Weight   float64
}

// Program is an edge-centric vertex program over state S and update U.
type Program[S, U any] interface {
	// Init returns vertex v's initial state and activity.
	Init(g *graph.Graph, v uint32) (S, bool)
	// ScatterEdge runs for every streamed edge whose source is active,
	// reading the source state and optionally emitting an update toward
	// the target.
	ScatterEdge(e Edge, src S) (U, bool)
	// Merge combines two updates destined for the same target (must be
	// commutative and associative).
	Merge(a, b U) U
	// Apply folds the merged update into the target's state, reporting
	// whether the vertex changed (and so is active next iteration).
	Apply(v uint32, s S, u U) (S, bool)
}

// Options configures a run.
type Options struct {
	// MaxIterations caps the run; 0 means trace.DefaultMaxSteps.
	MaxIterations int
	// Context, when non-nil, cancels the run cooperatively at the next
	// iteration barrier; Run returns an error wrapping ctx.Err().
	Context context.Context
}

// Run executes the program to quiescence.
func Run[S, U any](g *graph.Graph, p Program[S, U], opt Options) (*trace.Result[S], error) {
	loop := trace.Barrier{Model: "xstream", Step: "iteration", MaxSteps: opt.MaxIterations, Context: opt.Context}
	return trace.RunBarrier(loop, g, func(n int) ([]S, int64, func(int) trace.Superstep) {
		// Materialize the flat edge stream: every arc once, in CSR storage
		// order (an arbitrary but fixed order, as a streaming engine sees it).
		edges := make([]Edge, 0, g.NumArcs())
		for u := uint32(0); int(u) < n; u++ {
			lo, hi := g.OutArcRange(u)
			for a := lo; a < hi; a++ {
				edges = append(edges, Edge{Src: u, Dst: g.ArcTarget(a), Weight: g.ArcWeight(a)})
			}
		}

		state := make([]S, n)
		active := make([]bool, n)
		nextActive := make([]bool, n)
		acc := make([]U, n)
		has := make([]bool, n)

		var activeCount int64
		for v := uint32(0); int(v) < n; v++ {
			state[v], active[v] = p.Init(g, v)
			if active[v] {
				activeCount++
			}
		}

		return state, activeCount, func(int) trace.Superstep {
			var s trace.Superstep
			// Stream phase: scan every edge, scatter from active sources.
			for i := range edges {
				e := &edges[i]
				if !active[e.Src] {
					continue
				}
				s.EdgeReads++ // one source-state read through an edge
				u, ok := p.ScatterEdge(*e, state[e.Src])
				if !ok {
					continue
				}
				s.Messages++
				if has[e.Dst] {
					acc[e.Dst] = p.Merge(acc[e.Dst], u)
				} else {
					acc[e.Dst] = u
					has[e.Dst] = true
				}
			}

			// Apply phase: fold updates, decide next activity.
			applyStart := time.Now()
			for v := uint32(0); int(v) < n; v++ {
				if !has[v] {
					continue
				}
				has[v] = false
				state[v], nextActive[v] = p.Apply(v, state[v], acc[v])
				s.Updates++
				if nextActive[v] {
					s.NextActive++
				}
			}
			s.ApplyTime = time.Since(applyStart)
			clear(active)
			active, nextActive = nextActive, active
			return s
		}
	})
}
