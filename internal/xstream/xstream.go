// Package xstream implements an edge-centric execution model in the style
// of X-Stream (Roy et al., SOSP'13), the alternative computation model the
// paper's §3.3 discusses: "there are also other computation models used in
// current graph-processing systems (edge-centric model and graph-centric
// model), but the basic behavior of graph computation is conserved —
// transferring information through edges, performing computation on an
// independent unit, and activations."
//
// Instead of iterating active vertices over their adjacency, each
// iteration streams the entire edge list — the CSR's arc arrays in
// storage order, an arbitrary but fixed order, as a streaming engine sees
// it: arcs whose source is active emit updates toward their targets,
// updates are merged per target, and targets apply them — becoming active
// when they change. A source's arcs are one contiguous run, so its
// activity is tested once per run. Both phases run sequentially, as in a
// single streaming partition, and each is one program call over the
// iteration's runs or targets: the program loops over them and folds in
// place. The same five behavior quantities are measured, so this package
// lets the conservation claim be checked quantitatively (see the package
// tests, which run CC/PR/SSSP under both models and compare results and
// activation behavior).
package xstream

import (
	"context"
	"time"

	"gcbench/internal/graph"
	"gcbench/internal/trace"
)

// Program is an edge-centric vertex program over state S and update U.
type Program[S, U any] interface {
	// Init returns vertex v's initial state and activity.
	Init(g *graph.Graph, v uint32) (S, bool)
	// Scatter streams the out-arc run on out of each source in vs — the
	// iteration's active sources that have arcs, in storage order —
	// reading the source's state and folding the update it emits along
	// each arc into acc[t] for the arc's target t: acc[t] = u when has[t]
	// is false (and has[t] is set), else acc[t] = acc[t] ⊕ u for a
	// commutative, associative ⊕. It returns the number of updates
	// emitted. acc is the program's: the engine allocates it zeroed and
	// never writes it.
	Scatter(vs []uint32, out *graph.CSR, state []S, acc []U, has []bool) int64
	// Apply folds the merged update acc[v] into state[v] for each target v
	// in vs (ascending), sets next[v] for each that changed (and so is
	// active next iteration) and returns how many did.
	Apply(vs []uint32, state []S, acc []U, next []bool) int64
}

// Options configures a run.
type Options struct {
	// Context, when non-nil, cancels the run cooperatively at the next
	// iteration barrier; Run returns an error wrapping ctx.Err().
	Context context.Context
}

// Run executes the program to quiescence.
func Run[S, U any](g *graph.Graph, p Program[S, U], opt Options) (*trace.Result[S], error) {
	loop := trace.Barrier{Model: "xstream", Step: "iteration", Context: opt.Context}
	return trace.RunBarrier(loop, g, func(n int) ([]S, int64, func(int) trace.Superstep) {
		out := g.OutCSR()
		state := make([]S, n)
		active := make([]bool, n)
		acc := make([]U, n)
		has := make([]bool, n)
		var runs, targets []uint32

		var activeCount int64
		for v := uint32(0); int(v) < n; v++ {
			state[v], active[v] = p.Init(g, v)
			if active[v] {
				activeCount++
			}
		}

		return state, activeCount, func(int) trace.Superstep {
			var s trace.Superstep
			// Stream phase: every source's run in storage order, its
			// activity tested once; each arc of an active run is one
			// source-state read.
			runs = runs[:0]
			for v, on := range active {
				if reads := out.Off[v+1] - out.Off[v]; on && reads > 0 {
					s.EdgeReads += reads
					runs = append(runs, uint32(v))
				}
			}
			s.Messages = p.Scatter(runs, &out, state, acc, has)

			// Apply phase: fold updates, decide next activity.
			applyStart := time.Now()
			targets = targets[:0]
			for v, h := range has {
				if h {
					targets = append(targets, uint32(v))
					has[v] = false
				}
			}
			clear(active)
			s.Updates = int64(len(targets))
			s.NextActive = p.Apply(targets, state, acc, active)
			s.ApplyTime = time.Since(applyStart)
			return s
		}
	})
}
