// Package graphcentric implements the "think like a graph" execution
// model (Tian et al., VLDB'14), the third computation model the paper's
// §3.3 lists alongside vertex-centric GAS and edge-centric streaming.
//
// The graph is split into partitions; within one superstep each partition
// propagates information through its *internal* edges to a local fixed
// point (a sequential worklist), and only boundary-edge propagations wait
// for the global barrier. For distance-like computations this collapses
// many vertex-centric iterations into few supersteps while producing
// identical results — which the package tests verify against the GAS
// implementations, completing the §3.3 claim that "the basic behavior of
// graph computation is conserved" across all three models.
//
// The model covers the propagation family only (CC, SSSP and relatives):
// Run takes an algorithms.Kernel — how a state travels along an edge and
// which of two states is better — and adds nothing to it but the
// schedule. States only ever improve, so local fixed points are globally
// safe.
package graphcentric

import (
	"context"
	"time"

	"gcbench/internal/algorithms"
	"gcbench/internal/graph"
	"gcbench/internal/trace"
)

// Options configures a run.
type Options struct {
	// Partitions is the number of contiguous vertex partitions
	// (0 means 8).
	Partitions int
	// MaxSupersteps caps the run (0 means trace.DefaultMaxSteps).
	MaxSupersteps int
	// Context, when non-nil, cancels the run cooperatively at the next
	// superstep barrier; Run returns an error wrapping ctx.Err().
	Context context.Context
}

// Run propagates the kernel to global quiescence. Trace fields map onto
// the shared vocabulary: Active = vertices active at superstep start,
// Updates = state improvements applied (internal and boundary), EdgeReads
// = propagations evaluated, Messages = boundary propagations that crossed
// partitions.
func Run[S any](g *graph.Graph, k algorithms.Kernel[S], opt Options) (*trace.Result[S], error) {
	loop := trace.Barrier{Model: "graphcentric", Step: "superstep", MaxSteps: opt.MaxSupersteps, Context: opt.Context}
	return trace.RunBarrier(loop, g, func(n int) ([]S, int64, func(int) trace.Superstep) {
		parts := opt.Partitions
		if parts <= 0 {
			parts = 8
		}
		if parts > n {
			parts = n
		}
		// Vertex v belongs to partition v*parts/n, so partition p owns the
		// contiguous range [bound(p), bound(p+1)).
		bound := func(p int) uint32 { return uint32((p*n + parts - 1) / parts) }

		state := make([]S, n)
		active := make([]bool, n)
		var activeCount int64
		for v := uint32(0); int(v) < n; v++ {
			state[v], active[v] = k.Init(v)
			if active[v] {
				activeCount++
			}
		}
		nextActive := make([]bool, n)
		queue := make([]uint32, 0, n)
		// inQueue is all false between drains: every queued vertex is
		// dequeued before its partition's drain ends.
		inQueue := make([]bool, n)

		return state, activeCount, func(int) trace.Superstep {
			var s trace.Superstep
			applyStart := time.Now()
			// Each partition drains its active vertices to a local fixed
			// point; boundary improvements are applied immediately to the
			// target state (monotone, so safe) but only *activate* the
			// target in the next superstep.
			for part := 0; part < parts; part++ {
				lo, hi := bound(part), bound(part+1)
				queue = queue[:0]
				for v := lo; v < hi; v++ {
					if active[v] {
						queue = append(queue, v)
						inQueue[v] = true
					}
				}
				for head := 0; head < len(queue); head++ {
					u := queue[head]
					inQueue[u] = false
					alo, ahi := g.OutArcRange(u)
					for a := alo; a < ahi; a++ {
						v := g.ArcTarget(a)
						s.EdgeReads++
						cand := k.Along(state[u], g.ArcWeight(a))
						if !k.Better(cand, state[v]) {
							continue
						}
						state[v] = cand
						s.Updates++
						if lo <= v && v < hi {
							// Internal improvement: keep draining locally.
							if !inQueue[v] {
								queue = append(queue, v)
								inQueue[v] = true
							}
						} else {
							// Boundary improvement: a message to another
							// partition, visible next superstep.
							s.Messages++
							nextActive[v] = true
						}
					}
				}
			}
			s.ApplyTime = time.Since(applyStart)

			for v := range nextActive {
				active[v] = nextActive[v]
				if active[v] {
					s.NextActive++
				}
				nextActive[v] = false
			}
			return s
		}
	})
}
