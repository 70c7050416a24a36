// Package pregel implements the Pregel computation model (Malewicz et
// al., SIGMOD'10 — the paper's reference [19] and the origin of the
// vertex-centric family): bulk-synchronous supersteps in which vertices
// consume messages sent to them in the previous superstep, update state,
// send messages along edges, and vote to halt. A vertex is reactivated by
// incoming messages.
//
// Unlike GAS (gather reads neighbor state in place) the only inter-vertex
// communication is explicit messages, so the model maps onto the paper's
// behavior vocabulary as: UPDT = Compute invocations, MSG = messages
// sent, EREAD = edge traversals made while addressing messages, WORK =
// Compute time. The package tests validate result equivalence with the
// GAS implementations, extending the §3.3 model-conservation check to
// the third member of the vertex-centric family.
package pregel

import (
	"context"
	"runtime"
	"sync"
	"time"

	"gcbench/internal/graph"
	"gcbench/internal/trace"
)

// Context lets a vertex send messages during Compute.
type Context[M any] struct {
	g      *graph.Graph
	out    *outbox[M]
	halted bool
}

// SendTo queues a message for vertex dst, delivered next superstep.
func (c *Context[M]) SendTo(dst uint32, m M) {
	c.out.add(dst, m)
	c.out.messages++
}

// SendToNeighbors queues a message along every out-edge of v.
func (c *Context[M]) SendToNeighbors(v uint32, m M) {
	lo, hi := c.g.OutArcRange(v)
	for a := lo; a < hi; a++ {
		c.out.add(c.g.ArcTarget(a), m)
		c.out.messages++
		c.out.edgeReads++
	}
}

// Degree returns v's out-degree (Pregel vertices know their edges).
func (c *Context[M]) Degree(v uint32) int { return c.g.OutDegree(v) }

// VoteToHalt deactivates the vertex until a message arrives.
func (c *Context[M]) VoteToHalt() { c.halted = true }

// Program is a Pregel vertex program over state S and message M.
type Program[S, M any] interface {
	// Init returns vertex v's initial state; all vertices start active.
	Init(g *graph.Graph, v uint32) S
	// Compute processes the superstep: consume msgs, optionally send
	// messages and vote to halt, and return the new state.
	Compute(ctx *Context[M], superstep int, v uint32, s S, msgs []M) S
	// Combine merges two messages addressed to the same vertex (Pregel's
	// combiner). Message order is unspecified, so Combine must be
	// commutative and associative.
	Combine(a, b M) M
}

// outbox accumulates one worker's sends with per-destination combining.
type outbox[M any] struct {
	combine   func(a, b M) M
	msg       []M
	has       []bool
	messages  int64
	edgeReads int64
}

func (o *outbox[M]) add(dst uint32, m M) {
	if o.has[dst] {
		o.msg[dst] = o.combine(o.msg[dst], m)
	} else {
		o.msg[dst] = m
		o.has[dst] = true
	}
}

// Options configures a run.
type Options struct {
	// MaxSupersteps caps the run (0 means trace.DefaultMaxSteps).
	MaxSupersteps int
	// Workers is the compute parallelism (0 means GOMAXPROCS).
	Workers int
	// Context, when non-nil, cancels the run cooperatively at the next
	// superstep barrier; Run returns an error wrapping ctx.Err().
	Context context.Context
}

// Run executes the program until every vertex has halted with no messages
// in flight.
func Run[S, M any](g *graph.Graph, p Program[S, M], opt Options) (*trace.Result[S], error) {
	loop := trace.Barrier{Model: "pregel", Step: "superstep", MaxSteps: opt.MaxSupersteps, Context: opt.Context}
	return trace.RunBarrier(loop, g, func(n int) ([]S, int64, func(int) trace.Superstep) {
		workers := opt.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		if workers > n {
			workers = n
		}

		state := make([]S, n)
		active := make([]bool, n)
		for v := range state {
			state[v] = p.Init(g, uint32(v))
			active[v] = true
		}

		// Combined inbox: one message slot per vertex (combiner semantics).
		inMsg := make([]M, n)
		inHas := make([]bool, n)

		outboxes := make([]*outbox[M], workers)
		for w := range outboxes {
			outboxes[w] = &outbox[M]{
				combine: p.Combine,
				msg:     make([]M, n),
				has:     make([]bool, n),
			}
		}
		updatesPer := make([]int64, workers)
		chunk := (n + workers - 1) / workers

		return state, int64(n), func(step int) trace.Superstep {
			// Compute phase: contiguous vertex ranges per worker, each
			// with its own outbox (merged afterward).
			applyStart := time.Now()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				lo := w * chunk
				hi := min(lo+chunk, n)
				if lo >= hi {
					break
				}
				wg.Add(1)
				go func(w, lo, hi int) {
					defer wg.Done()
					ctx := &Context[M]{g: g, out: outboxes[w]}
					var msgBuf [1]M
					for v := lo; v < hi; v++ {
						if !active[v] {
							continue
						}
						var msgs []M
						if inHas[v] {
							msgBuf[0] = inMsg[v]
							msgs = msgBuf[:1]
						}
						ctx.halted = false
						state[v] = p.Compute(ctx, step, uint32(v), state[v], msgs)
						updatesPer[w]++
						if ctx.halted {
							active[v] = false
						}
					}
				}(w, lo, hi)
			}
			wg.Wait()
			s := trace.Superstep{ApplyTime: time.Since(applyStart)}

			// Delivery: merge worker outboxes into the next inbox.
			clear(inHas)
			for w, ob := range outboxes {
				s.Updates += updatesPer[w]
				s.Messages += ob.messages
				s.EdgeReads += ob.edgeReads
				updatesPer[w], ob.messages, ob.edgeReads = 0, 0, 0
				for v := 0; v < n; v++ {
					if !ob.has[v] {
						continue
					}
					ob.has[v] = false
					if inHas[v] {
						inMsg[v] = p.Combine(inMsg[v], ob.msg[v])
					} else {
						inMsg[v] = ob.msg[v]
						inHas[v] = true
					}
				}
			}

			// Reactivation: messages wake halted vertices.
			for v := 0; v < n; v++ {
				if inHas[v] {
					active[v] = true
				}
				if active[v] {
					s.NextActive++
				}
			}
			return s
		}
	})
}
