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
//
// Programs are range-shaped, like the GAS engine's granules: each
// superstep the engine makes one Compute call per worker, handing it the
// worker's active vertices, and the program loops over them and their arc
// runs itself, folding every send straight into the worker's combining
// outbox.
package pregel

import (
	"context"
	"runtime"
	"sync"
	"time"

	"gcbench/internal/graph"
	"gcbench/internal/trace"
)

// Worker is what one worker's Compute call sees: the graph's out side,
// the shared vertex state and combined inbox, and the worker's own
// outbox and tallies. Compute may write State[v] and Active[v] for the v
// it was handed, and the worker's outbox and tallies; nothing else.
type Worker[S, M any] struct {
	// Out is the out-adjacency: v's arc run is Out.Adj[Out.Off[v]:Out.Off[v+1]].
	Out   graph.CSR
	State []S
	// Active[v] is true while v computes each superstep; Compute clears
	// it when v votes to halt, and a message sets it again.
	Active []bool
	// InMsg[v] is the combined message sent to v in the previous
	// superstep, when InHas[v].
	InMsg []M
	InHas []bool
	// Msg and Has are the worker's outbox, one combining slot per
	// destination: a send of m to t sets Msg[t] = m when !Has[t] (and
	// sets Has[t]), and Msg[t] = Combine(Msg[t], m) otherwise — old ⊕ new.
	// A slot whose Has is false holds M's zero value, so a combiner whose
	// identity that is may fold without testing Has.
	Msg []M
	Has []bool
	// Messages and EdgeReads tally the sends and the arcs read to address
	// them; Compute adds to them.
	Messages, EdgeReads int64

	lo, hi int      // the worker's vertex range
	vs     []uint32 // its active vertices this superstep, ascending
}

// Program is a Pregel vertex program over state S and message M.
type Program[S, M any] interface {
	// Init returns vertex v's initial state; all vertices start active.
	Init(g *graph.Graph, v uint32) S
	// Compute runs superstep step for each vertex of vs (active,
	// ascending, all in one worker's range): consume InMsg, update State,
	// fold sends into the outbox, and clear Active to vote to halt.
	Compute(step int, vs []uint32, w *Worker[S, M])
	// Combine merges two workers' messages to the same vertex (Pregel's
	// combiner). The merge order is fixed, but the message a worker holds
	// depends on the worker count, so Combine must be commutative and
	// associative.
	Combine(a, b M) M
}

// Options configures a run.
type Options struct {
	// Workers is the compute parallelism (0 means GOMAXPROCS).
	Workers int
	// Context, when non-nil, cancels the run cooperatively at the next
	// superstep barrier; Run returns an error wrapping ctx.Err().
	Context context.Context
}

// Run executes the program until every vertex has halted with no messages
// in flight.
func Run[S, M any](g *graph.Graph, p Program[S, M], opt Options) (*trace.Result[S], error) {
	loop := trace.Barrier{Model: "pregel", Step: "superstep", Context: opt.Context}
	return trace.RunBarrier(loop, g, func(n int) ([]S, int64, func(int) trace.Superstep) {
		workers := opt.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		workers = min(workers, n)
		chunk := (n + workers - 1) / workers

		state := make([]S, n)
		active := make([]bool, n)
		for v := range state {
			state[v] = p.Init(g, uint32(v))
			active[v] = true
		}

		// Combined inbox: one message slot per vertex (combiner semantics).
		inMsg := make([]M, n)
		inHas := make([]bool, n)
		var zero M

		// One worker per contiguous vertex range, each with its own outbox
		// (merged afterward); every vertex starts active.
		var ws []*Worker[S, M]
		for lo := 0; lo < n; lo += chunk {
			w := &Worker[S, M]{Out: g.OutCSR(), State: state, Active: active, InMsg: inMsg, InHas: inHas,
				Msg: make([]M, n), Has: make([]bool, n), lo: lo, hi: min(lo+chunk, n)}
			for v := w.lo; v < w.hi; v++ {
				w.vs = append(w.vs, uint32(v))
			}
			ws = append(ws, w)
		}

		return state, int64(n), func(step int) trace.Superstep {
			// Compute phase: one call per worker, on the caller's goroutine
			// when there is one worker.
			applyStart := time.Now()
			if len(ws) == 1 {
				p.Compute(step, ws[0].vs, ws[0])
			} else {
				var wg sync.WaitGroup
				for _, w := range ws {
					wg.Add(1)
					go func() {
						defer wg.Done()
						p.Compute(step, w.vs, w)
					}()
				}
				wg.Wait()
			}
			s := trace.Superstep{ApplyTime: time.Since(applyStart)}

			// Delivery: the first worker's outbox becomes the next inbox —
			// swapped with it, not copied; the old inbox, cleared, is its
			// next outbox — and the others merge into it in worker order.
			clear(inMsg)
			clear(inHas)
			inMsg, inHas, ws[0].Msg, ws[0].Has = ws[0].Msg, ws[0].Has, inMsg, inHas
			for _, w := range ws {
				w.InMsg, w.InHas = inMsg, inHas
				s.Updates += int64(len(w.vs))
				s.Messages += w.Messages
				s.EdgeReads += w.EdgeReads
				w.Messages, w.EdgeReads = 0, 0
			}
			for _, w := range ws[1:] {
				for v := 0; v < n; v++ {
					if !w.Has[v] {
						continue
					}
					if inHas[v] {
						inMsg[v] = p.Combine(inMsg[v], w.Msg[v])
					} else {
						inMsg[v] = w.Msg[v]
						inHas[v] = true
					}
					w.Msg[v], w.Has[v] = zero, false
				}
			}

			// Reactivation: messages wake halted vertices; each worker's
			// active vertices are its next Compute call.
			for _, w := range ws {
				w.vs = w.vs[:0]
				for v := w.lo; v < w.hi; v++ {
					if inHas[v] {
						active[v] = true
					}
					if active[v] {
						w.vs = append(w.vs, uint32(v))
					}
				}
				s.NextActive += int64(len(w.vs))
			}
			return s
		}
	})
}
