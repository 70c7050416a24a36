package engine

import (
	"sync/atomic"

	"gcbench/internal/graph"
)

// Edges is one vertex's contiguous run of arcs on one CSR side, as handed
// to Gather and Scatter. The engine keeps one per worker and rewrites it
// per vertex, so a program must not retain it (or mutate it) across calls.
type Edges[S any] struct {
	// Other[i] is the neighbor across the run's i-th arc, in CSR order.
	Other []uint32
	// State is the whole vertex state slice: State[Other[i]] is the i-th
	// neighbor's state. Read-only during gather and scatter.
	State []S

	side  *graph.CSR // the CSR side the run lies on
	first int64      // the run's first slot on that side
}

// Index returns the canonical out-arc index of the run's i-th arc — stable
// across gather directions, usable to index per-arc program state.
func (e *Edges[S]) Index(i int) int64 {
	slot := e.first + int64(i)
	if arc := e.side.Arc; arc != nil {
		return arc[slot]
	}
	return slot
}

// Weight returns the weight of the run's i-th arc; 1 when unweighted.
func (e *Edges[S]) Weight(i int) float64 {
	w := e.side.W
	if w == nil {
		return 1
	}
	return w[e.Index(i)]
}

// Arc returns the run's i-th arc in per-edge form.
func (e *Edges[S]) Arc(i int) Arc {
	a := Arc{Index: e.Index(i), Other: e.Other[i], Weight: 1}
	if w := e.side.W; w != nil {
		a.Weight = w[a.Index]
	}
	return a
}

// Signals collects one worker's scatter activations for the next
// iteration. Each Send is one message (the MSG numerator).
type Signals struct {
	next []uint64 // the next-frontier bitset's words
	// shared is set when other goroutines signal into next during the same
	// phase; a phase that runs on one goroutine sets bits with a plain OR.
	shared bool
	sent   int64
}

// Send activates v for the next iteration and counts one message.
// Signalling an already-signalled vertex still counts.
func (s *Signals) Send(v uint32) {
	s.sent++
	if s.shared {
		s.sendShared(v)
		return
	}
	s.next[v>>6] |= uint64(1) << (v & 63)
}

func (s *Signals) sendShared(v uint32) {
	w := &s.next[v>>6]
	mask := uint64(1) << (v & 63)
	for {
		old := atomic.LoadUint64(w)
		if old&mask != 0 || atomic.CompareAndSwapUint64(w, old, old|mask) {
			return
		}
	}
}
