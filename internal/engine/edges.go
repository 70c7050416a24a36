package engine

import (
	"sync/atomic"

	"gcbench/internal/graph"
)

// Edges walks a granule's arc runs on one CSR side one vertex at a time,
// for programs whose edge work needs an arc's canonical index or weight
// on either side: NewEdges once per granule and side, then Of per vertex.
// A program builds its own, on its stack.
type Edges[S any] struct {
	// Other[i] is the neighbor across the run's i-th arc, in CSR order.
	Other []uint32
	// State is the whole vertex state slice: State[Other[i]] is the i-th
	// neighbor's state. Read-only during gather and scatter.
	State []S

	side  *graph.CSR // the CSR side the run lies on
	first int64      // the run's first slot on that side
}

// NewEdges returns a run view over side that reads neighbor state from
// state.
func NewEdges[S any](side *graph.CSR, state []S) Edges[S] {
	return Edges[S]{State: state, side: side}
}

// Of points the view at v's run and reports whether the run is non-empty.
func (e *Edges[S]) Of(v uint32) bool {
	lo, hi := e.side.Off[v], e.side.Off[v+1]
	e.Other, e.first = e.side.Adj[lo:hi], lo
	return lo < hi
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

// Signals collects one worker's scatter activations for the next
// iteration. Each signal is one message (the MSG numerator).
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

// SendIf is Send when ok holds and nothing otherwise. On one goroutine it
// does not branch on ok: ok is ORed into v's bit and added to the count,
// so a scatter whose condition is a data-dependent coin flip (CC, SSSP)
// pays no misprediction for it. Shared phases keep the compare-and-swap.
func (s *Signals) SendIf(v uint32, ok bool) {
	var b uint64
	if ok {
		b = 1
	}
	s.sent += int64(b)
	if !s.shared {
		s.next[v>>6] |= b << (v & 63)
	} else if ok {
		s.sendShared(v)
	}
}

// SendRun is Send for each vertex of run, in order: it counts len(run)
// messages at once and, on one goroutine, ORs the bits in a loop with no
// per-arc test. Shared phases keep the compare-and-swap. It fits the
// inliner's budget exactly, so a scatter's per-vertex loop makes no call.
func (s *Signals) SendRun(run []uint32) {
	s.sent += int64(len(run))
	if !s.shared {
		for _, v := range run {
			s.next[v>>6] |= uint64(1) << (v & 63)
		}
		return
	}
	for _, v := range run {
		s.sendShared(v)
	}
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
