package otrace

import (
	"container/heap"
	"slices"
	"sync"
	"time"
)

// Store is the bounded in-process trace repository behind
// /debug/traces. Every started trace is tracked immediately (so a
// long-running campaign's trace is inspectable mid-flight); when the
// store is over capacity, the oldest *boring* finished trace is evicted
// first — tail-based sampling. A trace is protected from boring-first
// eviction when any of:
//
//   - a span in it failed (Status "error"),
//   - the HTTP layer marked it explicitly (429s and 5xx responses),
//   - its root duration landed in the slowest decile of recent roots.
//
// Protected traces are only evicted when no boring finished trace
// remains, and in-flight traces (root not yet ended) outlive both, so
// an async job's spans always have somewhere to land.
type Store struct {
	capacity int

	mu     sync.Mutex
	traces map[TraceID]*Trace
	// ring is the sentinel of the insertion-order list threaded through
	// Trace.prev/next: ring.next is the oldest retained trace, ring.prev
	// the newest.
	ring Trace
	// boring and guarded queue the retained finished traces by insertion
	// sequence, split by the protected flag as the root ended. Mark or a
	// late failing child can protect a trace afterwards, so eviction
	// re-checks the head of boring and moves it over if so.
	boring, guarded seqHeap

	// durs is a sliding window of recent root durations, the slowest-
	// decile reference: fixed size, overwritten circularly. sorted holds
	// the same values ascending, so the p90 is one index away.
	durs   []time.Duration
	durAt  int
	sorted []time.Duration

	started int64
	evicted int64
}

// seqHeap is a min-heap of traces by insertion sequence. Each trace
// records its heap and slot so removeLocked can take it out of the middle.
type seqHeap []*Trace

func (h seqHeap) Len() int           { return len(h) }
func (h seqHeap) Less(i, j int) bool { return h[i].seq < h[j].seq }
func (h seqHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].slot, h[j].slot = i, j
}
func (h *seqHeap) Push(x any) {
	t := x.(*Trace)
	t.queue, t.slot = h, len(*h)
	*h = append(*h, t)
}
func (h *seqHeap) Pop() any {
	n := len(*h) - 1
	t := (*h)[n]
	(*h)[n], t.queue = nil, nil
	*h = (*h)[:n]
	return t
}

// DefaultCapacity bounds retained traces when NewStore is given a
// capacity ≤ 0.
const DefaultCapacity = 512

// DefaultMaxSpans bounds the spans of every trace; a trace drops (and
// counts, Trace.Dropped) the spans past it: a campaign over hundreds of
// runs with per-iteration children must not hold the process hostage.
const DefaultMaxSpans = 4096

// slowWindow is how many recent root durations the slowest-decile
// estimate looks back over.
const slowWindow = 256

// NewStore returns a Store retaining up to capacity traces
// (DefaultCapacity if <= 0).
func NewStore(capacity int) *Store {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	st := &Store{
		capacity: capacity,
		traces:   make(map[TraceID]*Trace),
		durs:     make([]time.Duration, slowWindow),
		sorted:   make([]time.Duration, 0, slowWindow),
	}
	st.ring.prev, st.ring.next = &st.ring, &st.ring
	return st
}

// StartTrace opens a new trace and its root span. tid selects the
// propagated trace id (zero = generate one); parent is the remote
// parent span id from an incoming traceparent (zero = locally rooted).
// The returned span's End() finalizes the tail-sampling decision.
//
// Nil stores start nothing: both return values are nil and every
// downstream Span call no-ops, so callers need no store-presence
// branches.
func (st *Store) StartTrace(name, kind string, tid TraceID, parent SpanID, attrs ...Attr) (*Trace, *Span) {
	if st == nil {
		return nil, nil
	}
	if tid.IsZero() {
		tid = NewTraceID()
	}
	tr := &Trace{id: tid, start: time.Now(), store: st}
	sp := newSpan(tr, SpanID{}, name, kind, attrs)
	sp.data.RemoteParent = parent

	st.mu.Lock()
	st.started++
	tr.seq = st.started
	if old, ok := st.traces[tid]; ok {
		// A trace id replayed by a client collides; the newer trace wins
		// and the older one is dropped from the index.
		st.removeLocked(old)
	}
	st.traces[tid] = tr
	tr.prev, tr.next = st.ring.prev, &st.ring
	tr.prev.next, st.ring.prev = tr, tr
	st.evictLocked()
	st.mu.Unlock()
	return tr, sp
}

// rootEnd records the root duration for the slow-decile reference, flags
// slow and failed traces as protected, and queues the trace for
// eviction. Called by Span.End on root spans.
func (t *Trace) rootEnd(root SpanData) {
	st := t.store
	if st == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	threshold, have := st.slowThresholdLocked()
	if len(st.sorted) == len(st.durs) {
		i, _ := slices.BinarySearch(st.sorted, st.durs[st.durAt])
		st.sorted = slices.Delete(st.sorted, i, i+1)
	}
	i, _ := slices.BinarySearch(st.sorted, root.Duration)
	st.sorted = slices.Insert(st.sorted, i, root.Duration)
	st.durs[st.durAt] = root.Duration
	st.durAt = (st.durAt + 1) % len(st.durs)

	t.mu.Lock()
	t.rootEnded = true
	if (have && root.Duration >= threshold) || root.Status == StatusError {
		t.protected = true
	}
	protected := t.protected
	t.mu.Unlock()
	switch {
	case t.next == nil: // evicted in flight, or replaced by a replayed id
	case protected:
		heap.Push(&st.guarded, t)
	default:
		heap.Push(&st.boring, t)
	}
}

// slowThresholdLocked returns the p90 of the recent root durations.
// Callers hold st.mu. have is false until enough samples accumulated
// for a decile to mean anything.
func (st *Store) slowThresholdLocked() (time.Duration, bool) {
	if n := len(st.sorted); n >= 10 {
		return st.sorted[(n*9)/10], true
	}
	return 0, false
}

// evictLocked enforces the capacity bound: oldest boring finished trace
// first, then oldest protected finished trace, then (only if everything
// is still in flight) the oldest trace outright.
func (st *Store) evictLocked() {
	for len(st.traces) > st.capacity {
		for len(st.boring) > 0 {
			tr := st.boring[0]
			tr.mu.Lock()
			protected := tr.protected
			tr.mu.Unlock()
			if !protected {
				break
			}
			heap.Push(&st.guarded, heap.Pop(&st.boring))
		}
		victim := st.ring.next
		if len(st.boring) > 0 {
			victim = st.boring[0]
		} else if len(st.guarded) > 0 {
			victim = st.guarded[0]
		}
		st.removeLocked(victim)
		st.evicted++
	}
}

// removeLocked unlinks a retained trace from the map, the insertion-order
// list and its eviction queue.
func (st *Store) removeLocked(tr *Trace) {
	delete(st.traces, tr.id)
	tr.prev.next, tr.next.prev = tr.next, tr.prev
	tr.prev, tr.next = nil, nil
	if tr.queue != nil {
		heap.Remove(tr.queue, tr.slot)
	}
}

// Get returns the trace with the given id, if retained.
func (st *Store) Get(id TraceID) (*Trace, bool) {
	if st == nil {
		return nil, false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	tr, ok := st.traces[id]
	return tr, ok
}

// Summary is one row of the /debug/traces index.
type Summary struct {
	TraceID TraceID   `json:"traceId"`
	Name    string    `json:"name"`
	Kind    string    `json:"kind,omitempty"`
	Start   time.Time `json:"start"`
	// DurationMs is the root span's duration (0 while in flight).
	DurationMs float64 `json:"durationMs"`
	Status     string  `json:"status,omitempty"`
	Spans      int     `json:"spans"`
	Dropped    int     `json:"dropped,omitempty"`
	// Finished is false while the root span is still open.
	Finished bool `json:"finished"`
	// Protected marks traces the tail sampler will evict last (errors,
	// marked 429s/5xx, slowest decile).
	Protected bool `json:"protected,omitempty"`
}

// List returns a summary of every retained trace, newest first.
func (st *Store) List() []Summary {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	trs := make([]*Trace, 0, len(st.traces))
	for tr := st.ring.prev; tr != &st.ring; tr = tr.prev {
		trs = append(trs, tr)
	}
	st.mu.Unlock()

	out := make([]Summary, 0, len(trs))
	for _, tr := range trs {
		s := Summary{TraceID: tr.id, Start: tr.start}
		tr.mu.Lock()
		s.Spans = len(tr.spans)
		s.Dropped = tr.dropped
		s.Finished = tr.rootEnded
		s.Protected = tr.protected
		for _, sp := range tr.spans {
			if sp.Parent.IsZero() {
				// The root span: only present once it has ended.
				s.Name, s.Kind = sp.Name, sp.Kind
				s.DurationMs = float64(sp.Duration) / float64(time.Millisecond)
				s.Status = sp.Status
				break
			}
			if s.Name == "" {
				// In-flight trace: fall back to the earliest finished span.
				s.Name, s.Kind = sp.Name, sp.Kind
			}
		}
		tr.mu.Unlock()
		out = append(out, s)
	}
	return out
}

// Stats reports lifetime counters: traces started and traces evicted by
// the tail sampler.
func (st *Store) Stats() (started, evicted int64) {
	if st == nil {
		return 0, 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.started, st.evicted
}
