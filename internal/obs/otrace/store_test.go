package otrace

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"time"
)

// endTrace starts and immediately finishes a trace, optionally failing
// its root.
func endTrace(st *Store, name string, fail bool) TraceID {
	tr, root := st.StartTrace(name, "server", TraceID{}, SpanID{})
	if fail {
		root.Fail("boom")
	}
	root.End()
	return tr.ID()
}

func TestStoreEvictsBoringFirst(t *testing.T) {
	st := NewStore(4)
	bad := endTrace(st, "bad", true)
	var boring []TraceID
	for i := 0; i < 10; i++ {
		boring = append(boring, endTrace(st, fmt.Sprintf("ok-%d", i), false))
	}
	if st.Len() != 4 {
		t.Fatalf("store len = %d, want capacity 4", st.Len())
	}
	if _, ok := st.Get(bad); !ok {
		t.Fatal("error trace evicted while boring traces remained")
	}
	// The earliest boring traces must be gone.
	if _, ok := st.Get(boring[0]); ok {
		t.Fatal("oldest boring trace survived past capacity")
	}
	started, evicted := st.Stats()
	if started != 11 || evicted != 7 {
		t.Fatalf("stats = (%d started, %d evicted), want (11, 7)", started, evicted)
	}
}

func TestStoreProtectsMarked(t *testing.T) {
	st := NewStore(3)
	tr, root := st.StartTrace("ratelimited", "server", TraceID{}, SpanID{})
	tr.Mark() // the HTTP layer marks 429s
	root.End()
	for i := 0; i < 10; i++ {
		endTrace(st, "ok", false)
	}
	if _, ok := st.Get(tr.ID()); !ok {
		t.Fatal("marked trace evicted while boring traces remained")
	}
}

func TestStoreKeepsInFlightTraces(t *testing.T) {
	st := NewStore(2)
	trLive, _ := st.StartTrace("live", "server", TraceID{}, SpanID{}) // root never ends
	for i := 0; i < 6; i++ {
		endTrace(st, "ok", false)
	}
	if _, ok := st.Get(trLive.ID()); !ok {
		t.Fatal("in-flight trace evicted while finished traces remained")
	}
}

func TestStoreSlowDecileProtection(t *testing.T) {
	st := NewStore(64)
	// Prime the duration window with fast roots.
	for i := 0; i < 32; i++ {
		endTrace(st, "fast", false)
	}
	// One slow root: far beyond the p90 of the ~instant priming roots.
	tr, root := st.StartTrace("slow", "server", TraceID{}, SpanID{})
	root.data.Start = root.data.Start.Add(-500 * time.Millisecond) // backdate instead of sleeping
	root.End()
	slowID := tr.ID()
	got, ok := st.Get(slowID)
	if !ok {
		t.Fatal("slow trace missing")
	}
	got.mu.Lock()
	protected := got.protected
	got.mu.Unlock()
	if !protected {
		t.Fatal("slowest-decile trace not protected")
	}
	// Flood with fast traces: the slow one must survive capacity pressure.
	for i := 0; i < 200; i++ {
		endTrace(st, "fast", false)
	}
	if _, ok := st.Get(slowID); !ok {
		t.Fatal("slowest-decile trace evicted while boring traces remained")
	}
}

func TestStoreListNewestFirst(t *testing.T) {
	st := NewStore(8)
	a := endTrace(st, "a", false)
	b := endTrace(st, "b", true)
	ls := st.List()
	if len(ls) != 2 {
		t.Fatalf("list = %d entries, want 2", len(ls))
	}
	if ls[0].TraceID != b || ls[1].TraceID != a {
		t.Fatalf("order = [%s %s], want newest first", ls[0].Name, ls[1].Name)
	}
	if !ls[0].Finished || ls[0].Status != StatusError || !ls[0].Protected {
		t.Fatalf("summary of failed trace = %+v", ls[0])
	}
	if ls[1].Name != "a" || ls[1].Spans != 1 {
		t.Fatalf("summary = %+v", ls[1])
	}
}

func TestStoreTraceIDCollisionReplaces(t *testing.T) {
	st := NewStore(8)
	tid := NewTraceID()
	_, r1 := st.StartTrace("first", "server", tid, SpanID{})
	r1.End()
	tr2, r2 := st.StartTrace("second", "server", tid, SpanID{})
	r2.End()
	if st.Len() != 1 {
		t.Fatalf("store len = %d, want 1 after id collision", st.Len())
	}
	got, _ := st.Get(tid)
	if got != tr2 {
		t.Fatal("collision must keep the newer trace")
	}
}

// oracleStore is the sampler as it was before the store kept its window
// sorted and its victims queued: slowThreshold copies and sorts the
// window on every root end, evict scans the insertion order up to three
// times, remove scans it again. It freezes the sampler's decisions —
// TestStoreMatchesOracle holds the Store to them step by step.
type oracleStore struct {
	capacity int
	traces   map[TraceID]*oracleTrace
	order    []TraceID

	durs  []time.Duration
	durAt int
	durN  int

	started, evicted, evictedInFlight int64
}

type oracleTrace struct {
	id                   TraceID
	rootEnded, protected bool
}

func newOracleStore(capacity int) *oracleStore {
	return &oracleStore{
		capacity: capacity,
		traces:   make(map[TraceID]*oracleTrace),
		durs:     make([]time.Duration, slowWindow),
	}
}

func (st *oracleStore) start(tid TraceID) *oracleTrace {
	tr := &oracleTrace{id: tid}
	st.started++
	if _, ok := st.traces[tid]; ok {
		st.remove(tid)
	}
	st.traces[tid] = tr
	st.order = append(st.order, tid)
	st.evict()
	return tr
}

func (st *oracleStore) rootEnd(tr *oracleTrace, root SpanData) {
	threshold, have := st.slowThreshold()
	st.durs[st.durAt] = root.Duration
	st.durAt = (st.durAt + 1) % len(st.durs)
	if st.durN < len(st.durs) {
		st.durN++
	}
	tr.rootEnded = true
	if have && root.Duration >= threshold {
		tr.protected = true
	}
	if root.Status == StatusError {
		tr.protected = true
	}
}

func (st *oracleStore) slowThreshold() (time.Duration, bool) {
	if st.durN < 10 {
		return 0, false
	}
	window := make([]time.Duration, st.durN)
	copy(window, st.durs[:st.durN])
	sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
	return window[(st.durN*9)/10], true
}

func (st *oracleStore) evict() {
	for len(st.order) > st.capacity {
		victim := TraceID{}
		// Pass 1: oldest finished, unprotected.
		for _, id := range st.order {
			if tr := st.traces[id]; tr.rootEnded && !tr.protected {
				victim = id
				break
			}
		}
		// Pass 2: oldest finished, protected.
		if victim.IsZero() {
			for _, id := range st.order {
				if st.traces[id].rootEnded {
					victim = id
					break
				}
			}
		}
		// Pass 3: everything in flight — drop the oldest.
		if victim.IsZero() {
			victim = st.order[0]
			st.evictedInFlight++
		}
		st.remove(victim)
		st.evicted++
	}
}

func (st *oracleStore) remove(id TraceID) {
	if _, ok := st.traces[id]; !ok {
		return
	}
	delete(st.traces, id)
	for i, o := range st.order {
		if o == id {
			st.order = append(st.order[:i], st.order[i+1:]...)
			break
		}
	}
}

// TestStoreMatchesOracle drives the Store and the oracle with one seeded
// schedule — starts, root ends out of start order, Mark before and after
// the root ended, a failing child after it, replayed trace ids, and
// growth phases that overflow the store with nothing finished — and
// requires the same retained set, order, flags and counters after every
// step. Root ends go through Trace.rootEnd with a drawn duration (few
// distinct values, so the p90 comparison sees ties) instead of Span.End,
// whose duration is the wall clock's.
func TestStoreMatchesOracle(t *testing.T) {
	type handle struct {
		tr    *Trace
		root  *Span
		model *oracleTrace
	}
	for _, capacity := range []int{4, 64, 512} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(20, uint64(capacity)))
			st, oracle := NewStore(capacity), newOracleStore(capacity)
			var open, done []handle // root in flight; root ended (most recent 64)
			pick := func(hs []handle) (handle, int) {
				i := rng.IntN(len(hs))
				return hs[i], i
			}
			either := func() (handle, bool) {
				if n := len(open) + len(done); n == 0 {
					return handle{}, false
				} else if i := rng.IntN(n); i < len(open) {
					return open[i], true
				} else {
					return done[i-len(open)], true
				}
			}
			for step := 0; step < 20_000; step++ {
				// Alternate growth (starts outrun ends until every retained
				// trace is in flight) and drain phases.
				pStart, pEnd := 0.30, 0.50
				if (step/2500)%2 == 0 {
					pStart, pEnd = 0.75, 0.05
				}
				switch p := rng.Float64(); {
				case p < pStart:
					tid := NewTraceID()
					if h, ok := either(); ok && rng.IntN(20) == 0 {
						tid = h.tr.ID() // a client replays a trace id
					}
					tr, root := st.StartTrace("t", "server", tid, SpanID{})
					open = append(open, handle{tr, root, oracle.start(tid)})
				case p < pStart+pEnd && len(open) > 0:
					h, i := pick(open)
					open = slices.Delete(open, i, i+1)
					root := SpanData{Duration: time.Duration(rng.IntN(40)) * time.Millisecond, Status: StatusOK}
					if rng.IntN(25) == 0 {
						root.Status = StatusError
					}
					h.tr.rootEnd(root)
					oracle.rootEnd(h.model, root)
					if done = append(done, h); len(done) > 64 {
						done = done[1:]
					}
				case p < pStart+pEnd+0.1:
					if h, ok := either(); ok {
						h.tr.Mark()
						h.model.protected = true
					}
				default:
					if h, ok := either(); ok {
						child := h.root.StartChild("late", "")
						child.Fail("boom")
						child.End()
						h.model.protected = true
					}
				}

				started, evicted := st.Stats()
				if started != oracle.started || evicted != oracle.evicted {
					t.Fatalf("step %d: stats = (%d, %d), oracle (%d, %d)", step, started, evicted, oracle.started, oracle.evicted)
				}
				ls := st.List()
				if len(ls) != len(oracle.order) || st.Len() != len(oracle.order) {
					t.Fatalf("step %d: %d listed, %d retained, oracle %d", step, len(ls), st.Len(), len(oracle.order))
				}
				for i, s := range ls {
					want := oracle.traces[oracle.order[len(ls)-1-i]]
					if s.TraceID != want.id || s.Finished != want.rootEnded || s.Protected != want.protected {
						t.Fatalf("step %d: list[%d] = %s finished=%v protected=%v, oracle %s %v %v",
							step, i, s.TraceID, s.Finished, s.Protected, want.id, want.rootEnded, want.protected)
					}
					if got, ok := st.Get(s.TraceID); !ok || got.ID() != want.id {
						t.Fatalf("step %d: listed trace %s not retrievable", step, s.TraceID)
					}
				}
			}
			if oracle.evictedInFlight == 0 {
				t.Fatal("schedule never overflowed the store with every trace in flight")
			}
		})
	}
}

// BenchmarkStoreSteadyState is one request's worth of sampler work —
// StartTrace plus the root's End — on a full default-capacity store in
// its production steady state: root durations spread evenly, so one in
// ten lands in the slow decile and stays, and the rest are evicted by
// the next start.
func BenchmarkStoreSteadyState(b *testing.B) {
	st := NewStore(DefaultCapacity)
	step := func(i int) {
		_, root := st.StartTrace("GET /api/runs", "server", TraceID{}, SpanID{})
		// Backdate instead of sleeping; 7919 is coprime to 1000.
		root.data.Start = root.data.Start.Add(-time.Duration(i*7919%1000) * time.Microsecond)
		root.End()
	}
	for i := 0; i < 20*DefaultCapacity; i++ {
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
}
