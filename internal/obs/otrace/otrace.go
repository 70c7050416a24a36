// Package otrace is gcbench's request-scoped tracing layer: a
// dependency-free implementation of just enough distributed-tracing
// machinery to explain one request end to end — W3C traceparent
// propagation, context-scoped spans that survive async boundaries (the
// 202-accepted campaign job keeps appending spans to its originating
// trace after the HTTP response is gone), and a bounded in-process
// store with tail-based sampling (see store.go).
//
// The design mirrors the repo's obs philosophy: the hot path pays
// nothing when no trace is attached. Every Span method is nil-safe, so
// instrumented code writes
//
//	ctx, sp := otrace.StartSpan(ctx, "run", ...)
//	defer sp.End()
//
// unconditionally; without a trace in ctx that is two pointer checks
// and no allocation. The engine itself is never instrumented — its
// per-iteration phase walls are already measured in trace.RunTrace,
// whose Spans method converts them to SpanData after the run; the sweep
// layer attaches that subtree with Span.Graft, at zero extra clock
// reads.
package otrace

import (
	"bytes"
	"cmp"
	"context"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"time"
)

// TraceID is a 16-byte W3C trace id (non-zero for valid traces).
type TraceID [16]byte

// SpanID is an 8-byte W3C span id (non-zero for valid spans).
type SpanID [8]byte

// IsZero reports whether the id is the invalid all-zero id.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the id is the invalid all-zero id.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the id as 32 lowercase hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String renders the id as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// MarshalText makes ids JSON-encode as their hex form.
func (t TraceID) MarshalText() ([]byte, error) { return []byte(t.String()), nil }

// MarshalText makes ids JSON-encode as their hex form.
func (s SpanID) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses the 32-hex-digit form.
func (t *TraceID) UnmarshalText(b []byte) error {
	id, err := ParseTraceID(string(b))
	if err != nil {
		return err
	}
	*t = id
	return nil
}

// UnmarshalText parses the 16-hex-digit form.
func (s *SpanID) UnmarshalText(b []byte) error {
	if len(b) != 16 {
		return fmt.Errorf("otrace: span id must be 16 hex digits, got %d", len(b))
	}
	_, err := hex.Decode(s[:], b)
	return err
}

// ParseTraceID parses a 32-hex-digit trace id.
func ParseTraceID(s string) (TraceID, error) {
	var t TraceID
	if len(s) != 32 {
		return t, fmt.Errorf("otrace: trace id must be 32 hex digits, got %d", len(s))
	}
	if _, err := hex.Decode(t[:], []byte(s)); err != nil {
		return TraceID{}, fmt.Errorf("otrace: trace id: %w", err)
	}
	return t, nil
}

// NewTraceID returns a random non-zero trace id (math/rand/v2's global
// ChaCha8 stream — uniqueness, not unpredictability, is the contract).
func NewTraceID() TraceID {
	var t TraceID
	for t.IsZero() {
		a, b := rand.Uint64(), rand.Uint64()
		for i := 0; i < 8; i++ {
			t[i] = byte(a >> (8 * i))
			t[8+i] = byte(b >> (8 * i))
		}
	}
	return t
}

// NewSpanID returns a random non-zero span id.
func NewSpanID() SpanID {
	var s SpanID
	for s.IsZero() {
		v := rand.Uint64()
		for i := 0; i < 8; i++ {
			s[i] = byte(v >> (8 * i))
		}
	}
	return s
}

// FlagSampled is the W3C trace-flags bit requesting recording.
const FlagSampled = 0x01

// ParseTraceparent parses a W3C traceparent header
// (version-traceid-spanid-flags, e.g.
// "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01").
// Unknown future versions are accepted per spec as long as the prefix
// parses; all-zero ids are rejected.
func ParseTraceparent(h string) (tid TraceID, parent SpanID, sampled bool, err error) {
	if len(h) < 55 {
		return tid, parent, false, fmt.Errorf("otrace: traceparent too short (%d bytes)", len(h))
	}
	if h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return tid, parent, false, fmt.Errorf("otrace: malformed traceparent %q", h)
	}
	var version [1]byte
	if _, err = hex.Decode(version[:], []byte(h[0:2])); err != nil {
		return tid, parent, false, fmt.Errorf("otrace: traceparent version: %w", err)
	}
	if version[0] == 0xff {
		return tid, parent, false, fmt.Errorf("otrace: traceparent version ff is invalid")
	}
	if version[0] == 0 && len(h) != 55 {
		return tid, parent, false, fmt.Errorf("otrace: version-00 traceparent must be 55 bytes, got %d", len(h))
	}
	if tid, err = ParseTraceID(h[3:35]); err != nil {
		return tid, parent, false, err
	}
	if _, err = hex.Decode(parent[:], []byte(h[36:52])); err != nil {
		return tid, parent, false, fmt.Errorf("otrace: traceparent span id: %w", err)
	}
	var flags [1]byte
	if _, err = hex.Decode(flags[:], []byte(h[53:55])); err != nil {
		return tid, parent, false, fmt.Errorf("otrace: traceparent flags: %w", err)
	}
	if tid.IsZero() {
		return tid, parent, false, fmt.Errorf("otrace: traceparent trace id is all zeros")
	}
	if parent.IsZero() {
		return tid, parent, false, fmt.Errorf("otrace: traceparent span id is all zeros")
	}
	return tid, parent, flags[0]&FlagSampled != 0, nil
}

// Traceparent renders a version-00 traceparent header.
func Traceparent(t TraceID, s SpanID, sampled bool) string {
	flags := "00"
	if sampled {
		flags = "01"
	}
	return "00-" + t.String() + "-" + s.String() + "-" + flags
}

// Attr is one key/value annotation on a span. Values should be
// JSON-encodable scalars.
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// String, Int and Int64 build Attrs without making callers spell out the
// struct.
func String(k, v string) Attr      { return Attr{Key: k, Value: v} }
func Int(k string, v int) Attr     { return Attr{Key: k, Value: v} }
func Int64(k string, v int64) Attr { return Attr{Key: k, Value: v} }

// Span status values.
const (
	StatusOK    = "ok"
	StatusError = "error"
)

// SpanData is one finished span as stored and exported. Offsets are
// relative to the trace's root start, so a span tree is a
// self-contained, clock-free description of where the time went.
type SpanData struct {
	SpanID SpanID `json:"spanId"`
	// Parent is the parent span's id (all zeros for the root), always a
	// span recorded in the same trace — the tree has no local orphans.
	Parent SpanID `json:"parentSpanId,omitzero"`
	// RemoteParent is the upstream span id parsed from an incoming
	// traceparent header (root spans only); it preserves the W3C chain
	// without dangling references inside the local tree.
	RemoteParent SpanID `json:"remoteParentSpanId,omitzero"`
	Name         string `json:"name"`
	// Kind classifies the span; Kinds lists every value the tree emits.
	Kind string `json:"kind,omitempty"`
	// Start is the absolute wall-clock start (informational; the
	// deterministic exports never use it).
	Start time.Time `json:"start"`
	// Offset is the span's start relative to the trace start.
	Offset time.Duration `json:"offsetNs"`
	// Duration is the span's elapsed time.
	Duration time.Duration `json:"durationNs"`
	Status   string        `json:"status,omitempty"`
	Error    string        `json:"error,omitempty"`
	Attrs    []Attr        `json:"attrs,omitempty"`
}

// Kinds is every span kind the tree emits, outermost layer first. It is
// both the documentation of SpanData.Kind and the row order of the
// Chrome export (obs.WriteChromeTrace), so a kind added here gets its
// own row and a kind emitted without being added fails
// serve.TestSpanKindsInTable.
var Kinds = []string{
	"server",    // serve middleware: one HTTP request, the trace root
	"search",    // serve.runDesign: one ensemble search incl. queue wait
	"scatter",   // shard.Cluster.Scatter: one fan-out over every shard
	"shard",     // shard.Cluster: one shard's leg of a scatter, or one Get
	"job",       // jobs.Manager: one async campaign, under its 202'd server span
	"run",       // sweep.runResilient: one spec incl. retries, under job
	"iteration", // trace.RunTrace.Spans: one engine iteration, under run
	"phase",     // gather/apply/scatter/barrier wall, under iteration
	"worker",    // one worker's busy time in one phase, under phase
	"",          // generic internal span
}

// Sort orders spans by (offset, longer first, name, span id): a parent
// precedes the children that start with it, and spans that finished out
// of order read back deterministically. It is the one span ordering —
// Trace.Spans returns it, and the tree and Chrome renderings keep it.
func Sort(spans []SpanData) {
	slices.SortFunc(spans, func(a, b SpanData) int {
		return cmp.Or(
			cmp.Compare(a.Offset, b.Offset),
			cmp.Compare(b.Duration, a.Duration),
			cmp.Compare(a.Name, b.Name),
			bytes.Compare(a.SpanID[:], b.SpanID[:]),
		)
	})
}

// Trace collects the spans of one trace id. Spans may keep arriving
// after the root span ends (async campaign jobs); the trace remains
// live as long as the store retains it.
type Trace struct {
	id    TraceID
	start time.Time
	store *Store

	// Guarded by store.mu: the insertion-order list links (nil once the
	// store dropped the trace), the insertion sequence, and the eviction
	// queue and slot the trace sits in once its root ended.
	prev, next *Trace
	seq        int64
	queue      *seqHeap
	slot       int

	mu        sync.Mutex
	spans     []SpanData
	dropped   int
	rootEnded bool
	protected bool // error/slow/marked — never evicted before boring traces
}

// ID returns the trace id.
func (t *Trace) ID() TraceID { return t.id }

// Start returns the trace's epoch: the root span's start time, which
// anchors every span offset.
func (t *Trace) Start() time.Time { return t.start }

// Spans returns a snapshot of the spans recorded so far in Sort order,
// so repeated reads of a quiesced trace are deterministic.
func (t *Trace) Spans() []SpanData {
	t.mu.Lock()
	out := slices.Clone(t.spans)
	t.mu.Unlock()
	Sort(out)
	return out
}

// Dropped returns how many spans were discarded past the per-trace cap.
func (t *Trace) Dropped() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Mark protects the trace from boring-first eviction regardless of its
// root outcome — the HTTP layer marks 429s and errors explicitly.
func (t *Trace) Mark() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.protected = true
	t.mu.Unlock()
}

// add appends one finished span, honoring the per-trace span cap.
func (t *Trace) add(d SpanData) {
	t.mu.Lock()
	if len(t.spans) >= DefaultMaxSpans {
		t.dropped++
	} else {
		t.spans = append(t.spans, d)
	}
	if d.Status == StatusError {
		t.protected = true
	}
	t.mu.Unlock()
}

// Span is a live, mutable span handle. All methods are safe on a nil
// receiver — the no-trace fast path.
type Span struct {
	tr     *Trace
	parent SpanID

	mu    sync.Mutex
	data  SpanData
	ended bool
}

// newSpan starts a span on tr now.
func newSpan(tr *Trace, parent SpanID, name, kind string, attrs []Attr) *Span {
	now := time.Now()
	return &Span{
		tr:     tr,
		parent: parent,
		data: SpanData{
			SpanID: NewSpanID(),
			Parent: parent,
			Name:   name,
			Kind:   kind,
			Start:  now,
			Offset: now.Sub(tr.start),
			Attrs:  attrs,
		},
	}
}

// TraceID returns the owning trace's id (zero for nil spans).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.tr.id
}

// Traceparent renders the propagation header for requests this span
// makes downstream ("" for nil spans).
func (s *Span) Traceparent() string {
	if s == nil {
		return ""
	}
	return Traceparent(s.tr.id, s.data.SpanID, true)
}

// SetAttr sets (or overwrites) one attribute.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.data.Attrs {
		if s.data.Attrs[i].Key == key {
			s.data.Attrs[i].Value = value
			return
		}
	}
	s.data.Attrs = append(s.data.Attrs, Attr{Key: key, Value: value})
}

// Fail records an error status with the given message.
func (s *Span) Fail(msg string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.data.Status = StatusError
	s.data.Error = msg
	s.mu.Unlock()
}

// End finishes the span and commits it to the trace. Idempotent; the
// first call wins. Ending the trace's root span offers the trace to
// the store's tail sampler.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.data.Duration = time.Since(s.data.Start)
	if s.data.Status == "" {
		s.data.Status = StatusOK
	}
	d := s.data
	s.mu.Unlock()
	s.tr.add(d)
	if d.Parent.IsZero() {
		s.tr.rootEnd(d)
	}
}

// StartChild opens a child span under s ("nil begets nil": tracing
// stays off down the call tree when it is off at the top).
func (s *Span) StartChild(name, kind string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return newSpan(s.tr, s.data.SpanID, name, kind, attrs)
}

// Graft attaches an already-measured span subtree under s — the
// no-extra-clock-reads path that puts a finished run's engine timeline
// (trace.RunTrace.Spans) on the tree. spans carry slice-local ids with
// parents before children, and offsets relative to s's start; Graft
// gives each a fresh id, hangs spans whose parent is not in the slice
// directly under s, and marks spans without a status ok, as End does.
func (s *Span) Graft(spans []SpanData) {
	if s == nil {
		return
	}
	ids := make(map[SpanID]SpanID, len(spans))
	for _, d := range spans {
		id := NewSpanID()
		ids[d.SpanID] = id
		d.SpanID = id
		if p, ok := ids[d.Parent]; ok {
			d.Parent = p
		} else {
			d.Parent = s.data.SpanID
		}
		d.Start = s.data.Start.Add(d.Offset)
		d.Offset += s.data.Offset
		if d.Status == "" {
			d.Status = StatusOK
		}
		s.tr.add(d)
	}
}

// ctxKey is the context key for span propagation.
type ctxKey struct{}

// ContextWithSpan returns ctx carrying sp.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sp)
}

// FromContext returns the span carried by ctx, or nil.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// StartSpan opens a child of the span in ctx and returns the derived
// context plus the new span. Without a span in ctx it returns ctx
// unchanged and a nil span — the zero-cost uninstrumented path.
func StartSpan(ctx context.Context, name, kind string, attrs ...Attr) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	sp := parent.StartChild(name, kind, attrs...)
	return ContextWithSpan(ctx, sp), sp
}
