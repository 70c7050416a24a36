package otrace

import (
	"context"
	"strings"
	"testing"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tid := NewTraceID()
	sid := NewSpanID()
	h := Traceparent(tid, sid, true)
	if len(h) != 55 {
		t.Fatalf("traceparent %q has length %d, want 55", h, len(h))
	}
	gotT, gotS, sampled, err := ParseTraceparent(h)
	if err != nil {
		t.Fatal(err)
	}
	if gotT != tid || gotS != sid || !sampled {
		t.Fatalf("round trip: got (%s, %s, %v), want (%s, %s, true)", gotT, gotS, sampled, tid, sid)
	}
	if _, _, sampled, err = ParseTraceparent(Traceparent(tid, sid, false)); err != nil || sampled {
		t.Fatalf("unsampled round trip: sampled=%v err=%v", sampled, err)
	}
}

func TestTraceparentW3CExample(t *testing.T) {
	h := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	tid, sid, sampled, err := ParseTraceparent(h)
	if err != nil {
		t.Fatal(err)
	}
	if tid.String() != "0af7651916cd43dd8448eb211c80319c" {
		t.Errorf("trace id = %s", tid)
	}
	if sid.String() != "b7ad6b7169203331" {
		t.Errorf("span id = %s", sid)
	}
	if !sampled {
		t.Error("sampled flag not parsed")
	}
}

func TestTraceparentRejects(t *testing.T) {
	for _, h := range []string{
		"",
		"00-123-456-01",
		"00-00000000000000000000000000000000-b7ad6b7169203331-01", // zero trace id
		"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01", // zero span id
		"ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", // version ff
		"0g-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", // bad hex
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-extra",
		"00x0af7651916cd43dd8448eb211c80319cxb7ad6b7169203331x01",
	} {
		if _, _, _, err := ParseTraceparent(h); err == nil {
			t.Errorf("ParseTraceparent(%q) accepted, want error", h)
		}
	}
	// A future version with trailing fields is accepted.
	if _, _, _, err := ParseTraceparent("01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-future"); err != nil {
		t.Errorf("future-version traceparent rejected: %v", err)
	}
}

func TestNilSpanIsSafe(t *testing.T) {
	var sp *Span
	sp.SetAttr("k", 1)
	sp.Fail("boom")
	sp.End()
	if got := sp.StartChild("child", "x"); got != nil {
		t.Fatalf("nil.StartChild = %v, want nil", got)
	}
	sp.Graft([]SpanData{{SpanID: SpanID{1}, Name: "c", Kind: "phase"}})
	if sp.Traceparent() != "" {
		t.Fatal("nil span renders a traceparent")
	}
	ctx, child := StartSpan(context.Background(), "x", "y")
	if child != nil || FromContext(ctx) != nil {
		t.Fatal("StartSpan without a trace must be a no-op")
	}
	var st *Store
	tr, root := st.StartTrace("x", "server", TraceID{}, SpanID{})
	if tr != nil || root != nil {
		t.Fatal("nil store started a trace")
	}
}

func TestSpanTreeStructure(t *testing.T) {
	st := NewStore(8)
	tr, root := st.StartTrace("POST /api/campaigns", "server", TraceID{}, SpanID{})
	ctx := ContextWithSpan(context.Background(), root)

	ctx, job := StartSpan(ctx, "job j1", "job", String("jobId", "j1"))
	_, run := StartSpan(ctx, "run cc/small", "run")
	run.Graft([]SpanData{
		{SpanID: SpanID{1}, Name: "iteration 0", Kind: "iteration", Duration: 100},
		{SpanID: SpanID{2}, Parent: SpanID{1}, Name: "gather", Kind: "phase", Duration: 40},
		{SpanID: SpanID{3}, Parent: SpanID{1}, Name: "apply", Kind: "phase", Offset: 40, Duration: 60},
	})
	run.End()
	job.End()
	root.End()

	spans := tr.Spans()
	if len(spans) != 6 {
		t.Fatalf("got %d spans, want 6", len(spans))
	}
	byID := map[SpanID]SpanData{}
	var rootCount int
	for _, s := range spans {
		byID[s.SpanID] = s
		if s.Parent.IsZero() {
			rootCount++
		}
	}
	if rootCount != 1 {
		t.Fatalf("tree has %d roots, want 1", rootCount)
	}
	for _, s := range spans {
		if s.Parent.IsZero() {
			continue
		}
		if _, ok := byID[s.Parent]; !ok {
			t.Errorf("span %q is an orphan (parent %s missing)", s.Name, s.Parent)
		}
	}
	// Chain: phase → iteration → run → job → root.
	names := func(id SpanID) []string {
		var path []string
		for !id.IsZero() {
			s := byID[id]
			path = append(path, s.Name)
			id = s.Parent
		}
		return path
	}
	for _, s := range spans {
		if s.Name == "gather" {
			got := strings.Join(names(s.SpanID), " < ")
			want := "gather < iteration 0 < run cc/small < job j1 < POST /api/campaigns"
			if got != want {
				t.Fatalf("ancestry = %q, want %q", got, want)
			}
		}
	}
}

func TestSpanEndIdempotentAndStatus(t *testing.T) {
	st := NewStore(8)
	tr, root := st.StartTrace("r", "server", TraceID{}, SpanID{})
	child := root.StartChild("c", "")
	child.Fail("kaput")
	child.End()
	child.End() // second End must not duplicate
	root.End()
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	var saw bool
	for _, s := range spans {
		if s.Name == "c" {
			saw = true
			if s.Status != StatusError || s.Error != "kaput" {
				t.Fatalf("failed span = %+v", s)
			}
		}
		if s.Name == "r" && s.Status != StatusOK {
			t.Fatalf("root status = %q, want ok", s.Status)
		}
	}
	if !saw {
		t.Fatal("child span missing")
	}
}

func TestRemoteParentPreserved(t *testing.T) {
	st := NewStore(8)
	remote := NewSpanID()
	tid := NewTraceID()
	tr, root := st.StartTrace("r", "server", tid, remote)
	root.End()
	if tr.ID() != tid {
		t.Fatalf("trace id = %s, want propagated %s", tr.ID(), tid)
	}
	spans := tr.Spans()
	if spans[0].RemoteParent != remote {
		t.Fatalf("remote parent = %s, want %s", spans[0].RemoteParent, remote)
	}
	if !spans[0].Parent.IsZero() {
		t.Fatal("root span must have no local parent")
	}
}

func TestSpanCapDrops(t *testing.T) {
	st := NewStore(4)
	st.SetMaxSpans(3)
	tr, root := st.StartTrace("r", "server", TraceID{}, SpanID{})
	for i := 0; i < 10; i++ {
		root.Graft([]SpanData{{SpanID: SpanID{1}, Name: "c", Kind: "phase", Duration: 1}})
	}
	root.End()
	if n := len(tr.Spans()); n != 3 {
		t.Fatalf("spans = %d, want cap 3", n)
	}
	// 10 children + root = 11 attempted, 3 kept.
	if d := tr.Dropped(); d != 8 {
		t.Fatalf("dropped = %d, want 8", d)
	}
}
