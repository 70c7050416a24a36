package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gcbench/internal/obs/otrace"
	"gcbench/internal/trace"
)

var updateTraceGolden = flag.Bool("update-trace-golden", false, "rewrite the span-tree Chrome export golden file")

// campaignSpanTree builds the canonical serve → job → run → iteration →
// phase tree the way the product does: live spans down to the run, the
// engine timeline grafted from a converted trace with fixed walls.
func campaignSpanTree(t *testing.T, st *otrace.Store) *otrace.Trace {
	t.Helper()
	tr, root := st.StartTrace("POST /api/campaigns", "server", otrace.TraceID{}, otrace.SpanID{},
		otrace.String("route", "/api/campaigns"))
	job := root.StartChild("job j1", "job", otrace.String("jobId", "j1"), otrace.Int("specs", 2))
	rt := &trace.RunTrace{}
	for it := 0; it < 2; it++ {
		wall := time.Duration(10+it) * time.Millisecond
		rt.Iterations = append(rt.Iterations, trace.IterationStats{
			Iteration: it, Active: int64(100 - 10*it), WallTime: wall,
			GatherWall: wall / 4, ApplyWall: wall / 2, ScatterWall: wall / 4,
		})
	}
	for _, name := range []string{"run cc/tiny/2.5", "run pr/tiny/2.5"} {
		run := job.StartChild(name, "run", otrace.Int("attempt", 1))
		run.Graft(rt.Spans(0))
		run.End()
	}
	job.End()
	root.End()
	return tr
}

// TestChromeSpanExportGolden pins the Chrome export of a span tree byte
// for byte. Only offsets, durations, names, kinds and attrs enter the
// export — never span ids or wall-clock readings — so the same logical
// tree always renders identically. The input is a hand-authored
// serve → job → run → iteration → phase tree with fixed offsets.
func TestChromeSpanExportGolden(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	id := func(b byte) otrace.SpanID { return otrace.SpanID{b} }
	spans := []otrace.SpanData{
		{SpanID: id(1), Name: "POST /api/campaigns", Kind: "server", Offset: 0, Duration: ms(40),
			Status: "ok", Attrs: []otrace.Attr{otrace.String("route", "/api/campaigns"), otrace.Int("status", 202)}},
		{SpanID: id(2), Parent: id(1), Name: "job j1", Kind: "job", Offset: ms(1), Duration: ms(38),
			Status: "ok", Attrs: []otrace.Attr{otrace.String("jobId", "j1"), otrace.Int("specs", 1)}},
		{SpanID: id(3), Parent: id(2), Name: "run cc/tiny/2.5", Kind: "run", Offset: ms(2), Duration: ms(30),
			Status: "ok", Attrs: []otrace.Attr{otrace.Int("attempt", 1)}},
		{SpanID: id(4), Parent: id(3), Name: "iteration 0", Kind: "iteration", Offset: ms(2), Duration: ms(10),
			Status: "ok", Attrs: []otrace.Attr{otrace.Int64("active", 100)}},
		{SpanID: id(5), Parent: id(4), Name: "gather", Kind: "phase", Offset: ms(2), Duration: ms(3), Status: "ok"},
		{SpanID: id(6), Parent: id(4), Name: "apply", Kind: "phase", Offset: ms(5), Duration: ms(5), Status: "ok"},
		{SpanID: id(7), Parent: id(4), Name: "scatter", Kind: "phase", Offset: ms(10), Duration: ms(2), Status: "ok"},
		{SpanID: id(8), Parent: id(3), Name: "iteration 1", Kind: "iteration", Offset: ms(12), Duration: ms(8),
			Status: "ok", Attrs: []otrace.Attr{otrace.Int64("active", 60)}},
		{SpanID: id(9), Parent: id(8), Name: "gather", Kind: "phase", Offset: ms(12), Duration: ms(2), Status: "ok"},
		{SpanID: id(10), Parent: id(8), Name: "apply", Kind: "phase", Offset: ms(14), Duration: ms(6), Status: "error",
			Error: "vertex program diverged"},
	}

	var got bytes.Buffer
	if err := WriteChromeTrace(&got, spans); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := WriteChromeTrace(&again, spans); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), again.Bytes()) {
		t.Fatal("two exports of the same span tree differ")
	}

	golden := filepath.Join("testdata", "spantree_chrome.golden.json")
	if *updateTraceGolden {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-trace-golden to create)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("chrome span export deviates from golden file\ngot:\n%s", got.String())
	}
}

func TestTraceRoutes(t *testing.T) {
	st := otrace.NewStore(4)
	tr := campaignSpanTree(t, st)
	mux := http.NewServeMux()
	RegisterTraceRoutes(mux, st)

	// Index lists the trace.
	rw := httptest.NewRecorder()
	mux.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/debug/traces", nil))
	if rw.Code != http.StatusOK {
		t.Fatalf("index: %d", rw.Code)
	}
	var idx struct {
		Count  int              `json:"count"`
		Traces []otrace.Summary `json:"traces"`
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &idx); err != nil {
		t.Fatal(err)
	}
	if idx.Count != 1 || len(idx.Traces) != 1 {
		t.Fatalf("index = %+v", idx)
	}
	if got := idx.Traces[0]; got.TraceID != tr.ID() || got.Name != "POST /api/campaigns" || !got.Finished {
		t.Fatalf("summary = %+v", got)
	}

	// Span tree endpoint nests the full tree with no orphans.
	rw = httptest.NewRecorder()
	mux.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/debug/traces/"+tr.ID().String(), nil))
	if rw.Code != http.StatusOK {
		t.Fatalf("tree: %d %s", rw.Code, rw.Body.String())
	}
	var tree struct {
		TraceID string      `json:"traceId"`
		Spans   int         `json:"spans"`
		Tree    []*SpanNode `json:"tree"`
		Orphans []*SpanNode `json:"orphans"`
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &tree); err != nil {
		t.Fatal(err)
	}
	// 1 root + 1 job + 2 runs × (1 run + 2 iter + 6 phase) = 20 spans.
	if tree.TraceID != tr.ID().String() || tree.Spans != 20 {
		t.Fatalf("tree meta = %+v", tree)
	}
	if len(tree.Tree) != 1 || len(tree.Orphans) != 0 {
		t.Fatalf("tree has %d roots, %d orphans", len(tree.Tree), len(tree.Orphans))
	}
	root := tree.Tree[0]
	if root.Name != "POST /api/campaigns" || len(root.Children) != 1 {
		t.Fatalf("root = %+v", root)
	}
	job := root.Children[0]
	if job.Kind != "job" || len(job.Children) != 2 {
		t.Fatalf("job node = %+v", job)
	}
	for _, run := range job.Children {
		if run.Kind != "run" || len(run.Children) != 2 {
			t.Fatalf("run node %q has %d children", run.Name, len(run.Children))
		}
		for _, iter := range run.Children {
			if iter.Kind != "iteration" || len(iter.Children) != 3 {
				t.Fatalf("iteration node %q has %d children", iter.Name, len(iter.Children))
			}
		}
	}

	// Chrome format from the endpoint parses as a trace-event array.
	rw = httptest.NewRecorder()
	mux.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/debug/traces/"+tr.ID().String()+"?format=chrome", nil))
	if rw.Code != http.StatusOK {
		t.Fatalf("chrome: %d", rw.Code)
	}
	var events []map[string]any
	if err := json.Unmarshal(rw.Body.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("chrome export is empty")
	}

	// Unknown and malformed ids.
	rw = httptest.NewRecorder()
	mux.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/debug/traces/"+otrace.NewTraceID().String(), nil))
	if rw.Code != http.StatusNotFound {
		t.Fatalf("unknown id: %d", rw.Code)
	}
	rw = httptest.NewRecorder()
	mux.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/debug/traces/zzz", nil))
	if rw.Code != http.StatusBadRequest {
		t.Fatalf("malformed id: %d", rw.Code)
	}
	rw = httptest.NewRecorder()
	mux.ServeHTTP(rw, httptest.NewRequest(http.MethodDelete, "/debug/traces", nil))
	if rw.Code != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE index: %d", rw.Code)
	}
}

// TestSpanTreeOrphans: a span whose parent was dropped past the span cap
// surfaces in the orphans list instead of disappearing.
func TestSpanTreeOrphans(t *testing.T) {
	spans := []otrace.SpanData{
		{SpanID: otrace.SpanID{1}, Name: "root", Kind: "server"},
		{SpanID: otrace.SpanID{2}, Parent: otrace.SpanID{9}, Name: "lost child", Kind: "run"},
	}
	roots, orphans := BuildSpanTree(spans)
	if len(roots) != 1 || len(orphans) != 1 {
		t.Fatalf("roots=%d orphans=%d, want 1/1", len(roots), len(orphans))
	}
	if orphans[0].Name != "lost child" {
		t.Fatalf("orphan = %+v", orphans[0])
	}
	if !strings.Contains(orphans[0].Parent.String(), "09") {
		t.Fatalf("orphan parent id = %s", orphans[0].Parent)
	}
}
