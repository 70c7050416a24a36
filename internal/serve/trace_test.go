package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"gcbench/internal/jobs"
	"gcbench/internal/obs"
	"gcbench/internal/obs/otrace"
)

// traceTree is the /debug/traces/{id} payload shape the tests walk.
type traceTree struct {
	TraceID string          `json:"traceId"`
	Spans   int             `json:"spans"`
	Tree    []*obs.SpanNode `json:"tree"`
	Orphans []*obs.SpanNode `json:"orphans"`
	Dropped int             `json:"dropped"`
}

func getTraceTree(t *testing.T, s *Server, traceID string) traceTree {
	t.Helper()
	w := get(t, s, "/debug/traces/"+traceID)
	if w.Code != http.StatusOK {
		t.Fatalf("GET /debug/traces/%s = %d: %s", traceID, w.Code, w.Body.String())
	}
	var tree traceTree
	if err := json.Unmarshal(w.Body.Bytes(), &tree); err != nil {
		t.Fatalf("decoding trace tree: %v", err)
	}
	return tree
}

// TestRequestTracing covers the synchronous half of the middleware: root
// span per request, inbound W3C traceparent joined, traceparent echoed in
// the response, cache disposition recorded, and the trace queryable at
// /debug/traces/{id}.
func TestRequestTracing(t *testing.T) {
	store := otrace.NewStore(64)
	s := newTestServer(t, func(cfg *Config) { cfg.Traces = store })

	// A request with an inbound traceparent joins that trace.
	const wantTID = "0af7651916cd43dd8448eb211c80319c"
	w := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodGet, "/api/corpus", nil)
	r.Header.Set("traceparent", "00-"+wantTID+"-b7ad6b7169203331-01")
	s.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("GET /api/corpus = %d", w.Code)
	}
	tp := w.Header().Get("traceparent")
	tid, _, _, err := otrace.ParseTraceparent(tp)
	if err != nil {
		t.Fatalf("response traceparent %q: %v", tp, err)
	}
	if tid.String() != wantTID {
		t.Fatalf("response trace id = %s, want %s (inbound traceparent ignored)", tid, wantTID)
	}
	tree := getTraceTree(t, s, wantTID)
	if len(tree.Tree) != 1 || len(tree.Orphans) != 0 {
		t.Fatalf("trace has %d roots, %d orphans", len(tree.Tree), len(tree.Orphans))
	}
	root := tree.Tree[0]
	if root.Name != "GET /api/corpus" || root.Kind != "server" {
		t.Fatalf("root span = %q kind %q", root.Name, root.Kind)
	}
	if root.RemoteParent.IsZero() {
		t.Fatal("root span lost its remote parent span id")
	}

	// Without an inbound header a fresh trace id is generated, and a
	// design request records its cache disposition on the root span.
	design := func() *httptest.ResponseRecorder {
		return postDesign(t, s, `{"n":3,"metric":"spread","method":"greedy"}`)
	}
	w1 := design()
	if w1.Code != http.StatusOK {
		t.Fatalf("design = %d: %s", w1.Code, w1.Body.String())
	}
	w2 := design()
	tid2, _, _, err := otrace.ParseTraceparent(w2.Header().Get("traceparent"))
	if err != nil {
		t.Fatal(err)
	}
	tree = getTraceTree(t, s, tid2.String())
	root = tree.Tree[0]
	attrs := map[string]any{}
	for _, a := range root.Attrs {
		attrs[a.Key] = a.Value
	}
	if attrs["cache"] != "hit" {
		t.Fatalf("second design root span cache attr = %v, want hit (attrs: %v)", attrs["cache"], attrs)
	}
	if attrs["status"] != float64(http.StatusOK) {
		t.Fatalf("root span status attr = %v", attrs["status"])
	}

	// The first (miss) design trace carries the candidate scatter and the
	// ensemble search; the second (hit) one neither — a cached design
	// costs no fan-out.
	tid1, _, _, _ := otrace.ParseTraceparent(w1.Header().Get("traceparent"))
	miss := getTraceTree(t, s, tid1.String()).Tree[0].Children
	if len(miss) != 2 || miss[0].Name != "scatter candidates" || miss[1].Name != "ensemble search" {
		t.Fatalf("miss design trace children = %+v", miss)
	}
	if len(root.Children) != 0 {
		t.Fatalf("hit design trace children = %+v", root.Children)
	}
}

// TestTracingResponseInvariance: enabling tracing must not change a
// single response byte. The traced server may add response headers
// (traceparent) but every body — listing, design, error envelope — is
// bit-identical to the untraced server's.
func TestTracingResponseInvariance(t *testing.T) {
	plain := newTestServer(t, nil)
	// Both servers front one cluster: /api/corpus carries the snapshot's
	// loadedAt, which two separately loaded copies would not share.
	traced := newTestServer(t, func(cfg *Config) {
		cfg.Traces = otrace.NewStore(16)
		cfg.Cluster = plain.cluster
	})

	paths := []string{
		"/api/corpus",
		"/api/runs?algorithm=PR",
		"/api/predict", // error envelope (missing params)
		"/api/nope",    // 404 envelope
	}
	for _, p := range paths {
		a, b := get(t, plain, p), get(t, traced, p)
		if a.Code != b.Code || a.Body.String() != b.Body.String() {
			t.Fatalf("%s diverges with tracing on: %d vs %d\n--- untraced:\n%s--- traced:\n%s",
				p, a.Code, b.Code, a.Body.String(), b.Body.String())
		}
	}
	body := `{"n":3,"metric":"spread","method":"greedy"}`
	a, b := postDesign(t, plain, body), postDesign(t, traced, body)
	if a.Code != b.Code || a.Body.String() != b.Body.String() {
		t.Fatalf("design response diverges with tracing on")
	}
	if b.Header().Get("traceparent") == "" {
		t.Fatal("traced server omitted the traceparent response header")
	}
	if a.Header().Get("traceparent") != "" {
		t.Fatal("untraced server emitted a traceparent header")
	}
}

// TestJobsBoundarySpanTree is the async-boundary test the tracing design
// hinges on: a campaign submitted over HTTP answers 202 and its root
// span ends, yet the job, per-run, iteration and phase spans recorded
// afterwards land in the same trace, child→parent linked with no
// orphans.
func TestJobsBoundarySpanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real (small) sweep campaign")
	}
	store := otrace.NewStore(64)
	s, mgr := newJobsServer(t, jobs.Config{}, func(cfg *Config) { cfg.Traces = store })

	w := postCampaign(t, s, `{"profile":"quick","algorithms":["PR"],"label":"trace-smoke"}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("POST /api/campaigns = %d: %s", w.Code, w.Body.String())
	}
	tid, _, _, err := otrace.ParseTraceparent(w.Header().Get("traceparent"))
	if err != nil {
		t.Fatalf("202 response carries no traceparent: %v", err)
	}
	jobID := decodeJob(t, w).ID
	job, ok := mgr.Get(jobID)
	if !ok {
		t.Fatalf("job %s not tracked", jobID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	state, err := waitJob(ctx, job)
	if err != nil || state != jobs.StateOK {
		t.Fatalf("job ended %q, err %v", state, err)
	}

	tree := getTraceTree(t, s, tid.String())
	if len(tree.Tree) != 1 {
		t.Fatalf("trace has %d roots, want 1", len(tree.Tree))
	}
	if len(tree.Orphans) != 0 {
		t.Fatalf("span tree has %d orphans — async boundary broke parent links", len(tree.Orphans))
	}
	root := tree.Tree[0]
	if root.Name != "POST /api/campaigns" || root.Kind != "server" {
		t.Fatalf("root = %q kind %q", root.Name, root.Kind)
	}
	var jobNode *obs.SpanNode
	for _, c := range root.Children {
		if c.Kind == "job" {
			jobNode = c
		}
	}
	if jobNode == nil {
		t.Fatalf("202 root span has no job child; children: %+v", root.Children)
	}
	if jobNode.Name != "job "+jobID {
		t.Fatalf("job span name = %q", jobNode.Name)
	}
	if len(jobNode.Children) == 0 {
		t.Fatal("job span has no run children")
	}
	iterations, phases := 0, 0
	for _, run := range jobNode.Children {
		if run.Kind != "run" || !strings.HasPrefix(run.Name, "run ") {
			t.Fatalf("job child = %q kind %q, want a run span", run.Name, run.Kind)
		}
		for _, iter := range run.Children {
			if iter.Kind != "iteration" {
				t.Fatalf("run child kind = %q, want iteration", iter.Kind)
			}
			iterations++
			var phaseSum time.Duration
			for _, ph := range iter.Children {
				if ph.Kind != "phase" {
					t.Fatalf("iteration child kind = %q, want phase", ph.Kind)
				}
				phases++
				phaseSum += ph.Duration
			}
			// Barrier included, the grafted phases tile their iteration.
			if tree.Dropped == 0 && phaseSum != iter.Duration {
				t.Fatalf("%s / %s: phases sum to %v, iteration lasted %v", run.Name, iter.Name, phaseSum, iter.Duration)
			}
		}
	}
	if tree.Dropped == 0 && (iterations == 0 || phases == 0) {
		t.Fatalf("no engine spans grafted: %d iterations, %d phases", iterations, phases)
	}

	// The Chrome export of the full cross-boundary trace parses.
	wc := get(t, s, "/debug/traces/"+tid.String()+"?format=chrome")
	if wc.Code != http.StatusOK {
		t.Fatalf("chrome export = %d", wc.Code)
	}
	var events []map[string]any
	if err := json.Unmarshal(wc.Body.Bytes(), &events); err != nil {
		t.Fatalf("chrome export does not parse: %v", err)
	}
}

// TestSpanKindsInTable: every kind the product emits is a row of
// otrace.Kinds — the table that documents SpanData.Kind and orders the
// Chrome export's rows — so a new kind cannot land there unlisted. A
// design miss covers the serving kinds, a one-run campaign the rest.
func TestSpanKindsInTable(t *testing.T) {
	store := otrace.NewStore(64)
	s, mgr := newJobsServer(t, jobs.Config{}, func(cfg *Config) { cfg.Traces = store })

	design := postDesign(t, s, `{"n":3,"metric":"spread","method":"greedy"}`)
	if design.Code != http.StatusOK {
		t.Fatalf("design = %d: %s", design.Code, design.Body.String())
	}
	campaign := postCampaign(t, s, `{"profile":"quick","algorithms":["PR"],"sizes":["300"],"alphas":[2.5]}`)
	if campaign.Code != http.StatusAccepted {
		t.Fatalf("POST /api/campaigns = %d: %s", campaign.Code, campaign.Body.String())
	}
	job, _ := mgr.Get(decodeJob(t, campaign).ID)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if state, err := waitJob(ctx, job); err != nil || state != jobs.StateOK {
		t.Fatalf("job ended %q, err %v", state, err)
	}

	emitted := map[string]bool{}
	for _, w := range []*httptest.ResponseRecorder{design, campaign} {
		tid, _, _, err := otrace.ParseTraceparent(w.Header().Get("traceparent"))
		if err != nil {
			t.Fatal(err)
		}
		tr, ok := store.Get(tid)
		if !ok {
			t.Fatalf("trace %s not retained", tid)
		}
		for _, sp := range tr.Spans() {
			emitted[sp.Kind] = true
			if !slices.Contains(otrace.Kinds, sp.Kind) {
				t.Errorf("span %q has kind %q, which otrace.Kinds does not list", sp.Name, sp.Kind)
			}
		}
	}
	// The sweep grafts no worker spans and nothing emits the generic
	// kind, so those two rows are exercised by the obs writer tests.
	for _, kind := range otrace.Kinds[:len(otrace.Kinds)-2] {
		if !emitted[kind] {
			t.Errorf("no %q span emitted; emitted kinds: %v", kind, emitted)
		}
	}
}
