package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gcbench/internal/jobs"
	"gcbench/internal/obs"
)

// TestGoldenMethodFallback pins the wrong-method and unknown-path
// behavior of every /api/* route: each case's status line, Allow header
// and JSON error envelope are compared against a golden file, so a
// routing change that silently downgrades the envelopes to net/http's
// bare text errors (or loses an Allow method) surfaces as a diff.
// Regenerate deliberately with:
//
//	go test ./internal/serve/ -run TestGoldenMethodFallback -update
func TestGoldenMethodFallback(t *testing.T) {
	mgr := jobs.NewManager(jobs.Config{Registry: obs.NewRegistry()})
	s := newTestServer(t, func(cfg *Config) { cfg.Jobs = mgr })
	cases := []struct {
		method, path string
	}{
		{http.MethodPut, "/api/runs"},
		{http.MethodDelete, "/api/ensemble/design"},
		{http.MethodGet, "/api/corpus/reload"},
		{http.MethodPost, "/api/behavior/somekey"},
		{http.MethodGet, "/api/campaigns"},
		{http.MethodPut, "/api/jobs"},
		{http.MethodPost, "/api/jobs/j1"},
		{http.MethodPost, "/api/jobs/j1/events"},
		{http.MethodGet, "/api/nope"},
		{http.MethodPost, "/api/jobs/j1/nope"},
	}
	var got bytes.Buffer
	for _, c := range cases {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(c.method, c.path, nil))
		fmt.Fprintf(&got, "%s %s -> %d", c.method, c.path, w.Code)
		if allow := w.Header().Get("Allow"); allow != "" {
			fmt.Fprintf(&got, " Allow: %s", allow)
		}
		fmt.Fprintf(&got, "\n%s\n", w.Body.String())

		// Every fallback response must carry the structured envelope.
		if ct := w.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
			t.Errorf("%s %s: Content-Type %q", c.method, c.path, ct)
		}
		decodeError(t, w)
	}

	goldenPath := filepath.Join("testdata", "method_fallback.txt")
	if *updateGolden {
		if err := os.WriteFile(goldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("method fallback diverged from %s;\nre-run with -update if the change is intended.\ngot:\n%s",
			goldenPath, got.Bytes())
	}
}

// TestMethodFallbackWithoutJobs ensures the job routes are genuinely
// absent (404, not 405) when the server runs without a job manager.
func TestMethodFallbackWithoutJobs(t *testing.T) {
	s := newTestServer(t, nil)
	for _, path := range []string{"/api/campaigns", "/api/jobs", "/api/jobs/j1"} {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		if w.Code != http.StatusNotFound {
			t.Errorf("GET %s without -jobs: status %d, want 404", path, w.Code)
		}
		if code := decodeError(t, w); code != "not_found" {
			t.Errorf("GET %s: error code %q", path, code)
		}
	}
}

// TestRequestBodyBound: both JSON POST routes read at most
// maxRequestBody bytes. A body exactly at the bound is decoded like any
// other (its outcome is the small body's own); one byte more answers 413
// with the structured envelope. The padding is leading whitespace — the
// decoder must read through it to reach the value, so the bound is
// genuinely crossed.
func TestRequestBodyBound(t *testing.T) {
	s, _ := newJobsServer(t, jobs.Config{}, nil)
	cases := []struct {
		path, body string
		status     int    // the unpadded body's own outcome
		code       string // its error code, if any
	}{
		{"/api/ensemble/design", `{"n":3}`, http.StatusOK, ""},
		{"/api/campaigns", `{"retries":-1}`, http.StatusBadRequest, "invalid_request"},
	}
	post := func(path string, body string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return w
	}
	for _, c := range cases {
		atLimit := strings.Repeat(" ", maxRequestBody-len(c.body)) + c.body
		w := post(c.path, atLimit)
		if w.Code != c.status || (c.code != "" && decodeError(t, w) != c.code) {
			t.Errorf("%s: %d-byte body: status %d, want %d %s: %s",
				c.path, len(atLimit), w.Code, c.status, c.code, clip(w.Body.Bytes(), 300))
		}
		w = post(c.path, " "+atLimit)
		if w.Code != http.StatusRequestEntityTooLarge || decodeError(t, w) != "body_too_large" {
			t.Errorf("%s: %d-byte body: status %d, want 413 body_too_large: %s",
				c.path, len(atLimit)+1, w.Code, clip(w.Body.Bytes(), 300))
		}
	}
}

// TestRouteLabels pins the route label of every kind of request — the
// `route` values of gcbench_serve_route_seconds, which the benchmark
// scrapes by name. A wrong-method hit labels with the route it hit, an
// unknown API path with one fixed name, everything under /debug/ with
// another, and nothing ever with a raw path.
func TestRouteLabels(t *testing.T) {
	mgr := jobs.NewManager(jobs.Config{Registry: obs.NewRegistry()})
	s := newTestServer(t, func(cfg *Config) { cfg.Jobs = mgr })
	for _, c := range []struct{ method, path, want string }{
		{http.MethodGet, "/api/runs?algorithm=PR", "/api/runs"},
		{http.MethodHead, "/api/runs", "/api/runs"},
		{http.MethodPut, "/api/runs", "/api/runs"},
		{http.MethodGet, "/api/behavior/some-key", "/api/behavior/{key}"},
		{http.MethodPost, "/api/ensemble/design", "/api/ensemble/design"},
		{http.MethodGet, "/api/ensemble/best", "/api/ensemble/best"},
		{http.MethodGet, "/api/predict", "/api/predict"},
		{http.MethodGet, "/api/corpus", "/api/corpus"},
		{http.MethodPost, "/api/corpus/reload", "/api/corpus/reload"},
		{http.MethodPost, "/api/campaigns", "/api/campaigns"},
		{http.MethodGet, "/api/jobs", "/api/jobs"},
		{http.MethodDelete, "/api/jobs/j1", "/api/jobs/{id}"},
		{http.MethodGet, "/api/jobs/j1/events", "/api/jobs/{id}/events"},
		{http.MethodGet, "/api/jobs/j1/nope", "/api/unknown"},
		{http.MethodGet, "/api/nope", "/api/unknown"},
		{http.MethodGet, "/api/", "/api/unknown"},
		{http.MethodGet, "/api", "/api/unknown"},
		{http.MethodGet, "/metrics", "/metrics"},
		{http.MethodGet, "/statusz", "/statusz"},
		{http.MethodGet, "/healthz", "/healthz"},
		{http.MethodGet, "/readyz", "/readyz"},
		{http.MethodGet, "/debug/pprof/heap", "/debug"},
		{http.MethodGet, "/debug/vars", "/debug"},
		{http.MethodGet, "/debug/nope", "/debug"},
		{http.MethodGet, "/debug", "other"},
		{http.MethodGet, "/metrics/x", "other"},
		{http.MethodGet, "/", "other"},
	} {
		if got := s.routeLabel(httptest.NewRequest(c.method, c.path, nil)); got != c.want {
			t.Errorf("%s %s: route label %q, want %q", c.method, c.path, got, c.want)
		}
	}
}
