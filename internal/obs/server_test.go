package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// routeServer serves RegisterRoutes(opts) alone on a test listener.
func routeServer(t *testing.T, opts ServerOptions) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	RegisterRoutes(mux, opts)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test_requests_total", "test").Add(3)
	srv := routeServer(t, ServerOptions{
		Registry: reg,
		Status:   func() any { return map[string]int{"answer": 42} },
	})

	if code, body := get(t, srv.URL+"/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("/healthz: %d %q", code, body)
	}

	code, body := get(t, srv.URL+"/metrics")
	if code != 200 || !strings.Contains(body, "test_requests_total 3") {
		t.Fatalf("/metrics: %d %q", code, body)
	}

	code, body = get(t, srv.URL+"/statusz")
	if code != 200 {
		t.Fatalf("/statusz: %d", code)
	}
	var status map[string]int
	if err := json.Unmarshal([]byte(body), &status); err != nil {
		t.Fatalf("/statusz not JSON: %v\n%s", err, body)
	}
	if status["answer"] != 42 {
		t.Fatalf("/statusz = %v", status)
	}

	if code, _ := get(t, srv.URL+"/debug/pprof/"); code != 200 {
		t.Fatalf("/debug/pprof/: %d", code)
	}
	if code, body := get(t, srv.URL+"/debug/vars"); code != 200 || !strings.Contains(body, "gcbench") {
		t.Fatalf("/debug/vars: %d (gcbench expvar bridge missing)", code)
	}
}

func TestServerNilStatus(t *testing.T) {
	srv := routeServer(t, ServerOptions{})
	code, body := get(t, srv.URL+"/statusz")
	if code != 200 || !strings.Contains(body, "idle") {
		t.Fatalf("/statusz without status source: %d %q", code, body)
	}
}

// TestRegisterRoutesOnCallerMux covers the factored route registration:
// an embedding server (e.g. internal/serve) mounts the observability
// surface on its own mux alongside its API routes.
func TestRegisterRoutesOnCallerMux(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("embed_requests_total", "test").Add(7)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/thing", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	})
	RegisterRoutes(mux, ServerOptions{
		Registry: reg,
		Status:   func() any { return map[string]int{"embedded": 1} },
	})

	srv := httptest.NewServer(mux)
	defer srv.Close()

	if code, body := get(t, srv.URL+"/metrics"); code != 200 || !strings.Contains(body, "embed_requests_total 7") {
		t.Fatalf("/metrics on caller mux: %d %q", code, body)
	}
	if code, body := get(t, srv.URL+"/statusz"); code != 200 || !strings.Contains(body, "embedded") {
		t.Fatalf("/statusz on caller mux: %d %q", code, body)
	}
	if code, _ := get(t, srv.URL+"/healthz"); code != 200 {
		t.Fatalf("/healthz on caller mux: %d", code)
	}
	// The caller's own routes coexist with the observability surface.
	if code, _ := get(t, srv.URL+"/api/thing"); code != http.StatusTeapot {
		t.Fatalf("/api/thing: %d", code)
	}
}
