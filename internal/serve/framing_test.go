package serve

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"gcbench/internal/jobs"
	"gcbench/internal/obs/otrace"
)

// countingListener counts the writes made on every connection it
// accepts: with keep-alive and one request at a time, the count's step
// across a response is how many writes that response took.
type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.writes}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// Every buffered /api body — 200s, errors, 405s and HEAD answers on every
// route — goes out behind a Content-Length, never chunked, and in one
// connection write when it fits the connection's 4 KiB buffer (two at
// most when it does not). The job event stream is the one route left out:
// it is streamed by design.
func TestAPIFramingAndWriteCount(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s, _ := newJobsServer(t, jobs.Config{Execute: blockingExecute(release)},
		func(cfg *Config) { cfg.Traces = otrace.NewStore(16) })
	var writes atomic.Int64
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Listener = countingListener{ts.Listener, &writes}
	ts.Start()
	defer ts.Close()

	const predict = "/api/predict?algorithm=PR&edges=500000&alpha=2.1"
	for _, c := range []struct {
		method, path, body string
		status             int
	}{
		{"GET", "/api/runs?algorithm=PR", "", 200},
		{"GET", "/api/runs?algorithm=CC,KC&size=1e5", "", 200},
		{"GET", "/api/runs?status=ok", "", 200},
		{"HEAD", "/api/runs?status=ok", "", 200},
		{"GET", "/api/runs?status=bogus", "", 400},
		{"GET", "/api/behavior/CC_1e5_a2", "", 200},
		{"GET", "/api/behavior/CC_1e5_a2", "", 200},
		{"GET", "/api/behavior/no-such-key", "", 404},
		{"GET", predict, "", 200},
		{"GET", predict, "", 200},
		{"HEAD", predict, "", 200},
		{"GET", "/api/predict?algorithm=PR&edges=0", "", 400},
		{"POST", "/api/ensemble/design", `{"n":4}`, 200},
		{"POST", "/api/ensemble/design", `{"n":4}`, 200},
		{"POST", "/api/ensemble/design", `{"n":0}`, 400},
		{"GET", "/api/ensemble/design", "", 405},
		{"GET", "/api/ensemble/best?n=5", "", 200},
		{"GET", "/api/ensemble/best?n=5", "", 200},
		{"HEAD", "/api/ensemble/best?n=5", "", 200},
		{"GET", "/api/corpus", "", 200},
		{"POST", "/api/campaigns", `{"profile":"quick","algorithms":["PR"]}`, 202},
		{"POST", "/api/campaigns", `{"profile":"gigantic"}`, 400},
		{"GET", "/api/jobs", "", 200},
		{"GET", "/api/jobs/j1", "", 200},
		{"DELETE", "/api/jobs/j999", "", 404},
		{"GET", "/api/no-such-route", "", 404},
		{"POST", "/api/corpus/reload", "", 200},
		{"PUT", "/api/corpus/reload", "", 405},
	} {
		name := c.method + " " + c.path + " " + c.body
		req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		before := writes.Load()
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		took := writes.Load() - before
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d, want %d: %s", name, resp.StatusCode, c.status, body)
			continue
		}
		if len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Transfer-Encoding %v", name, resp.TransferEncoding)
		}
		cl, err := strconv.Atoi(resp.Header.Get("Content-Length"))
		switch {
		case err != nil:
			t.Errorf("%s: Content-Length %q", name, resp.Header.Get("Content-Length"))
		case c.method == "HEAD" && cl == 0,
			c.method != "HEAD" && cl != len(body):
			t.Errorf("%s: Content-Length %d for a %d-byte body", name, cl, len(body))
		}
		// Headers take a few hundred bytes of the 4 KiB buffer.
		if took > 2 || cl < 3584 && took != 1 {
			t.Errorf("%s: %d connection writes for a %d-byte body", name, took, cl)
		}
	}
}

// A predict answer is cached under the parsed query: a repeat, or the
// same query spelled differently, is the miss's bytes; a publish retires
// it; an error answer is never stored.
func TestPredictCache(t *testing.T) {
	s := newTestServer(t, nil)
	counts := func() (hits, misses float64, entries int) {
		return s.mCacheHit.Value(), s.mCacheMiss.Value(), s.cache.Len()
	}
	predict := func(path string, want int) []byte {
		t.Helper()
		w := get(t, s, path)
		if w.Code != want {
			t.Fatalf("GET %s: status %d, want %d: %s", path, w.Code, want, w.Body.String())
		}
		return w.Body.Bytes()
	}
	const (
		q      = "/api/predict?algorithm=PR&edges=500000&alpha=2.1"
		qModel = q + "&model=gas"
	)

	miss := predict(q, 200)
	h0, m0, e0 := counts()
	if m0 != 1 || h0 != 0 || e0 != 1 {
		t.Fatalf("after the first predict: %v hits, %v misses, %d entries", h0, m0, e0)
	}
	for _, same := range []string{q, "/api/predict?alpha=2.10&edges=0500000&algorithm=PR"} {
		if hit := predict(same, 200); !bytes.Equal(hit, miss) {
			t.Fatalf("hit for %s differs from the miss:\n%s\n%s", same, hit, miss)
		}
	}
	if h, m, e := counts(); h != 2 || m != 1 || e != 1 {
		t.Fatalf("after two repeats: %v hits, %v misses, %d entries", h, m, e)
	}
	// The model echo makes another body, and another entry.
	withModel := predict(qModel, 200)
	if bytes.Equal(withModel, miss) || !bytes.Equal(predict(qModel, 200), withModel) {
		t.Fatal("model=gas shares the model-less entry, or its hit differs from its miss")
	}

	for _, bad := range []struct {
		path   string
		status int
	}{
		{"/api/predict?algorithm=PR&edges=0", 400},
		{"/api/predict?algorithm=NOPE&edges=500000", 400},
		{"/api/predict?algorithm=PR&edges=500000&alpha=x", 400},
		{"/api/predict?algorithm=PR&edges=500000&model=nope", 400},
		{"/api/predict?algorithm=PR&edges=500000&model=pregel", 400},
	} {
		h, m, e := counts()
		for i := 0; i < 2; i++ {
			predict(bad.path, bad.status)
		}
		if h2, m2, e2 := counts(); h2 != h || m2 != m || e2 != e {
			t.Errorf("%s: error answer moved the cache: %v/%v/%d → %v/%v/%d", bad.path, h, m, e, h2, m2, e2)
		}
	}

	if _, err := s.publishRuns("predict-cache", dominatedRuns(t, 1)); err != nil {
		t.Fatal(err)
	}
	h, m, _ := counts()
	after := predict(q, 200)
	if h2, m2, _ := counts(); h2 != h || m2 != m+1 {
		t.Fatalf("predict after a publish: hits %v → %v, misses %v → %v; want a miss", h, h2, m, m2)
	}
	if bytes.Equal(after, miss) {
		t.Fatal("predict after a publish returned the old corpus version's body")
	}
}

// BenchmarkHandlePredict serves the read mix's first predict query
// through the full handler chain, trace store included as in the default
// deployment: "hit" from the response cache, "miss" after emptying the
// cache, so every request interpolates and renders.
func BenchmarkHandlePredict(b *testing.B) {
	s := newTestServer(b, func(cfg *Config) { cfg.Traces = otrace.NewStore(0) })
	r := httptest.NewRequest(http.MethodGet, "/api/predict?algorithm=PR&edges=500000&alpha=2.1", nil)
	for _, miss := range []bool{false, true} {
		b.Run(map[bool]string{false: "hit", true: "miss"}[miss], func(b *testing.B) {
			get(b, s, r.URL.String()) // the hit case's miss
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if miss {
					s.cache.Purge()
				}
				w := httptest.NewRecorder()
				s.Handler().ServeHTTP(w, r)
				if w.Code != http.StatusOK {
					b.Fatalf("status %d: %s", w.Code, w.Body.String())
				}
			}
		})
	}
}
