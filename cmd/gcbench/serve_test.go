package main

import (
	"bytes"
	"flag"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gcbench/internal/obs"
	"gcbench/internal/obs/otrace"
	"gcbench/internal/serve"
)

// lockedBuffer is an io.Writer the access log and a test can share; it
// also records the size of every Write.
type lockedBuffer struct {
	mu     sync.Mutex
	b      bytes.Buffer
	writes []int
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.writes = append(l.writes, len(p))
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// loggedServe runs serve's handler over the shipped corpus under
// serveHTTP, tracing on, with its access log at the level flags select,
// batched onto out and flushed every interval.
func loggedServe(t *testing.T, out io.Writer, every time.Duration, flags ...string) (string, func(time.Duration) error, *batchedLog) {
	t.Helper()
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	vb := verbosityFlags(fs)
	if err := fs.Parse(flags); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	alog := startAccessLog(out, every)
	srv, err := serve.New(serve.Config{
		Cluster:   standardCluster(t, reg),
		Registry:  reg,
		Samples:   1000,
		Traces:    otrace.NewStore(64),
		AccessLog: slog.New(slog.NewTextHandler(alog, &slog.HandlerOptions{Level: vb.setup()})),
	})
	if err != nil {
		t.Fatal(err)
	}
	url, stopHTTP, err := serveHTTP("127.0.0.1:0", srv.Handler())
	if err != nil {
		t.Fatal(err)
	}
	return url, stopHTTP, alog
}

// fetchLen GETs url and returns the status and the body's length.
func fetchLen(t *testing.T, url string) (int, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, len(body)
}

// logFields splits one text-handler line into its key=value fields (the
// access log's values hold no spaces).
func logFields(line string) map[string]string {
	f := map[string]string{}
	for _, kv := range strings.Fields(line) {
		if k, v, ok := strings.Cut(kv, "="); ok {
			f[k] = v
		}
	}
	return f
}

// The access log writes one line per request, with the request's facts
// and its cache disposition, and holds every line back until the flush
// stopServe makes after the drain.
func TestAccessLogLinePerRequest(t *testing.T) {
	out := &lockedBuffer{}
	url, stopHTTP, alog := loggedServe(t, out, time.Hour)
	const predict = "/api/predict?algorithm=PR&edges=500000&alpha=2.1"
	reqs := []struct {
		path, route string
		status      int
		cache       string
	}{
		{predict, "/api/predict", 200, "miss"},
		{predict, "/api/predict", 200, "hit"},
		{"/api/behavior/CC_1e5_a2", "/api/behavior/{key}", 200, "miss"},
		{"/api/behavior/CC_1e5_a2", "/api/behavior/{key}", 200, "hit"},
		{"/api/behavior/no-such-key", "/api/behavior/{key}", 404, ""},
		{"/api/runs?algorithm=PR", "/api/runs", 200, ""},
	}
	sizes := make([]int, len(reqs))
	for i, rq := range reqs {
		status, n := fetchLen(t, url+rq.path)
		if status != rq.status {
			t.Fatalf("GET %s: status %d, want %d", rq.path, status, rq.status)
		}
		sizes[i] = n
	}
	if got := out.String(); got != "" {
		t.Fatalf("access log written before the flush:\n%s", got)
	}
	if err := stopServe(nil, stopHTTP, alog, 5*time.Second); err != nil {
		t.Fatalf("stopServe: %v", err)
	}
	select {
	case <-alog.done:
	default:
		t.Fatal("access-log ticker still running after stopServe")
	}

	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != len(reqs) {
		t.Fatalf("%d access-log lines for %d requests:\n%s", len(lines), len(reqs), out.String())
	}
	for i, rq := range reqs {
		f := logFields(lines[i])
		path, _, _ := strings.Cut(rq.path, "?")
		want := map[string]string{
			"level":  "INFO",
			"msg":    "request",
			"method": "GET",
			"route":  rq.route,
			"path":   path,
			"status": strconv.Itoa(rq.status),
			"bytes":  strconv.Itoa(sizes[i]),
			"cache":  rq.cache,
		}
		for k, v := range want {
			if f[k] != v {
				t.Errorf("line %d: %s=%q, want %q\n%s", i, k, f[k], v, lines[i])
			}
		}
		if _, err := time.ParseDuration(f["duration"]); err != nil {
			t.Errorf("line %d: duration %q: %v", i, f["duration"], err)
		}
		if _, err := otrace.ParseTraceID(f["trace_id"]); err != nil {
			t.Errorf("line %d: trace_id %q: %v", i, f["trace_id"], err)
		}
	}
}

// An idle server's lines reach the writer within the flush interval, not
// only at shutdown.
func TestAccessLogFlushesWhenIdle(t *testing.T) {
	out := &lockedBuffer{}
	url, stopHTTP, alog := loggedServe(t, out, accessLogFlush)
	defer stopServe(nil, stopHTTP, alog, time.Second)
	if status, _ := fetchLen(t, url+"/api/corpus"); status != http.StatusOK {
		t.Fatalf("GET /api/corpus: status %d", status)
	}
	answered := time.Now()
	for !strings.Contains(out.String(), "route=/api/corpus") {
		// Ten intervals: a loaded host may delay one tick, not ten.
		if time.Since(answered) > 10*accessLogFlush {
			t.Fatalf("no access-log line %v after the response", time.Since(answered))
		}
		time.Sleep(accessLogFlush / 10)
	}
}

// -quiet writes no access-log line, at shutdown either.
func TestAccessLogQuiet(t *testing.T) {
	out := &lockedBuffer{}
	url, stopHTTP, alog := loggedServe(t, out, accessLogFlush, "-quiet")
	for _, path := range []string{"/api/corpus", "/api/behavior/no-such-key"} {
		fetchLen(t, url+path)
	}
	if err := stopServe(nil, stopHTTP, alog, 5*time.Second); err != nil {
		t.Fatalf("stopServe: %v", err)
	}
	if got := out.String(); got != "" {
		t.Fatalf("-quiet wrote access-log lines:\n%s", got)
	}
}

// A batch goes out before the line that would overflow it, so no line is
// split across two writes; one longer than the buffer goes out alone.
func TestBatchedLogKeepsLinesWhole(t *testing.T) {
	out := &lockedBuffer{}
	alog := startAccessLog(out, time.Hour)
	var want bytes.Buffer
	for i := 0; i < 2000; i++ {
		line := strings.Repeat("x", i%300) + "\n"
		if i == 1000 {
			line = strings.Repeat("y", accessLogBuffer+10) + "\n"
		}
		want.WriteString(line)
		if _, err := alog.Write([]byte(line)); err != nil {
			t.Fatal(err)
		}
	}
	alog.Close()
	if out.String() != want.String() {
		t.Fatal("bytes written differ from the lines logged")
	}
	if len(out.writes) < 2 {
		t.Fatalf("%d writes for %d bytes", len(out.writes), want.Len())
	}
	at := 0
	for _, n := range out.writes {
		at += n
		if want.Bytes()[at-1] != '\n' {
			t.Fatalf("a write ends mid-line at byte %d", at)
		}
		if n > accessLogBuffer && n != accessLogBuffer+11 {
			t.Fatalf("a %d-byte write exceeds the %d-byte buffer", n, accessLogBuffer)
		}
	}
}
