package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentDesignCoalescing is the ISSUE's race-enabled
// concurrency test: ~50 clients hammer /api/ensemble/design with a
// handful of unique requests; the server must execute each unique
// search exactly once (singleflight + cache), and every response for
// the same request must be byte-identical.
func TestConcurrentDesignCoalescing(t *testing.T) {
	s := newTestServer(t, nil)
	// Hold each search in its worker slot long enough that the 50
	// clients genuinely overlap in flight.
	s.searchDelay = 50 * time.Millisecond

	const (
		clients = 50
		unique  = 5
	)
	bodyFor := func(i int) string {
		return fmt.Sprintf(`{"n": %d}`, 2+i%unique)
	}

	type result struct {
		idx    int
		status int
		body   []byte
	}
	results := make([]result, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := httptest.NewRecorder()
			r := httptest.NewRequest(http.MethodPost, "/api/ensemble/design", strings.NewReader(bodyFor(i)))
			s.Handler().ServeHTTP(w, r)
			results[i] = result{idx: i, status: w.Code, body: w.Body.Bytes()}
		}(i)
	}
	wg.Wait()

	canonical := make(map[int][]byte)
	for _, res := range results {
		if res.status != http.StatusOK {
			t.Fatalf("client %d: status = %d: %s", res.idx, res.status, res.body)
		}
		n := 2 + res.idx%unique
		if prev, ok := canonical[n]; ok {
			if !bytes.Equal(prev, res.body) {
				t.Errorf("client %d: body for n=%d differs from earlier response", res.idx, n)
			}
		} else {
			canonical[n] = res.body
		}
	}
	if got := s.Searches(); got != unique {
		t.Errorf("searches = %d, want %d (coalescing/cache failed)", got, unique)
	}
}

// TestQueueSaturationSheds: with one worker and a one-deep queue,
// concurrent distinct design requests overflow the admission queue and
// are shed with 429 + Retry-After while admitted requests still succeed.
func TestQueueSaturationSheds(t *testing.T) {
	s := newTestServer(t, func(cfg *Config) {
		cfg.Workers = 1
		cfg.QueueDepth = 1
	})
	s.searchDelay = 300 * time.Millisecond

	const clients = 6 // capacity is workers+queue = 2, so ≥4 must shed
	statuses := make([]int, clients)
	retryAfter := make([]string, clients)
	codes := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := httptest.NewRecorder()
			body := fmt.Sprintf(`{"n": %d}`, 2+i) // distinct keys: no coalescing
			r := httptest.NewRequest(http.MethodPost, "/api/ensemble/design", strings.NewReader(body))
			s.Handler().ServeHTTP(w, r)
			statuses[i] = w.Code
			retryAfter[i] = w.Header().Get("Retry-After")
			if w.Code != http.StatusOK {
				var e apiError
				_ = json.Unmarshal(w.Body.Bytes(), &e)
				codes[i] = e.Error.Code
			}
		}(i)
	}
	wg.Wait()

	var ok, shed int
	for i := range statuses {
		switch statuses[i] {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
			if retryAfter[i] == "" {
				t.Errorf("client %d: 429 without Retry-After", i)
			}
			if codes[i] != "saturated" {
				t.Errorf("client %d: 429 code = %q, want saturated", i, codes[i])
			}
		default:
			t.Errorf("client %d: unexpected status %d", i, statuses[i])
		}
	}
	if ok == 0 || shed == 0 {
		t.Fatalf("ok = %d shed = %d: want both admission and shedding", ok, shed)
	}
	if got := s.pool.Pending(); got != 0 {
		t.Errorf("pending = %d after drain, want 0", got)
	}
	// The shed requests never reached a worker slot.
	if got := s.Searches(); got != int64(ok) {
		t.Errorf("searches = %d, want %d (one per admitted request)", got, ok)
	}
}

// TestDeadlineExceededReturnsPromptly: a design request whose search
// outlives the per-request deadline aborts within one search step,
// returns a structured 503, and leaves the server consistent for the
// next request.
func TestDeadlineExceededReturnsPromptly(t *testing.T) {
	s := newTestServer(t, func(cfg *Config) {
		cfg.RequestTimeout = 50 * time.Millisecond
	})
	s.searchDelay = 10 * time.Second // far beyond the deadline; honors ctx

	start := time.Now()
	w := postDesign(t, s, `{"n": 3}`)
	elapsed := time.Since(start)
	if w.Code != http.StatusServiceUnavailable || decodeError(t, w) != "deadline_exceeded" {
		t.Fatalf("status = %d body = %s", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("deadline 503 without Retry-After")
	}
	if elapsed > 2*time.Second {
		t.Fatalf("deadline response took %v, want prompt abort", elapsed)
	}

	// The failed search was not cached; with the delay removed the same
	// request now completes.
	s.searchDelay = 0
	w2 := postDesign(t, s, `{"n": 3}`)
	if w2.Code != http.StatusOK || w2.Header().Get("X-Cache") != "miss" {
		t.Fatalf("after deadline: %d X-Cache=%q", w2.Code, w2.Header().Get("X-Cache"))
	}
}

// TestGracefulShutdownDrains: a draining shutdown of the listener
// serving the handler completes only after in-flight design searches
// finish, and those requests get full 200 responses.
func TestGracefulShutdownDrains(t *testing.T) {
	s := newTestServer(t, nil)
	s.searchDelay = 200 * time.Millisecond
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type outcome struct {
		status int
		err    error
	}
	done := make(chan outcome, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/api/ensemble/design", "application/json",
			strings.NewReader(`{"n": 3}`))
		if err != nil {
			done <- outcome{err: err}
			return
		}
		defer discardBody(resp)
		done <- outcome{status: resp.StatusCode}
	}()

	// Let the request reach its worker slot, then drain.
	time.Sleep(80 * time.Millisecond)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ts.Config.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	out := <-done
	if out.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", out.err)
	}
	if out.status != http.StatusOK {
		t.Fatalf("in-flight request status = %d during drain", out.status)
	}
}
