package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"gcbench/internal/behavior"
	"gcbench/internal/corpus"
	"gcbench/internal/obs/otrace"
)

// marshalledRuns renders the /api/runs body for path the way handleRuns
// did before it assembled record fragments: one map[string]any through
// json.MarshalIndent. It is the reference the assembled bytes are held to.
func marshalledRuns(t testing.TB, s *Server, path string) []byte {
	t.Helper()
	view, ok := s.currentView()
	if !ok {
		t.Fatal("no view")
	}
	snap := view.Merged
	f, err := parseFilter(httptest.NewRequest(http.MethodGet, path, nil))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := s.cluster.Scatter(context.Background(), f, false)
	if err != nil {
		t.Fatal(err)
	}
	runs := make([]runSummary, 0, len(idx))
	for _, i := range clampSeqs(idx, len(snap.Records)) {
		runs = append(runs, summarize(snap, i))
	}
	body, err := json.MarshalIndent(map[string]any{
		"corpusVersion": snap.Version,
		"count":         len(runs),
		"runs":          runs,
	}, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return append(body, '\n')
}

// marshalledBehavior is the same reference for /api/behavior/{key}: the
// record marshalled compact and re-indented inside the envelope.
func marshalledBehavior(t testing.TB, s *Server, key string) []byte {
	t.Helper()
	view, _ := s.currentView()
	snap := view.Merged
	i, ok := snap.Lookup(key)
	if !ok {
		t.Fatalf("no record %q", key)
	}
	det := behaviorDetail{runSummary: summarize(snap, i)}
	if rec := &snap.Records[i]; rec.Run != nil {
		det.ActiveFraction = rec.Run.ActiveFraction
		if pi := view.PoolIndexOfSeq(i); pi >= 0 {
			pt := snap.Pool.Point(pi)
			det.PoolBehavior = &pt
		}
	}
	frag, err := json.Marshal(det)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.MarshalIndent(map[string]any{
		"corpusVersion": snap.Version,
		"run":           json.RawMessage(frag),
	}, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return append(body, '\n')
}

func assertSameBody(t *testing.T, s *Server, path string, want []byte) {
	t.Helper()
	w := get(t, s, path)
	if w.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", path, w.Code, w.Body.String())
	}
	if got := w.Body.Bytes(); string(got) != string(want) {
		t.Errorf("%s: assembled body differs from the marshalled one\n got: %s\nwant: %s", path, clip(got, 600), clip(want, 600))
	}
}

// TestAssembledBodiesEqualMarshalled holds the fragment-assembled
// /api/runs and /api/behavior bodies to the marshalled reference: over
// the standard corpus for the unfiltered listing and every /api/runs
// call of the differential set, before and after a publish swaps the
// view (and with it the fragment table), and over a corpus built for the
// shapes the standard one lacks.
func TestAssembledBodiesEqualMarshalled(t *testing.T) {
	s := newTestServer(t, nil)
	paths := []string{"/api/runs?algorithm=none"}
	for _, c := range differentialCalls(t) {
		if strings.HasPrefix(c.path, "/api/runs") {
			paths = append(paths, c.path)
		}
	}
	for _, phase := range []string{"initial", "after publish"} {
		for _, path := range paths {
			assertSameBody(t, s, path, marshalledRuns(t, s, path))
		}
		if w := get(t, s, paths[0]); !strings.Contains(w.Body.String(), "\n \"count\": 0,\n \"runs\": []\n}\n") {
			t.Errorf("%s: empty listing rendered as %s", phase, w.Body.String())
		}
		if phase == "initial" {
			if _, err := s.publishRuns("fragments-test", dominatedRuns(t, 2)); err != nil {
				t.Fatal(err)
			}
		}
	}

	// A record without a Run (no id, raw or behavior members; an error
	// string) and a key json.Marshal HTML-escapes.
	std := standardSnapshot(t)
	odd := []corpus.Record{
		std.Records[0],
		{Status: behavior.StatusFailed, Err: `engine said "<no>" & quit`, Algorithm: "PR", SizeLabel: "1e5", Alpha: 2.5},
		{Status: behavior.StatusSkipped, Algorithm: "CC", SizeLabel: "1e6"},
		std.Records[1],
	}
	odd[3].Algorithm = "<PR, CC>&"
	snap, err := corpus.NewSnapshotFromRecords(odd, "odd shapes")
	if err != nil {
		t.Fatal(err)
	}
	so := newTestServer(t, func(cfg *Config) { cfg.Cluster = clusterOver(t, snap, 2, 1) })
	for _, path := range []string{"/api/runs", "/api/runs?status=failed,skipped", "/api/runs?status=ok"} {
		assertSameBody(t, so, path, marshalledRuns(t, so, path))
	}
	view, _ := so.currentView()
	for i := range view.Merged.Records {
		key := view.Merged.Records[i].Key
		want := marshalledBehavior(t, so, key)
		for _, pass := range []string{"miss", "hit"} {
			t.Run(fmt.Sprintf("behavior %d %s", i, pass), func(t *testing.T) {
				assertSameBody(t, so, "/api/behavior/"+url.PathEscape(key), want)
			})
		}
	}
	if key := view.Merged.Records[3].Key; !strings.HasPrefix(key, "<PR, CC>&") {
		t.Fatalf("record 3 key = %q, want one that needs escaping", key)
	}
}

// TestRunsListingUnderPublishes hammers /api/runs while Append publishes
// swap the view under it: every body must parse, list as many runs as
// it counts, and count exactly the records of the corpus version it
// reports — fragments of one view never leak into another's listing.
// Two of the readers ask for one algorithm each, through the body buffers
// all three share (runsBodies): neither may see a run of the other's, and
// -race flags a buffer handed on while its response is still being written.
func TestRunsListingUnderPublishes(t *testing.T) {
	s := newTestServer(t, nil)
	batch := dominatedRuns(t, 1)
	const publishes = 6
	records := map[int64]int{1: len(standardSnapshot(t).Records)}
	for v := int64(2); v <= 1+publishes; v++ {
		records[v] = records[v-1] + len(batch)
	}

	var served atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, algorithm := range []string{"", "PR", "KM"} {
		path := "/api/runs"
		if algorithm != "" {
			path += "?algorithm=" + algorithm
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				w := get(t, s, path)
				var body struct {
					CorpusVersion int64 `json:"corpusVersion"`
					Count         int   `json:"count"`
					Runs          []struct {
						Algorithm string `json:"algorithm"`
					} `json:"runs"`
				}
				if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
					t.Errorf("body does not parse: %v\n%s", err, clip(w.Body.Bytes(), 400))
					return
				}
				if body.Count != len(body.Runs) || body.Count == 0 || algorithm == "" && body.Count != records[body.CorpusVersion] {
					t.Errorf("%s: corpusVersion %d: count %d, %d runs (whole corpus %d)",
						path, body.CorpusVersion, body.Count, len(body.Runs), records[body.CorpusVersion])
					return
				}
				for _, run := range body.Runs {
					if algorithm != "" && run.Algorithm != algorithm {
						t.Errorf("%s lists a %s run", path, run.Algorithm)
						return
					}
				}
				served.Add(1)
			}
		}()
	}
	for p := 0; p < publishes; p++ {
		// Let a few listings land on each view before it is replaced.
		for mark := served.Load(); served.Load() < mark+3 && !t.Failed(); {
			runtime.Gosched()
		}
		if _, err := s.publishRuns("hammer", batch); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	path := "/api/runs?algorithm=PR"
	assertSameBody(t, s, path, marshalledRuns(t, s, path))
}

// BenchmarkHandleRuns serves the three listings of the benchmark's read
// mix (bench/schedule.go) over the standard corpus through the full
// handler chain, trace store included as in the default deployment.
func BenchmarkHandleRuns(b *testing.B) {
	s := newTestServer(b, func(cfg *Config) { cfg.Traces = otrace.NewStore(0) })
	for _, c := range []struct{ name, path string }{
		{"PR", "/api/runs?algorithm=PR"},
		{"CC-KC-1e5", "/api/runs?algorithm=CC,KC&size=1e5"},
		{"status-ok", "/api/runs?status=ok"},
	} {
		b.Run(c.name, func(b *testing.B) {
			r := httptest.NewRequest(http.MethodGet, c.path, nil)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w := httptest.NewRecorder()
				s.Handler().ServeHTTP(w, r)
				if w.Code != http.StatusOK {
					b.Fatalf("status %d", w.Code)
				}
				b.SetBytes(int64(w.Body.Len()))
			}
		})
	}
}
