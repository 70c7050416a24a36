package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"gcbench/internal/corpus"
	"gcbench/internal/jobs"
	"gcbench/internal/obs"
	"gcbench/internal/serve"
	"gcbench/internal/shard"
	"gcbench/internal/sweep"
)

// blockingHandler answers 200 once release is closed, signalling
// entered when a request arrives.
func blockingHandler(entered chan<- struct{}, release <-chan struct{}) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		entered <- struct{}{}
		<-release
		w.WriteHeader(http.StatusOK)
	})
}

// getAsync issues GET url in the background; the returned channel
// yields the status code, or -1 on a transport error.
func getAsync(url string) <-chan int {
	status := make(chan int, 1)
	go func() {
		resp, err := http.Get(url)
		if err != nil {
			status <- -1
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	return status
}

// assertRefused fails unless nothing accepts connections at url.
func assertRefused(t *testing.T, url string) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", strings.TrimPrefix(url, "http://"), time.Second)
	if err == nil {
		conn.Close()
		t.Fatalf("%s still accepts connections after stop", url)
	}
}

func TestServeHTTPUnbindable(t *testing.T) {
	if _, _, err := serveHTTP("256.256.256.256:0", http.NotFoundHandler()); err == nil {
		t.Fatal("unbindable address accepted")
	}
	url, stop, err := serveHTTP("127.0.0.1:0", http.NotFoundHandler())
	if err != nil {
		t.Fatal(err)
	}
	defer stop(0)
	if _, _, err := serveHTTP(strings.TrimPrefix(url, "http://"), http.NotFoundHandler()); err == nil {
		t.Fatal("address already in use accepted")
	}
}

// TestServeHTTPStopDrains: stop(d) waits for an in-flight request, which
// gets its 200, and the port refuses connections afterwards.
func TestServeHTTPStopDrains(t *testing.T) {
	entered, release := make(chan struct{}, 1), make(chan struct{})
	url, stop, err := serveHTTP("127.0.0.1:0", blockingHandler(entered, release))
	if err != nil {
		t.Fatal(err)
	}
	status := getAsync(url)
	<-entered

	stopped := make(chan error, 1)
	go func() { stopped <- stop(5 * time.Second) }()
	select {
	case err := <-stopped:
		t.Fatalf("stop returned (%v) while a request was in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-stopped; err != nil {
		t.Fatalf("stop: %v", err)
	}
	if code := <-status; code != http.StatusOK {
		t.Fatalf("in-flight request got %d during the drain, want 200", code)
	}
	assertRefused(t, url)
}

// TestServeHTTPStopZeroCloses: stop(0) returns while a handler is still
// blocked, and the port refuses connections afterwards.
func TestServeHTTPStopZeroCloses(t *testing.T) {
	entered, release := make(chan struct{}, 1), make(chan struct{})
	defer close(release)
	url, stop, err := serveHTTP("127.0.0.1:0", blockingHandler(entered, release))
	if err != nil {
		t.Fatal(err)
	}
	status := getAsync(url)
	<-entered

	stopped := make(chan error, 1)
	go func() { stopped <- stop(0) }()
	select {
	case err := <-stopped:
		if err != nil {
			t.Fatalf("stop(0): %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("stop(0) waited for a blocked handler")
	}
	if code := <-status; code != -1 {
		t.Fatalf("request cut off by stop(0) got %d, want a transport error", code)
	}
	assertRefused(t, url)
}

// TestStopServeClosesJobsFirst runs serve's handler with a job manager
// under serveHTTP, follows the NDJSON event stream of a campaign that
// never finishes on its own, and stops through serve's shutdown
// sequence. The stream is exempt from any request deadline, so the
// sequence returns promptly only if the manager is closed — ending the
// stream on a terminal cancelled event — before HTTP drains.
func TestStopServeClosesJobsFirst(t *testing.T) {
	snap, err := corpus.LoadFile("../../runs-standard.json")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cluster, err := shard.New(shard.Options{Shards: 1, Replicas: 1, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.Load(context.Background(), snap); err != nil {
		t.Fatal(err)
	}
	mgr := jobs.NewManager(jobs.Config{
		Registry: reg,
		Execute: func(ctx context.Context, _ []sweep.Spec, _ sweep.Config) (*sweep.CampaignResult, error) {
			<-ctx.Done()
			return &sweep.CampaignResult{}, ctx.Err()
		},
	})
	srv, err := serve.New(serve.Config{Cluster: cluster, Jobs: mgr, Registry: reg, Samples: 1000})
	if err != nil {
		t.Fatal(err)
	}
	url, stopHTTP, err := serveHTTP("127.0.0.1:0", srv.Handler())
	if err != nil {
		t.Fatal(err)
	}
	job, err := mgr.Submit(jobs.Request{Specs: []sweep.Spec{{Algorithm: "PR", NumEdges: 300, Alpha: 2, Seed: 1}}})
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(url + "/api/jobs/" + job.ID() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := bufio.NewScanner(resp.Body)
	if !lines.Scan() { // the replayed first event: the stream is open
		t.Fatalf("event stream ended before its first event: %v", lines.Err())
	}
	last := make(chan jobs.Event, 1)
	go func() {
		var e jobs.Event
		for lines.Scan() {
			_ = json.Unmarshal(lines.Bytes(), &e)
		}
		last <- e
	}()

	const drain = 5 * time.Second
	start := time.Now()
	if err := stopServe(mgr, stopHTTP, drain); err != nil {
		t.Fatalf("stopServe: %v", err)
	}
	if elapsed := time.Since(start); elapsed > drain/5 {
		t.Fatalf("stopServe took %v of its %v budget", elapsed, drain)
	}
	select {
	case e := <-last:
		if e.Type != "state" || e.State != jobs.StateCancelled {
			t.Fatalf("event stream ended on %+v, want a terminal cancelled state event", e)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("event stream still open after stopServe")
	}
	assertRefused(t, url)
}
