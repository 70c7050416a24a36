package shard

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gcbench/internal/behavior"
	"gcbench/internal/corpus"
	"gcbench/internal/obs"
)

// testEntries carves n entries out of the standard corpus, keys already
// assigned, seqs ascending.
func testEntries(t testing.TB, n int) []Entry {
	t.Helper()
	snap := standardSnapshot(t)
	if n > len(snap.Records) {
		t.Fatalf("want %d entries, corpus has %d", n, len(snap.Records))
	}
	entries := make([]Entry, n)
	for i := 0; i < n; i++ {
		entries[i] = Entry{Seq: i, Record: snap.Records[i]}
	}
	return entries
}

// wireShard serves a fresh single-replica LocalShard over the RPC
// protocol and returns a RemoteShard client for it.
func wireShard(t testing.TB, id int) (*LocalShard, *RemoteShard) {
	t.Helper()
	local := NewLocalShard(id)
	srv := httptest.NewServer(RPCHandler(local))
	t.Cleanup(srv.Close)
	remote := NewRemoteShard(srv.URL, RemoteOptions{Shard: id, Registry: obs.NewRegistry()})
	return local, remote
}

// TestRPCRoundtrip proves the wire transport is transparent: every
// ShardClient method answered over HTTP matches the in-process answer
// from the same shard, field for field.
func TestRPCRoundtrip(t *testing.T) {
	ctx := context.Background()
	local, remote := wireShard(t, 3)
	entries := testEntries(t, 20)

	pubWire, err := remote.Publish(ctx, PublishRequest{Replace: true, Entries: entries})
	if err != nil {
		t.Fatal(err)
	}
	if pubWire.Version != 1 || pubWire.Records != len(entries) {
		t.Fatalf("publish over wire: %+v", pubWire)
	}

	infoL, _ := local.Info(ctx, InfoRequest{})
	infoW, err := remote.Info(ctx, InfoRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(infoL, infoW) {
		t.Errorf("Info diverges: local %+v wire %+v", infoL, infoW)
	}

	for _, e := range entries[:5] {
		gl, _ := local.Get(ctx, GetRequest{Key: e.Record.Key})
		gw, err := remote.Get(ctx, GetRequest{Key: e.Record.Key})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gl, gw) {
			t.Errorf("Get(%s) diverges:\nlocal %+v\nwire  %+v", e.Record.Key, gl, gw)
		}
	}

	selL, _ := local.Select(ctx, SelectRequest{Filter: corpus.Filter{Algorithms: []string{"PR"}}})
	selW, err := remote.Select(ctx, SelectRequest{Filter: corpus.Filter{Algorithms: []string{"PR"}}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(selL, selW) {
		t.Errorf("Select diverges: local %+v wire %+v", selL, selW)
	}

	// Application errors relay as errors, not as empty answers: a miss on
	// an unpublished shard must fail the same way in-process does.
	_, fresh := wireShard(t, 4)
	if _, err := fresh.Get(ctx, GetRequest{Key: "nope"}); err == nil {
		t.Error("Get on unpublished shard over wire: want error, got nil")
	}
}

// flakyProxy fronts a backend and kills the first failN connections at
// the TCP level — the transport-error shape a crashing or restarting
// shard process produces (as opposed to an application error, which
// arrives as a well-formed 500).
type flakyProxy struct {
	ln       net.Listener
	backend  string
	failN    int32
	attempts atomic.Int32
}

func newFlakyProxy(t testing.TB, backend string, failN int32) *flakyProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &flakyProxy{ln: ln, backend: backend, failN: failN}
	t.Cleanup(func() { ln.Close() })
	go p.run()
	return p
}

func (p *flakyProxy) addr() string { return p.ln.Addr().String() }

func (p *flakyProxy) run() {
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		n := p.attempts.Add(1)
		if n <= p.failN {
			conn.Close() // torn connection mid-handshake
			continue
		}
		go func() {
			defer conn.Close()
			up, err := net.Dial("tcp", p.backend)
			if err != nil {
				return
			}
			defer up.Close()
			done := make(chan struct{}, 2)
			cp := func(dst, src net.Conn) {
				buf := make([]byte, 32<<10)
				for {
					n, err := src.Read(buf)
					if n > 0 {
						if _, werr := dst.Write(buf[:n]); werr != nil {
							break
						}
					}
					if err != nil {
						break
					}
				}
				done <- struct{}{}
			}
			go cp(up, conn)
			go cp(conn, up)
			<-done
		}()
	}
}

// TestRemoteRetriesTransientReads proves the retry policy: a read that
// hits torn connections succeeds once a retry gets through, while a
// publish fails on the first transport error (never retried — a blind
// retry of a non-idempotent version bump could double-advance the
// fence).
func TestRemoteRetriesTransientReads(t *testing.T) {
	ctx := context.Background()
	local := NewLocalShard(0)
	if _, err := local.Publish(ctx, PublishRequest{Replace: true, Entries: testEntries(t, 8)}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(RPCHandler(local))
	defer srv.Close()
	backend := srv.Listener.Addr().String()

	proxy := newFlakyProxy(t, backend, 2)
	remote := NewRemoteShard(proxy.addr(), RemoteOptions{
		Shard: 0, Retries: 3, RetryBackoff: time.Millisecond, Registry: obs.NewRegistry(),
		// Fresh transport: the shared pool would reuse a live connection
		// and never hit the proxy's accept path per attempt.
		Client: &http.Client{Transport: &http.Transport{DisableKeepAlives: true}},
	})
	info, err := remote.Info(ctx, InfoRequest{})
	if err != nil {
		t.Fatalf("read across 2 torn connections with 3 retries: %v", err)
	}
	if info.Version != 1 || info.Records != 8 {
		t.Fatalf("retried read answered wrong: %+v", info)
	}
	if got := proxy.attempts.Load(); got != 3 {
		t.Errorf("proxy saw %d connection attempts, want 3 (2 torn + 1 served)", got)
	}

	proxy2 := newFlakyProxy(t, backend, 1)
	remote2 := NewRemoteShard(proxy2.addr(), RemoteOptions{
		Shard: 0, Retries: 3, RetryBackoff: time.Millisecond, Registry: obs.NewRegistry(),
		Client: &http.Client{Transport: &http.Transport{DisableKeepAlives: true}},
	})
	if _, err := remote2.Publish(ctx, PublishRequest{Replace: true, Entries: testEntries(t, 1)}); err == nil {
		t.Fatal("publish across a torn connection: want error (publishes are never retried), got nil")
	}
	if got := proxy2.attempts.Load(); got != 1 {
		t.Errorf("publish made %d connection attempts, want exactly 1", got)
	}
}

// TestPublishEpochFence proves the fence arithmetic on both sides of
// restart: a publish below the current version still advances, and a
// version-0 (freshly restarted) shard rejoins at the fence, strictly
// above everything it served before.
func TestPublishEpochFence(t *testing.T) {
	ctx := context.Background()
	entries := testEntries(t, 4)

	s := NewLocalShard(0)
	for i := 0; i < 3; i++ {
		if _, err := s.Publish(ctx, PublishRequest{Replace: true, Entries: entries}); err != nil {
			t.Fatal(err)
		}
	}
	// Fence below current: version still advances monotonically.
	resp, err := s.Publish(ctx, PublishRequest{Replace: true, Entries: entries, MinVersion: 2})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Version != 4 {
		t.Fatalf("publish with stale fence 2 over version 3: got %d, want 4", resp.Version)
	}

	// A rejected publish (duplicate key) leaves the version where it was:
	// the next accepted one is exactly max(current+1, MinVersion).
	before, err := s.Info(ctx, InfoRequest{})
	if err != nil {
		t.Fatal(err)
	}
	dup := append(append([]Entry(nil), entries...), entries[0])
	dup[len(dup)-1].Seq = entries[len(entries)-1].Seq + 1
	if _, err := s.Publish(ctx, PublishRequest{Replace: true, Entries: dup, MinVersion: 9}); err == nil {
		t.Fatal("duplicate-key publish accepted")
	}
	if after, err := s.Info(ctx, InfoRequest{}); err != nil || after != before {
		t.Fatalf("rejected publish changed Info: %+v → %+v (err %v)", before, after, err)
	}
	resp, err = s.Publish(ctx, PublishRequest{Replace: true, Entries: entries, MinVersion: 2})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Version != 5 {
		t.Fatalf("publish after a rejected one: got version %d, want 5", resp.Version)
	}

	// Restart: a fresh process is version 0. Rehydrating with the
	// coordinator's fence lands strictly above the pre-crash version.
	restarted := NewLocalShard(0)
	resp, err = restarted.Publish(ctx, PublishRequest{Replace: true, Entries: entries, MinVersion: 5})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Version != 5 {
		t.Fatalf("rehydrated shard version = %d, want fence 5", resp.Version)
	}
}

// TestReplicaSetFailover proves a dead replica degrades capacity, not
// availability: reads fail over to survivors, Info reports the outage
// as Down (for /readyz), and only a fully dead set errors.
func TestReplicaSetFailover(t *testing.T) {
	ctx := context.Background()
	entries := testEntries(t, 10)

	local := NewLocalShard(0)
	if _, err := local.Publish(ctx, PublishRequest{Replace: true, Entries: entries}); err != nil {
		t.Fatal(err)
	}
	alive := httptest.NewServer(RPCHandler(local))
	defer alive.Close()
	dead := httptest.NewServer(RPCHandler(NewLocalShard(0)))
	deadAddr := dead.URL
	dead.Close() // connection refused from here on

	reg := obs.NewRegistry()
	mk := func(url string) *RemoteShard {
		return NewRemoteShard(url, RemoteOptions{Shard: 0, Retries: -1, RetryBackoff: time.Millisecond, Registry: reg})
	}
	rs, err := NewReplicaSet(0, []ShardClient{mk(deadAddr), mk(alive.URL)}, reg)
	if err != nil {
		t.Fatal(err)
	}

	// Every read must succeed regardless of which replica the rotation
	// starts at.
	for i := 0; i < 6; i++ {
		g, err := rs.Get(ctx, GetRequest{Key: entries[0].Record.Key})
		if err != nil {
			t.Fatalf("read %d with one dead replica: %v", i, err)
		}
		if !g.Found {
			t.Fatalf("read %d: key missing", i)
		}
	}
	sel, err := rs.Select(ctx, SelectRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Seqs) != len(entries) {
		t.Fatalf("failover select returned %d seqs, want %d", len(sel.Seqs), len(entries))
	}

	info, err := rs.Info(ctx, InfoRequest{})
	if err != nil {
		t.Fatalf("Info with one live replica: %v", err)
	}
	if info.Down != 1 || info.Replicas != 2 || info.Version != 1 {
		t.Errorf("degraded Info = %+v, want Down=1 Replicas=2 Version=1", info)
	}

	// Both replicas dead: reads and Info must error, not hang or lie.
	alive.Close()
	if _, err := rs.Get(ctx, GetRequest{Key: entries[0].Record.Key}); err == nil {
		t.Error("Get with all replicas dead: want error")
	}
	if _, err := rs.Info(ctx, InfoRequest{}); err == nil {
		t.Error("Info with all replicas dead: want error")
	}
}

// TestReplicaSetPublishFence proves replica-set publishes land every
// replica on the same version under the shared fence, and that a
// replica refusing the publish fails the set.
func TestReplicaSetPublishFence(t *testing.T) {
	ctx := context.Background()
	entries := testEntries(t, 6)

	locals := []*LocalShard{NewLocalShard(0), NewLocalShard(0)}
	// Skew the replicas' starting versions — exactly what a crash-restart
	// produces — then prove the fence re-converges them.
	for i := 0; i < 3; i++ {
		if _, err := locals[0].Publish(ctx, PublishRequest{Replace: true, Entries: entries}); err != nil {
			t.Fatal(err)
		}
	}
	clients := make([]ShardClient, len(locals))
	for i, l := range locals {
		srv := httptest.NewServer(RPCHandler(l))
		defer srv.Close()
		clients[i] = NewRemoteShard(srv.URL, RemoteOptions{Shard: 0, Registry: obs.NewRegistry()})
	}
	rs, err := NewReplicaSet(0, clients, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := rs.Publish(ctx, PublishRequest{Replace: true, Entries: entries, MinVersion: 4})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Version != 4 {
		t.Fatalf("fenced set publish acknowledged version %d, want 4", resp.Version)
	}
	for i, l := range locals {
		info, _ := l.Info(ctx, InfoRequest{})
		if info.Version != 4 {
			t.Errorf("replica %d at version %d after fenced publish, want 4", i, info.Version)
		}
	}
}

// TestClusterVersionVectorFromAcks is the cluster-level case of the
// fence: over a replica set whose replicas start at skewed versions,
// the coordinator's version vector is built from what the publishes
// acknowledged (the set's highest replica), so the next fence lifts the
// lagging replica and one Append re-converges the set — the vector
// entry, and both replicas' own versions, agree. A vector read back
// through Info (the set's minimum) would fence one above the laggard
// forever and never converge.
func TestClusterVersionVectorFromAcks(t *testing.T) {
	ctx := context.Background()
	replicas := []*LocalShard{NewLocalShard(0), NewLocalShard(0)}
	// Replica 0 acknowledged two publishes its sibling never saw.
	for i := 0; i < 2; i++ {
		if _, err := replicas[0].Publish(ctx, PublishRequest{Replace: true}); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	rs, err := NewReplicaSet(0, []ShardClient{replicas[0], replicas[1]}, reg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Options{Clients: []ShardClient{rs}, Replicas: 2, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := c.Load(ctx, mustSnapshotCopy(t, standardSnapshot(t)))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.VV[0] != 3 {
		t.Fatalf("VV after load = %v, want the acknowledged 3 (replica 0 went 2 → 3)", loaded.VV)
	}
	grown, err := c.Append(ctx, []*behavior.Run{fakeRun("PR", "ack", 2.0)}, "test")
	if err != nil {
		t.Fatal(err)
	}
	if grown.VV[0] != 4 {
		t.Errorf("VV after append = %v, want 4 (fence 3+1)", grown.VV)
	}
	for i, r := range replicas {
		info, err := r.Info(ctx, InfoRequest{})
		if err != nil {
			t.Fatal(err)
		}
		if info.Version != grown.VV[0] || info.Records != len(grown.Merged.Records) {
			t.Errorf("replica %d: version %d with %d records, view says version %d with %d",
				i, info.Version, info.Records, grown.VV[0], len(grown.Merged.Records))
		}
	}
	// The vector is the design cache's key component: a design cached
	// before the publish can not be addressed after it.
	if loaded.VVString() == grown.VVString() {
		t.Errorf("version vector %q did not move across the publish", grown.VVString())
	}
}

// downShard is a ShardClient whose every call fails while down is set.
type downShard struct {
	ShardClient
	down atomic.Bool
}

func (d *downShard) Info(ctx context.Context, req InfoRequest) (InfoResponse, error) {
	if d.down.Load() {
		return InfoResponse{}, context.DeadlineExceeded
	}
	return d.ShardClient.Info(ctx, req)
}

func (d *downShard) Publish(ctx context.Context, req PublishRequest) (PublishResponse, error) {
	if d.down.Load() {
		return PublishResponse{}, context.DeadlineExceeded
	}
	return d.ShardClient.Publish(ctx, req)
}

// TestAppendTouchesOnlyOwners: an append talks to the shards that own a
// new record and to no other — an unreachable bystander can not fail a
// publish whose partitions are all installed. A failed publish counts
// one error per shard that failed and leaves the view where it was.
func TestAppendTouchesOnlyOwners(t *testing.T) {
	ctx := context.Background()
	reg := obs.NewRegistry()
	shards := make([]*downShard, 3)
	clients := make([]ShardClient, len(shards))
	for i := range shards {
		shards[i] = &downShard{ShardClient: NewLocalShard(i)}
		clients[i] = shards[i]
	}
	c, err := New(Options{Clients: clients, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := c.Load(ctx, mustSnapshotCopy(t, standardSnapshot(t)))
	if err != nil {
		t.Fatal(err)
	}
	run := fakeRun("PR", "bystander", 2.0)
	owner := c.Owner(corpus.KeyOf(run.Algorithm, run.SizeLabel, run.Alpha))
	for i, s := range shards {
		s.down.Store(i != owner)
	}
	grown, err := c.Append(ctx, []*behavior.Run{run}, "test")
	if err != nil {
		t.Fatalf("append with only bystander shards down: %v", err)
	}
	for i := range shards {
		want := loaded.VV[i]
		if i == owner {
			want++
		}
		if grown.VV[i] != want {
			t.Errorf("VV[%d] = %d, want %d", i, grown.VV[i], want)
		}
	}

	// Everything down: a reload fails on all three shards, counts all
	// three, and readers keep the view they had.
	for _, s := range shards {
		s.down.Store(true)
	}
	if _, err := c.Load(ctx, mustSnapshotCopy(t, standardSnapshot(t))); err == nil {
		t.Fatal("load over unreachable shards succeeded")
	}
	errs := reg.CounterVec(rpcErrorsMetric, rpcErrorsHelp, []string{"shard", "kind"})
	for i := range shards {
		if got := errs.With(strconv.Itoa(i), "publish").Value(); got != 1 {
			t.Errorf("publish errors counted for shard %d = %v, want 1", i, got)
		}
	}
	if c.View() != grown {
		t.Error("a failed publish replaced the view")
	}
}

// spawnHookShard is the Supervisor test double for one process slot: a
// real HTTP server on the pinned address, serving a fresh (version-0)
// LocalShard each incarnation — the restart-amnesia behavior of a real
// process.
func spawnHookShard(t testing.TB, spec ProcSpec) (wait func() error, kill func(), err error) {
	ln, err := net.Listen("tcp", spec.Addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: RPCHandler(NewLocalShard(spec.Shard))}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	return func() error { return <-done },
		func() { srv.Close() },
		nil
}

// TestSupervisorRestartsAndRestores proves the supervision loop end to
// end: kill a replica, the supervisor respawns it on the same address,
// waits for health, and invokes the restore hook so the coordinator can
// rehydrate it.
func TestSupervisorRestartsAndRestores(t *testing.T) {
	addrs, err := freePorts(2)
	if err != nil {
		t.Fatal(err)
	}
	specs := []ProcSpec{
		{Shard: 0, Replica: 0, Addr: addrs[0]},
		{Shard: 1, Replica: 0, Addr: addrs[1]},
	}
	restored := make(chan ProcSpec, 8)
	sup, err := NewSupervisor(specs, SupervisorOptions{
		Spawn:          func(spec ProcSpec) (func() error, func(), error) { return spawnHookShard(t, spec) },
		HealthInterval: 20 * time.Millisecond,
		HealthTimeout:  200 * time.Millisecond,
		RestartBackoff: 10 * time.Millisecond,
		StartTimeout:   5 * time.Second,
		Registry:       obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sup.SetOnRestore(func(_ context.Context, spec ProcSpec) error {
		restored <- spec
		return nil
	})
	if err := sup.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()

	// Both endpoints serve after Start.
	ctx := context.Background()
	for _, spec := range specs {
		r := NewRemoteShard(spec.Addr, RemoteOptions{Shard: spec.Shard, Registry: obs.NewRegistry()})
		if !r.Healthy(ctx, time.Second) {
			t.Fatalf("shard %d not healthy after Start", spec.Shard)
		}
	}

	if err := sup.Kill(1, 0); err != nil {
		t.Fatal(err)
	}
	select {
	case spec := <-restored:
		if spec.Shard != 1 {
			t.Fatalf("restore hook fired for shard %d, want 1", spec.Shard)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("restore hook never fired after kill")
	}
	if sup.restarts.Load() == 0 {
		t.Error("no restart counted after a kill-restart cycle")
	}
	// The restarted endpoint serves again on the same address.
	r := NewRemoteShard(specs[1].Addr, RemoteOptions{Shard: 1, Registry: obs.NewRegistry()})
	if !r.Healthy(ctx, time.Second) {
		t.Error("restarted shard not healthy on its original address")
	}
}

// freePorts reserves n loopback addresses for supervised test shards.
func freePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// TestRPCBodyBound: every /rpc route reads at most the handler's body
// bound. A request exactly at the bound is decoded and served; one byte
// more answers 413 with the wire error envelope. (The production bound,
// maxRPCBody, is exercised through rpcHandler's parameter: a
// quarter-gigabyte request per route is not a unit test.) The padding is
// leading whitespace, which the decoder must read through.
func TestRPCBodyBound(t *testing.T) {
	const bound = 4096
	local := NewLocalShard(0)
	if _, err := local.Publish(context.Background(), PublishRequest{Replace: true, Entries: testEntries(t, 1)}); err != nil {
		t.Fatal(err)
	}
	h := rpcHandler(local, bound)
	for _, route := range []string{"info", "get", "select", "publish"} {
		post := func(n int) *httptest.ResponseRecorder {
			w := httptest.NewRecorder()
			body := strings.Repeat(" ", n-2) + "{}"
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/rpc/"+route, strings.NewReader(body)))
			return w
		}
		if w := post(bound); w.Code != http.StatusOK {
			t.Errorf("/rpc/%s: %d-byte body: status %d, want 200: %s", route, bound, w.Code, w.Body.String())
		}
		w := post(bound + 1)
		var werr rpcError
		if err := json.Unmarshal(w.Body.Bytes(), &werr); w.Code != http.StatusRequestEntityTooLarge || err != nil || werr.Error == "" {
			t.Errorf("/rpc/%s: %d-byte body: status %d (decode err %v), want 413 with an error envelope: %s",
				route, bound+1, w.Code, err, w.Body.String())
		}
	}
	if maxRPCBody < 64<<20 {
		t.Errorf("maxRPCBody = %d: too small for a full-partition publish", maxRPCBody)
	}
}
