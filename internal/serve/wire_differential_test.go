package serve

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"testing"
	"time"

	"gcbench/internal/obs"
	"gcbench/internal/shard"
)

// The wire differential needs shard replicas that are REAL separate OS
// processes — the deployment shape `gcbench serve -shard-spawn` runs —
// not goroutines pretending. The test binary re-execs itself: when
// these env vars are set, TestMain serves one shard replica over the
// wire protocol instead of running tests, exactly what a `gcbench
// shard-serve` process does.
const (
	shardProcAddrEnv = "GCBENCH_SHARD_PROC_ADDR"
	shardProcIDEnv   = "GCBENCH_SHARD_PROC_SHARD"
)

func TestMain(m *testing.M) {
	if addr := os.Getenv(shardProcAddrEnv); addr != "" {
		runShardProc(addr)
	}
	os.Exit(m.Run())
}

// runShardProc is the re-exec'd child's entire life: serve one fresh
// (version-0) shard replica on the pinned address until killed.
func runShardProc(addr string) {
	id, err := strconv.Atoi(os.Getenv(shardProcIDEnv))
	if err != nil {
		os.Exit(3)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		os.Exit(3)
	}
	srv := &http.Server{Handler: shard.RPCHandler(shard.NewProcessShard(id))}
	_ = srv.Serve(ln)
	os.Exit(0)
}

// spawnShardProc re-execs the test binary as one shard replica process.
func spawnShardProc(spec shard.ProcSpec) (func() error, func(), error) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		shardProcAddrEnv+"="+spec.Addr,
		shardProcIDEnv+"="+strconv.Itoa(spec.Shard))
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, nil, err
	}
	return cmd.Wait, func() { _ = cmd.Process.Kill() }, nil
}

// freeTestPorts reserves n loopback addresses for shard processes.
func freeTestPorts(t testing.TB, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

// wireCluster spins up `shards` real shard processes over TCP under a
// supervisor, builds a Cluster over RemoteShard clients (each wrapped
// in a single-member ReplicaSet, the production aggregation layer),
// loads the standard corpus copy, and wires crash-recovery: a restart
// triggers Cluster.Rehydrate, and every completed restore is announced
// on the returned channel.
func wireCluster(t *testing.T, shards int) (*shard.Cluster, *shard.Supervisor, <-chan shard.ProcSpec) {
	t.Helper()
	addrs := freeTestPorts(t, shards)
	specs := make([]shard.ProcSpec, shards)
	clients := make([]shard.ShardClient, shards)
	reg := obs.NewRegistry()
	for i := range specs {
		specs[i] = shard.ProcSpec{Shard: i, Replica: 0, Addr: addrs[i]}
		remote := shard.NewRemoteShard(addrs[i], shard.RemoteOptions{
			Shard: i, Retries: 4, RetryBackoff: 10 * time.Millisecond, Registry: reg,
		})
		rs, err := shard.NewReplicaSet(i, []shard.ShardClient{remote}, reg)
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = rs
	}
	sup, err := shard.NewSupervisor(specs, shard.SupervisorOptions{
		Spawn:          spawnShardProc,
		HealthInterval: 25 * time.Millisecond,
		HealthTimeout:  500 * time.Millisecond,
		RestartBackoff: 25 * time.Millisecond,
		StartTimeout:   10 * time.Second,
		Registry:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sup.Stop)

	c, err := shard.New(shard.Options{Shards: shards, Clients: clients, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	loadCopy(t, c, standardSnapshot(t))
	restored := make(chan shard.ProcSpec, 16)
	sup.SetOnRestore(func(ctx context.Context, spec shard.ProcSpec) error {
		if _, err := c.Rehydrate(ctx, spec.Shard); err != nil {
			return err
		}
		restored <- spec
		return nil
	})
	return c, sup, restored
}

// vvAdvancedOnly asserts the version vector moved monotonically: no
// component regressed (the epoch-fence invariant the VV-keyed caches
// depend on). With moved non-nil, exactly those components advanced;
// with moved nil, at least one did (an append publishes only the shards
// that received entries, which ones depending on key hashing).
func vvAdvancedOnly(t *testing.T, phase string, before, after []uint64, moved map[int]bool) {
	t.Helper()
	if len(before) != len(after) {
		t.Fatalf("%s: VV length changed %d → %d", phase, len(before), len(after))
	}
	any := false
	for i := range after {
		switch {
		case after[i] < before[i]:
			t.Errorf("%s: VV[%d] REGRESSED %d → %d — stale cache bodies are now addressable", phase, i, before[i], after[i])
		case after[i] > before[i]:
			any = true
			if moved != nil && !moved[i] {
				t.Errorf("%s: VV[%d] advanced %d → %d but shard %d was not touched", phase, i, before[i], after[i], i)
			}
		case after[i] == before[i] && moved != nil && moved[i]:
			t.Errorf("%s: VV[%d] did not advance but shard %d was republished", phase, i, i)
		}
	}
	if !any {
		t.Errorf("%s: no VV component advanced", phase)
	}
}

// TestDifferentialWireProcesses extends the differential guarantee to
// the wire: the request set answered by a cluster of 4 separate shard OS
// processes over TCP produces JSON byte-identical to the frozen
// single-store bodies — initially, after a hot publish, and after one
// shard process is killed and restart-rehydrated mid-campaign. Throughout, the version vector never
// regresses and the cluster epoch (corpusVersion, embedded in every
// body) never moves on restart.
func TestDifferentialWireProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real shard processes")
	}
	oracle := loadFrozenOracle(t)
	cluster, sup, restored := wireCluster(t, 4)
	wire := newTestServer(t, func(cfg *Config) { cfg.Cluster = cluster })
	calls := differentialCalls(t)

	assertFrozen(t, oracle, "initial", wire, "cluster(4 procs)", calls)
	vv0 := append([]uint64(nil), cluster.View().VV...)
	epoch0 := cluster.View().Epoch()

	// Hot publish across the wire: the oracle's run batch is appended
	// through the jobs publish sink; bodies must match the frozen
	// post-publish ones and every shard's version must advance in
	// lockstep (uniform fence).
	if _, err := wire.publishRuns("wire-diff-job", dominatedRuns(t, 3)); err != nil {
		t.Fatal(err)
	}
	assertFrozen(t, oracle, "after publish", wire, "cluster(4 procs)", calls)
	vv1 := append([]uint64(nil), cluster.View().VV...)
	vvAdvancedOnly(t, "publish", vv0, vv1, nil)
	if got := cluster.View().Epoch(); got != epoch0+1 {
		t.Fatalf("epoch after publish = %d, want %d", got, epoch0+1)
	}

	// Kill one shard process mid-campaign. The supervisor restarts it on
	// the same port, rehydrates it from the merged view (including the
	// hot-published runs — no restart amnesia), and only that shard's VV
	// component moves, strictly upward.
	const victim = 2
	if err := sup.Kill(victim, 0); err != nil {
		t.Fatal(err)
	}
	select {
	case spec := <-restored:
		if spec.Shard != victim {
			t.Fatalf("restored shard %d, want %d", spec.Shard, victim)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("shard never restored after kill")
	}
	vv2 := append([]uint64(nil), cluster.View().VV...)
	vvAdvancedOnly(t, "restart", vv1, vv2, map[int]bool{victim: true})
	if vv2[victim] <= vv1[victim] {
		t.Fatalf("restarted shard %d 's version %d did not pass pre-crash %d", victim, vv2[victim], vv1[victim])
	}
	if got := cluster.View().Epoch(); got != epoch0+1 {
		t.Fatalf("restart moved the cluster epoch %d → %d; corpusVersion must be restart-invariant", epoch0+1, got)
	}

	// The whole request set — including the hot-published records owned
	// by the restarted shard — still answers byte-identically to the
	// single store: a restart leaves the epoch, and so every body, alone.
	assertFrozen(t, oracle, "after publish", wire, "cluster(4 procs) after restart",
		append(calls, appendedCalls()...))

	// Readiness reflects the restored fleet.
	if ready, _ := wire.readiness(); !ready {
		t.Error("cluster not ready after restore")
	}
}

// TestReplicaFailoverUnderLoad proves a dead replica costs capacity,
// not correctness: with 2 wire replicas per shard (in-process httptest
// endpoints — the transport is real HTTP, only the processes are
// shared) and concurrent readers hammering the API, killing one replica
// of one shard mid-stream leaves every read answering 200 with
// single-store-identical bodies, while /readyz flips to degraded until
// the replica returns. Run under -race: the failover rotation, the
// Down-count aggregation and the readers all share the ReplicaSet.
func TestReplicaFailoverUnderLoad(t *testing.T) {
	const shards, replicas = 2, 2
	reg := obs.NewRegistry()
	clients := make([]shard.ShardClient, shards)
	// killable[s][r] closes replica r of shard s.
	killable := make([][]*httptest.Server, shards)
	for s := 0; s < shards; s++ {
		local := shard.NewLocalShard(s)
		var reps []shard.ShardClient
		for r := 0; r < replicas; r++ {
			// Both replica endpoints front the same LocalShard so their
			// contents agree, as real replicas' do after a fenced publish.
			srv := httptest.NewServer(shard.RPCHandler(local))
			t.Cleanup(srv.Close)
			killable[s] = append(killable[s], srv)
			reps = append(reps, shard.NewRemoteShard(srv.URL, shard.RemoteOptions{
				Shard: s, Retries: -1, RetryBackoff: time.Millisecond, Registry: reg,
			}))
		}
		rs, err := shard.NewReplicaSet(s, reps, reg)
		if err != nil {
			t.Fatal(err)
		}
		clients[s] = rs
	}
	cluster, err := shard.New(shard.Options{Shards: shards, Replicas: replicas, Clients: clients, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	loadCopy(t, cluster, standardSnapshot(t))
	srv := newTestServer(t, func(cfg *Config) { cfg.Cluster = cluster })
	if ready, _ := srv.readiness(); !ready {
		t.Fatal("cluster not ready with all replicas up")
	}

	readCalls := []apiCall{
		{name: "runs", method: http.MethodGet, path: "/api/runs?algorithm=PR"},
		{name: "behavior", method: http.MethodGet, path: "/api/behavior/" + standardSnapshot(t).Records[0].Key},
		{name: "predict", method: http.MethodGet, path: "/api/predict?algorithm=PR&edges=500000&alpha=2.1"},
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c := readCalls[(w+i)%len(readCalls)]
				if rec := c.issue(t, srv); rec.Code != http.StatusOK {
					t.Errorf("during replica outage: %s returned %d: %s", c.name, rec.Code, rec.Body.String())
					return
				}
			}
		}(w)
	}

	// Kill one replica of shard 1 mid-stream.
	killable[1][0].Close()
	time.Sleep(50 * time.Millisecond) // let readers cross the outage
	close(stop)
	wg.Wait()

	// Reads survive, bodies stay identical, readiness reports degraded.
	assertFrozen(t, loadFrozenOracle(t), "initial", srv, "cluster(2x2 wire) with one replica down", differentialCalls(t))
	ready, detail := srv.readiness()
	if ready {
		t.Errorf("readyz still green with a replica down: %v", detail)
	}
}
