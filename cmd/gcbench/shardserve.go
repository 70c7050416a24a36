package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gcbench/internal/shard"
)

// cmdShardServe runs ONE shard replica as its own OS process:
//
//	gcbench shard-serve -listen 127.0.0.1:9301 -shard 0
//
// The process serves the shard wire protocol (POST /rpc/info|get|
// select|publish, GET /healthz) and holds no corpus until the
// coordinator publishes its partition — a fresh process is version 0
// and rejoins above the epoch fence on its first publish. Normally
// spawned by `gcbench serve -shard-spawn` (which also supervises and
// restarts it), but it can be started by hand or by an init system and
// pointed at with `gcbench serve -shard-addrs`.
func cmdShardServe(args []string) error {
	fs := flag.NewFlagSet("shard-serve", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:0", "shard RPC listen address")
	shardID := fs.Int("shard", 0, "shard index this process serves")
	vb := verbosityFlags(fs)
	fs.Parse(args)
	vb.setup()

	if *shardID < 0 {
		return fmt.Errorf("shard-serve: -shard must be ≥ 0, got %d", *shardID)
	}
	url, stopHTTP, err := serveHTTP(*listen, shard.RPCHandler(shard.NewProcessShard(*shardID)))
	if err != nil {
		return err
	}
	slog.Info("shard replica serving", "shard", *shardID, "url", url)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	return stopHTTP(5 * time.Second)
}

// parseShardAddrs parses the -shard-addrs topology string: shard groups
// separated by ';', replica endpoints within a group by ','. E.g.
// "h:1,h:2;h:3,h:4" is 2 shards × 2 replicas.
func parseShardAddrs(spec string) ([][]string, error) {
	var groups [][]string
	for _, g := range strings.Split(spec, ";") {
		var addrs []string
		for _, a := range strings.Split(g, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		if len(addrs) == 0 {
			return nil, fmt.Errorf("-shard-addrs: empty shard group in %q", spec)
		}
		groups = append(groups, addrs)
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("-shard-addrs: no shards in %q", spec)
	}
	return groups, nil
}

// wireClients builds the per-shard logical clients for a wire topology:
// one RemoteShard per replica endpoint, aggregated per shard by a
// ReplicaSet (failover reads, fan-out publish).
func wireClients(groups [][]string) ([]shard.ShardClient, error) {
	clients := make([]shard.ShardClient, len(groups))
	for i, addrs := range groups {
		replicas := make([]shard.ShardClient, len(addrs))
		for j, addr := range addrs {
			replicas[j] = shard.NewRemoteShard(addr, shard.RemoteOptions{Shard: i})
		}
		rs, err := shard.NewReplicaSet(i, replicas, nil)
		if err != nil {
			return nil, err
		}
		clients[i] = rs
	}
	return clients, nil
}

// freeLoopbackAddrs reserves n distinct loopback TCP addresses by
// binding and releasing them. The supervisor pins each shard process to
// its address, so a restart rebinds the same port and the coordinator's
// clients reconnect without re-wiring.
func freeLoopbackAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	listeners := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range listeners {
			ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners = append(listeners, ln)
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// spawnWireCluster launches shards×replicas `gcbench shard-serve`
// child processes under a supervisor, waits for them to come up, and
// returns the supervisor plus the per-shard topology. The caller wires
// the restore hook (Cluster.Rehydrate) once the cluster exists.
func spawnWireCluster(ctx context.Context, shards, replicas int) (*shard.Supervisor, [][]string, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	addrs, err := freeLoopbackAddrs(shards * replicas)
	if err != nil {
		return nil, nil, err
	}
	groups := make([][]string, shards)
	specs := make([]shard.ProcSpec, 0, shards*replicas)
	for s := 0; s < shards; s++ {
		for r := 0; r < replicas; r++ {
			addr := addrs[s*replicas+r]
			groups[s] = append(groups[s], addr)
			specs = append(specs, shard.ProcSpec{Shard: s, Replica: r, Addr: addr})
		}
	}
	sup, err := shard.NewSupervisor(specs, shard.SupervisorOptions{
		Spawn: func(spec shard.ProcSpec) (func() error, func(), error) {
			cmd := exec.Command(self, "shard-serve", "-listen", spec.Addr, "-shard", strconv.Itoa(spec.Shard))
			cmd.Stdout = os.Stderr
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				return nil, nil, err
			}
			return cmd.Wait, func() { _ = cmd.Process.Kill() }, nil
		},
	})
	if err != nil {
		return nil, nil, err
	}
	if err := sup.Start(ctx); err != nil {
		return nil, nil, err
	}
	return sup, groups, nil
}
