package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gcbench/internal/corpus"
	"gcbench/internal/ensemble"
	"gcbench/internal/jobs"
	"gcbench/internal/obs/otrace"
	"gcbench/internal/serve"
	"gcbench/internal/shard"
)

// cmdServe runs the ensemble-design API server over a measured corpus:
//
//	gcbench serve -runs runs-standard.json -listen :8080
//
// The corpus may be a runs JSON array or a sweep checkpoint journal;
// POST /api/corpus/reload hot-swaps it in place after a re-sweep.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	runsPath := fs.String("runs", "runs.json", "behavior corpus: runs JSON (from 'gcbench sweep') or a checkpoint journal")
	listen := fs.String("listen", ":8080", "API listen address")
	samples := fs.Int("samples", ensemble.DefaultSamples, "coverage Monte-Carlo samples (paper: 1e6)")
	workers := fs.Int("workers", 0, "concurrent ensemble searches (0 = all cores)")
	queue := fs.Int("queue", 64, "design requests queued before shedding with 429")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request deadline (plumbed into search loops)")
	cacheSize := fs.Int("cache", 256, "design-response LRU cache entries")
	drain := fs.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
	shards := fs.Int("shards", 1, "partition the corpus across this many consistent-hash shards (responses stay byte-identical for any count)")
	replicas := fs.Int("replicas", 1, "read replicas per shard, each answering from its own immutable snapshot")
	shardAddrs := fs.String("shard-addrs", "", "serve over externally-started shard processes: shard groups separated by ';', replica endpoints by ',' (e.g. \"h:9301,h:9302;h:9303,h:9304\" = 2 shards × 2 replicas); see 'gcbench shard-serve'")
	shardSpawn := fs.Bool("shard-spawn", false, "spawn -shards × -replicas 'gcbench shard-serve' child processes on loopback ports, supervised: crashed shards are restarted and rehydrated (epoch-fenced)")
	jobsOn := fs.Bool("jobs", false, "enable the async campaign API (POST /api/campaigns, /api/jobs): completed campaigns publish into the live corpus")
	maxRunning := fs.Int("max-running", 1, "concurrently executing campaigns (with -jobs)")
	queueDepth := fs.Int("queue-depth", 16, "campaigns queued behind the running ones before POST /api/campaigns sheds with 429 (with -jobs)")
	traceCap := fs.Int("traces", 512, "request traces retained for /debug/traces, tail-sampled (errors, 429s and slowest decile kept preferentially); 0 disables tracing")
	vb := verbosityFlags(fs)
	fs.Parse(args)
	vb.setup()

	snap, err := corpus.LoadFile(*runsPath)
	if err != nil {
		return fmt.Errorf("loading corpus (run 'gcbench sweep' first): %w", err)
	}
	// One corpus backend, four deployment shapes: the default is the
	// in-process 1-shard × 1-replica cluster, -shards/-replicas partition
	// and replicate it in process, and -shard-addrs/-shard-spawn move each
	// shard replica into its own OS process over TCP. Every /api response
	// stays byte-identical across all of them (the differential harness's
	// guarantee).
	opts := shard.Options{Shards: *shards, Replicas: *replicas}
	var sup *shard.Supervisor
	switch {
	case *shardSpawn:
		var groups [][]string
		if sup, groups, err = spawnWireCluster(context.Background(), *shards, *replicas); err != nil {
			return err
		}
		defer sup.Stop()
		if opts.Clients, err = wireClients(groups); err != nil {
			return err
		}
	case *shardAddrs != "":
		groups, err := parseShardAddrs(*shardAddrs)
		if err != nil {
			return err
		}
		opts.Shards, opts.Replicas = len(groups), len(groups[0])
		if opts.Clients, err = wireClients(groups); err != nil {
			return err
		}
	}
	cluster, err := shard.New(opts)
	if err != nil {
		return err
	}
	if _, err := cluster.Load(context.Background(), snap); err != nil {
		return err
	}
	if sup != nil {
		// A restarted replica process comes back empty (version 0); the
		// restore hook republishes its partition above the epoch fence so
		// the version vector never regresses.
		sup.SetOnRestore(func(ctx context.Context, spec shard.ProcSpec) error {
			_, err := cluster.Rehydrate(ctx, spec.Shard)
			return err
		})
		slog.Info("spawned shard processes", "shards", cluster.Shards(), "replicas", cluster.Replicas())
	}
	var mgr *jobs.Manager
	if *jobsOn {
		mgr = jobs.NewManager(jobs.Config{
			MaxRunning: *maxRunning,
			QueueDepth: *queueDepth,
		})
	}
	var traces *otrace.Store
	if *traceCap > 0 {
		traces = otrace.NewStore(*traceCap)
	}
	srv, err := serve.New(serve.Config{
		Cluster:        cluster,
		Samples:        *samples,
		Workers:        *workers,
		QueueDepth:     *queue,
		RequestTimeout: *timeout,
		CacheSize:      *cacheSize,
		Jobs:           mgr,
		Traces:         traces,
		// The access log emits at Info through the process logger, so
		// -quiet (level Warn) suppresses it and -v keeps it alongside
		// debug logs — one wide event per request either way.
		AccessLog: slog.Default(),
	})
	if err != nil {
		return err
	}
	url, stopHTTP, err := serveHTTP(*listen, srv.Handler())
	if err != nil {
		return err
	}
	endpoints := "/api/runs /api/behavior/{key} /api/ensemble/design /api/ensemble/best /api/predict /api/corpus /metrics /statusz /debug/pprof/"
	if mgr != nil {
		endpoints += " /api/campaigns /api/jobs"
	}
	if traces != nil {
		endpoints += " /debug/traces"
	}
	slog.Info("ensemble-design API listening",
		"url", url,
		"corpus", *runsPath,
		"records", len(snap.Records),
		"okRuns", snap.OKCount(),
		"poolSize", snap.PoolSize(),
		"shards", cluster.Shards(),
		"replicas", cluster.Replicas(),
		"jobs", *jobsOn,
		"endpoints", endpoints)

	// Serve until SIGINT/SIGTERM, then drain within the -drain budget.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	slog.Info("shutting down; draining in-flight requests", "budget", *drain)
	return stopServe(mgr, stopHTTP, *drain)
}

// stopServe is serve's shutdown sequence, both steps within one drain
// budget. The job manager closes first: it refuses new campaigns,
// cancels queued and running ones and waits for them to finalize, so
// their checkpoints are flushed and their NDJSON event streams — which
// no request deadline bounds — end. Then HTTP drains the remaining
// in-flight requests, design searches holding worker slots included.
// In the other order the drain would wait out the budget on any open
// event stream.
func stopServe(mgr *jobs.Manager, stopHTTP func(time.Duration) error, drain time.Duration) error {
	deadline := time.Now().Add(drain)
	if mgr != nil {
		ctx, cancel := context.WithDeadline(context.Background(), deadline)
		err := mgr.Close(ctx)
		cancel()
		if err != nil {
			slog.Warn("job manager drain incomplete", "err", err)
		}
	}
	if err := stopHTTP(time.Until(deadline)); err != nil {
		return fmt.Errorf("drain exceeded %s: %w", drain, err)
	}
	return nil
}
