package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sort"

	"gcbench/internal/behavior"
	"gcbench/internal/corpus"
	"gcbench/internal/ensemble"
	"gcbench/internal/predict"
	"gcbench/internal/shard"
	"gcbench/internal/sweep"
)

// repeats is how often a one-shot build is repeated; the row is the
// median, so a GC pause in one of them does not read as the layer's cost.
const repeats = 5

func medianOf(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// timed runs fn n times, each in its own span, and returns the median
// span duration in seconds.
func timed(tr *tracer, name, layer string, n int, fn func() error) (float64, error) {
	var took []float64
	for i := 0; i < n; i++ {
		var err error
		d := tr.in(name, layer, func() { err = fn() })
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		took = append(took, d)
	}
	return medianOf(took), nil
}

// perCall runs fn n times inside one span (a span per call would cost
// more than the microsecond calls it measures) and returns the mean
// seconds per call.
func perCall(tr *tracer, name, layer string, n int, fn func(i int) error) (float64, error) {
	var err error
	total := tr.in(name, layer, func() {
		for i := 0; i < n && err == nil; i++ {
			err = fn(i)
		}
	})
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	return total / float64(n), nil
}

// The filters and queries of the read mix (bench/schedule.go).
var (
	mixFilters = []corpus.Filter{
		{Algorithms: []string{"PR"}},
		{Algorithms: []string{"CC", "KC"}, Sizes: []string{"1e5"}},
		{Statuses: []behavior.RunStatus{behavior.StatusOK}},
	}
	mixQueries = []predict.Query{
		{Algorithm: "PR", NumEdges: 500000, Alpha: 2.1},
		{Algorithm: "PR", NumEdges: 1200000, Alpha: 1.9},
		{Algorithm: "CC", NumEdges: 800000, Alpha: 2.3},
		{Algorithm: "SSSP", NumEdges: 250000, Alpha: 2.0},
	}
)

// servePass calls the serve-side layers directly over the served corpus:
// corpus store, predictor, ensemble search and the shard tier in its
// in-process and wire shapes. Nothing here goes through the HTTP server.
func servePass(ctx context.Context, cfg config, tr *tracer) (map[string]float64, error) {
	m := map[string]float64{}
	var err error

	// corpus
	var snap *corpus.Snapshot
	if m["corpus.load_file_s"], err = timed(tr, "corpus.LoadFile", "corpus", repeats, func() error {
		snap, err = corpus.LoadFile(cfg.corpus)
		return err
	}); err != nil {
		return nil, err
	}
	runs, err := sweep.LoadRunsFile(cfg.corpus)
	if err != nil {
		return nil, err
	}
	if m["corpus.snapshot_build_s"], err = timed(tr, "corpus.NewSnapshotFromRuns", "corpus", repeats, func() error {
		_, err := corpus.NewSnapshotFromRuns(runs, cfg.corpus)
		return err
	}); err != nil {
		return nil, err
	}
	sel, err := perCall(tr, "corpus.Snapshot.Select", "corpus", 3000, func(i int) error {
		if len(snap.Select(mixFilters[i%len(mixFilters)])) == 0 {
			return fmt.Errorf("filter %d selects nothing", i%len(mixFilters))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m["corpus.select_us"] = sel * 1e6
	look, err := perCall(tr, "corpus.Snapshot.Lookup", "corpus", 200000, func(i int) error {
		if _, ok := snap.Lookup(snap.Records[i%len(snap.Records)].Key); !ok {
			return fmt.Errorf("key of record %d not found", i%len(snap.Records))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m["corpus.lookup_ns"] = look * 1e9

	// The ten runs a serve-publish campaign publishes.
	plan, err := sweep.BuildPlan(sweep.ProfileQuick, cfg.seed)
	if err != nil {
		return nil, err
	}
	var specs []sweep.Spec
	for _, s := range plan {
		if (s.Algorithm == "PR" || s.Algorithm == "CC") && s.SizeLabel == "300" {
			specs = append(specs, s)
		}
	}
	fresh, err := sweep.Execute(specs, sweep.Config{})
	if err != nil {
		return nil, err
	}
	var appends []float64
	for i := 0; i < repeats; i++ {
		// A fresh store each time; only the Append is the row.
		base, err := corpus.NewSnapshotFromRuns(runs, cfg.corpus)
		if err != nil {
			return nil, err
		}
		store := corpus.NewStore(base)
		var grown *corpus.Snapshot
		took := tr.in("corpus.Store.Append", "corpus", func() { grown, err = store.Append(fresh, "bench") })
		if err != nil {
			return nil, err
		}
		if len(grown.Records) != len(base.Records)+len(fresh) {
			return nil, fmt.Errorf("append left %d records", len(grown.Records))
		}
		appends = append(appends, took)
	}
	m["corpus.append_ms"] = medianOf(appends) * 1000

	// predict
	var ok []*behavior.Run
	for i := range snap.Records {
		if r := snap.Records[i].Run; r != nil {
			ok = append(ok, r)
		}
	}
	var pred *predict.Predictor
	build, err := timed(tr, "predict.New", "predict", repeats, func() error {
		pred, err = predict.New(ok)
		return err
	})
	if err != nil {
		return nil, err
	}
	m["predict.index_build_ms"] = build * 1000
	pr, err := perCall(tr, "predict.Predictor.Predict", "predict", 20000, func(i int) error {
		_, err := pred.Predict(mixQueries[i%len(mixQueries)])
		return err
	})
	if err != nil {
		return nil, err
	}
	m["predict.predict_us"] = pr * 1e6

	// ensemble, over the design pool, at the sample count serve-design-cold
	// gives the server
	pool := snap.Pool.Points
	idx := make([]int, len(pool))
	for i := range idx {
		idx[i] = i
	}
	const size = 8
	var est *ensemble.CoverageEstimator
	eb, err := timed(tr, "ensemble.NewCoverageEstimator", "ensemble", repeats, func() error {
		est, err = ensemble.NewCoverageEstimator(cfg.samples, 0x5eed)
		return err
	})
	if err != nil {
		return nil, err
	}
	m["ensemble.estimator_build_ms"] = eb * 1000
	var best [][]int
	cg, err := timed(tr, "ensemble.BestCoverageGreedyCtx", "ensemble", repeats, func() error {
		best, err = ensemble.BestCoverageGreedyCtx(ctx, est, pool, idx, size)
		return err
	})
	if err != nil {
		return nil, err
	}
	m["ensemble.coverage_greedy_ms"] = cg * 1000
	ce, err := timed(tr, "ensemble.ImproveCoverageExchangeCtx", "ensemble", repeats, func() error {
		_, err := ensemble.ImproveCoverageExchangeCtx(ctx, est, pool, best[size], idx)
		return err
	})
	if err != nil {
		return nil, err
	}
	m["ensemble.coverage_exchange_ms"] = ce * 1000
	sg, err := timed(tr, "ensemble.BestSpreadGreedyCtx", "ensemble", repeats, func() error {
		_, err := ensemble.BestSpreadGreedyCtx(ctx, pool, idx, size)
		return err
	})
	if err != nil {
		return nil, err
	}
	m["ensemble.spread_greedy_us"] = sg * 1e6
	sa, err := timed(tr, "ensemble.AnnealSpreadCtx", "ensemble", repeats, func() error {
		_, _, err := ensemble.AnnealSpreadCtx(ctx, pool, idx, ensemble.AnnealOptions{Size: size, Seed: cfg.seed})
		return err
	})
	if err != nil {
		return nil, err
	}
	m["ensemble.spread_anneal_ms"] = sa * 1000

	// shard: the same 2×1 cluster with in-process shards, then with each
	// shard behind the wire protocol on a loopback listener.
	local, err := shard.New(shard.Options{Shards: 2, Replicas: 1})
	if err != nil {
		return nil, err
	}
	if err := loadCluster(ctx, local, runs, cfg.corpus); err != nil {
		return nil, err
	}
	sl, err := scatterCost(ctx, tr, "shard.Cluster.Scatter local", local, 3000)
	if err != nil {
		return nil, err
	}
	var clients []shard.ShardClient
	for i := 0; i < 2; i++ {
		ts := httptest.NewServer(shard.RPCHandler(shard.NewProcessShard(i)))
		defer ts.Close()
		rs, err := shard.NewReplicaSet(i, []shard.ShardClient{shard.NewRemoteShard(ts.URL, shard.RemoteOptions{Shard: i})}, nil)
		if err != nil {
			return nil, err
		}
		clients = append(clients, rs)
	}
	wire, err := shard.New(shard.Options{Shards: 2, Replicas: 1, Clients: clients})
	if err != nil {
		return nil, err
	}
	if err := loadCluster(ctx, wire, runs, cfg.corpus); err != nil {
		return nil, err
	}
	sw, err := scatterCost(ctx, tr, "shard.Cluster.Scatter wire", wire, 1000)
	if err != nil {
		return nil, err
	}
	gw, err := perCall(tr, "shard.Cluster.Get wire", "shard", 1000, func(i int) error {
		resp, err := wire.Get(ctx, snap.Records[i%len(snap.Records)].Key)
		if err == nil && !resp.Found {
			err = fmt.Errorf("record %d not found over the wire", i%len(snap.Records))
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	pw, err := timed(tr, "shard.Cluster.Append wire", "shard", 3, func() error {
		_, err := wire.Append(ctx, fresh, "bench")
		return err
	})
	if err != nil {
		return nil, err
	}
	m["shard.scatter_local_us"], m["shard.scatter_wire_us"] = sl*1e6, sw*1e6
	m["shard.get_wire_us"], m["shard.publish_wire_ms"] = gw*1e6, pw*1000
	m["shard.wire_tax_ratio"] = div(sw, sl)
	return m, nil
}

func loadCluster(ctx context.Context, c *shard.Cluster, runs []*behavior.Run, source string) error {
	snap, err := corpus.NewSnapshotFromRuns(runs, source)
	if err != nil {
		return err
	}
	_, err = c.Load(ctx, snap)
	return err
}

func scatterCost(ctx context.Context, tr *tracer, name string, c *shard.Cluster, n int) (float64, error) {
	return perCall(tr, name, "shard", n, func(i int) error {
		seqs, err := c.Scatter(ctx, mixFilters[i%len(mixFilters)], false)
		if err == nil && len(seqs) == 0 {
			err = fmt.Errorf("filter %d scatters to nothing", i%len(mixFilters))
		}
		return err
	})
}
