package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"gcbench/internal/algorithms"
	"gcbench/internal/behavior"
	"gcbench/internal/gen"
	"gcbench/internal/graph"
	"gcbench/internal/model"
	"gcbench/internal/sweep"
	"gcbench/internal/trace"
)

// planFor rebuilds the spec list `gcbench sweep -profile P -models M
// -algs A -seed S` executes, the way cmd/gcbench does.
func planFor(cfg config) ([]sweep.Spec, error) {
	var models []model.Name
	for _, m := range strings.Split(cfg.models, ",") {
		switch m = strings.TrimSpace(m); {
		case m == "":
		case strings.EqualFold(m, "all"):
			models = append(models, model.AllNames()...)
		default:
			n, err := model.Parse(m)
			if err != nil {
				return nil, err
			}
			models = append(models, n)
		}
	}
	plan, err := sweep.BuildPlanModels(sweep.Profile(cfg.profile), cfg.seed, models)
	if err != nil {
		return nil, err
	}
	if cfg.algs == "" {
		return plan, nil
	}
	keep := map[algorithms.Name]bool{}
	for _, a := range strings.Split(cfg.algs, ",") {
		name, err := algorithms.Parse(strings.TrimSpace(a))
		if err != nil {
			return nil, err
		}
		keep[name] = true
	}
	var specs []sweep.Spec
	for _, s := range plan {
		if keep[s.Algorithm] {
			specs = append(specs, s)
		}
	}
	return specs, nil
}

// structureKey identifies the generated structure a spec runs over: specs
// with one key share one graph, as the sweep's own cache has it. Solver
// and MRF workloads are generated per run and have no key.
func structureKey(s sweep.Spec) string {
	switch s.Algorithm {
	case algorithms.CC, algorithms.KC, algorithms.TC, algorithms.SSSP,
		algorithms.PR, algorithms.AD, algorithms.KM:
		return fmt.Sprintf("ga/%d/%.2f/%d", s.NumEdges, s.Alpha, s.Seed)
	case algorithms.ALS, algorithms.NMF, algorithms.SGD, algorithms.SVD:
		return fmt.Sprintf("cf/%d/%.2f/%d", s.NumEdges, s.Alpha, s.Seed)
	}
	return ""
}

// replay executes specs one by one, layer by layer, with a span around
// every call, and accumulates the per-layer sums.
type replay struct {
	ctx context.Context
	tr  *tracer

	cache map[string]model.Workload
	refs  map[string]int

	genS, genEdges, genAlloc float64
	structures               int
	csrS, csrArcs            float64
	rebuildS                 float64 // the CSR rebuild with its arc collection: the benchmark's own extra work
	modelS                   map[model.Name]float64
	algS                     map[algorithms.Name]float64
	fromTraceS               float64

	gatherS, applyS, scatterS, barrierS, iterWallS float64
	iterations, updates, edgeReads, messages       int64
	busyMax, busyMean                              float64
	sparsePhases, scanPhases                       int

	runs []*behavior.Run
}

func newReplay(ctx context.Context, tr *tracer, specs []sweep.Spec) *replay {
	r := &replay{ctx: ctx, tr: tr, cache: map[string]model.Workload{}, refs: map[string]int{},
		modelS: map[model.Name]float64{}, algS: map[algorithms.Name]float64{}}
	for _, s := range specs {
		if k := structureKey(s); k != "" {
			r.refs[k]++
		}
	}
	return r
}

// generate times one generator call and charges it to the gen layer,
// with the bytes it allocated.
func (r *replay) generate(name string, edges func() int64, fn func() error) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var err error
	took := r.tr.in(name, "gen", func() { err = fn() })
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	r.genS += took
	r.genAlloc += float64(after.TotalAlloc - before.TotalAlloc)
	r.genEdges += float64(edges())
	r.structures++
	return nil
}

// rebuildCSR re-runs graph.Builder.Build over a generated graph's arcs,
// which is how the CSR build inside the generators gets a row of its own
// without touching them. The input is the deduplicated edge set, so it
// slightly undercounts the generator's own Build (which also drops the
// duplicates and self-loops).
func (r *replay) rebuildCSR(g *graph.Graph) error {
	var b *graph.Builder
	r.rebuildS += r.tr.in("collect arcs", "bench", func() {
		b = graph.NewBuilder(g.NumVertices(), g.Directed()).Dedup()
		if g.AdjSorted() {
			b.SortAdjacency()
		}
		if g.Weighted() {
			b.Weighted()
		}
		for v := uint32(0); int(v) < g.NumVertices(); v++ {
			lo, hi := g.OutArcRange(v)
			for a := lo; a < hi; a++ {
				u := g.ArcTarget(a)
				if !g.Directed() && u < v {
					continue // each undirected edge once
				}
				b.AddWeightedEdge(v, u, g.ArcWeight(a))
			}
		}
	})
	var built *graph.Graph
	var err error
	took := r.tr.in("graph.Builder.Build", "graph", func() { built, err = b.Build() })
	if err != nil {
		return err
	}
	if built.NumArcs() != g.NumArcs() {
		return fmt.Errorf("CSR rebuild produced %d arcs, the generated graph has %d", built.NumArcs(), g.NumArcs())
	}
	r.csrS += took
	r.rebuildS += took
	r.csrArcs += float64(built.NumArcs())
	return nil
}

// workload assembles the spec's input through the public generators, the
// way sweep's unexported specWorkload does, sharing graphs by structure.
func (r *replay) workload(s sweep.Spec) (model.Workload, error) {
	key := structureKey(s)
	if w, ok := r.cache[key]; ok && key != "" {
		return w, nil
	}
	var w model.Workload
	var err error
	switch {
	case strings.HasPrefix(key, "ga/"):
		err = r.generate("gen.PowerLaw", func() int64 { return w.Graph.NumEdges() }, func() error {
			g, err := gen.PowerLaw(gen.PowerLawConfig{NumEdges: s.NumEdges, Alpha: s.Alpha, Seed: s.Seed, SortAdjacency: true})
			w.Graph = g
			return err
		})
		if err == nil {
			r.genS += r.tr.in("gen.GaussianPoints2D", "gen", func() {
				err = w.Graph.SetFeatures(2, gen.GaussianPoints2D(w.Graph.NumVertices(), 8, 15, s.Seed^0xfeed))
			})
		}
		if err == nil {
			err = r.rebuildCSR(w.Graph)
		}
	case strings.HasPrefix(key, "cf/"):
		err = r.generate("gen.Bipartite", func() int64 { return w.Ratings.NumEdges() }, func() error {
			g, users, err := gen.Bipartite(gen.BipartiteConfig{NumEdges: s.NumEdges, Alpha: s.Alpha, Seed: s.Seed})
			w.Ratings, w.Users = g, users
			return err
		})
		if err == nil {
			err = r.rebuildCSR(w.Ratings)
		}
	case s.Algorithm == algorithms.Jacobi:
		err = r.generate("gen.Matrix", func() int64 { return int64(s.NumRows) }, func() error {
			sys, err := gen.Matrix(gen.JacobiConfig{NumRows: s.NumRows, Seed: s.Seed})
			w.System = sys
			return err
		})
	case s.Algorithm == algorithms.LBP:
		err = r.generate("gen.Grid", func() int64 { return int64(s.NumRows) * int64(s.NumRows) }, func() error {
			m, err := gen.Grid(gen.GridConfig{Rows: s.NumRows, Seed: s.Seed})
			w.MRF = m
			return err
		})
	case s.Algorithm == algorithms.DD:
		err = r.generate("gen.MRF", func() int64 { return s.NumEdges }, func() error {
			m, err := gen.MRF(gen.MRFConfig{NumEdges: s.NumEdges, Seed: s.Seed})
			w.MRF = m
			return err
		})
	default:
		err = fmt.Errorf("no generator for algorithm %q", s.Algorithm)
	}
	if err != nil {
		return model.Workload{}, err
	}
	if key != "" {
		r.cache[key] = w
	}
	return w, nil
}

// release drops a shared structure once its last spec has run, so the
// replay's memory follows the sweep's.
func (r *replay) release(s sweep.Spec) {
	if k := structureKey(s); k != "" {
		if r.refs[k]--; r.refs[k] <= 0 {
			delete(r.cache, k)
		}
	}
}

// spec runs one spec: generate (or fetch), Model.Run, FromTrace.
func (r *replay) spec(s sweep.Spec) error {
	var err error
	r.tr.in("spec "+s.ID(), "sweep", func() {
		defer r.release(s)
		var m model.Model
		if m, err = model.ForName(s.EffectiveModel()); err != nil {
			return
		}
		var w model.Workload
		if w, err = r.workload(s); err != nil {
			return
		}
		var out *model.Result
		took := r.tr.in("model."+string(m.Name())+".Run", "model", func() {
			out, err = m.Run(r.ctx, w, s.Algorithm, model.Options{Context: r.ctx, Frontier: algorithms.FrontierAuto, Seed: s.Seed})
		})
		if err != nil {
			return
		}
		r.modelS[m.Name()] += took
		r.algS[s.Algorithm] += took
		r.engine(out.Trace)

		run := &behavior.Run{
			Algorithm: string(s.Algorithm), Model: model.Tag(s.EffectiveModel()), Domain: s.Algorithm.Domain(),
			NumEdges: out.Trace.NumEdges, Alpha: s.Alpha, SizeLabel: s.SizeLabel,
			Iterations: out.Trace.NumIterations(), Converged: out.Trace.Converged,
			ActiveFraction: out.Trace.ActiveFraction(),
		}
		r.fromTraceS += r.tr.in("behavior.FromTrace", "behavior", func() { run.Raw = behavior.FromTrace(out.Trace) })
		r.runs = append(r.runs, run)
	})
	if err != nil {
		return fmt.Errorf("replaying %s: %w", s.ID(), err)
	}
	return nil
}

// engine folds one run's trace into the engine-layer sums.
func (r *replay) engine(t *trace.RunTrace) {
	for _, it := range t.Iterations {
		r.iterations++
		r.updates += it.Updates
		r.edgeReads += it.EdgeReads
		r.messages += it.Messages
		r.gatherS += it.GatherWall.Seconds()
		r.applyS += it.ApplyWall.Seconds()
		r.scatterS += it.ScatterWall.Seconds()
		r.barrierS += it.BarrierTime.Seconds()
		r.iterWallS += it.WallTime.Seconds()
		for _, mode := range []string{it.GatherMode, it.ApplyMode, it.ScatterMode} {
			if mode != "" {
				r.scanPhases++
			}
			if mode == "sparse" {
				r.sparsePhases++
			}
		}
		var busiest, total time.Duration
		for _, ws := range it.WorkerSpans {
			busy := ws.Gather + ws.Apply + ws.Scatter
			total += busy
			busiest = max(busiest, busy)
		}
		if n := len(it.WorkerSpans); n > 0 {
			r.busyMax += busiest.Seconds()
			r.busyMean += total.Seconds() / float64(n)
		}
	}
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// campaignPass is the traced pass of a campaign workload.
func campaignPass(ctx context.Context, cfg config, tr *tracer) (map[string]float64, string, error) {
	specs, err := planFor(cfg)
	if err != nil {
		return nil, "", err
	}
	if len(specs) == 0 {
		return nil, "", fmt.Errorf("no specs match -algs %s -models %s", cfg.algs, cfg.models)
	}
	m := map[string]float64{}

	// The replay, between two MemStats readings.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rp := newReplay(ctx, tr, specs)
	replayS := tr.in("replay", "bench", func() {
		for _, s := range specs {
			if err = rp.spec(s); err != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, "", err
	}
	runtime.ReadMemStats(&after)
	m["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	m["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	m["runtime.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)

	m["gen.generate_s"] = rp.genS
	m["gen.structures"] = float64(rp.structures)
	m["gen.edges_per_s"] = div(rp.genEdges, rp.genS)
	m["gen.alloc_bytes_per_edge"] = div(rp.genAlloc, rp.genEdges)
	m["graph.csr_build_s"] = rp.csrS
	m["graph.arcs"] = rp.csrArcs
	m["graph.csr_arcs_per_s"] = div(rp.csrArcs, rp.csrS)
	for _, name := range model.AllNames() {
		m["model."+string(name)+".run_s"] = rp.modelS[name]
	}
	m["engine.gather_s"], m["engine.apply_s"] = rp.gatherS, rp.applyS
	m["engine.scatter_s"], m["engine.barrier_s"] = rp.scatterS, rp.barrierS
	m["engine.iterations"], m["engine.updates"] = float64(rp.iterations), float64(rp.updates)
	m["engine.edge_reads"], m["engine.messages"] = float64(rp.edgeReads), float64(rp.messages)
	m["engine.medge_reads_per_s"] = div(float64(rp.edgeReads), rp.iterWallS) / 1e6
	m["engine.worker_imbalance"] = div(rp.busyMax, rp.busyMean)
	m["engine.sparse_phase_share"] = div(float64(rp.sparsePhases), float64(rp.scanPhases))

	// DD is left out of the timed sweep (it would be most of it); its four
	// specs are replayed here, outside the digest, so DD still has a row.
	if cfg.dd {
		full, err := sweep.BuildPlan(sweep.Profile(cfg.profile), cfg.seed)
		if err != nil {
			return nil, "", err
		}
		ddr := newReplay(ctx, tr, nil)
		tr.in("replay DD", "bench", func() {
			for _, s := range full {
				if s.Algorithm == algorithms.DD && err == nil {
					err = ddr.spec(s)
				}
			}
		})
		if err != nil {
			return nil, "", err
		}
		rp.algS[algorithms.DD] = ddr.algS[algorithms.DD]
	}
	for _, a := range algorithms.AllNames() {
		m["algorithms."+string(a)+".run_s"] = rp.algS[a]
	}

	// The corpus the replay produced, for the digest check in bench.
	runsPath := filepath.Join(cfg.dir, "inproc-runs.json")
	m["sweep.save_runs_s"] = tr.in("sweep.SaveRunsFile", "sweep", func() { err = sweep.SaveRunsFile(runsPath, rp.runs) })
	if err != nil {
		return nil, "", err
	}

	m["behavior.normalize_s"] = rp.fromTraceS + tr.in("behavior.NewSpace", "behavior", func() { _, err = behavior.NewSpace(rp.runs) })
	if err != nil {
		return nil, "", err
	}

	// The same campaign through the product's own executor, journal off,
	// one run at a time like the replay: its wall over gen and model time
	// is what the sweep layer itself costs, and the replay's wall over
	// its wall is what the spans (and the replay's own bookkeeping) cost.
	var res *sweep.CampaignResult
	executeS := tr.in("sweep.ExecuteCampaign", "sweep", func() {
		res, err = sweep.ExecuteCampaign(ctx, specs, sweep.Config{Parallel: 1})
	})
	if err != nil {
		return nil, "", err
	}
	if res.Failed > 0 {
		return nil, "", fmt.Errorf("in-process campaign: %d runs failed; first: %s", res.Failed, res.FirstFailure().Err)
	}
	var modelS float64
	for _, v := range rp.modelS {
		modelS += v
	}
	m["sweep.execute_s"] = executeS
	m["sweep.overhead_s"] = executeS - rp.genS - modelS
	// The CSR rebuild is the benchmark's own extra work inside the replay,
	// not tracing; leave it out.
	m["bench.trace_overhead_ratio"] = div(replayS-rp.rebuildS, executeS)

	// The checkpoint journal: every result recorded in turn, as the
	// executor would have, each Record rewriting and syncing the file.
	var bytesWritten int64
	jpath := filepath.Join(cfg.dir, "inproc.journal")
	m["sweep.journal_record_s"] = tr.in("sweep.Journal", "sweep", func() {
		var j *sweep.Journal
		if j, err = sweep.OpenJournal(jpath); err != nil {
			return
		}
		for _, rr := range res.Results {
			tr.in("sweep.Journal.Record", "sweep", func() {
				err = j.Record(sweep.JournalEntry{
					ID: rr.Spec.ID(), Spec: rr.Spec, Status: rr.Status, Attempts: rr.Attempts,
					DurationMs: rr.Duration.Milliseconds(), Err: rr.Err, Run: rr.Run, Provenance: rr.Provenance,
				})
			})
			if err != nil {
				return
			}
			if st, serr := os.Stat(jpath); serr == nil {
				bytesWritten += st.Size()
			}
		}
		m["sweep.journal_records"] = float64(j.Len())
	})
	if err != nil {
		return nil, "", err
	}
	m["sweep.journal_bytes_written"] = float64(bytesWritten)
	return m, runsPath, nil
}
