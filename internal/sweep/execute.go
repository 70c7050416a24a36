package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"gcbench/internal/algorithms"
	"gcbench/internal/behavior"
	"gcbench/internal/gen"
	"gcbench/internal/graph"
	"gcbench/internal/model"
	"gcbench/internal/trace"
)

// Config controls campaign execution.
//
// Two parallelism knobs compose: Parallel bounds how many *runs* execute
// concurrently, while Workers is the engine parallelism *within* each
// run. Total engine goroutines peak near Parallel × Workers, so a
// throughput-oriented campaign uses Parallel = cores with Workers = 1,
// whereas faithful per-run WORK timing wants Parallel = 1 with
// Workers = cores; the defaults split the difference.
type Config struct {
	// Workers is the engine parallelism within one run (0 = GOMAXPROCS).
	Workers int
	// Parallel is how many runs execute concurrently (0 = GOMAXPROCS/2,
	// min 1). Runs are independent; graph construction is cached and
	// shared.
	Parallel int
	// Progress, when non-nil, is called after every finished spec —
	// succeeded, failed, timed out, cancelled, or skipped via resume —
	// so done reaches total even on an all-failure campaign. Calls are
	// serialized; id is the finished spec's ID.
	Progress func(done, total int, id string)

	// Timeout is the per-attempt wall-clock budget of one run (0 = no
	// limit). Enforced cooperatively at engine iteration barriers.
	Timeout time.Duration
	// Retries is how many extra attempts a failed or timed-out run gets
	// before it is recorded as failed (0 = single attempt).
	Retries int
	// RetryBackoff is the wait before the first retry, doubling per
	// subsequent attempt (default 100ms when Retries > 0).
	RetryBackoff time.Duration
	// Journal, when non-nil, receives a checkpoint record after every
	// completed or failed run, and its previously completed entries are
	// restored instead of re-executed (resume).
	Journal *Journal
	// InjectFault, when non-nil, is consulted before every attempt; a
	// non-nil error fails that attempt. Deterministic fault injection for
	// testing isolation, retry and resume behavior (see FaultRate).
	InjectFault func(Spec) error
	// Tracker, when non-nil, observes the campaign live (attempt starts,
	// finished specs) and serves point-in-time snapshots — the /statusz
	// data source.
	Tracker *Tracker
	// Frontier selects the engine's active-set scheduling strategy for
	// every run (default FrontierAuto). Behavior metrics are invariant to
	// it; only execution speed differs.
	Frontier algorithms.FrontierMode
}

// Execute runs every spec and returns the behavior corpus in spec order.
// It is ExecuteContext with a background context.
func Execute(specs []Spec, cfg Config) ([]*behavior.Run, error) {
	return ExecuteContext(context.Background(), specs, cfg)
}

// ExecuteContext runs every spec and returns the behavior corpus in spec
// order. Unlike ExecuteCampaign it fails the whole sweep if any run
// failed — but only after every other run has completed (and, when
// cfg.Journal is set, been checkpointed), so a retry of the same
// campaign can resume rather than start over.
func ExecuteContext(ctx context.Context, specs []Spec, cfg Config) ([]*behavior.Run, error) {
	res, err := ExecuteCampaign(ctx, specs, cfg)
	if err != nil {
		return nil, err
	}
	if res.Failed > 0 {
		f := res.FirstFailure()
		return nil, fmt.Errorf("sweep: %d/%d runs failed; first: run %s (attempts=%d): %s",
			res.Failed, len(specs), f.Spec.ID(), f.Attempts, f.Err)
	}
	return res.Runs, nil
}

// graphCache shares generated graphs between algorithms in the same
// domain group, as the paper shares one graph per structure.
//
// Builds are deduplicated in flight (singleflight): when a campaign
// launches with Parallel ≈ cores, every run of the first wave asks for
// the same few graphs at once, and letting each build its own copy
// multiplies peak RSS by the parallelism degree on the largest size.
// The first caller builds; everyone else blocks on the entry's ready
// channel and shares the result.
type graphCache struct {
	mu   sync.Mutex
	m    map[string]*cacheEntry
	refs map[string]int // remaining users per key (nil = retain forever)
}

// cacheEntry is one build, possibly still in flight.
type cacheEntry struct {
	ready chan struct{} // closed when v/err are final
	v     any
	err   error
}

func (c *graphCache) getOrBuild(key string, build func() (any, error)) (any, error) {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[string]*cacheEntry)
	}
	if e, ok := c.m[key]; ok {
		c.mu.Unlock()
		<-e.ready
		return e.v, e.err
	}
	e := &cacheEntry{ready: make(chan struct{})}
	c.m[key] = e
	c.mu.Unlock()
	e.v, e.err = build()
	if e.err != nil {
		// Failed builds are not cached: a retried attempt must rebuild
		// rather than replay the error forever. Concurrent waiters of
		// this entry still observe the failure.
		c.mu.Lock()
		if c.m[key] == e {
			delete(c.m, key)
		}
		c.mu.Unlock()
	}
	close(e.ready)
	return e.v, e.err
}

// retain declares how many campaign specs will request each key, enabling
// release-at-zero eviction. Without a retain call the cache keeps every
// entry for its lifetime (the single-run and test paths).
func (c *graphCache) retain(counts map[string]int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.refs = counts
}

// release records that one spec holding key is done with it; the entry is
// evicted when no remaining spec needs it, so a full sizes × alphas
// campaign no longer retains every graph simultaneously. No-op for empty
// keys and for caches without a retain'd plan.
func (c *graphCache) release(key string) {
	if key == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.refs == nil {
		return
	}
	if n := c.refs[key] - 1; n > 0 {
		c.refs[key] = n
	} else {
		delete(c.refs, key)
		delete(c.m, key)
	}
}

// entries returns the number of cached (or in-flight) graphs.
func (c *graphCache) entries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// cfGraph pairs a rating graph with its user count.
type cfGraph struct {
	g     *graph.Graph
	users int
}

// cacheKey returns the shared-graph cache key of the spec, or "" for
// workloads generated per run (Jacobi, LBP, DD).
func (s Spec) cacheKey() string {
	switch s.Algorithm {
	case algorithms.CC, algorithms.KC, algorithms.TC, algorithms.SSSP,
		algorithms.PR, algorithms.AD, algorithms.KM:
		return fmt.Sprintf("ga/%d/%.2f/%d", s.NumEdges, s.Alpha, s.Seed)
	case algorithms.ALS, algorithms.NMF, algorithms.SGD, algorithms.SVD:
		return fmt.Sprintf("cf/%d/%.2f/%d", s.NumEdges, s.Alpha, s.Seed)
	}
	return ""
}

// RunSpec executes one graph computation and converts its trace into a
// behavior run. cache may be nil.
func RunSpec(spec Spec, workers int, cache *graphCache) (*behavior.Run, error) {
	return RunSpecContext(context.Background(), spec, workers, cache)
}

// RunSpecContext is RunSpec under a context: a cancelled or expired ctx
// stops the computation at its next engine iteration barrier and returns
// an error wrapping ctx.Err().
func RunSpecContext(ctx context.Context, spec Spec, workers int, cache *graphCache) (*behavior.Run, error) {
	run, _, err := runSpecTrace(ctx, spec, workers, algorithms.FrontierAuto, cache)
	return run, err
}

// RunSpecTrace executes one spec under the given frontier schedule and
// returns the behavior run together with the full engine trace —
// per-iteration counters plus the phase spans and modes the Chrome trace
// export renders.
func RunSpecTrace(ctx context.Context, spec Spec, workers int, frontier algorithms.FrontierMode) (*behavior.Run, *trace.RunTrace, error) {
	return runSpecTrace(ctx, spec, workers, frontier, nil)
}

// runSpecTrace executes one spec through its execution model: the
// workload (graph, rating matrix, linear system or MRF) is built — or
// fetched from the campaign's shared cache, which is keyed on structure
// alone so every model sweeping the same graph shares one copy — and
// handed to the model implementation the spec names.
func runSpecTrace(ctx context.Context, spec Spec, workers int, frontier algorithms.FrontierMode, cache *graphCache) (*behavior.Run, *trace.RunTrace, error) {
	if cache == nil {
		cache = &graphCache{}
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	m, err := model.ForName(spec.EffectiveModel())
	if err != nil {
		return nil, nil, fmt.Errorf("sweep: %w", err)
	}
	if !m.Supports(spec.Algorithm) {
		return nil, nil, fmt.Errorf("sweep: model %s does not implement algorithm %s", m.Name(), spec.Algorithm)
	}
	w, err := specWorkload(spec, cache)
	if err != nil {
		return nil, nil, err
	}
	out, err := m.Run(ctx, w, spec.Algorithm, model.Options{
		Workers:  workers,
		Context:  ctx,
		Frontier: frontier,
		Seed:     spec.Seed,
	})
	if err != nil {
		return nil, nil, err
	}

	r := &behavior.Run{
		Algorithm:      string(spec.Algorithm),
		Model:          model.Tag(spec.EffectiveModel()),
		Domain:         spec.Algorithm.Domain(),
		NumEdges:       out.Trace.NumEdges,
		Alpha:          spec.Alpha,
		SizeLabel:      spec.SizeLabel,
		Iterations:     out.Trace.NumIterations(),
		Converged:      out.Trace.Converged,
		ActiveFraction: out.Trace.ActiveFraction(),
		Raw:            behavior.FromTrace(out.Trace),
	}
	return r, out.Trace, nil
}

// specWorkload assembles (or fetches from the shared cache) the input
// the spec's algorithm runs over. Graph-shaped workloads are cached per
// structure — never per model — so a multi-model campaign builds each
// graph once.
func specWorkload(spec Spec, cache *graphCache) (model.Workload, error) {
	switch spec.Algorithm {
	case algorithms.CC, algorithms.KC, algorithms.TC, algorithms.SSSP,
		algorithms.PR, algorithms.AD, algorithms.KM:
		g, err := gaGraph(spec, cache)
		if err != nil {
			return model.Workload{}, err
		}
		return model.Workload{Graph: g}, nil

	case algorithms.ALS, algorithms.NMF, algorithms.SGD, algorithms.SVD:
		v, err := cache.getOrBuild(spec.cacheKey(), func() (any, error) {
			g, users, err := gen.Bipartite(gen.BipartiteConfig{
				NumEdges: spec.NumEdges, Alpha: spec.Alpha, Seed: spec.Seed,
			})
			if err != nil {
				return nil, err
			}
			return cfGraph{g, users}, nil
		})
		if err != nil {
			return model.Workload{}, err
		}
		cg := v.(cfGraph)
		return model.Workload{Ratings: cg.g, Users: cg.users}, nil

	case algorithms.Jacobi:
		sys, err := gen.Matrix(gen.JacobiConfig{NumRows: spec.NumRows, Seed: spec.Seed})
		if err != nil {
			return model.Workload{}, err
		}
		return model.Workload{System: sys}, nil

	case algorithms.LBP:
		m, err := gen.Grid(gen.GridConfig{Rows: spec.NumRows, Seed: spec.Seed})
		if err != nil {
			return model.Workload{}, err
		}
		return model.Workload{MRF: m}, nil

	case algorithms.DD:
		m, err := gen.MRF(gen.MRFConfig{NumEdges: spec.NumEdges, Seed: spec.Seed})
		if err != nil {
			return model.Workload{}, err
		}
		return model.Workload{MRF: m}, nil
	}
	return model.Workload{}, fmt.Errorf("sweep: unknown algorithm %q", spec.Algorithm)
}

// gaEntry is the cached Graph Analytics / Clustering graph of one
// structure. Only K-Means reads vertex features, so they are drawn by the
// first KM spec that uses the entry, not with the graph.
type gaEntry struct {
	g        *graph.Graph
	features sync.Once
	err      error // of attaching the features
}

// gaGraph builds (or fetches) the shared Graph Analytics / Clustering
// graph for a spec: undirected, sorted adjacency (for TC), and, once a KM
// spec has asked for it, 2-D Gaussian features. Specs of other algorithms
// may be running over the graph while the features are attached; they
// never read them, and KM specs meet at the Once.
func gaGraph(spec Spec, cache *graphCache) (*graph.Graph, error) {
	v, err := cache.getOrBuild(spec.cacheKey(), func() (any, error) {
		g, err := gen.PowerLaw(gen.PowerLawConfig{
			NumEdges:      spec.NumEdges,
			Alpha:         spec.Alpha,
			Seed:          spec.Seed,
			SortAdjacency: true,
		})
		if err != nil {
			return nil, err
		}
		return &gaEntry{g: g}, nil
	})
	if err != nil {
		return nil, err
	}
	e := v.(*gaEntry)
	if spec.Algorithm == algorithms.KM {
		e.features.Do(func() {
			pts := gen.GaussianPoints2D(e.g.NumVertices(), 8, 15, spec.Seed^0xfeed)
			e.err = e.g.SetFeatures(2, pts)
		})
		if e.err != nil {
			return nil, e.err
		}
	}
	return e.g, nil
}

// SaveRuns writes the corpus as JSON.
func SaveRuns(w io.Writer, runs []*behavior.Run) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(runs)
}

// LoadRuns reads a corpus written by SaveRuns.
func LoadRuns(r io.Reader) ([]*behavior.Run, error) {
	var runs []*behavior.Run
	if err := json.NewDecoder(r).Decode(&runs); err != nil {
		return nil, fmt.Errorf("sweep: decoding runs: %w", err)
	}
	return runs, nil
}

// SaveRunsFile and LoadRunsFile are path convenience wrappers.
func SaveRunsFile(path string, runs []*behavior.Run) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := SaveRuns(f, runs); err != nil {
		return err
	}
	return f.Close()
}

// LoadRunsFile reads a corpus file.
func LoadRunsFile(path string) ([]*behavior.Run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadRuns(f)
}
