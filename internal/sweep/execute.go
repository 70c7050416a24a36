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
	"gcbench/internal/flight"
	"gcbench/internal/gen"
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
	// serialized; id is the finished spec's ID. Progress calls, journal
	// records and run spans arrive in dispatch (structure-major) order,
	// not spec order.
	Progress func(done, total int, id string)

	// Timeout is the per-attempt wall-clock budget of one run (0 = no
	// limit). Enforced cooperatively at engine iteration barriers.
	Timeout time.Duration
	// Retries is how many extra attempts a failed or timed-out run gets
	// before it is recorded as failed (0 or less = single attempt).
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

// Validate refuses a negative Parallel, Workers, Timeout, Retries or
// RetryBackoff, the knobs a campaign's entry points take from a user:
// each reads 0 as its default, and a negative value would quietly mean
// the same.
func (c Config) Validate() error {
	switch {
	case c.Parallel < 0:
		return fmt.Errorf("parallel must be ≥ 0, got %d", c.Parallel)
	case c.Workers < 0:
		return fmt.Errorf("workers must be ≥ 0, got %d", c.Workers)
	case c.Timeout < 0:
		return fmt.Errorf("timeout must be ≥ 0, got %v", c.Timeout)
	case c.Retries < 0:
		return fmt.Errorf("retries must be ≥ 0, got %d", c.Retries)
	case c.RetryBackoff < 0:
		return fmt.Errorf("backoff must be ≥ 0, got %v", c.RetryBackoff)
	}
	return nil
}

// Execute runs every spec and returns the behavior corpus in spec order.
// Unlike ExecuteCampaign it fails the whole sweep if any run failed — but
// only after every other run has completed (and, when cfg.Journal is
// set, been checkpointed), so a retry of the same campaign can resume
// rather than start over.
func Execute(specs []Spec, cfg Config) ([]*behavior.Run, error) {
	res, err := ExecuteCampaign(context.TODO(), specs, cfg)
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
// Builds are deduplicated in flight: when a campaign launches with
// Parallel ≈ cores, every run of the first wave asks for the same few
// graphs at once, and letting each build its own copy multiplies peak
// RSS by the parallelism degree on the largest size. The first caller
// builds; everyone else waits for it and shares the result.
type graphCache struct {
	mu     sync.Mutex
	m      map[string]any // finished builds
	refs   map[string]int // remaining users per key (nil = retain forever)
	flight flight.Group[any]
}

// getOrBuild returns the cached value of key, building it if no caller
// has yet. Failed builds are not cached: a retried attempt must rebuild
// rather than replay the error forever, while the concurrent waiters of
// the failed build still observe its error.
func (c *graphCache) getOrBuild(key string, build func() (any, error)) (any, error) {
	v, err, _ := c.flight.Do(context.Background(), key, func() (any, error) {
		c.mu.Lock()
		v, ok := c.m[key]
		c.mu.Unlock()
		if ok {
			return v, nil
		}
		v, err := build()
		if err == nil {
			c.mu.Lock()
			if c.m == nil {
				c.m = make(map[string]any)
			}
			c.m[key] = v
			c.mu.Unlock()
		}
		return v, err
	})
	return v, err
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

// entries returns the number of cached graphs.
func (c *graphCache) entries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// cacheKey returns the shared-graph cache key of the spec, or "" for
// workloads generated per run (Jacobi, LBP, DD). The graph-varying
// families are the ones more than one algorithm — and more than one
// execution model — runs over.
func (s Spec) cacheKey() string {
	if !s.Algorithm.GraphVarying() {
		return ""
	}
	return fmt.Sprintf("%s/%d/%.2f/%d", s.Algorithm.Family(), s.NumEdges, s.Alpha, s.Seed)
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

// generate builds the input of the spec's family — the one place a
// Family is tied to its generator, and the writing side of the
// Family-to-field mapping that model.Workload's check reads.
func generate(spec Spec) (w model.Workload, err error) {
	switch spec.Algorithm.Family() {
	case algorithms.FamilyGA:
		// Undirected, with sorted adjacency for TC.
		w.Graph, err = gen.PowerLaw(gen.PowerLawConfig{
			NumEdges: spec.NumEdges, Alpha: spec.Alpha, Seed: spec.Seed, SortAdjacency: true,
		})
	case algorithms.FamilyCF:
		w.Ratings, w.Users, err = gen.Bipartite(gen.BipartiteConfig{
			NumEdges: spec.NumEdges, Alpha: spec.Alpha, Seed: spec.Seed,
		})
	case algorithms.FamilyJacobi:
		w.System, err = gen.Matrix(gen.JacobiConfig{NumRows: spec.NumRows, Seed: spec.Seed})
	case algorithms.FamilyLBP:
		w.MRF, err = gen.Grid(gen.GridConfig{Rows: spec.NumRows, Seed: spec.Seed})
	case algorithms.FamilyDD:
		w.MRF, err = gen.MRF(gen.MRFConfig{NumEdges: spec.NumEdges, Seed: spec.Seed})
	default:
		err = fmt.Errorf("sweep: unknown algorithm %q", spec.Algorithm)
	}
	return w, err
}

// sharedWorkload is the cached workload of one graph structure. Only
// K-Means reads vertex features, so they are drawn by the first KM spec
// that uses the entry, not with the graph.
type sharedWorkload struct {
	w        model.Workload
	features sync.Once
	err      error // of attaching the features
}

// specWorkload assembles (or fetches from the shared cache) the input
// the spec's algorithm runs over. Graph-shaped workloads are cached per
// structure — never per model — so a multi-model campaign builds each
// graph once. Once a KM spec has asked for it, the shared graph carries
// 2-D Gaussian features; specs of other algorithms may be running over
// the graph while they are attached, but never read them, and KM specs
// meet at the Once.
func specWorkload(spec Spec, cache *graphCache) (model.Workload, error) {
	key := spec.cacheKey()
	if key == "" {
		return generate(spec)
	}
	v, err := cache.getOrBuild(key, func() (any, error) {
		w, err := generate(spec)
		if err != nil {
			return nil, err
		}
		return &sharedWorkload{w: w}, nil
	})
	if err != nil {
		return model.Workload{}, err
	}
	e := v.(*sharedWorkload)
	if spec.Algorithm == algorithms.KM {
		e.features.Do(func() {
			g := e.w.Graph
			e.err = g.SetFeatures(2, gen.GaussianPoints2D(g.NumVertices(), 8, 15, spec.Seed^0xfeed))
		})
		if e.err != nil {
			return model.Workload{}, e.err
		}
	}
	return e.w, nil
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
	for i, r := range runs {
		if r == nil {
			return nil, fmt.Errorf("sweep: decoding runs: run %d is null", i)
		}
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
