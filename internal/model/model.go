// Package model makes the execution model a first-class campaign axis:
// the four engines the repo carries — GAS vertex programs, Pregel
// bulk-synchronous message passing, X-Stream edge-centric streaming, and
// graph-centric partition-local fixed points — run behind one interface,
// so a sweep Spec can name its engine the same way it names its
// algorithm, and the behavior corpus can hold runs from all four side by
// side.
//
// The paper's §3.3 claims the basic behavior of graph computation is
// conserved across computation models: "transferring information through
// edges, performing computation on an independent unit, and activations".
// Every model here reports the same per-iteration trace vocabulary
// (trace.IterationStats), so behavior.FromTrace applies unchanged; what
// differs per model is which concrete event each counter measures. The
// mapping is documented in the behavior package (see behavior.Run.Model)
// and pinned by the cross-model invariance suite.
package model

import (
	"context"
	"fmt"
	"strings"

	"gcbench/internal/algorithms"
	"gcbench/internal/gen"
	"gcbench/internal/graph"
	"gcbench/internal/trace"
)

// Name identifies an execution model in sweeps, corpus records and the
// serving API.
type Name string

// Execution model names. GAS is the default: specs and corpus records
// written before the model axis existed carry no model field and are
// read as GAS.
const (
	GAS          Name = "gas"
	Pregel       Name = "pregel"
	XStream      Name = "xstream"
	GraphCentric Name = "graphcentric"
)

// AllNames lists every execution model, GAS first.
func AllNames() []Name {
	return []Name{GAS, Pregel, XStream, GraphCentric}
}

// Parse resolves a case-insensitive execution model name. The empty
// string resolves to GAS (the pre-model-axis default).
func Parse(s string) (Name, error) {
	if s == "" {
		return GAS, nil
	}
	for _, n := range AllNames() {
		if strings.EqualFold(s, string(n)) {
			return n, nil
		}
	}
	return "", fmt.Errorf("model: unknown execution model %q (known: %v)", s, AllNames())
}

// Canonical maps the stored form of a model tag to its effective name:
// the empty string (records and specs that predate the model axis) is
// GAS. It does not validate unknown names — use Parse for that.
func Canonical(s string) Name {
	if s == "" {
		return GAS
	}
	return Name(strings.ToLower(s))
}

// Tag returns the stored (wire/JSON) form of a model name: empty for
// GAS, so specs, runs and corpus records under the default model stay
// byte-identical to their pre-model-axis encoding.
func Tag(n Name) string {
	if Canonical(string(n)) == GAS {
		return ""
	}
	return string(n)
}

// Options configures one model run. It mirrors algorithms.Options with
// the extra fields the non-GAS engines and seeded algorithms need.
type Options struct {
	// Workers is the engine parallelism; 0 means GOMAXPROCS.
	Workers int
	// MaxIterations caps the run; 0 means the engine default.
	MaxIterations int
	// Context, when non-nil, cancels the computation cooperatively at
	// the next iteration/superstep barrier.
	Context context.Context
	// Frontier selects the GAS engine's active-set scheduling strategy
	// (ignored by the other models, which have no frontier scheduler).
	Frontier algorithms.FrontierMode
	// Seed feeds the seeded algorithms (KM initialization).
	Seed uint64
}

// Workload carries the pre-built inputs a model run consumes. Exactly
// the fields the algorithm's family (algorithms.Family) needs are set;
// the rest stay nil.
// Building (and caching) workloads is the caller's concern — models
// never generate graphs, so one generated graph is shared across every
// model that sweeps it.
type Workload struct {
	// Graph is the Graph Analytics / Clustering power-law graph
	// (undirected, sorted adjacency, 2-D features attached).
	Graph *graph.Graph
	// Ratings and Users are the Collaborative Filtering bipartite
	// rating graph and its user count.
	Ratings *graph.Graph
	Users   int
	// System is the Jacobi linear system.
	System *gen.MatrixSystem
	// MRF is the LBP grid or DD Markov random field.
	MRF *graph.MRF
}

// Result is one model run: the per-iteration behavior trace (the same
// vocabulary for every model, so behavior.FromTrace applies unchanged)
// plus algorithm-specific summary statistics used by the cross-model
// result-equivalence checks.
type Result struct {
	Trace   *trace.RunTrace
	Summary map[string]float64
}

// Model is one execution model: it runs a supported algorithm over a
// pre-built workload and reports the run's behavior trace. Implementations
// are stateless and safe for concurrent use.
type Model interface {
	// Name returns the model's canonical name.
	Name() Name
	// Supports reports whether the model implements alg.
	Supports(alg algorithms.Name) bool
	// Run executes alg over w. ctx (when non-nil) cancels cooperatively
	// at the model's iteration barrier; opt.Context, if also set, is
	// superseded by ctx.
	Run(ctx context.Context, w Workload, alg algorithms.Name, opt Options) (*Result, error)
}

// tableModel is the one Model implementation: a row of runners.
type tableModel struct {
	name Name
}

func (m tableModel) Name() Name { return m.name }

func (m tableModel) Supports(alg algorithms.Name) bool {
	_, ok := runners[m.name][alg]
	return ok
}

func (m tableModel) Run(ctx context.Context, w Workload, alg algorithms.Name, opt Options) (*Result, error) {
	run, ok := runners[m.name][alg]
	if !ok {
		return nil, unsupported(m.name, alg)
	}
	if err := w.check(m.name, alg); err != nil {
		return nil, err
	}
	opt.Context = runContext(ctx, opt)
	return run(m.name, w, opt)
}

// ForName returns the implementation of a model name.
func ForName(n Name) (Model, error) {
	c := Canonical(string(n))
	if _, ok := runners[c]; ok {
		return tableModel{c}, nil
	}
	return nil, fmt.Errorf("model: unknown execution model %q (known: %v)", n, AllNames())
}

// Supporting returns the models that implement alg, GAS first.
func Supporting(alg algorithms.Name) []Name {
	var ms []Name
	for _, n := range AllNames() {
		m, err := ForName(n)
		if err == nil && m.Supports(alg) {
			ms = append(ms, n)
		}
	}
	return ms
}

// runContext resolves the effective context of a run.
func runContext(ctx context.Context, opt Options) context.Context {
	if ctx != nil {
		return ctx
	}
	if opt.Context != nil {
		return opt.Context
	}
	return context.Background()
}

// unsupported is the uniform error for a model/algorithm mismatch.
func unsupported(m Name, alg algorithms.Name) error {
	return fmt.Errorf("model: %s does not implement %s", m, alg)
}

// check guards a run against a workload that does not carry the input
// of alg's family: the reading side of the Family-to-field mapping that
// the sweep's generate fills.
func (w Workload) check(m Name, alg algorithms.Name) error {
	switch f := alg.Family(); {
	case f == algorithms.FamilyGA && w.Graph == nil:
		return fmt.Errorf("model: %s run requires a graph workload", m)
	case f == algorithms.FamilyCF && w.Ratings == nil,
		f == algorithms.FamilyJacobi && w.System == nil,
		(f == algorithms.FamilyLBP || f == algorithms.FamilyDD) && w.MRF == nil:
		return unsupported(m, alg)
	}
	return nil
}
