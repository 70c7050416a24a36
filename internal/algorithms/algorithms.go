// Package algorithms implements the paper's fourteen graph computations as
// GAS vertex programs (§2.1):
//
//   - Graph Analytics: Connected Components (CC), K-Core decomposition
//     (KC), Triangle Counting (TC), Single-Source Shortest Path (SSSP),
//     PageRank (PR), Approximate Diameter (AD);
//   - Clustering: K-Means (KM);
//   - Collaborative Filtering: Alternating Least Squares (ALS),
//     Non-negative Matrix Factorization (NMF), Stochastic Gradient Descent
//     (SGD), Singular Value Decomposition (SVD, restarted Lanczos);
//   - Linear solver: Jacobi;
//   - Graphical models: Loopy Belief Propagation (LBP), Dual
//     Decomposition (DD).
//
// Every algorithm returns the engine's per-iteration behavior trace, from
// which the behavior-space vectors of §5 are computed.
package algorithms

import (
	"context"
	"fmt"
	"strings"

	"gcbench/internal/engine"
	"gcbench/internal/graph"
	"gcbench/internal/trace"
)

// Options configures an algorithm run.
type Options struct {
	// Workers is the engine parallelism; 0 means GOMAXPROCS.
	Workers int
	// MaxIterations caps the engine; 0 means the engine default. Most
	// algorithms converge on their own; NMF and SGD self-cap at 20
	// iterations as in the paper (§3.3).
	MaxIterations int
	// Context, when non-nil, cancels the computation cooperatively at the
	// next engine iteration barrier (used by sweep campaigns for per-run
	// timeouts and campaign-wide cancellation).
	Context context.Context
	// Frontier selects the engine's active-set scheduling strategy. The
	// zero value is FrontierAuto. The behavior metrics the paper defines
	// are identical across modes; only execution speed differs.
	Frontier FrontierMode
}

// FrontierMode selects dense, sparse or adaptive active-set scheduling.
type FrontierMode = engine.FrontierMode

// Frontier scheduling modes.
const (
	FrontierAuto   = engine.FrontierAuto
	FrontierDense  = engine.FrontierDense
	FrontierSparse = engine.FrontierSparse
)

// ParseFrontierMode resolves a case-insensitive -frontier flag value.
var ParseFrontierMode = engine.ParseFrontierMode

func (o Options) engineOptions() engine.Options {
	return engine.Options{Workers: o.Workers, MaxIterations: o.MaxIterations, Context: o.Context, Frontier: o.Frontier}
}

// sendRun signals every neighbor across v's run on side: the Scatter of a
// program whose condition, if any, depends on the scattering vertex alone.
func sendRun(side *graph.CSR, v uint32, out *engine.Signals) {
	out.SendRun(side.Adj[side.Off[v]:side.Off[v+1]])
}

// sendAll is the Scatter of a program that signals across every arc. It
// slices the runs itself: SendRun inlines here, sendRun does not.
func sendAll(vs []uint32, side *graph.CSR, out *engine.Signals) {
	for _, v := range vs {
		out.SendRun(side.Adj[side.Off[v]:side.Off[v+1]])
	}
}

// Output bundles a run's behavior trace with algorithm-specific summary
// statistics (e.g. number of components, triangle count, top singular
// value) for correctness checks and reporting.
type Output struct {
	Trace   *trace.RunTrace
	Summary map[string]float64
}

// Name identifies an algorithm in sweeps, reports and ensemble tables.
type Name string

// Algorithm names, using the paper's abbreviations.
const (
	CC     Name = "CC"
	KC     Name = "KC"
	TC     Name = "TC"
	SSSP   Name = "SSSP"
	PR     Name = "PR"
	AD     Name = "AD"
	KM     Name = "KM"
	ALS    Name = "ALS"
	NMF    Name = "NMF"
	SGD    Name = "SGD"
	SVD    Name = "SVD"
	Jacobi Name = "Jacobi"
	LBP    Name = "LBP"
	DD     Name = "DD"
)

// Family names the input an algorithm runs over: which generator builds
// it and which model.Workload field carries it. The values are the
// seed and cache group strings of the sweep, so they are part of every
// graph seed and may not change.
type Family string

// The five input families of Table 2.
const (
	// FamilyGA is the shared power-law graph of Graph Analytics and
	// Clustering (Workload.Graph).
	FamilyGA Family = "ga"
	// FamilyCF is the bipartite rating graph (Workload.Ratings, Users).
	FamilyCF Family = "cf"
	// FamilyJacobi is the diagonally dominant linear system
	// (Workload.System).
	FamilyJacobi Family = "jacobi"
	// FamilyLBP is the grid MRF and FamilyDD the random MRF (both
	// Workload.MRF).
	FamilyLBP Family = "lbp"
	FamilyDD  Family = "dd"
)

// row is one algorithm of the matrix.
type row struct {
	name   Name
	domain string
	family Family
	// constant marks the algorithms that keep all vertices active with
	// repetitive per-iteration behavior — the property §5.6 exploits to
	// shorten runs.
	constant bool
}

// table is the paper's algorithm matrix (Tables 1 and 2), one row per
// algorithm in presentation order, and the one place an algorithm's
// metadata is stated: adding an algorithm is a row here, its file in
// this package, and a runner row in internal/model.
var table = []row{
	{CC, "Graph Analytics", FamilyGA, false},
	{KC, "Graph Analytics", FamilyGA, false},
	{TC, "Graph Analytics", FamilyGA, false},
	{SSSP, "Graph Analytics", FamilyGA, false},
	{PR, "Graph Analytics", FamilyGA, false},
	{AD, "Graph Analytics", FamilyGA, true},
	{KM, "Clustering", FamilyGA, true},
	{ALS, "Collaborative Filtering", FamilyCF, false},
	{NMF, "Collaborative Filtering", FamilyCF, true},
	{SGD, "Collaborative Filtering", FamilyCF, true},
	{SVD, "Collaborative Filtering", FamilyCF, true},
	{Jacobi, "Linear Solver", FamilyJacobi, false},
	{LBP, "Graphical Model", FamilyLBP, false},
	{DD, "Graphical Model", FamilyDD, false},
}

// rowOf indexes table by name; an unknown name reads as the zero row.
var rowOf = func() map[Name]row {
	m := make(map[Name]row, len(table))
	for _, r := range table {
		m[r.name] = r
	}
	return m
}()

// AllNames lists every algorithm in the paper's presentation order.
func AllNames() []Name {
	names := make([]Name, len(table))
	for i, r := range table {
		names[i] = r.name
	}
	return names
}

// Parse resolves a case-insensitive algorithm name. A known name costs
// no allocation: it ranges over the table, not a fresh AllNames.
func Parse(s string) (Name, error) {
	for _, r := range table {
		if strings.EqualFold(s, string(r.name)) {
			return r.name, nil
		}
	}
	return "", fmt.Errorf("algorithms: unknown algorithm %q (known: %v)", s, AllNames())
}

// Domain returns the paper's application domain of an algorithm.
func (n Name) Domain() string {
	if r, ok := rowOf[n]; ok {
		return r.domain
	}
	return "Unknown"
}

// Family returns the input family of an algorithm ("" when unknown).
func (n Name) Family() Family {
	return rowOf[n].family
}

// ConstantBehavior reports whether the algorithm keeps all vertices active
// with repetitive per-iteration behavior (AD, KM, NMF, SGD, SVD).
func (n Name) ConstantBehavior() bool {
	return rowOf[n].constant
}

// GraphVarying reports whether the algorithm's graph structure varies in
// Table 2 — the ensemble-analysis pool of §5.2 ("Jacobi, LBP and DD are
// not considered because their graph structures do not vary"). Those are
// the eleven algorithms of the two power-law families.
func (n Name) GraphVarying() bool {
	f := n.Family()
	return f == FamilyGA || f == FamilyCF
}
