// Package gcbench is a from-scratch Go reproduction of "Understanding
// Graph Computation Behavior to Enable Robust Benchmarking" (Yang & Chien,
// HPDC 2015): a synchronous Gather-Apply-Scatter graph engine instrumented
// with the paper's five behavior metrics, the fourteen graph algorithms of
// its study, synthetic graph generators for every workload domain, and the
// spread/coverage ensemble methodology for designing graph benchmarks.
//
// The typical workflow mirrors the paper:
//
//	specs, _ := gcbench.BuildPlan(gcbench.ProfileQuick, 42)   // Table 2
//	runs, _ := gcbench.Sweep(specs, gcbench.SweepConfig{})    // §4 corpus
//	corpus, _ := gcbench.NewCorpus(runs)                      // §5 space
//	rep, _ := gcbench.Figure(corpus, "18", gcbench.FigureOptions{})
//	rep.Render(os.Stdout)                                     // Figure 18
//
// Individual algorithms can be run directly on generated graphs:
//
//	g, _ := gcbench.PowerLaw(gcbench.PowerLawConfig{NumEdges: 1e5, Alpha: 2.2, Seed: 1})
//	out, ranks, _ := gcbench.PageRank(g, gcbench.PageRankOptions{})
//
// Vertex-program authors who want to add algorithms use the generic engine
// in internal/engine by vendoring or forking; the stable surface here is
// the benchmarking methodology. The commands under cmd/ import the
// internal packages directly; every name here has a caller among the
// examples, the root tests or README.md (TestExportsHaveCallers).
package gcbench

import (
	"gcbench/internal/algorithms"
	"gcbench/internal/behavior"
	"gcbench/internal/ensemble"
	"gcbench/internal/gen"
	"gcbench/internal/graph"
	"gcbench/internal/model"
	"gcbench/internal/report"
	"gcbench/internal/sweep"
)

// --- Graphs ---

// Graph is the immutable CSR graph all algorithms run on.
type Graph = graph.Graph

// --- Generators (§3.2 datasets) ---

// PowerLawConfig parameterizes a scale-free graph (nedges, alpha).
type PowerLawConfig = gen.PowerLawConfig

// BipartiteConfig parameterizes a CF rating graph.
type BipartiteConfig = gen.BipartiteConfig

// JacobiConfig parameterizes the linear-solver matrix workload.
type JacobiConfig = gen.JacobiConfig

// GridConfig parameterizes the LBP pixel-grid workload.
type GridConfig = gen.GridConfig

// MRFConfig parameterizes the DD random-field workload.
type MRFConfig = gen.MRFConfig

// Generator entry points for each workload domain.
var (
	PowerLaw         = gen.PowerLaw
	Bipartite        = gen.Bipartite
	Matrix           = gen.Matrix
	Grid             = gen.Grid
	RandomMRF        = gen.MRF
	GaussianPoints2D = gen.GaussianPoints2D
)

// --- Algorithms (§2.1) ---

// AlgorithmOptions configures any algorithm run.
type AlgorithmOptions = algorithms.Options

// Output bundles a run's behavior trace and summary statistics.
type Output = algorithms.Output

// Per-algorithm option types.
type (
	PageRankOptions = algorithms.PageRankOptions
	KMeansOptions   = algorithms.KMeansOptions
)

// Graph computations of the study, callable directly on a generated
// workload (the campaign runner reaches all fourteen by AlgorithmName).
var (
	KCoreDecomposition         = algorithms.KCoreDecomposition
	TriangleCounting           = algorithms.TriangleCounting
	SingleSourceShortestPath   = algorithms.SingleSourceShortestPath
	PageRank                   = algorithms.PageRank
	KMeans                     = algorithms.KMeans
	AlternatingLeastSquares    = algorithms.AlternatingLeastSquares
	StochasticGradientDescent  = algorithms.StochasticGradientDescent
	SingularValueDecomposition = algorithms.SingularValueDecomposition
	JacobiSolve                = algorithms.JacobiSolve
	LoopyBeliefPropagation     = algorithms.LoopyBeliefPropagation
	DualDecomposition          = algorithms.DualDecomposition
)

// AlgorithmName identifies one of the fourteen algorithms by its paper
// abbreviation.
type AlgorithmName = algorithms.Name

// Algorithm name helpers.
var (
	AllAlgorithms  = algorithms.AllNames
	ParseAlgorithm = algorithms.Parse
)

// --- Execution models ---

// ModelName identifies one of the execution models a campaign spec can
// run under: "gas" (the default synchronous Gather-Apply-Scatter
// engine), "pregel" (vertex-centric message passing), "xstream"
// (edge-streaming scatter-gather) or "graphcentric" (partition-local
// fixed points with boundary exchange). Every model populates the same
// per-iteration trace counters, so the §5 behavior space compares them
// directly.
type ModelName = model.Name

// Execution model names.
const (
	ModelGAS    = model.GAS
	ModelPregel = model.Pregel
)

// ModelOptions configures an ExecutionModel run.
type ModelOptions = model.Options

// ModelWorkload bundles the prepared inputs an ExecutionModel runs on.
type ModelWorkload = model.Workload

// ModelForName returns the named execution model's implementation.
var ModelForName = model.ForName

// --- Behavior space (§5.1) ---

// Vector is a point in the 4-D behavior space <UPDT, WORK, EREAD, MSG>.
type Vector = behavior.Vector

// Run is one measured graph computation.
type Run = behavior.Run

// BehaviorFromTrace reduces an execution trace to its behavior vector.
var BehaviorFromTrace = behavior.FromTrace

// --- Sweeps (Table 2 campaigns) ---

// Spec identifies one graph computation of the campaign.
type Spec = sweep.Spec

// ProfileQuick is the seconds-scale campaign profile; "standard" and
// "large" are the other profiles.
const ProfileQuick = sweep.ProfileQuick

// SweepConfig controls campaign execution, including the resilience
// knobs (per-run Timeout, Retries, RetryBackoff and the InjectFault test
// hook). The checkpoint Journal is opened by `gcbench sweep`.
type SweepConfig = sweep.Config

// Campaign construction, execution and persistence. Sweep finishes
// every run — and, with a checkpoint Journal, checkpoints it — before it
// reports a failure, so rerunning the same campaign resumes.
var (
	BuildPlan = sweep.BuildPlan
	Sweep     = sweep.Execute
	SaveRuns  = sweep.SaveRunsFile
	LoadRuns  = sweep.LoadRunsFile
)

// --- Ensembles (§5) ---

// CoverageEstimator Monte-Carlo-estimates ensemble coverage.
type CoverageEstimator = ensemble.CoverageEstimator

// Ensemble metrics and searches. The searches take a context, checked
// between search steps.
var (
	Spread               = ensemble.Spread
	SpreadOf             = ensemble.SpreadOf
	NewCoverageEstimator = ensemble.NewCoverageEstimator
	BestSpreadExhaustive = ensemble.BestSpreadExhaustiveCtx
	BestSpreadGreedy     = ensemble.BestSpreadGreedyCtx
	BestCoverageGreedy   = ensemble.BestCoverageGreedyCtx
)

// --- Reports (figures and tables) ---

// Corpus is the normalized analysis view of a run collection.
type Corpus = report.Corpus

// FigureOptions tunes figure generation.
type FigureOptions = report.FigureOptions

// Figure builders and helpers.
var (
	NewCorpus = report.NewCorpus
	Figure    = report.Figure
)
