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
// the benchmarking methodology.
package gcbench

import (
	"gcbench/internal/algorithms"
	"gcbench/internal/behavior"
	"gcbench/internal/corpus"
	"gcbench/internal/ensemble"
	"gcbench/internal/gen"
	"gcbench/internal/graph"
	"gcbench/internal/jobs"
	"gcbench/internal/model"
	"gcbench/internal/obs"
	"gcbench/internal/obs/otrace"
	"gcbench/internal/predict"
	"gcbench/internal/report"
	"gcbench/internal/serve"
	"gcbench/internal/shard"
	"gcbench/internal/sweep"
)

// --- Graphs ---

// Graph is the immutable CSR graph all algorithms run on.
type Graph = graph.Graph

// WriteEdgeList and WriteUAI are the graph output entry points.
var (
	WriteEdgeList = graph.WriteEdgeList
	WriteUAI      = graph.WriteUAI
)

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

// RMATConfig parameterizes a recursive-matrix (Graph 500 style) graph.
type RMATConfig = gen.RMATConfig

// ErdosRenyiConfig parameterizes a uniform random graph.
type ErdosRenyiConfig = gen.ErdosRenyiConfig

// Generator entry points for each workload domain.
var (
	PowerLaw         = gen.PowerLaw
	Bipartite        = gen.Bipartite
	Matrix           = gen.Matrix
	Grid             = gen.Grid
	RandomMRF        = gen.MRF
	GaussianPoints2D = gen.GaussianPoints2D
	RMAT             = gen.RMAT
	ErdosRenyi       = gen.ErdosRenyi
	DegreeCV         = gen.DegreeCV
)

// --- Algorithms (§2.1) ---

// AlgorithmOptions configures any algorithm run.
type AlgorithmOptions = algorithms.Options

// ParseFrontierMode resolves a case-insensitive -frontier flag value.
var ParseFrontierMode = algorithms.ParseFrontierMode

// Output bundles a run's behavior trace and summary statistics.
type Output = algorithms.Output

// Per-algorithm option types.
type (
	PageRankOptions = algorithms.PageRankOptions
	KMeansOptions   = algorithms.KMeansOptions
	ALSOptions      = algorithms.ALSOptions
	SGDOptions      = algorithms.SGDOptions
	SVDOptions      = algorithms.SVDOptions
	JacobiOptions   = algorithms.JacobiOptions
	LBPOptions      = algorithms.LBPOptions
	DDOptions       = algorithms.DDOptions
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

// Execution-model helpers. ParseModel resolves a case-insensitive
// -model flag value ("" = gas); ForName returns the named model's
// implementation.
var (
	AllModels        = model.AllNames
	ParseModel       = model.Parse
	ModelForName     = model.ForName
	ModelsSupporting = model.Supporting
)

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

// Profile selects the campaign scale.
type Profile = sweep.Profile

// ProfileQuick is the seconds-scale campaign profile; "standard" and
// "large" are the other Profile values.
const ProfileQuick = sweep.ProfileQuick

// SweepConfig controls campaign execution, including the resilience
// knobs (per-run Timeout, Retries, RetryBackoff, checkpoint Journal and
// the InjectFault test hook).
type SweepConfig = sweep.Config

// Journal is the campaign checkpoint (append-only JSONL, atomically
// rewritten) that enables resume after interruption.
type Journal = sweep.Journal

// Campaign run outcomes.
const (
	RunFailed  = behavior.StatusFailed
	RunTimeout = behavior.StatusTimeout
)

// Campaign construction, execution and persistence. Sweep fails if any
// run failed (after finishing the rest); SweepCampaign isolates per-run
// failures and returns a partial corpus. ExportSuite writes a designed
// ensemble's workload files (edge lists, UAI MRFs) so the suite can be
// carried to any graph-processing system.
var (
	BuildPlan       = sweep.BuildPlan
	BuildPlanModels = sweep.BuildPlanModels
	Sweep           = sweep.Execute
	OpenJournal     = sweep.OpenJournal
	FaultRate       = sweep.FaultRate
	SaveRuns        = sweep.SaveRunsFile
	LoadRuns        = sweep.LoadRunsFile
	ExportSuite     = sweep.ExportSuite
)

// --- Observability ---

// ObsServerOptions configures StartObsServer.
type ObsServerOptions = obs.ServerOptions

// TraceStore is the bounded in-memory store of request-scoped traces
// with tail-based sampling (error, shed and slowest-decile traces are
// retained preferentially). Attach one via APIServerConfig.Traces to
// trace serve → jobs → sweep → engine and query /debug/traces.
type TraceStore = otrace.Store

// Observability entry points. RunSpecTrace is the single-run engine
// entry that also returns the full trace; WriteChromeTrace exports the
// spans that trace's Spans method converts it to.
var (
	StartObsServer     = obs.StartServer
	WriteChromeTrace   = obs.WriteChromeTrace
	NewCampaignTracker = sweep.NewTracker
	RunSpecTrace       = sweep.RunSpecTrace
	NewTraceStore      = otrace.NewStore
)

// --- Ensembles (§5) ---

// CoverageEstimator Monte-Carlo-estimates ensemble coverage.
type CoverageEstimator = ensemble.CoverageEstimator

// Ensemble metrics and searches.
var (
	Spread               = ensemble.Spread
	SpreadOf             = ensemble.SpreadOf
	NewCoverageEstimator = ensemble.NewCoverageEstimator
	BestSpreadExhaustive = ensemble.BestSpreadExhaustive
	BestSpreadGreedy     = ensemble.BestSpreadGreedy
	BestCoverageGreedy   = ensemble.BestCoverageGreedy
)

// AnnealOptions configures simulated-annealing ensemble design.
type AnnealOptions = ensemble.AnnealOptions

// Simulated-annealing searches (stronger than greedy+exchange; see §7).
var (
	AnnealSpread   = ensemble.AnnealSpread
	AnnealCoverage = ensemble.AnnealCoverage
)

// --- Corpus & serving ---

// APIServerConfig parameterizes NewAPIServer, the ensemble-design HTTP
// server behind `gcbench serve`.
type APIServerConfig = serve.Config

// DefaultCoverageSamples is the paper's coverage sample count (10^6).
const DefaultCoverageSamples = ensemble.DefaultSamples

// Corpus and API-server entry points. LoadCorpusSnapshot accepts either
// corpus format: a runs JSON array or a checkpoint journal.
var (
	LoadCorpusSnapshot = corpus.LoadFile
	NewAPIServer       = serve.New
)

// --- Corpus backend: the shard cluster ---

// ShardCluster is the one corpus backend of the API server
// (APIServerConfig.Cluster): it partitions a corpus across
// consistent-hash shards, each serving reads from replicated immutable
// snapshots, with scatter-gather search and versioned per-shard hot
// publish. The zero-valued options give the single-node 1 shard × 1
// replica deployment; the API's JSON responses are byte-identical for
// every shard count, replica count and transport.
type ShardCluster = shard.Cluster

// ShardClusterOptions parameterizes NewShardCluster.
type ShardClusterOptions = shard.Options

// NewShardCluster builds an empty cluster; Load publishes the first
// corpus version to every shard and makes the cluster ready.
var NewShardCluster = shard.New

// --- Wire-transport shard processes ---

// ShardClient is the RPC-shaped interface every shard transport
// implements: in-process, over the wire (NewRemoteShard), or
// replica-aggregating (NewShardReplicaSet). Inject transports via
// ShardClusterOptions.Clients.
type ShardClient = shard.ShardClient

// RemoteShardOptions parameterizes NewRemoteShard.
type RemoteShardOptions = shard.RemoteOptions

// ShardSupervisor owns a fleet of shard replica processes: spawn,
// health-check, restart on crash, and rehydrate (epoch-fenced) via the
// restore hook.
type ShardSupervisor = shard.Supervisor

// ShardSupervisorOptions parameterizes NewShardSupervisor.
type ShardSupervisorOptions = shard.SupervisorOptions

// ShardProcSpec names one supervised shard replica process.
type ShardProcSpec = shard.ProcSpec

// Wire-transport entry points. ShardRPCHandler serves a ShardClient
// over the wire protocol; NewProcessShard is the single-replica shard a
// standalone `gcbench shard-serve` process wraps in it.
var (
	NewRemoteShard     = shard.NewRemoteShard
	NewShardReplicaSet = shard.NewReplicaSet
	NewShardSupervisor = shard.NewSupervisor
	ShardRPCHandler    = shard.RPCHandler
	NewProcessShard    = shard.NewProcessShard
)

// --- Async campaign jobs ---

// JobManager queues and executes sweep campaigns asynchronously: FIFO
// admission behind a bounded running-slot/queue pair, per-job
// cancellation, a replayable event stream and terminal-state retention.
// Both `gcbench sweep` and the serve API's POST /api/campaigns execute
// through it.
type JobManager = jobs.Manager

// JobManagerConfig parameterizes a JobManager.
type JobManagerConfig = jobs.Config

// JobRequest is the campaign submitted to a JobManager.
type JobRequest = jobs.Request

// NewJobManager starts a JobManager.
var NewJobManager = jobs.NewManager

// --- Behavior prediction (§7 future work) ---

// PredictQuery identifies the computation to predict.
type PredictQuery = predict.Query

// Predictor construction and evaluation.
var (
	NewPredictor       = predict.New
	PredictLeaveOneOut = predict.LeaveOneOut
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
	FigureIDs = report.FigureIDs
)
