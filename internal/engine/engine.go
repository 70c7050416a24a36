// Package engine implements the synchronous Gather-Apply-Scatter (GAS)
// computation model of GraphLab/PowerGraph (§3.3 of the paper), with the
// instrumentation the paper's behavior characterization is built on.
//
// Graph computation is expressed vertex-centrically. Each vertex is active
// or inactive; only active vertices compute. One iteration runs three
// phases without overlap, each a barrier across all vertices:
//
//   - Gather collects data through adjacent edges (each per-edge collect is
//     an "edge read", counted toward EREAD);
//   - Apply runs user computation on the central vertex (counted toward
//     UPDT, timed toward WORK);
//   - Scatter sends activation signals to neighbors (each signal is a
//     "message", counted toward MSG). Only signaled vertices are active in
//     the next iteration.
//
// The computation ends when no vertices are active, when the program's
// optional convergence hook says so, or at the iteration cap.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gcbench/internal/graph"
	"gcbench/internal/obs"
	"gcbench/internal/trace"
)

// Engine metrics on the process-wide obs registry, updated once per
// iteration (a handful of atomic adds — far below the <5% phase-span
// overhead budget; see BenchmarkEngineBFS).
var (
	metricRuns       = obs.Default().Counter("gcbench_engine_runs_total", "Graph computations started.")
	metricIterations = obs.Default().Counter("gcbench_engine_iterations_total", "GAS iterations executed.")
	metricUpdates    = obs.Default().Counter("gcbench_engine_updates_total", "Vertex updates (apply calls, the UPDT numerator).")
	metricEdgeReads  = obs.Default().Counter("gcbench_engine_edge_reads_total", "Gather edge reads (the EREAD numerator).")
	metricMessages   = obs.Default().Counter("gcbench_engine_messages_total", "Scatter activation messages (the MSG numerator).")
	metricGatherSec  = obs.Default().Counter("gcbench_engine_gather_seconds_total", "Wall-clock seconds in gather phases.")
	metricApplySec   = obs.Default().Counter("gcbench_engine_apply_seconds_total", "Wall-clock seconds in apply phases.")
	metricScatterSec = obs.Default().Counter("gcbench_engine_scatter_seconds_total", "Wall-clock seconds in scatter phases.")
	metricBarrierSec = obs.Default().Counter("gcbench_engine_barrier_seconds_total", "Wall-clock seconds outside the three phases (hooks, frontier bookkeeping).")

	// Frontier scheduling metrics (see frontier.go).
	metricFrontierPhases = obs.Default().Counter("gcbench_engine_frontier_mode_total", "Frontier scheduling decisions made (one per phase executed; sparse share in gcbench_engine_frontier_sparse_phases_total).")
	metricFrontierSparse = obs.Default().Counter("gcbench_engine_frontier_sparse_phases_total", "Phases executed in sparse (compacted frontier) mode.")
	metricFrontierSwitch = obs.Default().Counter("gcbench_engine_frontier_switches_total", "Dense<->sparse schedule flips between consecutive iterations of a run.")
)

// Direction selects which adjacent edges a phase visits.
type Direction int

const (
	// None visits no edges.
	None Direction = iota
	// In visits in-edges (for undirected graphs, all incident edges).
	In
	// Out visits out-edges (for undirected graphs, all incident edges).
	Out
	// Both visits in- and out-edges (directed graphs only; undirected
	// graphs treat it as Out to avoid double-visiting).
	Both
)

// Program is a vertex program in the GAS model, generic over the vertex
// state S and the gather accumulator A. It is granule-shaped: each phase
// hands it a whole granule — vs, a list of active vertices in ascending
// order — with one CSR side and the state, acc and hasAcc slices indexed
// by vertex, and the program loops over the granule's vertices and their
// arc runs (side.Adj[side.Off[v]:side.Off[v+1]]) itself. The engine makes
// one call per granule and side, so a compare-per-edge algorithm runs as
// one loop nest with nothing opaque in it and a wide accumulator is
// folded where it lives. A program that needs an arc's canonical index or
// weight walks its runs with NewEdges(...).Of(v).
//
// Within one iteration, Gather for every active vertex runs before any
// Apply, and every Apply before any Scatter, so Gather observes the state
// of the previous iteration and Scatter observes fully applied state —
// GraphLab's synchronous semantics. A granule's vertices are the
// program's alone for the call: it may write acc[v], hasAcc[v] and (in
// Apply) state[v] for v in vs, and nothing else the engine owns.
type Program[S, A any] interface {
	// Init returns vertex v's initial state and whether it starts active.
	Init(g *graph.Graph, v uint32) (state S, active bool)

	// GatherDirection selects the edges Gather visits.
	GatherDirection() Direction
	// Gather continues each granule vertex's fold over its run on side,
	// in place in acc[v]. hasAcc[v] reports whether acc[v] holds a fold:
	// the engine clears it for the granule before the first side, so the
	// first contribution must overwrite a stale acc[v], and the program
	// sets it once the fold holds anything. Both on a directed graph is
	// two calls per granule, the out side then the in side; every other
	// direction is one. Each arc of each run counts as one edge read
	// whatever the program does with it. (In place, because accumulators
	// can be large — ALS folds 584-byte normal equations.)
	Gather(vs []uint32, side *graph.CSR, state []S, acc []A, hasAcc []bool)

	// Apply computes each granule vertex's next state into state[v].
	// hasAcc[v] is false when no edges were gathered (isolated vertex or
	// GatherDirection None). acc[v] is dead after Apply, so it may serve
	// as scratch.
	Apply(vs []uint32, state []S, acc []A, hasAcc []bool)

	// ScatterDirection selects the edges Scatter visits.
	ScatterDirection() Direction
	// Scatter inspects each granule vertex's run on side after Apply and
	// calls out.Send (or out.SendIf) for every neighbor to signal
	// (activate) for the next iteration; each signal is one message.
	Scatter(vs []uint32, side *graph.CSR, state []S, out *Signals)
}

// PreIterator is an optional Program extension: PreIteration runs serially
// before each iteration's gather phase (GraphLab's aggregator slot —
// K-Means recomputes centroids here).
type PreIterator[S any] interface {
	PreIteration(c *Control[S])
}

// PostIterator is an optional Program extension: PostIteration runs
// serially after the scatter phase; returning true halts the computation.
// Drivers like K-Core's k-level advance and the Lanczos loop live here.
type PostIterator[S any] interface {
	PostIteration(c *Control[S]) (halt bool)
}

// Control exposes engine state to Pre/PostIteration hooks.
type Control[S any] struct {
	eng interface {
		iterationRef() int
		stateAny() any
		activateNext(v uint32)
		activateAllNext()
		nextCount() int64
	}
}

// Iteration returns the current 0-based iteration number.
func (c *Control[S]) Iteration() int { return c.eng.iterationRef() }

// States returns the live vertex state slice. Hooks may mutate it.
func (c *Control[S]) States() []S { return c.eng.stateAny().([]S) }

// Activate marks v active for the next iteration without sending a
// message (driver-level activation, not counted toward MSG).
func (c *Control[S]) Activate(v uint32) { c.eng.activateNext(v) }

// ActivateAll marks every vertex active for the next iteration.
func (c *Control[S]) ActivateAll() { c.eng.activateAllNext() }

// NextActiveCount returns how many vertices are currently marked active
// for the next iteration.
func (c *Control[S]) NextActiveCount() int64 { return c.eng.nextCount() }

// Options configures a run.
type Options struct {
	// MaxIterations caps the run; 0 means trace.DefaultMaxSteps.
	MaxIterations int
	// Workers is the parallelism degree; 0 means GOMAXPROCS.
	Workers int
	// Context, when non-nil, is polled at every iteration barrier: a
	// cancelled or expired context stops the run before its next
	// iteration and Run returns an error wrapping ctx.Err(). Cancellation
	// is cooperative — a run is never interrupted mid-phase, so the trace
	// is always phase-consistent up to the barrier it stopped at.
	Context context.Context
	// Frontier selects the active-set scheduling strategy (see
	// frontier.go). The zero value is FrontierAuto. The paper's behavior
	// counters (UPDT, EREAD, MSG, active fraction) are identical across
	// modes by construction; only wall times and worker attribution vary.
	Frontier FrontierMode
}

// Result carries a finished computation's trace and final states.
type Result[S any] struct {
	Trace  *trace.RunTrace
	States []S
}

// Run executes the program to convergence and returns its trace and final
// vertex states.
func Run[S, A any](g *graph.Graph, p Program[S, A], opt Options) (*Result[S], error) {
	if g == nil || g.NumVertices() == 0 {
		return nil, fmt.Errorf("engine: nil or empty graph")
	}
	maxIter := opt.MaxIterations
	if maxIter <= 0 {
		maxIter = trace.DefaultMaxSteps
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := g.NumVertices()
	if workers > n {
		workers = n
	}

	e := &engine[S, A]{
		g:         g,
		out:       g.OutCSR(),
		in:        g.InCSR(),
		p:         p,
		ws:        make([]worker, workers),
		state:     make([]S, n),
		acc:       make([]A, n),
		hasAcc:    make([]bool, n),
		cur:       newBitset(n),
		next:      newBitset(n),
		frontierM: opt.Frontier,
	}
	e.gatherSides, e.scatterSides = e.sides(p.GatherDirection()), e.sides(p.ScatterDirection())
	e.granuleTask = e.runGranule
	for w := range e.ws {
		e.ws[w].scratch = make([]uint32, 0, min(n, chunkSize))
	}

	// Initialize states and the initial frontier.
	for v := uint32(0); int(v) < n; v++ {
		s, active := p.Init(g, v)
		e.state[v] = s
		if active {
			e.cur.SetSerial(v)
		}
	}

	pre, _ := any(p).(PreIterator[S])
	post, _ := any(p).(PostIterator[S])
	ctl := &Control[S]{eng: e}

	tr := &trace.RunTrace{
		NumVertices: n,
		NumEdges:    g.NumEdges(),
	}
	metricRuns.Inc()

	prevSparse := false
	for iter := 0; iter < maxIter; iter++ {
		active := e.countAndPlan()
		if active == 0 {
			tr.Converged = true
			break
		}
		if ctx := opt.Context; ctx != nil {
			select {
			case <-ctx.Done():
				return nil, fmt.Errorf("engine: run stopped at iteration %d: %w", iter, ctx.Err())
			default:
			}
		}
		e.iter = iter
		start := time.Now()

		if iter > 0 && e.sparseIter != prevSparse {
			metricFrontierSwitch.Inc()
		}
		prevSparse = e.sparseIter

		if pre != nil {
			pre.PreIteration(ctl)
		}

		gStart := time.Now()
		edgeReads, gatherMode := e.runPhase(gatherPhase, e.gatherSides)
		gatherWall := time.Since(gStart)
		aStart := time.Now()
		updates, applyMode := e.runPhase(applyPhase, nil)
		applyWall := time.Since(aStart)
		sStart := time.Now()
		var messages int64
		scatterMode := "" // no scan runs for direction None: the trace records no mode
		if len(e.scatterSides) > 0 {
			messages, scatterMode = e.runPhase(scatterPhase, e.scatterSides)
		}
		scatterWall := time.Since(sStart)

		halt := false
		if post != nil {
			halt = post.PostIteration(ctl)
		}

		wall := time.Since(start)
		// The trace retains the spans; everything else a phase needs lives
		// on the engine and is reset, not reallocated.
		spans := make([]trace.WorkerSpan, len(e.ws))
		var applyTime time.Duration // the WORK numerator: per-worker busy, not phase wall
		for w := range spans {
			busy := &e.ws[w].busy
			spans[w] = trace.WorkerSpan{Worker: w, Gather: busy[gatherPhase], Apply: busy[applyPhase], Scatter: busy[scatterPhase]}
			applyTime += busy[applyPhase]
		}
		tr.Iterations = append(tr.Iterations, trace.IterationStats{
			Iteration:   iter,
			Active:      active,
			Updates:     updates,
			EdgeReads:   edgeReads,
			Messages:    messages,
			ApplyTime:   applyTime,
			WallTime:    wall,
			GatherWall:  gatherWall,
			ApplyWall:   applyWall,
			ScatterWall: scatterWall,
			BarrierTime: wall - gatherWall - applyWall - scatterWall,
			WorkerSpans: spans,
			GatherMode:  gatherMode,
			ApplyMode:   applyMode,
			ScatterMode: scatterMode,
		})

		metricIterations.Inc()
		metricUpdates.Add(float64(updates))
		metricEdgeReads.Add(float64(edgeReads))
		metricMessages.Add(float64(messages))
		metricGatherSec.Add(gatherWall.Seconds())
		metricApplySec.Add(applyWall.Seconds())
		metricScatterSec.Add(scatterWall.Seconds())
		metricBarrierSec.Add((wall - gatherWall - applyWall - scatterWall).Seconds())

		// Swap frontiers. A compacted iteration knows exactly which words
		// of the outgoing frontier were set (nothing touches cur
		// mid-iteration), so it clears those instead of the whole bitset.
		e.cur, e.next = e.next, e.cur
		if e.sparseIter {
			for _, v := range e.frontier {
				e.next.words[v>>6] = 0
			}
		} else {
			e.next.Clear()
		}

		if halt {
			tr.Converged = true
			break
		}
	}

	return &Result[S]{Trace: tr, States: e.state}, nil
}

// engine holds the run's mutable state.
type engine[S, A any] struct {
	g       *graph.Graph
	out, in graph.CSR
	p       Program[S, A]
	ws      []worker
	state   []S
	acc     []A
	hasAcc  []bool
	cur     *bitset
	next    *bitset
	// The CSR sides the gather and scatter phases visit per vertex, in
	// fold order; empty for direction None.
	gatherSides, scatterSides []*graph.CSR
	iter                      int

	// The phase in flight, read by runGranule. granuleTask is the method
	// value e.runGranule, bound once so a phase allocates nothing.
	ph          phase
	phSides     []*graph.CSR
	phSparse    bool
	granuleTask func(worker int, t int64)

	// Frontier scheduling state (frontier.go). The buffers are reused
	// across iterations and grow monotonically.
	frontierM  FrontierMode
	sparseIter bool     // this iteration has a compacted frontier
	frontier   []uint32 // sorted active vertices (valid when sparseIter)
	chunkOff   []int64  // per-chunk compaction offsets
	prefix     []int64  // per-phase degree prefix sums over frontier
	bounds     []int    // per-phase edge-balanced slice boundaries
}

// worker is one worker's private scratch and per-phase tallies, reused for
// the whole run. The trailing pad keeps neighbors off each other's cache
// lines: the tallies are rewritten per granule and Signals per message.
type worker struct {
	out     Signals
	scratch []uint32         // dense granule: the chunk's active vertices
	busy    [3]time.Duration // time in each phase's granules, this iteration
	count   int64            // this phase's edge reads or updates (messages: out.sent)
	_       [64]byte
}

// Control plumbing (untyped so Control[S] needs no second type parameter).
func (e *engine[S, A]) iterationRef() int     { return e.iter }
func (e *engine[S, A]) stateAny() any         { return e.state }
func (e *engine[S, A]) activateNext(v uint32) { e.next.SetSerial(v) }
func (e *engine[S, A]) activateAllNext()      { e.next.SetAll() }
func (e *engine[S, A]) nextCount() int64      { return e.next.Count() }

// chunkSize is the dynamic scheduling granule in vertices. Word-aligned
// (multiple of 64) so concurrent bitset scans never share a word.
const chunkSize = 4096

// numChunks returns how many chunkSize-vertex chunks cover the graph.
func (e *engine[S, A]) numChunks() int64 {
	return (int64(e.g.NumVertices()) + chunkSize - 1) / chunkSize
}

// chunkRange returns the vertex range [lo, hi) of chunk c.
func (e *engine[S, A]) chunkRange(c int64) (lo, hi uint32) {
	lo = uint32(c * chunkSize)
	hi = lo + chunkSize
	if n := uint32(e.g.NumVertices()); hi > n {
		hi = n
	}
	return lo, hi
}

// spawnCount returns how many goroutines parallelDeal runs numTasks on:
// min(workers, numTasks) — small graphs under high Workers must not pay
// goroutine startup for chunks that do not exist.
func (e *engine[S, A]) spawnCount(numTasks int64) int {
	if int64(len(e.ws)) > numTasks {
		return int(numTasks)
	}
	return len(e.ws)
}

// parallelDeal deals task indices [0, numTasks) to workers through an
// atomic cursor (hub vertices in power-law graphs make static partitions
// imbalanced). It spawns spawnCount(numTasks) goroutines and runs serially
// on the caller's when one suffices. Worker indices passed to task are
// always < len(e.ws).
func (e *engine[S, A]) parallelDeal(numTasks int64, task func(worker int, t int64)) {
	spawn := e.spawnCount(numTasks)
	if spawn <= 1 {
		for t := int64(0); t < numTasks; t++ {
			task(0, t)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	// A vertex program panicking inside a worker goroutine would crash the
	// whole process; capture the first panic and re-raise it on the calling
	// goroutine so campaign-level recover() can isolate the failed run.
	type capturedPanic struct{ value any }
	var panicked atomic.Pointer[capturedPanic]
	for w := 0; w < spawn; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panicked.CompareAndSwap(nil, &capturedPanic{p})
				}
			}()
			for {
				t := cursor.Add(1) - 1
				if t >= numTasks || panicked.Load() != nil {
					return
				}
				task(worker, t)
			}
		}(w)
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p.value)
	}
}

// phase names one of the three GAS phases.
type phase int

const (
	gatherPhase phase = iota
	applyPhase
	scatterPhase
)

// runPhase runs one phase over every active vertex under the schedule
// countAndPlan and planPhase chose: it cuts the active set into granules —
// slices of the compacted frontier, or the active vertices of one dense
// chunk extracted into the worker's scratch — deals them to workers and
// calls the phase body once per granule, timing each into the worker's
// busy tally (so span instrumentation never pays a clock read per vertex).
// The visited set and per-vertex work are identical across schedules;
// only grouping, worker attribution and scan cost differ. Returns the
// phase's counter (edge reads, updates or messages) and the mode label.
func (e *engine[S, A]) runPhase(ph phase, sides []*graph.CSR) (int64, string) {
	metricFrontierPhases.Inc()
	bounds, sparse := e.planPhase(sides)
	numTasks, mode := e.numChunks(), modeDense
	if sparse {
		metricFrontierSparse.Inc()
		numTasks, mode = int64(len(bounds)-1), modeSparse
	}
	shared := e.spawnCount(numTasks) > 1
	for w := range e.ws {
		ws := &e.ws[w]
		ws.busy[ph], ws.count = 0, 0
		ws.out = Signals{next: e.next.words, shared: shared}
	}
	e.ph, e.phSides, e.phSparse = ph, sides, sparse
	e.parallelDeal(numTasks, e.granuleTask)
	var total int64
	for w := range e.ws {
		total += e.ws[w].count + e.ws[w].out.sent
	}
	return total, mode
}

// runGranule is one task of the phase runPhase set up in e.ph: slice t of
// the compacted frontier, or chunk t's active vertices.
func (e *engine[S, A]) runGranule(worker int, t int64) {
	ws := &e.ws[worker]
	t0 := time.Now()
	var vs []uint32
	if e.phSparse {
		vs = e.frontier[e.bounds[t]:e.bounds[t+1]]
	} else {
		lo, hi := e.chunkRange(t)
		ws.scratch = e.cur.appendSet(lo, hi, ws.scratch[:0])
		if vs = ws.scratch; len(vs) == 0 {
			return
		}
	}
	switch e.ph {
	case gatherPhase:
		for i, c := range e.phSides {
			e.gather(ws, vs, c, i == 0)
		}
	case applyPhase:
		e.p.Apply(vs, e.state, e.acc, e.hasAcc)
		ws.count += int64(len(vs))
	case scatterPhase:
		for _, c := range e.phSides {
			e.p.Scatter(vs, c, e.state, &ws.out)
		}
	}
	ws.busy[e.ph] += time.Since(t0)
}

// sides lists the CSR sides a phase direction visits per vertex, in fold
// order. An undirected graph's two sides are identical, so any direction
// visits one (Both must not double-visit).
func (e *engine[S, A]) sides(d Direction) []*graph.CSR {
	switch {
	case d == None:
		return nil
	case d == Out || !e.g.Directed():
		return []*graph.CSR{&e.out}
	case d == In:
		return []*graph.CSR{&e.in}
	}
	return []*graph.CSR{&e.out, &e.in}
}

// gather counts the granule's edge reads on one CSR side — its run
// lengths, whatever the program does with them — and hands the granule
// and side to the program's Gather. first marks the direction's first
// side, before which the granule's hasAcc flags are cleared; a second
// side (Both on a directed graph: out, then in) continues the fold the
// first left in place. Per vertex the out-run still folds before the
// in-run, and Gather reads nothing a gather writes, so two passes equal
// one.
func (e *engine[S, A]) gather(ws *worker, vs []uint32, c *graph.CSR, first bool) {
	off, hasAcc := c.Off, e.hasAcc
	var reads int64
	for _, v := range vs {
		reads += off[v+1] - off[v]
		if first {
			hasAcc[v] = false
		}
	}
	ws.count += reads
	e.p.Gather(vs, c, e.state, e.acc, hasAcc)
}
