package algorithms

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gcbench/internal/engine"
	"gcbench/internal/gen"
	"gcbench/internal/graph"
)

// arc describes one edge endpoint visit in an edgeProgram.
type arc struct {
	// Index is the canonical out-arc index of this edge in CSR order.
	Index int64
	// Other is the neighbor vertex on the far side of the edge.
	Other uint32
	// Weight is the edge weight (1 for unweighted graphs).
	Weight float64
}

// edgeProgram is a vertex program written one edge at a time — the form
// each granule-shaped program here is held to: Gather maps an edge to a
// contribution, Sum folds contributions, Scatter decides one signal.
type edgeProgram[S, A any] interface {
	Init(g *graph.Graph, v uint32) (state S, active bool)
	GatherDirection() engine.Direction
	Gather(v uint32, e arc, self, other S) A
	Sum(a, b A) A
	Apply(v uint32, self S, acc A, hasAcc bool) S
	ScatterDirection() engine.Direction
	Scatter(v uint32, e arc, self, other S) bool
}

// perEdge adapts an edgeProgram to engine.Program: it owns the per-vertex
// and per-edge loops, visiting each run's arcs in CSR order and folding
// with Sum left to right. Pre/PostIteration hooks of p are forwarded.
func perEdge[S, A any](p edgeProgram[S, A]) engine.Program[S, A] {
	a := &perEdgeProgram[S, A]{edgeProgram: p}
	a.pre, _ = p.(engine.PreIterator[S])
	a.post, _ = p.(engine.PostIterator[S])
	return a
}

type perEdgeProgram[S, A any] struct {
	edgeProgram[S, A]
	pre  engine.PreIterator[S]
	post engine.PostIterator[S]
}

// arcOf returns the i-th arc of the run nb points at.
func arcOf[S any](nb *engine.Edges[S], i int) arc {
	return arc{Index: nb.Index(i), Other: nb.Other[i], Weight: nb.Weight(i)}
}

func (a *perEdgeProgram[S, A]) Gather(vs []uint32, side *graph.CSR, state []S, acc []A, hasAcc []bool) {
	p, nb := a.edgeProgram, engine.NewEdges(side, state)
	for _, v := range vs {
		if !nb.Of(v) {
			continue
		}
		self, fold, has := state[v], &acc[v], hasAcc[v]
		for i, o := range nb.Other {
			c := p.Gather(v, arcOf(&nb, i), self, state[o])
			if has {
				*fold = p.Sum(*fold, c)
			} else {
				*fold, has = c, true
			}
		}
		hasAcc[v] = has
	}
}

func (a *perEdgeProgram[S, A]) Apply(vs []uint32, state []S, acc []A, hasAcc []bool) {
	for _, v := range vs {
		state[v] = a.edgeProgram.Apply(v, state[v], acc[v], hasAcc[v])
	}
}

func (a *perEdgeProgram[S, A]) Scatter(vs []uint32, side *graph.CSR, state []S, out *engine.Signals) {
	p, nb := a.edgeProgram, engine.NewEdges(side, state)
	for _, v := range vs {
		if !nb.Of(v) {
			continue
		}
		self := state[v]
		for i, o := range nb.Other {
			if p.Scatter(v, arcOf(&nb, i), self, state[o]) {
				out.Send(o)
			}
		}
	}
}

func (a *perEdgeProgram[S, A]) PreIteration(c *engine.Control[S]) {
	if a.pre != nil {
		a.pre.PreIteration(c)
	}
}

func (a *perEdgeProgram[S, A]) PostIteration(c *engine.Control[S]) bool {
	return a.post != nil && a.post.PostIteration(c)
}

// kernelEdgeProgram is a propagation Kernel as a per-edge GAS program:
// gather the offers of in-neighbors, apply the best one if it improves,
// signal every out-neighbor this vertex can still improve. It is the
// reference the hand-specialised granule-shaped ccProgram and ssspProgram are
// held to, run through perEdge.
type kernelEdgeProgram[S any] struct{ k Kernel[S] }

func (p kernelEdgeProgram[S]) Init(_ *graph.Graph, v uint32) (S, bool) { return p.k.Init(v) }
func (kernelEdgeProgram[S]) GatherDirection() engine.Direction         { return engine.In }
func (p kernelEdgeProgram[S]) Gather(_ uint32, e arc, _, other S) S {
	return p.k.Along(other, e.Weight)
}
func (p kernelEdgeProgram[S]) Sum(a, b S) S {
	if p.k.Better(a, b) {
		return a
	}
	return b
}
func (p kernelEdgeProgram[S]) Apply(_ uint32, self, acc S, hasAcc bool) S {
	if hasAcc && p.k.Better(acc, self) {
		return acc
	}
	return self
}
func (kernelEdgeProgram[S]) ScatterDirection() engine.Direction { return engine.Out }
func (p kernelEdgeProgram[S]) Scatter(_ uint32, e arc, self, other S) bool {
	return p.k.Better(p.k.Along(self, e.Weight), other)
}

// The six wide-accumulator programs as they were before they folded in
// place: one contribution per edge by value, folded with Sum, one scatter
// decision per edge. Each embeds the program it is the oracle of, so
// Init, Apply (through oneVertex) and the iteration hooks are shared and
// only the edge work differs. (alsEdgeOracle fills the whole of A;
// Apply's solver reads the lower triangle of either.)

// oneVertex runs a granule-shaped Apply on one-vertex granules over
// scratch slices as long as the graph: the per-vertex Apply an oracle
// shares with the program it checks.
type oneVertex[S, A any] struct {
	state  []S
	acc    []A
	hasAcc []bool
}

func newOneVertex[S, A any](g *graph.Graph) *oneVertex[S, A] {
	n := g.NumVertices()
	return &oneVertex[S, A]{make([]S, n), make([]A, n), make([]bool, n)}
}

func (o *oneVertex[S, A]) apply(p engine.Program[S, A], v uint32, self S, acc A, has bool) S {
	o.state[v], o.acc[v], o.hasAcc[v] = self, acc, has
	p.Apply([]uint32{v}, o.state, o.acc, o.hasAcc)
	return o.state[v]
}

type alsEdgeOracle struct {
	*alsProgram
	one *oneVertex[cfState, alsAccum]
}

func (o alsEdgeOracle) Apply(v uint32, self cfState, acc alsAccum, has bool) cfState {
	return o.one.apply(o.alsProgram, v, self, acc, has)
}

func (alsEdgeOracle) Gather(_ uint32, e arc, _, other cfState) alsAccum {
	var acc alsAccum
	for i := 0; i < cfRank; i++ {
		fi := other.F[i]
		acc.B[i] = e.Weight * fi
		row := &acc.A[i]
		for j := 0; j < cfRank; j++ {
			row[j] = fi * other.F[j]
		}
	}
	acc.N = 1
	return acc
}

func (alsEdgeOracle) Sum(a, b alsAccum) alsAccum {
	for i := range a.A {
		for j := range a.A[i] {
			a.A[i][j] += b.A[i][j]
		}
	}
	for i := range a.B {
		a.B[i] += b.B[i]
	}
	a.N += b.N
	return a
}

func (o alsEdgeOracle) Scatter(_ uint32, _ arc, self, _ cfState) bool {
	return self.Delta > o.tol
}

type kmEdgeOracle struct {
	*kmProgram
	one *oneVertex[kmState, kmVotes]
}

func (o kmEdgeOracle) Apply(v uint32, self kmState, acc kmVotes, has bool) kmState {
	return o.one.apply(o.kmProgram, v, self, acc, has)
}

func (o kmEdgeOracle) Gather(_ uint32, e arc, _, other kmState) kmVotes {
	var v kmVotes
	if int(other.Assign) < o.k {
		v[other.Assign] = e.Weight
	}
	return v
}

func (o kmEdgeOracle) Sum(a, b kmVotes) kmVotes {
	for i := 0; i < o.k; i++ {
		a[i] += b[i]
	}
	return a
}

func (kmEdgeOracle) Scatter(_ uint32, _ arc, self, _ kmState) bool { return self.Changed }

type nmfEdgeOracle struct {
	*nmfProgram
	one *oneVertex[cfState, nmfAccum]
}

func (o nmfEdgeOracle) Apply(v uint32, self cfState, acc nmfAccum, has bool) cfState {
	return o.one.apply(o.nmfProgram, v, self, acc, has)
}

func (nmfEdgeOracle) Gather(_ uint32, e arc, self, other cfState) nmfAccum {
	var acc nmfAccum
	pred := 0.0
	for i := 0; i < cfRank; i++ {
		pred += self.F[i] * other.F[i]
	}
	for i := 0; i < cfRank; i++ {
		acc.Num[i] = e.Weight * other.F[i]
		acc.Den[i] = pred * other.F[i]
	}
	return acc
}

func (nmfEdgeOracle) Sum(a, b nmfAccum) nmfAccum {
	for i := 0; i < cfRank; i++ {
		a.Num[i] += b.Num[i]
		a.Den[i] += b.Den[i]
	}
	return a
}

func (nmfEdgeOracle) Scatter(uint32, arc, cfState, cfState) bool { return true }

type sgdEdgeOracle struct {
	*sgdProgram
	one *oneVertex[cfState, cfFactor]
}

func (o sgdEdgeOracle) Apply(v uint32, self cfState, acc cfFactor, has bool) cfState {
	return o.one.apply(o.sgdProgram, v, self, acc, has)
}

func (sgdEdgeOracle) Gather(_ uint32, e arc, self, other cfState) cfFactor {
	pred := 0.0
	for i := 0; i < cfRank; i++ {
		pred += self.F[i] * other.F[i]
	}
	errTerm := e.Weight - pred
	var g cfFactor
	for i := 0; i < cfRank; i++ {
		g[i] = errTerm * other.F[i]
	}
	return g
}

func (sgdEdgeOracle) Sum(a, b cfFactor) cfFactor {
	for i := 0; i < cfRank; i++ {
		a[i] += b[i]
	}
	return a
}

func (sgdEdgeOracle) Scatter(uint32, arc, cfState, cfState) bool { return true }

type adEdgeOracle struct {
	*adProgram
	one *oneVertex[adState, adState]
}

func (o adEdgeOracle) Apply(v uint32, self, acc adState, has bool) adState {
	return o.one.apply(o.adProgram, v, self, acc, has)
}

func (adEdgeOracle) Gather(_ uint32, _ arc, _, other adState) adState {
	other.Changed = false
	return other
}

func (adEdgeOracle) Sum(a, b adState) adState {
	for k := 0; k < adSketches; k++ {
		a.Masks[k] |= b.Masks[k]
	}
	return a
}

func (adEdgeOracle) Scatter(uint32, arc, adState, adState) bool { return true }

type lbpEdgeOracle struct {
	*lbpProgram
	one *oneVertex[lbpState, lbpBelief]
}

func (o lbpEdgeOracle) Apply(v uint32, self lbpState, acc lbpBelief, has bool) lbpState {
	return o.one.apply(o.lbpProgram, v, self, acc, has)
}

func (o lbpEdgeOracle) Gather(_ uint32, e arc, _, _ lbpState) lbpBelief {
	p := o.lbpProgram
	n := p.states()
	in := p.msg[p.rev[e.Index]*int64(n) : p.rev[e.Index]*int64(n)+int64(n)]
	copy(p.inbox[e.Index*int64(n):e.Index*int64(n)+int64(n)], in)
	var b lbpBelief
	for x := 0; x < n; x++ {
		b[x] = in[x]
	}
	for x := n; x < lbpMaxStates; x++ {
		b[x] = 1
	}
	return b
}

func (lbpEdgeOracle) Sum(a, b lbpBelief) lbpBelief {
	for x := 0; x < lbpMaxStates; x++ {
		a[x] *= b[x]
	}
	return a
}

func (o lbpEdgeOracle) Scatter(v uint32, e arc, _, _ lbpState) bool {
	p := o.lbpProgram
	n := p.states()
	lo, hi := p.m.G.OutArcRange(v)
	var prod [lbpMaxStates]float64
	for x := 0; x < n; x++ {
		prod[x] = p.m.Unary[v][x]
	}
	for a := lo; a < hi; a++ {
		if a == e.Index {
			continue
		}
		in := p.inbox[a*int64(n) : a*int64(n)+int64(n)]
		for x := 0; x < n; x++ {
			prod[x] *= in[x]
		}
	}
	out := p.msg[e.Index*int64(n) : e.Index*int64(n)+int64(n)]
	var next [lbpMaxStates]float64
	sum := 0.0
	nu := p.m.Card[e.Other]
	for xu := 0; xu < nu; xu++ {
		var s float64
		for xv := 0; xv < n; xv++ {
			s += p.m.PairwiseFor(e.Index, v, xv, xu) * prod[xv]
		}
		next[xu] = s
		sum += s
	}
	if sum <= 0 {
		return false
	}
	change := 0.0
	for xu := 0; xu < nu; xu++ {
		next[xu] /= sum
		change += math.Abs(next[xu] - out[xu])
		out[xu] = next[xu]
	}
	return change > p.tol
}

// The six programs with a scalar accumulator as they were written before
// they became granule-shaped: their Gather, Sum and Scatter verbatim,
// sharing Apply and the hooks the same way.

type prEdgeOracle struct {
	*prProgram
	one *oneVertex[prState, float64]
}

func (o prEdgeOracle) Apply(v uint32, self prState, acc float64, has bool) prState {
	return o.one.apply(o.prProgram, v, self, acc, has)
}

func (o prEdgeOracle) Gather(_ uint32, e arc, _, other prState) float64 {
	return other.Rank / float64(o.g.OutDegree(e.Other))
}

func (prEdgeOracle) Sum(a, b float64) float64 { return a + b }

func (o prEdgeOracle) Scatter(_ uint32, _ arc, self, _ prState) bool {
	return self.Delta > o.tol
}

type svdEdgeOracle struct {
	*svdProgram
	one *oneVertex[svdState, float64]
}

func (o svdEdgeOracle) Apply(v uint32, self svdState, acc float64, has bool) svdState {
	return o.one.apply(o.svdProgram, v, self, acc, has)
}

func (svdEdgeOracle) Gather(_ uint32, e arc, _, other svdState) float64 {
	return e.Weight * other.X
}

func (svdEdgeOracle) Sum(a, b float64) float64 { return a + b }

func (o svdEdgeOracle) Scatter(uint32, arc, svdState, svdState) bool {
	return !o.converged
}

type jacobiEdgeOracle struct {
	*jacobiProgram
	one *oneVertex[jacobiState, float64]
}

func (o jacobiEdgeOracle) Apply(v uint32, self jacobiState, acc float64, has bool) jacobiState {
	return o.one.apply(o.jacobiProgram, v, self, acc, has)
}

func (jacobiEdgeOracle) Gather(_ uint32, e arc, _, other jacobiState) float64 {
	return e.Weight * other.X
}

func (jacobiEdgeOracle) Sum(a, b float64) float64 { return a + b }

func (o jacobiEdgeOracle) Scatter(_ uint32, _ arc, self, _ jacobiState) bool {
	return self.Delta > o.tol
}

type tcEdgeOracle struct {
	tcProgram
	g   *graph.Graph
	one *oneVertex[int64, int64]
}

func (o tcEdgeOracle) Apply(v uint32, self, acc int64, has bool) int64 {
	return o.one.apply(o.tcProgram, v, self, acc, has)
}

func (o tcEdgeOracle) Gather(v uint32, e arc, _, _ int64) int64 {
	if v > e.Other {
		return 0
	}
	return intersectSize(o.g.OutNeighbors(v), o.g.OutNeighbors(e.Other))
}

func (tcEdgeOracle) Sum(a, b int64) int64 { return a + b }

func (tcEdgeOracle) Scatter(uint32, arc, int64, int64) bool { return false }

type kcEdgeOracle struct {
	*kcProgram
	one *oneVertex[kcState, int32]
}

func (o kcEdgeOracle) Apply(v uint32, self kcState, acc int32, has bool) kcState {
	return o.one.apply(o.kcProgram, v, self, acc, has)
}

func (kcEdgeOracle) Gather(_ uint32, _ arc, _, other kcState) int32 {
	if other.Alive {
		return 1
	}
	return 0
}

func (kcEdgeOracle) Sum(a, b int32) int32 { return a + b }

func (kcEdgeOracle) Scatter(_ uint32, _ arc, self, other kcState) bool {
	return self.Dying && other.Alive
}

type ddEdgeOracle struct {
	*ddProgram
	one *oneVertex[ddState, float64]
}

func (o ddEdgeOracle) Apply(v uint32, self ddState, acc float64, has bool) ddState {
	return o.one.apply(o.ddProgram, v, self, acc, has)
}

func (o ddEdgeOracle) Gather(v uint32, e arc, _, _ ddState) float64 {
	p := o.ddProgram
	n := p.states()
	nu := p.m.Card[e.Other]
	myDual := p.dual[e.Index*int64(n) : e.Index*int64(n)+int64(n)]
	otherDual := p.dual[p.rev[e.Index]*int64(nu) : p.rev[e.Index]*int64(nu)+int64(nu)]
	best := math.Inf(1)
	bestXv := int32(0)
	for xv := 0; xv < n; xv++ {
		for xu := 0; xu < nu; xu++ {
			cost := -math.Log(p.m.PairwiseFor(e.Index, v, xv, xu)) +
				myDual[xv] + otherDual[xu]
			if cost < best {
				best = cost
				bestXv = int32(xv)
			}
		}
	}
	p.edgeMin[e.Index] = bestXv
	return best / 2
}

func (ddEdgeOracle) Sum(a, b float64) float64 { return a + b }

func (o ddEdgeOracle) Scatter(v uint32, e arc, self, _ ddState) bool {
	p := o.ddProgram
	n := p.states()
	d := p.dual[e.Index*int64(n) : e.Index*int64(n)+int64(n)]
	em := p.edgeMin[e.Index]
	if em != self.Assign {
		d[em] += p.step
		d[self.Assign] -= p.step
	}
	return true
}

// randomMultigraph keeps parallel edges (self-loops are dropped), and leaves some
// vertices isolated.
func randomMultigraph(t *testing.T, r *rand.Rand, n, m int, directed, weighted bool) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n, directed)
	if weighted {
		b.Weighted()
	}
	for i := 0; i < m; i++ {
		u, v := uint32(r.Intn(n*3/4)), uint32(r.Intn(n*3/4))
		b.AddWeightedEdge(u, v, 0.25+4*r.Float64())
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// sameRun requires two runs of one algorithm to agree exactly: final
// states (== on every field, so a NaN fails rather than passes), and
// every iteration's behavior counters and schedule labels.
func sameRun[S comparable](t *testing.T, got, want *engine.Result[S]) {
	t.Helper()
	for v := range want.States {
		if got.States[v] != want.States[v] {
			t.Fatalf("state[%d] = %v, per-edge oracle %v", v, got.States[v], want.States[v])
		}
	}
	if len(got.Trace.Iterations) != len(want.Trace.Iterations) || got.Trace.Converged != want.Trace.Converged {
		t.Fatalf("%d iterations (converged %v), per-edge oracle %d (%v)",
			len(got.Trace.Iterations), got.Trace.Converged, len(want.Trace.Iterations), want.Trace.Converged)
	}
	for i, w := range want.Trace.Iterations {
		g := got.Trace.Iterations[i]
		if g.Active != w.Active || g.Updates != w.Updates || g.EdgeReads != w.EdgeReads || g.Messages != w.Messages {
			t.Fatalf("iteration %d active/updates/reads/messages = %d/%d/%d/%d, per-edge oracle %d/%d/%d/%d",
				i, g.Active, g.Updates, g.EdgeReads, g.Messages, w.Active, w.Updates, w.EdgeReads, w.Messages)
		}
		if g.GatherMode != w.GatherMode || g.ApplyMode != w.ApplyMode || g.ScatterMode != w.ScatterMode {
			t.Fatalf("iteration %d modes %q/%q/%q, per-edge oracle %q/%q/%q",
				i, g.GatherMode, g.ApplyMode, g.ScatterMode, w.GatherMode, w.ApplyMode, w.ScatterMode)
		}
	}
}

// everySchedule runs body under each frontier mode on one and four
// workers (four exercises the shared Signals path under -race).
func everySchedule(t *testing.T, maxIterations int, body func(t *testing.T, opt engine.Options)) {
	for _, frontier := range []FrontierMode{FrontierAuto, FrontierDense, FrontierSparse} {
		for _, workers := range []int{1, 4} {
			opt := engine.Options{Workers: workers, Frontier: frontier, MaxIterations: maxIterations}
			t.Run(fmt.Sprintf("%v/workers=%d", frontier, workers), func(t *testing.T) { body(t, opt) })
		}
	}
}

// sameAsEdgeOracle runs a granule-shaped program and its per-edge oracle and
// requires the two runs to be the same run, and long enough (three
// iterations) that accumulator slots were reused.
func sameAsEdgeOracle[S comparable, A any](t *testing.T, g *graph.Graph, opt engine.Options,
	p engine.Program[S, A], oracle edgeProgram[S, A]) {
	t.Helper()
	if n := sameRunAsEdgeOracle(t, g, opt, p, oracle); n < 3 {
		t.Fatalf("only %d iterations: no accumulator slot was reused", n)
	}
}

// sameRunAsEdgeOracle is sameAsEdgeOracle for a program of any run
// length (TC finishes in one iteration); it returns the iteration count.
func sameRunAsEdgeOracle[S comparable, A any](t *testing.T, g *graph.Graph, opt engine.Options,
	p engine.Program[S, A], oracle edgeProgram[S, A]) int {
	t.Helper()
	got, err := engine.Run(g, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.Run(g, perEdge(oracle), opt)
	if err != nil {
		t.Fatal(err)
	}
	sameRun(t, got, want)
	return len(want.Trace.Iterations)
}

// TestRunShapedMatchesPerEdgeOracle is the differential check of every
// granule-shaped program against its per-edge definition — final states to
// the bit, counters and mode labels — under every schedule. CC and SSSP
// are held to the kernels every other execution model derives its
// program from, over every graph shape the run view has a separate case
// for (in-runs of directed graphs, weighted arcs). The other twelve are
// held to the per-edge Gather, Sum and Scatter they were written as —
// ALS, NMF, SGD, KM, AD and LBP to the by-value folds of wide
// accumulators, PR, SVD, Jacobi, TC, KC and DD to their scalar ones — on
// inputs that reach every case of an in-place fold: an out-run continued
// by an in-run, vertices with no run at all, parallel arcs, more than
// one 4096-vertex chunk.
func TestRunShapedMatchesPerEdgeOracle(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for _, directed := range []bool{false, true} {
		for _, weighted := range []bool{false, true} {
			// Two chunks and a tail, sparse enough to take many iterations.
			g := randomMultigraph(t, r, 2*4096+300, 14_000, directed, weighted)
			source := g.MaxDegreeVertex()
			name := fmt.Sprintf("directed=%v/weighted=%v", directed, weighted)
			t.Run("CC/"+name, func(t *testing.T) {
				everySchedule(t, 0, func(t *testing.T, opt engine.Options) {
					sameAsEdgeOracle[uint32, uint32](t, g, opt, ccProgram{}, kernelEdgeProgram[uint32]{MinLabel{}})
				})
			})
			t.Run("SSSP/"+name, func(t *testing.T) {
				everySchedule(t, 0, func(t *testing.T, opt engine.Options) {
					sameAsEdgeOracle[float64, float64](t, g, opt, &ssspProgram{source: source}, kernelEdgeProgram[float64]{Relax{Source: source}})
				})
			})
			if weighted {
				continue // PR reads no weights
			}
			t.Run("PR/"+name, func(t *testing.T) {
				everySchedule(t, 0, func(t *testing.T, opt engine.Options) {
					p := &prProgram{g: g, damping: 0.85, tol: 1e-3}
					sameAsEdgeOracle[prState, float64](t, g, opt, p, prEdgeOracle{p, newOneVertex[prState, float64](g)})
				})
			})
		}
	}

	// Ratings: 5000 users then 4000 items, the last quarter of each side
	// unrated, repeated (user, item) pairs kept as parallel arcs. A few
	// items also rate users, so some vertices fold an out-run and then an
	// in-run into one accumulator.
	const users, items = 5000, 4000
	b := graph.NewBuilder(users+items, true).Weighted()
	for i := 0; i < 12_000; i++ {
		b.AddWeightedEdge(uint32(r.Intn(users*3/4)), uint32(users+r.Intn(items*3/4)), 0.25+4*r.Float64())
	}
	for i := 0; i < 500; i++ {
		b.AddWeightedEdge(uint32(users+r.Intn(50)), uint32(r.Intn(50)), 0.25+4*r.Float64())
	}
	ratings, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	t.Run("ALS", func(t *testing.T) {
		everySchedule(t, 8, func(t *testing.T, opt engine.Options) {
			p := &alsProgram{numUsers: users, lambda: 0.05, tol: 5e-3}
			sameAsEdgeOracle[cfState, alsAccum](t, ratings, opt, p, alsEdgeOracle{p, newOneVertex[cfState, alsAccum](ratings)})
		})
	})
	t.Run("NMF", func(t *testing.T) {
		everySchedule(t, 0, func(t *testing.T, opt engine.Options) {
			p := &nmfProgram{iters: 5}
			sameAsEdgeOracle[cfState, nmfAccum](t, ratings, opt, p, nmfEdgeOracle{p, newOneVertex[cfState, nmfAccum](ratings)})
		})
	})
	t.Run("SGD", func(t *testing.T) {
		everySchedule(t, 0, func(t *testing.T, opt engine.Options) {
			p := &sgdProgram{lr: 0.01, reg: 0.05, iters: 5}
			sameAsEdgeOracle[cfState, cfFactor](t, ratings, opt, p, sgdEdgeOracle{p, newOneVertex[cfState, cfFactor](ratings)})
		})
	})
	// SVD's Lanczos bookkeeping is the program's own state, so the oracle
	// wraps a second instance; five steps and three restarts keep the run
	// short but take it through a restart.
	t.Run("SVD", func(t *testing.T) {
		everySchedule(t, 0, func(t *testing.T, opt engine.Options) {
			svd := func() *svdProgram {
				return &svdProgram{numUsers: users, steps: 5, maxRuns: 3, tol: 1e-4, needNormalize: true}
			}
			sameAsEdgeOracle[svdState, float64](t, ratings, opt, svd(), svdEdgeOracle{svd(), newOneVertex[svdState, float64](ratings)})
		})
	})

	// KM and AD: an undirected weighted multigraph with isolated vertices.
	// KM's centroids are the program's own state, so the oracle wraps a
	// second instance.
	g := randomMultigraph(t, r, 2*4096+300, 14_000, false, true)
	if err := g.SetFeatures(2, gen.GaussianPoints2D(g.NumVertices(), 4, 20, 26)); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{3, maxK} {
		km := func() *kmProgram {
			p := &kmProgram{g: g, k: k, lambda: 0.1, counts: make([]float64, k), tol: 1e-9, centroids: make([][2]float64, k)}
			for c := range p.centroids {
				pt := g.Features(uint32(c * 97))
				p.centroids[c] = [2]float64{pt[0], pt[1]}
			}
			return p
		}
		t.Run(fmt.Sprintf("KM/k=%d", k), func(t *testing.T) {
			everySchedule(t, 12, func(t *testing.T, opt engine.Options) {
				sameAsEdgeOracle[kmState, kmVotes](t, g, opt, km(), kmEdgeOracle{km(), newOneVertex[kmState, kmVotes](g)})
			})
		})
	}
	t.Run("AD", func(t *testing.T) {
		everySchedule(t, 0, func(t *testing.T, opt engine.Options) {
			sameAsEdgeOracle[adState, adState](t, g, opt, &adProgram{}, adEdgeOracle{&adProgram{}, newOneVertex[adState, adState](g)})
		})
	})
	t.Run("KC", func(t *testing.T) {
		everySchedule(t, 0, func(t *testing.T, opt engine.Options) {
			sameAsEdgeOracle[kcState, int32](t, g, opt, &kcProgram{k: 1}, kcEdgeOracle{&kcProgram{k: 1}, newOneVertex[kcState, int32](g)})
		})
	})

	// Jacobi: a directed weighted matrix graph of uniform row degree, run
	// to a looser tolerance than the solver's so that it converges sooner.
	sys, err := gen.Matrix(gen.JacobiConfig{NumRows: 2*4096 + 300, Seed: 26})
	if err != nil {
		t.Fatal(err)
	}
	t.Run("Jacobi", func(t *testing.T) {
		everySchedule(t, 0, func(t *testing.T, opt engine.Options) {
			p := &jacobiProgram{diag: sys.Diag, b: sys.B, tol: 1e-6}
			sameAsEdgeOracle[jacobiState, float64](t, sys.G, opt, p, jacobiEdgeOracle{p, newOneVertex[jacobiState, float64](sys.G)})
		})
	})

	// TC: a deduplicated power-law graph with sorted adjacency, as the
	// sweep builds; one iteration is the whole run.
	pl := powerLawGraph(t, 30_000, 2.2, 26, true)
	t.Run("TC", func(t *testing.T) {
		everySchedule(t, 0, func(t *testing.T, opt engine.Options) {
			sameRunAsEdgeOracle[int64, int64](t, pl, opt, tcProgram{}, tcEdgeOracle{tcProgram{}, pl, newOneVertex[int64, int64](pl)})
		})
	})

	// LBP: gather and scatter also write the program's own inbox and
	// message arrays, which must end up the same too.
	for _, states := range []int{2, lbpMaxStates} {
		m, err := gen.Grid(gen.GridConfig{Rows: 70, States: states, Seed: 26})
		if err != nil {
			t.Fatal(err)
		}
		lbp := func() *lbpProgram {
			arcs := m.G.NumArcs() * int64(states)
			p := &lbpProgram{m: m, rev: m.G.ReverseArcs(), msg: make([]float64, arcs), inbox: make([]float64, arcs), tol: 1e-4}
			for i := range p.msg {
				p.msg[i] = 1 / float64(states)
			}
			copy(p.inbox, p.msg)
			return p
		}
		t.Run(fmt.Sprintf("LBP/states=%d", states), func(t *testing.T) {
			everySchedule(t, 12, func(t *testing.T, opt engine.Options) {
				p, o := lbp(), lbp()
				sameAsEdgeOracle[lbpState, lbpBelief](t, m.G, opt, p, lbpEdgeOracle{o, newOneVertex[lbpState, lbpBelief](m.G)})
				if !slices.Equal(p.inbox, o.inbox) || !slices.Equal(p.msg, o.msg) {
					t.Fatal("inbox or messages differ from the per-edge oracle's")
				}
			})
		})
	}

	// DD: gather and scatter write the program's own duals and edge
	// minimizers, and the oracle evaluates -log φ where the program reads
	// its table. The generator's potentials are symmetric; skewing them
	// makes a table read in the wrong orientation show.
	for _, states := range []int{2, ddMaxStates} {
		m, err := gen.MRF(gen.MRFConfig{NumEdges: 5000, States: states, Seed: 26})
		if err != nil {
			t.Fatal(err)
		}
		for _, phi := range m.Pairwise {
			for i := range phi {
				phi[i] *= 0.5 + r.Float64()
			}
		}
		t.Run(fmt.Sprintf("DD/states=%d", states), func(t *testing.T) {
			everySchedule(t, 12, func(t *testing.T, opt engine.Options) {
				p, o := newDDProgram(m, 0.5), newDDProgram(m, 0.5)
				sameAsEdgeOracle[ddState, float64](t, m.G, opt, p, ddEdgeOracle{o, newOneVertex[ddState, float64](m.G)})
				if !slices.Equal(p.dual, o.dual) || !slices.Equal(p.edgeMin, o.edgeMin) {
					t.Fatal("duals or edge minimizers differ from the per-edge oracle's")
				}
			})
		})
	}
}
