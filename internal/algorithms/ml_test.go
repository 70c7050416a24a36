package algorithms

import (
	"math"
	"testing"

	"gcbench/internal/engine"
	"gcbench/internal/gen"
	"gcbench/internal/graph"
	"gcbench/internal/rng"
)

// ratingGraph builds a small bipartite rating graph for CF tests.
func ratingGraph(t testing.TB, edges int64, alpha float64, seed uint64) (*graph.Graph, int) {
	t.Helper()
	g, users, err := gen.Bipartite(gen.BipartiteConfig{NumEdges: edges, Alpha: alpha, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return g, users
}

// lowRankRatingGraph builds an exactly rank-2 rating matrix so the
// factorizers have a reachable optimum.
func lowRankRatingGraph(t testing.TB, users, perUser int) (*graph.Graph, int) {
	t.Helper()
	n := 2 * users
	b := graph.NewBuilder(n, true).Weighted().Dedup()
	for u := 0; u < users; u++ {
		// Rank-2 latent structure.
		u1 := 1 + 0.5*math.Sin(float64(u))
		u2 := 1 + 0.5*math.Cos(float64(2*u))
		for k := 0; k < perUser; k++ {
			item := (u*perUser + k*7) % users
			i1 := 1 + 0.5*math.Cos(float64(item))
			i2 := 1 + 0.5*math.Sin(float64(3*item))
			b.AddWeightedEdge(uint32(u), uint32(users+item), u1*i1+u2*i2)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, users
}

// initialRMSE evaluates the RMSE of the deterministic starting factors, to
// show the optimizers actually improved on it.
func initialRMSE(g *graph.Graph, scale float64) float64 {
	f := make([]cfFactor, g.NumVertices())
	for v := range f {
		f[v] = initFactor(uint32(v), scale)
	}
	return ratingRMSE(g, f)
}

// --- KM ---

func kmGraph(t testing.TB, edges int64, points int, seed uint64) *graph.Graph {
	t.Helper()
	g, err := gen.PowerLaw(gen.PowerLawConfig{NumEdges: edges, Alpha: 2.5, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	pts := gen.GaussianPoints2D(g.NumVertices(), 4, 20, seed)
	if err := g.SetFeatures(2, pts); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestKMeansConvergesAndClusters(t *testing.T) {
	g := kmGraph(t, 2000, 0, 3)
	out, assign, err := KMeans(g, KMeansOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Trace.Converged {
		t.Fatal("KM did not converge")
	}
	if out.Summary["clusters"] < 2 {
		t.Fatalf("clusters = %v, want at least 2", out.Summary["clusters"])
	}
	if len(assign) != g.NumVertices() {
		t.Fatalf("assignment length %d", len(assign))
	}
	// Paper (Fig. 5): all vertices active for the whole lifecycle.
	for _, it := range out.Trace.Iterations {
		if it.Active != int64(g.NumVertices()) {
			t.Fatalf("iteration %d active = %d, want all %d", it.Iteration, it.Active, g.NumVertices())
		}
	}
	// EREAD should be constant across iterations (all arcs every time).
	first := out.Trace.Iterations[0].EdgeReads
	for _, it := range out.Trace.Iterations {
		if it.EdgeReads != first {
			t.Fatalf("EREAD varies: %d vs %d", it.EdgeReads, first)
		}
	}
}

// TestKMeansLambdaZeroMatchesLloyd runs KMeans' program with the
// neighbor reward switched off: the graph coupling is all that separates
// it from plain Lloyd's, so its answer must be a Lloyd fixed point.
func TestKMeansLambdaZeroMatchesLloyd(t *testing.T) {
	g := kmGraph(t, 500, 0, 7)
	n := g.NumVertices()
	const k = kmK
	p := newKMProgram(g, 7)
	p.lambda = 0
	res, err := engine.Run[kmState, kmVotes](g, p, engine.Options{MaxIterations: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Trace.Converged {
		t.Fatal("KM did not converge")
	}
	assign := make([]int32, n)
	for v, s := range res.States {
		assign[v] = s.Assign
	}
	// Serial Lloyd's from the same starting assignment cannot produce a
	// worse inertia than what KMeans reports if both converged; instead of
	// replicating seeding, verify the fixed point property: each point is
	// assigned to its nearest final centroid.
	cent := make([][2]float64, k)
	cnt := make([]float64, k)
	for v := 0; v < n; v++ {
		pt := g.Features(uint32(v))
		cent[assign[v]][0] += pt[0]
		cent[assign[v]][1] += pt[1]
		cnt[assign[v]]++
	}
	for c := 0; c < k; c++ {
		if cnt[c] > 0 {
			cent[c][0] /= cnt[c]
			cent[c][1] /= cnt[c]
		}
	}
	for v := 0; v < n; v++ {
		pt := g.Features(uint32(v))
		best, bestD := -1, math.Inf(1)
		for c := 0; c < k; c++ {
			if cnt[c] == 0 {
				continue
			}
			dx, dy := pt[0]-cent[c][0], pt[1]-cent[c][1]
			if d := dx*dx + dy*dy; d < bestD {
				bestD, best = d, c
			}
		}
		if best != int(assign[v]) {
			// Allow ties.
			dx, dy := pt[0]-cent[assign[v]][0], pt[1]-cent[assign[v]][1]
			if dx*dx+dy*dy > bestD+1e-9 {
				t.Fatalf("vertex %d assigned to %d but %d is nearer", v, assign[v], best)
			}
		}
	}
}

func TestKMeansValidation(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{NumEdges: 100, Alpha: 2.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := KMeans(g, KMeansOptions{}); err == nil {
		t.Fatal("graph without features accepted")
	}
}

// nearestLoopOracle is kmProgram.nearest before it became a
// compare-and-select scan, verbatim.
func nearestLoopOracle(p *kmProgram, pt []float64, votes *kmVotes) int32 {
	best := int32(0)
	bestCost := math.Inf(1)
	for c := range p.centroids {
		dx := pt[0] - p.centroids[c][0]
		dy := pt[1] - p.centroids[c][1]
		cost := dx*dx + dy*dy
		if votes != nil {
			cost -= p.lambda * votes[c]
		}
		if cost < bestCost {
			bestCost = cost
			best = int32(c)
		}
	}
	return best
}

// TestKMeansNearestMatchesLoop holds nearest to the loop it replaced:
// over random points, centroids and votes at k = 1 to kmK, and over exact
// ties, ±0 costs and ±Inf and NaN votes. nil votes score as zero votes.
func TestKMeansNearestMatchesLoop(t *testing.T) {
	check := func(t *testing.T, p *kmProgram, pt []float64, votes *kmVotes) {
		t.Helper()
		if got, want := p.nearest(pt, votes), nearestLoopOracle(p, pt, votes); got != want {
			t.Fatalf("nearest(%v, %v) over %v = %d, loop %d", pt, votes, p.centroids, got, want)
		}
		if got, want := p.nearest(pt, nil), p.nearest(pt, &kmVotes{}); got != want {
			t.Fatalf("nearest(%v, nil) = %d, zero votes %d", pt, got, want)
		}
	}
	program := func(lambda float64, centroids ...[2]float64) *kmProgram {
		return &kmProgram{lambda: lambda, centroids: centroids}
	}
	t.Run("random", func(t *testing.T) {
		r := rng.New(37)
		special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
		for _, k := range []int{1, 2, 3, kmK} {
			for trial := 0; trial < 2000; trial++ {
				p := program(0.1*float64(1+r.Intn(10)), make([][2]float64, k)...)
				for c := range p.centroids {
					p.centroids[c] = [2]float64{r.NormFloat64(), r.NormFloat64()}
				}
				var votes kmVotes
				for c := range votes {
					switch r.Intn(8) {
					case 0:
						votes[c] = special[r.Intn(len(special))]
					case 1, 2, 3:
						votes[c] = float64(r.Intn(4))
					}
				}
				check(t, p, []float64{r.NormFloat64(), r.NormFloat64()}, &votes)
				check(t, p, []float64{r.NormFloat64(), r.NormFloat64()}, nil)
			}
		}
	})
	origin := []float64{0, 0}
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name  string
		p     *kmProgram
		votes kmVotes
	}{
		{"tie: equal centroids", program(0.1, [2]float64{1, 1}, [2]float64{1, 1}, [2]float64{1, 1}), kmVotes{}},
		{"tie: equal distances", program(0.1, [2]float64{2, 0}, [2]float64{1, 0}, [2]float64{0, -1}, [2]float64{-1, 0}), kmVotes{}},
		{"tie: votes even out distance", program(0.5, [2]float64{1, 0}, [2]float64{2, 0}), kmVotes{0, 6}},
		{"zero costs: +0 and a -0 vote", program(0.5, [2]float64{1, 0}, [2]float64{0, 0}), kmVotes{2, math.Copysign(0, -1)}},
		{"zero costs: -0 vote first", program(0.5, [2]float64{0, 0}, [2]float64{1, 0}), kmVotes{math.Copysign(0, -1), 2}},
		{"+Inf vote wins", program(0.1, [2]float64{0, 0}, [2]float64{5, 5}), kmVotes{0, inf}},
		{"two +Inf votes tie", program(0.1, [2]float64{0, 0}, [2]float64{5, 5}, [2]float64{9, 9}), kmVotes{0, inf, inf}},
		{"-Inf votes never win", program(0.1, [2]float64{0, 0}, [2]float64{5, 5}), kmVotes{-inf, -inf}},
		{"NaN vote never wins", program(0.1, [2]float64{0, 0}, [2]float64{5, 5}), kmVotes{nan, 0}},
		{"all NaN votes", program(0.1, [2]float64{0, 0}, [2]float64{5, 5}), kmVotes{nan, nan}},
		{"k = 1", program(0.1, [2]float64{3, 4}), kmVotes{nan}},
	} {
		t.Run(tc.name, func(t *testing.T) { check(t, tc.p, origin, &tc.votes) })
	}
	t.Run("k = kmK, best last", func(t *testing.T) {
		p := program(0.1, make([][2]float64, kmK)...)
		for c := range p.centroids {
			p.centroids[c] = [2]float64{float64(kmK - c), 0}
		}
		check(t, p, origin, nil)
		if got := p.nearest(origin, nil); got != kmK-1 {
			t.Fatalf("nearest = %d, want %d", got, kmK-1)
		}
	})
}

// --- ALS ---

func TestALSFitsLowRankMatrix(t *testing.T) {
	g, users := lowRankRatingGraph(t, 60, 12)
	out, _, err := AlternatingLeastSquares(g, users, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Trace.Converged {
		t.Fatal("ALS did not converge")
	}
	if rmse := out.Summary["rmse"]; rmse > 0.1 {
		t.Fatalf("ALS RMSE on rank-2 matrix = %v, want < 0.1", rmse)
	}
	// Alternation: iteration 0 activates only users.
	if a := out.Trace.Iterations[0].Active; a != int64(users) {
		t.Fatalf("iteration 0 active = %d, want %d users", a, users)
	}
}

func TestALSImprovesOnRandomRatings(t *testing.T) {
	g, users := ratingGraph(t, 3000, 2.5, 9)
	out, _, err := AlternatingLeastSquares(g, users, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Summary["rmse"] > initialRMSE(g, 1) {
		t.Fatalf("ALS RMSE %v no better than initial %v", out.Summary["rmse"], initialRMSE(g, 1))
	}
}

// TestALSApplyDoesNotAllocate keeps the allocator out of the timed WORK
// region: the solve factors in the accumulator slot, dead after Apply.
func TestALSApplyDoesNotAllocate(t *testing.T) {
	p := &alsProgram{numUsers: 1, lambda: alsLambda, tol: alsTolerance}
	f := initFactor(7, 1)
	acc := alsAccum{B: f, N: 1}
	for i, fi := range f {
		for j, fj := range f[:i+1] {
			acc.A[i][j] = fi * fj
		}
	}
	vs, state, accs, hasAcc := []uint32{0}, make([]cfState, 1), make([]alsAccum, 1), []bool{true}
	n := testing.AllocsPerRun(100, func() {
		state[0], accs[0] = cfState{}, acc
		p.Apply(vs, state, accs, hasAcc)
	})
	if n != 0 {
		t.Fatalf("alsProgram.Apply allocates %v times per call, want 0", n)
	}
	if next := state[0]; next.Delta == 0 {
		t.Fatal("Apply kept the old factor: the solve failed")
	}
}

// TestALSApplyGranules solves granules of 1 to 9 vertices that mix
// hasAcc true and false and hold one system that is not positive
// definite. Every vertex must match the same Apply on a one-vertex
// granule bit for bit, so grouping by four and the identity padding
// change nothing; each solution must solve its ridged normal equations,
// which padding that aliased a real accumulator would break; a vertex
// without an accumulator, or with a failed solve, keeps its factor with
// Delta 0.
func TestALSApplyGranules(t *testing.T) {
	p := &alsProgram{numUsers: 1, lambda: alsLambda, tol: alsTolerance}
	r := rng.New(29)
	for size := 1; size <= 9; size++ {
		n := 2 * size
		state, acc, hasAcc := make([]cfState, n), make([]alsAccum, n), make([]bool, n)
		var vs []uint32
		for v := range n {
			state[v] = cfState{F: initFactor(uint32(v+100*size), 1), Delta: 1}
			for range 1 + r.Intn(12) {
				f := initFactor(uint32(r.Intn(1<<20)), 1)
				w := float64(1 + r.Intn(5))
				for i, fi := range f {
					acc[v].B[i] += w * fi
					for j, fj := range f[:i+1] {
						acc[v].A[i][j] += fi * fj
					}
				}
				acc[v].N++
			}
			hasAcc[v] = r.Intn(4) != 0
			if len(vs) < size && (r.Intn(2) == 0 || n-v <= size-len(vs)) {
				vs = append(vs, uint32(v))
			}
		}
		bad := vs[r.Intn(len(vs))]
		acc[bad] = alsAccum{N: 1}
		for i := range acc[bad].A {
			acc[bad].A[i][i] = -1
		}
		hasAcc[bad] = true
		orig := append([]alsAccum(nil), acc...)

		want := append([]cfState(nil), state...)
		wantAcc := append([]alsAccum(nil), acc...)
		for _, v := range vs {
			p.Apply([]uint32{v}, want, wantAcc, hasAcc)
		}
		got := append([]cfState(nil), state...)
		p.Apply(vs, got, acc, hasAcc)
		for _, v := range vs {
			if got[v] != want[v] {
				t.Fatalf("granule of %d: vertex %d = %+v, one-vertex granule %+v", size, v, got[v], want[v])
			}
			if !hasAcc[v] || v == bad {
				if got[v] != (cfState{F: state[v].F}) {
					t.Fatalf("granule of %d: vertex %d (hasAcc %v) = %+v, want its old factor with Delta 0", size, v, hasAcc[v], got[v])
				}
				continue
			}
			a := &orig[v]
			for i := range cfRank {
				lhs := p.lambda * a.N * got[v].F[i]
				for j := range cfRank {
					aij := a.A[max(i, j)][min(i, j)]
					lhs += aij * got[v].F[j]
				}
				if math.Abs(lhs-a.B[i]) > 1e-8*(1+math.Abs(a.B[i])) {
					t.Fatalf("granule of %d: vertex %d row %d residual %g", size, v, i, lhs-a.B[i])
				}
			}
		}
	}
}

func TestALSValidation(t *testing.T) {
	g, _ := ratingGraph(t, 200, 2.5, 1)
	if _, _, err := AlternatingLeastSquares(g, 0, Options{}); err == nil {
		t.Fatal("numUsers=0 accepted")
	}
	und, err := gen.PowerLaw(gen.PowerLawConfig{NumEdges: 100, Alpha: 2.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := AlternatingLeastSquares(und, 5, Options{}); err == nil {
		t.Fatal("undirected unweighted graph accepted")
	}
}

// --- NMF ---

func TestNMFRunsTwentyIterationsAllActive(t *testing.T) {
	g, users := ratingGraph(t, 2000, 2.5, 11)
	out, factors, err := NonnegativeMatrixFactorization(g, users, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Paper: NMF runs exactly the 20-iteration cap, all vertices active.
	if out.Trace.NumIterations() != 20 {
		t.Fatalf("iterations = %d, want 20", out.Trace.NumIterations())
	}
	for _, it := range out.Trace.Iterations {
		if it.Active != int64(g.NumVertices()) {
			t.Fatalf("active = %d, want all", it.Active)
		}
	}
	// Non-negativity must be preserved.
	for v, f := range factors {
		for i, x := range f {
			if x < 0 {
				t.Fatalf("factor[%d][%d] = %v negative", v, i, x)
			}
		}
	}
	if out.Summary["rmse"] > initialRMSE(g, 1) {
		t.Fatalf("NMF RMSE %v no better than initial %v", out.Summary["rmse"], initialRMSE(g, 1))
	}
}

func TestNMFReducesRMSEMonotonicallyOnAverage(t *testing.T) {
	g, users := lowRankRatingGraph(t, 50, 10)
	// An engine cap of 3 stops the run where a 3-iteration budget would.
	short, _, err := NonnegativeMatrixFactorization(g, users, Options{MaxIterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	long, _, err := NonnegativeMatrixFactorization(g, users, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if long.Summary["rmse"] > short.Summary["rmse"]+1e-9 {
		t.Fatalf("more NMF iterations worsened RMSE: %v → %v",
			short.Summary["rmse"], long.Summary["rmse"])
	}
}

// --- SGD ---

func TestSGDImprovesRMSE(t *testing.T) {
	g, users := lowRankRatingGraph(t, 60, 12)
	out, _, err := StochasticGradientDescent(g, users, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Trace.NumIterations() != 20 {
		t.Fatalf("iterations = %d, want the 20-iteration cap", out.Trace.NumIterations())
	}
	if out.Summary["rmse"] > initialRMSE(g, 0.5)*0.8 {
		t.Fatalf("SGD RMSE %v did not improve enough on initial %v",
			out.Summary["rmse"], initialRMSE(g, 0.5))
	}
	// All active, and MSG = all arcs every iteration (paper: SGD is the
	// most message-intensive algorithm).
	for _, it := range out.Trace.Iterations {
		if it.Active != int64(g.NumVertices()) {
			t.Fatalf("active = %d, want all", it.Active)
		}
		if it.Messages != g.NumArcs()*2 {
			// Both directions scatter over every arc.
			t.Fatalf("messages = %d, want %d", it.Messages, g.NumArcs()*2)
		}
	}
}

// --- SVD ---

// denseTopSingularValue is the reference: power iteration on AᵀA.
func denseTopSingularValue(g *graph.Graph, users int) float64 {
	items := g.NumVertices() - users
	v := make([]float64, items)
	for i := range v {
		v[i] = 1
	}
	for iter := 0; iter < 500; iter++ {
		u := make([]float64, users)
		for uu := 0; uu < users; uu++ {
			lo, hi := g.OutArcRange(uint32(uu))
			for a := lo; a < hi; a++ {
				u[uu] += g.ArcWeight(a) * v[int(g.ArcTarget(a))-users]
			}
		}
		nv := make([]float64, items)
		for uu := 0; uu < users; uu++ {
			lo, hi := g.OutArcRange(uint32(uu))
			for a := lo; a < hi; a++ {
				nv[int(g.ArcTarget(a))-users] += g.ArcWeight(a) * u[uu]
			}
		}
		norm := 0.0
		for _, x := range nv {
			norm += x * x
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			return 0
		}
		for i := range nv {
			nv[i] /= norm
		}
		v = nv
	}
	// σ = ‖A·v‖ for the converged right singular vector v.
	u := make([]float64, users)
	for uu := 0; uu < users; uu++ {
		lo, hi := g.OutArcRange(uint32(uu))
		for a := lo; a < hi; a++ {
			u[uu] += g.ArcWeight(a) * v[int(g.ArcTarget(a))-users]
		}
	}
	norm := 0.0
	for _, x := range u {
		norm += x * x
	}
	return math.Sqrt(norm)
}

func TestSVDTopSingularValue(t *testing.T) {
	g, users := ratingGraph(t, 1500, 2.5, 13)
	out, sv, err := SingularValueDecomposition(g, users, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := denseTopSingularValue(g, users)
	if math.Abs(sv-want) > 0.01*want {
		t.Fatalf("top singular value = %v, want %v (±1%%)", sv, want)
	}
	if !out.Trace.Converged {
		t.Fatal("SVD did not converge")
	}
	// All vertices active the whole lifecycle.
	for _, it := range out.Trace.Iterations {
		if it.Active != int64(g.NumVertices()) {
			t.Fatalf("active = %d, want all", it.Active)
		}
	}
}

// --- Jacobi ---

func TestJacobiSolvesSystem(t *testing.T) {
	sys, err := gen.Matrix(gen.JacobiConfig{NumRows: 300, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := JacobiSolve(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Trace.Converged {
		t.Fatal("Jacobi did not converge")
	}
	if out.Summary["residual"] > 1e-6 {
		t.Fatalf("residual = %v, want < 1e-6", out.Summary["residual"])
	}
	// All vertices active for all iterations (paper §4.4).
	for _, it := range out.Trace.Iterations {
		if it.Active != int64(sys.G.NumVertices()) {
			t.Fatalf("active = %d, want all", it.Active)
		}
	}
}

func TestJacobiMatchesSerial(t *testing.T) {
	sys, err := gen.Matrix(gen.JacobiConfig{NumRows: 100, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	_, x, err := JacobiSolve(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The iteration matrix's ∞-norm ρ = max_i Σ_j |a_ij| / a_ii is below 1
	// (the diagonal is 1 + Σ|offdiag|), and the solver stops once no
	// component moves more than jacobiTolerance, so its iterate is within
	// ρ/(1−ρ)·jacobiTolerance of the solution; the serial reference below
	// is within ρ^5000 of it.
	rho := 0.0
	for i := uint32(0); int(i) < sys.G.NumVertices(); i++ {
		off := 0.0
		lo, hi := sys.G.OutArcRange(i)
		for a := lo; a < hi; a++ {
			off += math.Abs(sys.G.ArcWeight(a))
		}
		rho = max(rho, off/sys.Diag[i])
	}
	bound := rho/(1-rho)*jacobiTolerance + 1e-12 // + rounding
	// Serial Jacobi reference.
	n := sys.G.NumVertices()
	ref := make([]float64, n)
	next := make([]float64, n)
	for iter := 0; iter < 5000; iter++ {
		for i := uint32(0); int(i) < n; i++ {
			sum := 0.0
			lo, hi := sys.G.OutArcRange(i)
			for a := lo; a < hi; a++ {
				sum += sys.G.ArcWeight(a) * ref[sys.G.ArcTarget(a)]
			}
			next[i] = (sys.B[i] - sum) / sys.Diag[i]
		}
		ref, next = next, ref
	}
	for i := range ref {
		if math.Abs(x[i]-ref[i]) > bound {
			t.Fatalf("x[%d] = %v, serial %v: off by more than %v", i, x[i], ref[i], bound)
		}
	}
}

// --- LBP ---

func TestLBPSmoothsGrid(t *testing.T) {
	m, err := gen.Grid(gen.GridConfig{Rows: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	out, assign, err := LoopyBeliefPropagation(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Trace.Converged {
		t.Fatal("LBP did not converge")
	}
	if len(assign) != m.G.NumVertices() {
		t.Fatalf("assignment length %d", len(assign))
	}
	// Sharp activity drop (paper Fig. 11): the last iteration must involve
	// far fewer vertices than the first.
	its := out.Trace.Iterations
	if len(its) < 3 {
		t.Fatalf("LBP converged suspiciously fast: %d iterations", len(its))
	}
	if last := its[len(its)-1].Active; last*2 > its[0].Active {
		t.Fatalf("activity did not drop: first %d, last %d", its[0].Active, last)
	}
	// Smoothing: most vertices should agree with most neighbors.
	agree, total := 0, 0
	g := m.G
	for v := uint32(0); int(v) < g.NumVertices(); v++ {
		for _, w := range g.OutNeighbors(v) {
			total++
			if assign[v] == assign[w] {
				agree++
			}
		}
	}
	if float64(agree)/float64(total) < 0.8 {
		t.Fatalf("neighbor agreement %v, want > 0.8 after Potts smoothing", float64(agree)/float64(total))
	}
}

// serialBPExact compares LBP marginals against brute-force enumeration on
// a tiny MRF (BP is exact on trees).
func TestLBPExactOnTree(t *testing.T) {
	// Path MRF 0-1-2 with 2 states.
	b := graph.NewBuilder(3, false)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	card := []int{2, 2, 2}
	unary := [][]float64{{0.9, 0.1}, {0.5, 0.5}, {0.2, 0.8}}
	pair := [][]float64{{2, 1, 1, 2}, {2, 1, 1, 2}}
	m, err := graph.NewMRF(g, card, unary, pair)
	if err != nil {
		t.Fatal(err)
	}
	_, assign, err := LoopyBeliefPropagation(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Brute force marginals.
	var z float64
	marg := make([][2]float64, 3)
	for x0 := 0; x0 < 2; x0++ {
		for x1 := 0; x1 < 2; x1++ {
			for x2 := 0; x2 < 2; x2++ {
				p := unary[0][x0] * unary[1][x1] * unary[2][x2] *
					pair[0][x0*2+x1] * pair[1][x1*2+x2]
				z += p
				marg[0][x0] += p
				marg[1][x1] += p
				marg[2][x2] += p
			}
		}
	}
	// A message left unsent moved by at most lbpTolerance; a belief here
	// multiplies at most two messages through potentials within a factor
	// of 2, so it is off by less than 4·lbpTolerance, and a marginal gap
	// wider than that fixes the assignment.
	for v := 0; v < 3; v++ {
		if gap := math.Abs(marg[v][1]-marg[v][0]) / z; gap <= 4*lbpTolerance {
			t.Fatalf("vertex %d: marginal gap %v within the tolerance's reach", v, gap)
		}
		want := 0
		if marg[v][1] > marg[v][0] {
			want = 1
		}
		if assign[v] != want {
			t.Fatalf("vertex %d assignment %d, want %d (marginals %v)", v, assign[v], want, marg[v])
		}
	}
}

func TestLBPValidation(t *testing.T) {
	b := graph.NewBuilder(2, false)
	b.AddEdge(0, 1)
	g, _ := b.Build()
	m, err := graph.NewMRF(g, []int{2, 3},
		[][]float64{{1, 1}, {1, 1, 1}}, [][]float64{{1, 1, 1, 1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoopyBeliefPropagation(m, Options{}); err == nil {
		t.Fatal("non-uniform cardinality accepted")
	}
}

// --- DD ---

// bruteMAP enumerates all assignments of a tiny MRF.
func bruteMAP(m *graph.MRF) ([]int, float64) {
	n := m.G.NumVertices()
	k := m.Card[0]
	assign := make([]int, n)
	best := make([]int, n)
	bestE := math.Inf(1)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			if e := mrfEnergy(m, assign); e < bestE {
				bestE = e
				copy(best, assign)
			}
			return
		}
		for x := 0; x < k; x++ {
			assign[i] = x
			rec(i + 1)
		}
	}
	rec(0)
	return best, bestE
}

func TestDDFindsMAPOnSmallMRF(t *testing.T) {
	m, err := gen.MRF(gen.MRFConfig{NumEdges: 30, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if m.G.NumVertices() > 18 {
		t.Skipf("generated MRF too large for brute force: %d vars", m.G.NumVertices())
	}
	out, assign, err := DualDecomposition(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, wantE := bruteMAP(m)
	gotE := mrfEnergy(m, assign)
	// Subgradient DD is not guaranteed to close the duality gap, but on
	// small instances it should land at or very near the MAP energy.
	if gotE > wantE+0.05*math.Abs(wantE)+0.5 {
		t.Fatalf("DD energy %v, MAP energy %v", gotE, wantE)
	}
	_ = out
}

func TestDDAllActiveAndSlow(t *testing.T) {
	m, err := gen.MRF(gen.MRFConfig{NumEdges: 200, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := DualDecomposition(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Paper §4.4: in DD all vertices are active for all iterations.
	for _, it := range out.Trace.Iterations {
		if it.Active != int64(m.G.NumVertices()) {
			t.Fatalf("active = %d, want all %d", it.Active, m.G.NumVertices())
		}
	}
}

// TestDDDualBoundImproves: the best-so-far dual bound is monotone in the
// iteration budget (the runs are deterministic, so the long run's prefix
// matches the short run), and by weak duality it never exceeds the energy
// of any primal assignment.
func TestDDDualBoundImproves(t *testing.T) {
	m, err := gen.MRF(gen.MRFConfig{NumEdges: 150, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	short, _, err := DualDecomposition(m, Options{MaxIterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	long, assign, err := DualDecomposition(m, Options{MaxIterations: 300})
	if err != nil {
		t.Fatal(err)
	}
	if long.Summary["bestDual"] < short.Summary["bestDual"]-1e-9 {
		t.Fatalf("best dual regressed with more iterations: %v → %v",
			short.Summary["bestDual"], long.Summary["bestDual"])
	}
	if primal := mrfEnergy(m, assign); long.Summary["bestDual"] > primal+1e-6 {
		t.Fatalf("weak duality violated: dual %v > primal %v", long.Summary["bestDual"], primal)
	}
}

func TestDDWeakDualityAgainstBruteForce(t *testing.T) {
	m, err := gen.MRF(gen.MRFConfig{NumEdges: 30, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if m.G.NumVertices() > 18 {
		t.Skipf("MRF too large for brute force: %d vars", m.G.NumVertices())
	}
	out, _, err := DualDecomposition(m, Options{MaxIterations: 500})
	if err != nil {
		t.Fatal(err)
	}
	_, mapE := bruteMAP(m)
	if out.Summary["bestDual"] > mapE+1e-6 {
		t.Fatalf("dual bound %v exceeds MAP energy %v", out.Summary["bestDual"], mapE)
	}
}
