package ensemble

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"gcbench/internal/behavior"
	"gcbench/internal/rng"
)

func vec(xs ...float64) behavior.Vector {
	var v behavior.Vector
	copy(v[:], xs)
	return v
}

func TestSpreadBasics(t *testing.T) {
	if Spread(nil) != 0 {
		t.Fatal("empty spread not 0")
	}
	if Spread([]behavior.Vector{vec(1, 0, 0, 0)}) != 0 {
		t.Fatal("singleton spread not 0")
	}
	two := []behavior.Vector{vec(0, 0, 0, 0), vec(1, 0, 0, 0)}
	if s := Spread(two); math.Abs(s-1) > 1e-12 {
		t.Fatalf("pair spread = %v, want 1", s)
	}
	// Equilateral-ish: three unit-apart points on axes have all pairwise
	// distances √2.
	three := []behavior.Vector{vec(1, 0, 0, 0), vec(0, 1, 0, 0), vec(0, 0, 1, 0)}
	if s := Spread(three); math.Abs(s-math.Sqrt2) > 1e-12 {
		t.Fatalf("spread = %v, want √2", s)
	}
}

func TestSpreadClusteredBelowDispersed(t *testing.T) {
	clustered := []behavior.Vector{vec(0.5, 0.5, 0.5, 0.5), vec(0.51, 0.5, 0.5, 0.5), vec(0.5, 0.51, 0.5, 0.5)}
	dispersed := []behavior.Vector{vec(0, 0, 0, 0), vec(1, 1, 1, 1), vec(1, 0, 1, 0)}
	if Spread(clustered) >= Spread(dispersed) {
		t.Fatal("clustered ensemble spread not below dispersed")
	}
}

func newCov(t *testing.T, n int) *CoverageEstimator {
	t.Helper()
	c, err := NewCoverageEstimator(n, 7)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCoverageOrdering(t *testing.T) {
	cov := newCov(t, 20000)
	center := []behavior.Vector{vec(0.5, 0.5, 0.5, 0.5)}
	corner := []behavior.Vector{vec(0, 0, 0, 0)}
	// The center point is closer on average to random points than a corner.
	if cov.Coverage(center) <= cov.Coverage(corner) {
		t.Fatal("center coverage not above corner coverage")
	}
	// Adding members can only improve (min distance is monotone).
	many := []behavior.Vector{vec(0.25, 0.25, 0.25, 0.25), vec(0.75, 0.75, 0.75, 0.75), vec(0.25, 0.75, 0.25, 0.75)}
	if cov.Coverage(many) <= cov.Coverage(many[:1]) {
		t.Fatal("coverage did not improve with more members")
	}
	if cov.Coverage(nil) != 0 {
		t.Fatal("empty ensemble coverage not 0")
	}
}

func TestCoverageMatchesAnalyticExpectation(t *testing.T) {
	// For a single point at the center of the unit 4-cube, E[d²] = 4/12,
	// and the mean distance is ≈ 0.5609, so coverage ≈ 1.783. Sanity band.
	cov := newCov(t, 200000)
	c := cov.Coverage([]behavior.Vector{vec(0.5, 0.5, 0.5, 0.5)})
	if c < 1.75 || c > 1.82 {
		t.Fatalf("center coverage = %v, want ≈1.78", c)
	}
}

func TestCoverageDeterministic(t *testing.T) {
	a := newCov(t, 10000)
	b := newCov(t, 10000)
	pts := []behavior.Vector{vec(0.3, 0.1, 0.9, 0.2), vec(0.8, 0.6, 0.1, 0.4)}
	if a.Coverage(pts) != b.Coverage(pts) {
		t.Fatal("same seed estimators disagree")
	}
}

func TestCoverageWithMatchesFull(t *testing.T) {
	cov := newCov(t, 30000)
	base := []behavior.Vector{vec(0.2, 0.2, 0.2, 0.2)}
	add := vec(0.8, 0.8, 0.8, 0.8)
	minDist := cov.MinDistances(base)
	got := cov.CoverageWith(minDist, add)
	want := cov.Coverage(append(base, add))
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("incremental coverage %v != full %v", got, want)
	}
}

func randomPool(n int, seed uint64) []behavior.Vector {
	r := rng.New(seed)
	pool := make([]behavior.Vector, n)
	for i := range pool {
		for d := 0; d < behavior.Dims; d++ {
			pool[i][d] = r.Float64()
		}
	}
	return pool
}

func allIdx(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// bruteBestSpread enumerates all C(n,k) subsets.
func bruteBestSpread(pool []behavior.Vector, k int) ([]int, float64) {
	n := len(pool)
	best := -1.0
	var bestSet []int
	cur := make([]int, 0, k)
	var rec func(start int)
	rec = func(start int) {
		if len(cur) == k {
			if s := SpreadOf(pool, cur); s > best {
				best = s
				bestSet = append([]int(nil), cur...)
			}
			return
		}
		for j := start; j < n; j++ {
			cur = append(cur, j)
			rec(j + 1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)
	return bestSet, best
}

func TestBestSpreadExhaustiveMatchesBrute(t *testing.T) {
	pool := randomPool(12, 3)
	sets, err := BestSpreadExhaustiveCtx(context.Background(), pool, allIdx(12), 6)
	if err != nil {
		t.Fatal(err)
	}
	for k := 2; k <= 6; k++ {
		_, want := bruteBestSpread(pool, k)
		got := SpreadOf(pool, sets[k])
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("size %d: exhaustive spread %v, brute force %v", k, got, want)
		}
	}
}

func TestBestSpreadExhaustiveRejectsLargePool(t *testing.T) {
	pool := randomPool(30, 1)
	if _, err := BestSpreadExhaustiveCtx(context.Background(), pool, allIdx(30), 5); err == nil {
		t.Fatal("oversized pool accepted")
	}
}

// TestSearchesRefuseNegativeSize: every subset search answers a
// negative size bound with an error instead of a panic, and size 0 with
// no ensemble.
func TestSearchesRefuseNegativeSize(t *testing.T) {
	pool := randomPool(12, 5)
	cov, err := NewCoverageEstimator(2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	searches := map[string]func(maxSize int) ([][]int, error){
		"spread-exhaustive": func(m int) ([][]int, error) { return BestSpreadExhaustiveCtx(ctx, pool, allIdx(12), m) },
		"spread-greedy":     func(m int) ([][]int, error) { return BestSpreadGreedyCtx(ctx, pool, allIdx(12), m) },
		"coverage-greedy":   func(m int) ([][]int, error) { return BestCoverageGreedyCtx(ctx, cov, pool, allIdx(12), m) },
	}
	for name, search := range searches {
		for _, size := range []int{-1, -2, -5} {
			t.Run(fmt.Sprintf("%s/size=%d", name, size), func(t *testing.T) {
				sets, err := search(size)
				if err == nil || !strings.Contains(err.Error(), "must be ≥ 0") {
					t.Fatalf("sets %v, err %v; want a size refusal", sets, err)
				}
			})
		}
		t.Run(name+"/size=0", func(t *testing.T) {
			sets, err := search(0)
			if err != nil || len(sets) != 1 || sets[0] != nil {
				t.Fatalf("sets %v, err %v; want one empty slot", sets, err)
			}
		})
	}
}

func TestBestSpreadGreedyNearExhaustive(t *testing.T) {
	pool := randomPool(16, 9)
	exact, err := BestSpreadExhaustiveCtx(context.Background(), pool, allIdx(16), 5)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := BestSpreadGreedyCtx(context.Background(), pool, allIdx(16), 5)
	if err != nil {
		t.Fatal(err)
	}
	for k := 2; k <= 5; k++ {
		e := SpreadOf(pool, exact[k])
		g := SpreadOf(pool, greedy[k])
		if g < 0.9*e {
			t.Fatalf("size %d: greedy+exchange spread %v below 90%% of exact %v", k, g, e)
		}
	}
}

func TestSpreadDecreasesWithSize(t *testing.T) {
	// The paper's Figures 14/16/18: best-achievable spread declines as
	// ensembles grow (new members are never farther than the initial pair).
	pool := randomPool(40, 11)
	sets, err := BestSpreadGreedyCtx(context.Background(), pool, allIdx(40), 10)
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for k := 2; k <= 10; k++ {
		s := SpreadOf(pool, sets[k])
		if s > prev+1e-9 {
			t.Fatalf("best spread rose from %v to %v at size %d", prev, s, k)
		}
		prev = s
	}
}

func TestBestCoverageGreedyImproves(t *testing.T) {
	cov := newCov(t, 20000)
	pool := randomPool(30, 13)
	sets, err := BestCoverageGreedyCtx(context.Background(), cov, pool, allIdx(30), 8)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for k := 1; k <= 8; k++ {
		pts := make([]behavior.Vector, len(sets[k]))
		for i, j := range sets[k] {
			pts[i] = pool[j]
		}
		c := cov.Coverage(pts)
		if c <= prev {
			t.Fatalf("coverage did not improve at size %d: %v → %v", k, prev, c)
		}
		prev = c
	}
}

func TestImproveSpreadExchangeNeverWorsens(t *testing.T) {
	pool := randomPool(25, 17)
	members := []int{0, 1, 2, 3}
	before := SpreadOf(pool, members)
	after, err := ImproveSpreadExchangeCtx(context.Background(), pool, members, allIdx(25))
	if err != nil {
		t.Fatal(err)
	}
	if SpreadOf(pool, after) < before-1e-12 {
		t.Fatal("exchange worsened spread")
	}
	if len(after) != len(members) {
		t.Fatal("exchange changed ensemble size")
	}
}

func TestTopEnsemblesSpread(t *testing.T) {
	pool := randomPool(12, 19)
	tops, err := TopEnsemblesCtx(context.Background(), MetricSpread, pool, allIdx(12), TopKOptions{Size: 3, K: 10, BeamWidth: 500})
	if err != nil {
		t.Fatal(err)
	}
	if len(tops) != 10 {
		t.Fatalf("got %d ensembles, want 10", len(tops))
	}
	// Scores sorted descending and the best matches brute force (the beam
	// at width 500 over C(12,3)=220 is exhaustive).
	_, want := bruteBestSpread(pool, 3)
	if math.Abs(tops[0].Score-want) > 1e-12 {
		t.Fatalf("top score %v, brute force %v", tops[0].Score, want)
	}
	for i := 1; i < len(tops); i++ {
		if tops[i].Score > tops[i-1].Score+1e-12 {
			t.Fatal("top ensembles not sorted by score")
		}
	}
	// Members are unique and sorted.
	for _, s := range tops {
		if !sort.IntsAreSorted(s.Members) {
			t.Fatal("members not sorted")
		}
		for i := 1; i < len(s.Members); i++ {
			if s.Members[i] == s.Members[i-1] {
				t.Fatal("duplicate member")
			}
		}
	}
}

func TestTopEnsemblesCoverage(t *testing.T) {
	cov := newCov(t, 5000)
	pool := randomPool(10, 23)
	tops, err := TopEnsemblesCtx(context.Background(), MetricCoverage, pool, allIdx(10), TopKOptions{Size: 2, K: 5, BeamWidth: 100, Cov: cov})
	if err != nil {
		t.Fatal(err)
	}
	if len(tops) != 5 {
		t.Fatalf("got %d, want 5", len(tops))
	}
	// Verify the reported scores are true coverage values.
	for _, s := range tops {
		pts := make([]behavior.Vector, len(s.Members))
		for i, j := range s.Members {
			pts[i] = pool[j]
		}
		if math.Abs(cov.Coverage(pts)-s.Score) > 1e-9 {
			t.Fatalf("score mismatch: %v vs %v", cov.Coverage(pts), s.Score)
		}
	}
}

func TestTopEnsemblesErrors(t *testing.T) {
	pool := randomPool(5, 1)
	if _, err := TopEnsemblesCtx(context.Background(), MetricSpread, pool, allIdx(5), TopKOptions{Size: 0}); err == nil {
		t.Fatal("size 0 accepted")
	}
	if _, err := TopEnsemblesCtx(context.Background(), MetricSpread, pool, allIdx(5), TopKOptions{Size: 9}); err == nil {
		t.Fatal("size beyond pool accepted")
	}
	if _, err := TopEnsemblesCtx(context.Background(), MetricCoverage, pool, allIdx(5), TopKOptions{Size: 2}); err == nil {
		t.Fatal("coverage without estimator accepted")
	}
	if _, err := TopEnsemblesCtx(context.Background(), MetricSpread, pool, allIdx(5), TopKOptions{Size: 2, K: -1}); err == nil {
		t.Fatal("negative K accepted")
	}
}

func TestFrequency(t *testing.T) {
	tops := []Scored{
		{Members: []int{0, 1}},
		{Members: []int{0, 2}},
	}
	names := []string{"ALS", "KM", "TC"}
	freq := Frequency(tops, func(i int) string { return names[i] })
	if freq["ALS"] != 2 || freq["KM"] != 1 || freq["TC"] != 1 {
		t.Fatalf("freq = %v", freq)
	}
}

func TestUpperBoundsDominateRandomEnsembles(t *testing.T) {
	cov := newCov(t, 20000)
	ubS := UpperBoundSpread(8, 29)
	ubC := UpperBoundCoverage(cov, 8, 29)
	pool := randomPool(40, 31)
	sets, err := BestSpreadGreedyCtx(context.Background(), pool, allIdx(40), 8)
	if err != nil {
		t.Fatal(err)
	}
	csets, err := BestCoverageGreedyCtx(context.Background(), cov, pool, allIdx(40), 8)
	if err != nil {
		t.Fatal(err)
	}
	for k := 2; k <= 8; k++ {
		if s := SpreadOf(pool, sets[k]); s > ubS[k]+1e-9 {
			t.Fatalf("size %d: random-pool spread %v exceeds upper bound %v", k, s, ubS[k])
		}
		pts := make([]behavior.Vector, len(csets[k]))
		for i, j := range csets[k] {
			pts[i] = pool[j]
		}
		if c := cov.Coverage(pts); c > ubC[k]+1e-9 {
			t.Fatalf("size %d: random-pool coverage %v exceeds upper bound %v", k, c, ubC[k])
		}
	}
	// The pair upper bound is the main diagonal: length 2.
	if math.Abs(ubS[2]-2) > 1e-9 {
		t.Fatalf("spread upper bound at size 2 = %v, want 2 (the main diagonal)", ubS[2])
	}
}

func TestNewCoverageEstimatorErrors(t *testing.T) {
	if _, err := NewCoverageEstimator(0, 1); err == nil {
		t.Fatal("zero samples accepted")
	}
}
