package ensemble

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"gcbench/internal/behavior"
	"gcbench/internal/corpus"
	"gcbench/internal/rng"
)

// oracleTopEnsembles is the beam search TopEnsemblesCtx replaced, kept
// verbatim as its reference: every partial a fresh slice, every
// extension scored from scratch, every level fully sorted. sort.Slice
// leaves the order of equal scores unspecified, so it is the reference
// only where scores do not tie across a cut (TestTopEnsemblesTieOrder
// pins ties against exhaustive enumeration instead).
func oracleTopEnsembles(ctx context.Context, metric Metric, pool []behavior.Vector, idx []int, opt TopKOptions) ([]Scored, error) {
	if opt.Size < 1 {
		return nil, fmt.Errorf("ensemble: top-K size must be positive, got %d", opt.Size)
	}
	if opt.Size > len(idx) {
		return nil, fmt.Errorf("ensemble: size %d exceeds pool %d", opt.Size, len(idx))
	}
	k := opt.K
	if k == 0 {
		k = 100
	}
	beam := opt.BeamWidth
	if beam == 0 {
		beam = 2000
	}
	if beam < k {
		beam = k
	}
	if metric == MetricCoverage && opt.Cov == nil {
		return nil, fmt.Errorf("ensemble: coverage metric needs a CoverageEstimator")
	}

	// Beam state: partial ensembles as sorted index slices, deduplicated
	// by requiring strictly increasing positions (combination order), so
	// no dedup map is needed: extend only with candidates after the last.
	type partial struct {
		members []int // positions into idx, increasing
		score   float64
	}
	frontier := make([]partial, 0, len(idx))
	for p := range idx {
		frontier = append(frontier, partial{members: []int{p}})
	}
	scoreOf := func(members []int) float64 {
		pts := make([]behavior.Vector, len(members))
		for i, p := range members {
			pts[i] = pool[idx[p]]
		}
		if metric == MetricSpread {
			return Spread(pts)
		}
		return opt.Cov.Coverage(pts)
	}

	for size := 2; size <= opt.Size; size++ {
		var next []partial
		for _, f := range frontier {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			last := f.members[len(f.members)-1]
			for p := last + 1; p < len(idx); p++ {
				m := append(append([]int(nil), f.members...), p)
				next = append(next, partial{members: m, score: scoreOf(m)})
			}
		}
		sort.Slice(next, func(i, j int) bool { return next[i].score > next[j].score })
		if len(next) > beam {
			next = next[:beam]
		}
		frontier = next
		if len(frontier) == 0 {
			break
		}
	}
	// Score singletons if Size == 1.
	if opt.Size == 1 {
		for i := range frontier {
			frontier[i].score = scoreOf(frontier[i].members)
		}
		sort.Slice(frontier, func(i, j int) bool { return frontier[i].score > frontier[j].score })
	}
	if len(frontier) > k {
		frontier = frontier[:k]
	}
	out := make([]Scored, len(frontier))
	for i, f := range frontier {
		members := make([]int, len(f.members))
		for j, p := range f.members {
			members[j] = idx[p]
		}
		sort.Ints(members)
		out[i] = Scored{Members: members, Score: f.score}
	}
	return out, nil
}

// shippedPool is the standard corpus's design pool, every run of it.
func shippedPool(tb testing.TB) ([]behavior.Vector, []int) {
	tb.Helper()
	snap, err := corpus.LoadFile("../../runs-standard.json")
	if err != nil {
		tb.Fatal(err)
	}
	return snap.Pool.Points, allIdx(len(snap.Pool.Points))
}

// sameTops fails unless got and want hold the same ensembles in the same
// order with the same score bits.
func sameTops(t *testing.T, name string, got, want []Scored) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d ensembles, want %d", name, len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i].Members, want[i].Members) || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: #%d is %v (%v), want %v (%v)", name, i, got[i].Members, got[i].Score, want[i].Members, want[i].Score)
		}
	}
}

func checkAgainstOracle(t *testing.T, name string, metric Metric, pool []behavior.Vector, idx []int, opt TopKOptions) {
	t.Helper()
	ctx := context.Background()
	got, err := TopEnsemblesCtx(ctx, metric, pool, idx, opt)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, err := oracleTopEnsembles(ctx, metric, pool, idx, opt)
	if err != nil {
		t.Fatalf("%s: oracle: %v", name, err)
	}
	sameTops(t, name, got, want)
}

// TestTopEnsemblesMatchesOracle holds the beam search to the search it
// replaced, member sets and score bits, on the shipped pool and on
// seeded random ones.
func TestTopEnsemblesMatchesOracle(t *testing.T) {
	pool, idx := shippedPool(t)
	for size := 1; size <= 8; size++ {
		for _, k := range []int{1, 100} {
			for _, beam := range []int{0, 50} {
				opt := TopKOptions{Size: size, K: k, BeamWidth: beam}
				checkAgainstOracle(t, fmt.Sprintf("spread %+v", opt), MetricSpread, pool, idx, opt)
			}
		}
	}
	cov := newCov(t, 2000)
	for size := 1; size <= 4; size++ {
		opt := TopKOptions{Size: size, K: 100, BeamWidth: 100, Cov: cov}
		checkAgainstOracle(t, fmt.Sprintf("coverage size %d", size), MetricCoverage, pool, idx, opt)
	}
	small := newCov(t, 500)
	for seed := uint64(1); seed <= 20; seed++ {
		r := rng.New(seed)
		rp := randomPool(10+r.Intn(30), seed)
		// A restriction of the pool, in shuffled order, so positions and
		// pool indices differ.
		var sub []int
		for i := range rp {
			if r.Intn(4) != 0 {
				sub = append(sub, i)
			}
		}
		for i := len(sub) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			sub[i], sub[j] = sub[j], sub[i]
		}
		opt := TopKOptions{Size: 1 + r.Intn(min(6, len(sub))), K: 1 + r.Intn(30), BeamWidth: r.Intn(60)}
		checkAgainstOracle(t, fmt.Sprintf("seed %d spread %+v", seed, opt), MetricSpread, rp, sub, opt)
		opt.Size, opt.Cov = min(opt.Size, 3), small
		checkAgainstOracle(t, fmt.Sprintf("seed %d coverage %+v", seed, opt), MetricCoverage, rp, sub, opt)
	}
}

// exhaustiveTop scores every size-subset of pool[idx] and returns them
// ranked by the stated rule: score descending, then positions into idx
// in lexicographic order.
func exhaustiveTop(metric Metric, cov *CoverageEstimator, pool []behavior.Vector, idx []int, size int) []Scored {
	type ranked struct {
		pos   []int
		score float64
	}
	var all []ranked
	cur := make([]int, 0, size)
	var rec func(start int)
	rec = func(start int) {
		if len(cur) == size {
			pts := make([]behavior.Vector, size)
			for i, p := range cur {
				pts[i] = pool[idx[p]]
			}
			score := Spread(pts)
			if metric == MetricCoverage {
				score = cov.Coverage(pts)
			}
			all = append(all, ranked{append([]int(nil), cur...), score})
			return
		}
		for p := start; p < len(idx); p++ {
			cur = append(cur, p)
			rec(p + 1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)
	slices.SortFunc(all, func(a, b ranked) int {
		return cmp.Or(cmp.Compare(b.score, a.score), slices.Compare(a.pos, b.pos))
	})
	out := make([]Scored, len(all))
	for i, r := range all {
		m := make([]int, size)
		for j, p := range r.pos {
			m[j] = idx[p]
		}
		sort.Ints(m)
		out[i] = Scored{Members: m, Score: r.score}
	}
	return out
}

// TestTopEnsemblesTieOrder ranks a pool of duplicated vectors, where
// many ensembles tie exactly, with a beam that prunes nothing (C(n, size)
// wide, and size ≤ n/2, so no earlier level holds more): the result is
// exhaustive enumeration ranked by the stated rule, cut at K inside a
// run of ties or not.
func TestTopEnsemblesTieOrder(t *testing.T) {
	base := randomPool(6, 31)
	pool := append(append([]behavior.Vector(nil), base...), base[:4]...)
	pool = append(pool, vec(0, 0, 0, 0), vec(1, 1, 1, 1), vec(0, 0, 0, 0))
	idx := allIdx(len(pool))
	// Reverse the positions so their order is not the pool order.
	slices.Reverse(idx)
	cov := newCov(t, 3000)
	for _, metric := range []Metric{MetricSpread, MetricCoverage} {
		for size := 1; size <= 4; size++ {
			want := exhaustiveTop(metric, cov, pool, idx, size)
			ties := 0
			for i := 1; i < len(want); i++ {
				if want[i].Score == want[i-1].Score {
					ties++
				}
			}
			if size > 1 && ties == 0 {
				t.Fatalf("%v size %d: no tied scores, the test shows nothing", metric, size)
			}
			for _, k := range []int{1, 2, 3, 7, 20, len(want)} {
				if k > len(want) {
					continue
				}
				opt := TopKOptions{Size: size, K: k, BeamWidth: len(want), Cov: cov}
				got, err := TopEnsemblesCtx(context.Background(), metric, pool, idx, opt)
				if err != nil {
					t.Fatal(err)
				}
				sameTops(t, fmt.Sprintf("%v size %d K %d", metric, size, k), got, want[:k])
			}
		}
	}
}

// TestTopEnsemblesAllocs: a spread search allocates a fixed number of
// buffers per level, however many extensions it scores. The search it
// replaced made two allocations per extension: 283 471 a search on the
// 100-run pool, 635 072 on the shipped 220.
func TestTopEnsemblesAllocs(t *testing.T) {
	pool, idx := shippedPool(t)
	for _, n := range []int{100, len(idx)} {
		allocs := testing.AllocsPerRun(2, func() {
			if _, err := TopEnsemblesCtx(context.Background(), MetricSpread, pool, idx[:n], TopKOptions{Size: 4, K: 1}); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 20 {
			t.Errorf("pool of %d: %v allocations a search, want ≤ 20", n, allocs)
		}
	}
}

// BenchmarkTopEnsembles is one serve "beam" design on the shipped pool
// (spread, K 1, the default beam) at sizes 4 and 8, and Figure 21's
// coverage search (2·10⁴ samples, K 100, beam 500) at size 4.
func BenchmarkTopEnsembles(b *testing.B) {
	pool, idx := shippedPool(b)
	cov, err := NewCoverageEstimator(20_000, 0x5eed)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		metric Metric
		opt    TopKOptions
	}{
		{MetricSpread, TopKOptions{Size: 4, K: 1}},
		{MetricSpread, TopKOptions{Size: 8, K: 1}},
		{MetricCoverage, TopKOptions{Size: 4, K: 100, BeamWidth: 500, Cov: cov}},
	} {
		b.Run(fmt.Sprintf("%v/size=%d", c.metric, c.opt.Size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := TopEnsemblesCtx(context.Background(), c.metric, pool, idx, c.opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
