package ensemble

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"gcbench/internal/behavior"
	"gcbench/internal/rng"
)

// ctxTestPool builds a deterministic candidate pool for search tests.
func ctxTestPool(n int, seed uint64) ([]behavior.Vector, []int) {
	r := rng.New(seed)
	pool := make([]behavior.Vector, n)
	idx := make([]int, n)
	for i := range pool {
		for d := 0; d < behavior.Dims; d++ {
			pool[i][d] = r.Float64()
		}
		idx[i] = i
	}
	return pool, idx
}

// TestSearchesHonorCancelledContext checks that every search entry point
// returns ctx.Err() when invoked with an already-cancelled context —
// the strictest form of the "abort within one search step" contract.
func TestSearchesHonorCancelledContext(t *testing.T) {
	pool, idx := ctxTestPool(40, 7)
	cov, err := NewCoverageEstimator(5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	checks := []struct {
		name string
		run  func() error
	}{
		{"BestSpreadGreedyCtx", func() error {
			_, err := BestSpreadGreedyCtx(ctx, pool, idx, 8)
			return err
		}},
		{"BestSpreadExhaustiveCtx", func() error {
			_, err := BestSpreadExhaustiveCtx(ctx, pool, idx[:12], 6)
			return err
		}},
		{"ImproveSpreadExchangeCtx", func() error {
			_, err := ImproveSpreadExchangeCtx(ctx, pool, idx[:4], idx)
			return err
		}},
		{"BestCoverageGreedyCtx", func() error {
			_, err := BestCoverageGreedyCtx(ctx, cov, pool, idx, 8)
			return err
		}},
		{"ImproveCoverageExchangeCtx", func() error {
			_, err := ImproveCoverageExchangeCtx(ctx, cov, pool, idx[:4], idx)
			return err
		}},
		{"AnnealSpreadCtx", func() error {
			_, _, err := AnnealSpreadCtx(ctx, pool, idx, AnnealOptions{Size: 6, Seed: 1})
			return err
		}},
		{"AnnealCoverageCtx", func() error {
			_, _, err := AnnealCoverageCtx(ctx, cov, pool, idx, AnnealOptions{Size: 6, Seed: 1})
			return err
		}},
		{"TopEnsemblesCtx", func() error {
			_, err := TopEnsemblesCtx(ctx, MetricSpread, pool, idx, TopKOptions{Size: 4, K: 10})
			return err
		}},
	}
	for _, c := range checks {
		if err := c.run(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s with cancelled context: got err %v, want context.Canceled", c.name, err)
		}
	}
}

// cancelAfter is a context whose Err turns non-nil after a fixed number
// of nil answers, so a test can cancel a search at an exact step.
type cancelAfter struct {
	context.Context
	left int
}

func (c *cancelAfter) Err() error {
	if c.left == 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

// TestCoverageGreedyCancelsWithinOneEvaluation: the lazy greedy still
// asks ctx before every evaluation, pruned rounds included — cancelled
// three evaluations into round 3, it makes not one more.
func TestCoverageGreedyCancelsWithinOneEvaluation(t *testing.T) {
	pool, idx := ctxTestPool(40, 7)
	cov, err := NewCoverageEstimator(5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	allowed := 40 + 39 + 3
	ctx := &cancelAfter{Context: context.Background(), left: 1 + allowed} // 1: the check on entry
	_, evals, err := coverageGreedy(ctx, cov, pool, idx, 8)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got err %v, want context.Canceled", err)
	}
	if evals != allowed {
		t.Fatalf("search made %d evaluations, cancelled after %d", evals, allowed)
	}
}

// TestAnnealCoverageDeadlinePrompt verifies that a mid-flight deadline
// aborts an expensive coverage search long before it would finish: 2000
// annealing steps at 200k samples take seconds, but the search must
// return within roughly one Monte-Carlo step of the deadline.
func TestAnnealCoverageDeadlinePrompt(t *testing.T) {
	pool, idx := ctxTestPool(60, 11)
	cov, err := NewCoverageEstimator(200_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err = AnnealCoverageCtx(ctx, cov, pool, idx, AnnealOptions{Size: 10, Steps: 5000, Seed: 1})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got err %v, want context.DeadlineExceeded", err)
	}
	// Generous bound: deadline (30ms) + a handful of MC evaluations.
	if elapsed > 2*time.Second {
		t.Fatalf("search returned %v after the 30ms deadline — not a prompt abort", elapsed)
	}
}

// TestCtxVariantsMatchPlainResults pins the Ctx variants to the plain
// entry points on an uncancelled context — the wrappers must be pure
// plumbing, not a second implementation.
func TestCtxVariantsMatchPlainResults(t *testing.T) {
	pool, idx := ctxTestPool(30, 3)
	plain := BestSpreadGreedy(pool, idx, 6)
	withCtx, err := BestSpreadGreedyCtx(context.Background(), pool, idx, 6)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 6; k++ {
		if len(plain[k]) != len(withCtx[k]) {
			t.Fatalf("size %d: plain %v != ctx %v", k, plain[k], withCtx[k])
		}
		for i := range plain[k] {
			if plain[k][i] != withCtx[k][i] {
				t.Fatalf("size %d: plain %v != ctx %v", k, plain[k], withCtx[k])
			}
		}
	}
}

// TestEmptyAndSingletonMetricValues pins the defined-value contract for
// degenerate ensembles: 0, never NaN and never a panic.
func TestEmptyAndSingletonMetricValues(t *testing.T) {
	cov, err := NewCoverageEstimator(1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := Spread(nil); got != 0 {
		t.Errorf("Spread(nil) = %v, want 0", got)
	}
	if got := Spread([]behavior.Vector{{0.5, 0.5, 0.5, 0.5}}); got != 0 {
		t.Errorf("Spread(singleton) = %v, want 0", got)
	}
	if got := SpreadOf(nil, nil); got != 0 {
		t.Errorf("SpreadOf(empty) = %v, want 0", got)
	}
	if got := cov.Coverage(nil); got != 0 {
		t.Errorf("Coverage(nil) = %v, want 0", got)
	}
	if got := cov.Coverage([]behavior.Vector{}); got != 0 {
		t.Errorf("Coverage(empty) = %v, want 0", got)
	}
	single := cov.Coverage([]behavior.Vector{{0.5, 0.5, 0.5, 0.5}})
	if math.IsNaN(single) || math.IsInf(single, 0) || single <= 0 {
		t.Errorf("Coverage(singleton) = %v, want a finite positive value", single)
	}
	// CoverageWith starting from no prior ensemble must agree with the
	// singleton evaluation and stay finite.
	with := cov.CoverageWith(nil, behavior.Vector{0.5, 0.5, 0.5, 0.5})
	if math.Abs(with-single) > 1e-12 {
		t.Errorf("CoverageWith(nil, p) = %v, Coverage({p}) = %v — want equal", with, single)
	}
	if got := (&CoverageEstimator{}).CoverageWith(nil, behavior.Vector{}); got != 0 {
		t.Errorf("zero-sample CoverageWith = %v, want 0", got)
	}
	if got := (&CoverageEstimator{}).coverageFromMin(nil); got != 0 {
		t.Errorf("coverageFromMin(empty) = %v, want 0", got)
	}
}
