package predict

import (
	"fmt"
	"math"
	"testing"

	"gcbench/internal/behavior"
	"gcbench/internal/rng"
)

// syntheticCorpus builds runs whose behavior is a smooth function of
// (log size, alpha): Raw[d] = base[d] · (1 + 0.1·logSize + 0.2·alpha).
func syntheticCorpus() []*behavior.Run {
	var runs []*behavior.Run
	base := behavior.Vector{0.5, 0.01, 1.0, 0.7}
	for _, size := range []int64{1000, 10000, 100000, 1000000} {
		for _, alpha := range []float64{2.0, 2.25, 2.5, 2.75, 3.0} {
			factor := 1 + 0.1*math.Log10(float64(size)) + 0.2*alpha
			var raw behavior.Vector
			for d := range raw {
				raw[d] = base[d] * factor
			}
			runs = append(runs, &behavior.Run{
				Algorithm: "PR", Domain: "Graph Analytics",
				NumEdges: size, Alpha: alpha, SizeLabel: "x",
				Iterations: int(10 * factor), Raw: raw,
			})
		}
	}
	return runs
}

func TestPredictExactHit(t *testing.T) {
	runs := syntheticCorpus()
	p, err := New(runs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Predict(Query{Algorithm: "PR", NumEdges: 10000, Alpha: 2.5})
	if err != nil {
		t.Fatal(err)
	}
	want := findRun(runs, 10000, 2.5)
	for d := 0; d < behavior.Dims; d++ {
		if got.Raw[d] != want.Raw[d] {
			t.Fatalf("exact-hit prediction differs: %v vs %v", got.Raw, want.Raw)
		}
	}
	if got.Support != 1 {
		t.Fatalf("exact hit support = %d", got.Support)
	}
}

func findRun(runs []*behavior.Run, size int64, alpha float64) *behavior.Run {
	for _, r := range runs {
		if r.NumEdges == size && r.Alpha == alpha {
			return r
		}
	}
	return nil
}

func TestPredictInterpolates(t *testing.T) {
	runs := syntheticCorpus()
	p, err := New(runs)
	if err != nil {
		t.Fatal(err)
	}
	// Query between grid points: 10^4.5 edges, alpha 2.4.
	got, err := p.Predict(Query{Algorithm: "PR", NumEdges: 31623, Alpha: 2.4})
	if err != nil {
		t.Fatal(err)
	}
	wantFactor := 1 + 0.1*math.Log10(31623) + 0.2*2.4
	base := behavior.Vector{0.5, 0.01, 1.0, 0.7}
	for d := 0; d < behavior.Dims; d++ {
		want := base[d] * wantFactor
		if math.Abs(got.Raw[d]-want)/want > 0.05 {
			t.Fatalf("dim %d: predicted %v, want ≈%v", d, got.Raw[d], want)
		}
	}
}

func TestPredictErrors(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("empty corpus accepted")
	}
	p, err := New(syntheticCorpus())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Predict(Query{Algorithm: "CC", NumEdges: 1000}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := p.Predict(Query{Algorithm: "PR", NumEdges: 0}); err == nil {
		t.Fatal("zero edges accepted")
	}
	// A non-finite alpha, or one whose squared distance to every run
	// overflows (every weight 0), has nothing to interpolate from: an
	// error, never NaN in the prediction.
	for _, alpha := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e308} {
		for _, indexed := range []bool{true, false} {
			if got, err := p.predict(Query{Algorithm: "PR", NumEdges: 1000, Alpha: alpha}, indexed); err == nil {
				t.Errorf("alpha %v (indexed %v) accepted: %+v", alpha, indexed, got)
			}
		}
	}
}

func TestLeaveOneOutSmoothCorpus(t *testing.T) {
	errs, err := LeaveOneOut(syntheticCorpus())
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < behavior.Dims; d++ {
		if errs[d] > 0.10 {
			t.Fatalf("dim %s LOO error %v, want < 10%% on a smooth corpus",
				behavior.DimNames[d], errs[d])
		}
	}
}

func TestLeaveOneOutNeedsEnoughRuns(t *testing.T) {
	runs := syntheticCorpus()[:2]
	if _, err := LeaveOneOut(runs); err == nil {
		t.Fatal("tiny corpus accepted")
	}
}

// randomCorpus builds a corpus of n runs per algorithm with randomized
// sizes and alphas, including deliberate duplicate configurations so hit
// detection exercises ties.
func randomCorpus(n int, seed uint64) []*behavior.Run {
	r := rng.New(seed)
	var runs []*behavior.Run
	for _, alg := range []string{"PR", "KM", "TC"} {
		for i := 0; i < n; i++ {
			size := int64(1000 + r.Intn(10_000_000))
			alpha := 2 + r.Float64()
			if i > 0 && r.Intn(5) == 0 {
				// Duplicate an earlier configuration (different raw).
				prev := runs[len(runs)-1-r.Intn(i)]
				size, alpha = prev.NumEdges, prev.Alpha
			}
			var raw behavior.Vector
			for d := range raw {
				raw[d] = r.Float64()
			}
			runs = append(runs, &behavior.Run{
				Algorithm: alg, Domain: "Graph Analytics",
				NumEdges: size, Alpha: alpha, SizeLabel: "x",
				Iterations: 1 + r.Intn(50), Raw: raw,
			})
		}
	}
	return runs
}

// PredictNaive is the retained linear-scan implementation — the
// differential-test oracle. Predict must return bit-identical results.
func (p *Predictor) PredictNaive(q Query) (*Prediction, error) {
	return p.predict(q, false)
}

// TestPredictMatchesNaive is the differential test: the indexed Predict
// and the retained linear-scan PredictNaive return bit-identical
// predictions for measured configurations (exact hits, including
// duplicates), perturbed near-hits, and interpolation queries.
func TestPredictMatchesNaive(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		runs := randomCorpus(100, seed)
		p, err := New(runs)
		if err != nil {
			t.Fatal(err)
		}
		var queries []Query
		for _, r := range runs {
			queries = append(queries,
				Query{r.Algorithm, r.NumEdges, r.Alpha},          // exact hit
				Query{r.Algorithm, r.NumEdges + 1, r.Alpha},      // near hit
				Query{r.Algorithm, r.NumEdges * 3, r.Alpha + .1}, // interpolation
			)
		}
		qr := rng.New(seed ^ 0x9e3779b9)
		for i := 0; i < 300; i++ {
			queries = append(queries, Query{
				Algorithm: []string{"PR", "KM", "TC"}[qr.Intn(3)],
				NumEdges:  int64(1000 + qr.Intn(10_000_000)),
				Alpha:     2 + qr.Float64(),
			})
		}
		for qi, q := range queries {
			want, errN := p.PredictNaive(q)
			got, errI := p.Predict(q)
			if (errN == nil) != (errI == nil) {
				t.Fatalf("query %d: error mismatch: %v vs %v", qi, errI, errN)
			}
			if errN != nil {
				continue
			}
			if got.Raw != want.Raw || got.Iterations != want.Iterations || got.Support != want.Support {
				t.Fatalf("query %d (%+v): indexed %+v, naive %+v", qi, q, got, want)
			}
		}
	}
}

// TestPredictExactHitDuplicates: when several runs share a measured
// configuration, both paths return the first (smallest-index) one.
func TestPredictExactHitDuplicates(t *testing.T) {
	runs := syntheticCorpus()
	dup := *runs[7]
	dup.Raw[0] *= 2 // distinguishable payload, identical configuration
	runs = append(runs, &dup)
	p, err := New(runs)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{runs[7].Algorithm, runs[7].NumEdges, runs[7].Alpha}
	want, err := p.PredictNaive(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Predict(q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Raw != want.Raw {
		t.Fatalf("duplicate hit: indexed %v, naive %v", got.Raw, want.Raw)
	}
	if got.Raw != runs[7].Raw {
		t.Fatalf("duplicate hit resolved to the later run: %v", got.Raw)
	}
}

// benchCorpus spreads many runs over one algorithm so the NN structures
// have depth to search.
func benchCorpus(n int) []*behavior.Run {
	r := rng.New(424242)
	runs := make([]*behavior.Run, n)
	for i := range runs {
		var raw behavior.Vector
		for d := range raw {
			raw[d] = r.Float64()
		}
		runs[i] = &behavior.Run{
			Algorithm: "PR", Domain: "Graph Analytics",
			NumEdges: int64(1000 + r.Intn(100_000_000)), Alpha: 2 + r.Float64(),
			SizeLabel: "x", Iterations: 10, Raw: raw,
		}
	}
	return runs
}

// BenchmarkPredictIndexed vs BenchmarkPredictLinear: the exact-hit path
// (re-querying measured configurations — the serving hot path) via the
// k-d index against the retained linear scan.
func BenchmarkPredictIndexed(b *testing.B) {
	benchmarkPredict(b, func(p *Predictor, q Query) (*Prediction, error) { return p.Predict(q) })
}

func BenchmarkPredictLinear(b *testing.B) {
	benchmarkPredict(b, func(p *Predictor, q Query) (*Prediction, error) { return p.PredictNaive(q) })
}

func benchmarkPredict(b *testing.B, fn func(*Predictor, Query) (*Prediction, error)) {
	for _, n := range []int{64, 512, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			runs := benchCorpus(n)
			p, err := New(runs)
			if err != nil {
				b.Fatal(err)
			}
			queries := make([]Query, len(runs))
			for i, r := range runs {
				queries[i] = Query{r.Algorithm, r.NumEdges, r.Alpha}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fn(p, queries[i%len(queries)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
