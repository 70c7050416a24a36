package predict

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
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
		if got, err := p.Predict(Query{Algorithm: "PR", NumEdges: 1000, Alpha: alpha}); err == nil {
			t.Errorf("alpha %v accepted: %+v", alpha, got)
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
// sizes, alphas and models, including deliberate duplicate
// configurations so hit detection exercises ties.
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
				Algorithm: alg, Model: []string{"", "gas", "pregel"}[r.Intn(3)],
				Domain: "Graph Analytics", NumEdges: size, Alpha: alpha, SizeLabel: "x",
				Iterations: 1 + r.Intn(50), Raw: raw,
			})
		}
	}
	return runs
}

// dist2 is the squared distance between two features, accumulated in
// dimension order.
func dist2(a, b behavior.Vector) float64 {
	var s float64
	for d := 0; d < behavior.Dims; d++ {
		diff := a[d] - b[d]
		s += diff * diff
	}
	return s
}

// oraclePredict is the reference predictor, written straight from the
// definition and independent of Predictor: restrict the runs to the
// queried algorithm (and model), find the nearest by a linear scan with
// ties to the earliest run, and otherwise interpolate in a second pass
// over the same runs. Predict must match it bit for bit, errors
// included.
func oraclePredict(runs []*behavior.Run, q Query) (*Prediction, error) {
	feature := func(edges int64, alpha float64) behavior.Vector {
		return behavior.Vector{math.Log10(float64(edges)), alphaScale * alpha}
	}
	var own []*behavior.Run
	var feats []behavior.Vector
	for _, r := range runs {
		if r.NumEdges <= 0 || r.Algorithm != q.Algorithm ||
			(q.Model != "" && behavior.EffectiveModel(r.Model) != q.Model) {
			continue
		}
		own = append(own, r)
		feats = append(feats, feature(r.NumEdges, r.Alpha))
	}
	if len(own) == 0 {
		return nil, fmt.Errorf("predict: no corpus runs for algorithm %q", q.Algorithm)
	}
	if q.NumEdges <= 0 {
		return nil, fmt.Errorf("predict: query needs a positive edge count")
	}
	if math.IsNaN(q.Alpha) || math.IsInf(q.Alpha, 0) {
		return nil, fmt.Errorf("predict: query alpha must be finite, got %v", q.Alpha)
	}
	qf := feature(q.NumEdges, q.Alpha)
	hit, hitD2 := -1, math.Inf(1)
	for i := range feats {
		if d := dist2(feats[i], qf); d < hitD2 {
			hit, hitD2 = i, d
		}
	}
	if hitD2 < 1e-12 {
		return &Prediction{Raw: own[hit].Raw, Iterations: float64(own[hit].Iterations), Support: 1}, nil
	}
	var wSum float64
	var pred Prediction
	for i, r := range own {
		w := 1 / dist2(qf, feats[i])
		wSum += w
		for d := 0; d < behavior.Dims; d++ {
			pred.Raw[d] += w * r.Raw[d]
		}
		pred.Iterations += w * float64(r.Iterations)
	}
	if !(wSum > 0) || math.IsInf(wSum, 0) {
		return nil, fmt.Errorf("predict: query alpha %v is too far from the corpus to interpolate", q.Alpha)
	}
	for d := 0; d < behavior.Dims; d++ {
		pred.Raw[d] /= wSum
	}
	pred.Iterations /= wSum
	pred.Support = len(own)
	return &pred, nil
}

// checkAgainstOracle asserts Predict equals oraclePredict on every
// query: the same error text, or the same float64 bits in every field.
func checkAgainstOracle(t *testing.T, runs []*behavior.Run, queries []Query) {
	t.Helper()
	p, err := New(runs)
	if err != nil {
		t.Fatal(err)
	}
	checkPredictor(t, p, runs, queries)
}

// checkPredictor asserts p.Predict equals oraclePredict over runs on
// every query, as checkAgainstOracle does for a predictor built from
// them.
func checkPredictor(t *testing.T, p *Predictor, runs []*behavior.Run, queries []Query) {
	t.Helper()
	for qi, q := range queries {
		want, errW := oraclePredict(runs, q)
		got, errG := p.Predict(q)
		if fmt.Sprint(errG) != fmt.Sprint(errW) {
			t.Fatalf("query %d (%+v): error %v, oracle %v", qi, q, errG, errW)
		}
		if errW != nil {
			continue
		}
		same := got.Support == want.Support &&
			math.Float64bits(got.Iterations) == math.Float64bits(want.Iterations)
		for d := 0; d < behavior.Dims; d++ {
			same = same && math.Float64bits(got.Raw[d]) == math.Float64bits(want.Raw[d])
		}
		if !same {
			t.Fatalf("query %d (%+v): Predict %+v, oracle %+v", qi, q, got, want)
		}
	}
}

// queriesAround returns, for every run and every model, the run's own
// configuration (an exact hit), a near hit and an off-grid
// interpolation query.
func queriesAround(runs []*behavior.Run, models []string) []Query {
	var queries []Query
	for _, r := range runs {
		for _, m := range models {
			queries = append(queries,
				Query{r.Algorithm, r.NumEdges, r.Alpha, m},
				Query{r.Algorithm, r.NumEdges + 1, r.Alpha, m},
				Query{r.Algorithm, r.NumEdges * 3, r.Alpha + .1, m},
			)
		}
	}
	return queries
}

var testModels = []string{"", "gas", "pregel", "xstream"}

// TestPredictMatchesNaive: Predict equals the reference on measured
// configurations (exact hits, including duplicates), perturbed near
// hits and interpolation queries, with and without a model.
func TestPredictMatchesNaive(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		runs := randomCorpus(100, seed)
		queries := queriesAround(runs, testModels)
		qr := rng.New(seed ^ 0x9e3779b9)
		for i := 0; i < 300; i++ {
			queries = append(queries, Query{
				Algorithm: []string{"PR", "KM", "TC", "CC"}[qr.Intn(4)],
				NumEdges:  int64(1000 + qr.Intn(10_000_000)),
				Alpha:     2 + qr.Float64(),
				Model:     testModels[qr.Intn(len(testModels))],
			})
		}
		checkAgainstOracle(t, runs, queries)
	}
}

// TestPredictStandardCorpusMatchesOracle holds Predict to the reference
// on the shipped standard corpus: every algorithm at every measured
// configuration plus off-grid and out-of-range queries, over the corpus
// as shipped (all GAS) and with a re-tagged pregel copy of it beside,
// queried with and without each model.
func TestPredictStandardCorpusMatchesOracle(t *testing.T) {
	data, err := os.ReadFile("../../runs-standard.json")
	if err != nil {
		t.Fatal(err)
	}
	var runs []*behavior.Run
	if err := json.Unmarshal(data, &runs); err != nil {
		t.Fatal(err)
	}
	algs := map[string]bool{}
	for _, r := range runs {
		algs[r.Algorithm] = true
	}
	if len(runs) != 232 || len(algs) != 14 {
		t.Fatalf("standard corpus: %d runs of %d algorithms, want 232 of 14", len(runs), len(algs))
	}
	mixed := runs
	for _, r := range runs {
		c := *r
		c.Model = "pregel"
		for d := range c.Raw {
			c.Raw[d] *= 1.5
		}
		mixed = append(mixed, &c)
	}
	for _, corpus := range [][]*behavior.Run{runs, mixed} {
		queries := queriesAround(corpus, testModels)
		for alg := range algs {
			for _, alpha := range []float64{0, 1.1, 2.37, 4, 1e150, 1e308, math.NaN()} {
				for _, m := range testModels {
					queries = append(queries, Query{alg, 123457, alpha, m})
				}
			}
		}
		checkAgainstOracle(t, corpus, queries)
	}
}

// TestPredictExactHitDuplicates: when several runs share a measured
// configuration, Predict returns the first (smallest-index) one, as
// the reference does.
func TestPredictExactHitDuplicates(t *testing.T) {
	runs := syntheticCorpus()
	dup := *runs[7]
	dup.Raw[0] *= 2 // distinguishable payload, identical configuration
	runs = append(runs, &dup)
	q := Query{Algorithm: runs[7].Algorithm, NumEdges: runs[7].NumEdges, Alpha: runs[7].Alpha}
	checkAgainstOracle(t, runs, []Query{q})
	p, err := New(runs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Predict(q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Raw != runs[7].Raw {
		t.Fatalf("duplicate hit resolved to the later run: %v", got.Raw)
	}
}

// TestPredictStaysWithinModel: a query naming a model interpolates only
// that model's runs ("gas" includes untagged runs), and a model with no
// runs is an error.
func TestPredictStaysWithinModel(t *testing.T) {
	var runs []*behavior.Run
	for _, m := range []string{"", "pregel"} {
		for _, alpha := range []float64{1.9, 2.2, 2.5} {
			for _, size := range []int64{10000, 100000} {
				r := &behavior.Run{
					Algorithm: "PR", Model: m, Domain: "Graph Analytics",
					NumEdges: size, Alpha: alpha, SizeLabel: "x", Iterations: 10,
					Raw: behavior.Vector{0.5, 1e-9, 1, 0.4},
				}
				if m == "pregel" {
					// A deliberately different behavior signature, so a
					// cross-model mixup would be visible.
					r.Raw = behavior.Vector{5, 1e-8, 9, 3}
				}
				runs = append(runs, r)
			}
		}
	}
	p, err := New(runs)
	if err != nil {
		t.Fatal(err)
	}
	predict := func(m string) *Prediction {
		t.Helper()
		pred, err := p.Predict(Query{Algorithm: "PR", NumEdges: 50000, Alpha: 2.1, Model: m})
		if err != nil {
			t.Fatalf("model %q: %v", m, err)
		}
		return pred
	}
	gas, pre, all := predict("gas"), predict("pregel"), predict("")
	// Every run of a model shares one signature, so its interpolation
	// is that signature up to rounding.
	if math.Abs(gas.Raw[2]-1) > 1e-9 || math.Abs(pre.Raw[2]-9) > 1e-9 {
		t.Errorf("per-model predictions mix models: gas %v, pregel %v", gas.Raw, pre.Raw)
	}
	if gas.Support != 6 || pre.Support != 6 || all.Support != 12 {
		t.Errorf("support gas %d, pregel %d, all %d; want 6, 6, 12", gas.Support, pre.Support, all.Support)
	}
	if _, err := p.Predict(Query{Algorithm: "PR", NumEdges: 50000, Alpha: 2.1, Model: "graphcentric"}); err == nil {
		t.Error("a model with no runs predicted")
	}
}

// TestPredictMatchesNaiveAcrossSizes holds Predict to the reference for
// corpora from one run per algorithm up to 500: every run's own
// configuration, near hits a hair off the exact-hit radius and random
// interpolation queries.
func TestPredictMatchesNaiveAcrossSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 9, 16, 33, 100, 251, 500} {
		for seed := uint64(1); seed <= 3; seed++ {
			runs := randomCorpus(n, seed*1000+uint64(n))
			queries := queriesAround(runs, testModels)
			for _, r := range runs {
				queries = append(queries, Query{r.Algorithm, r.NumEdges, r.Alpha + 1e-9, ""})
			}
			qr := rng.New(seed*7 + uint64(n))
			for i := 0; i < 100; i++ {
				queries = append(queries, Query{
					Algorithm: []string{"PR", "KM", "TC"}[qr.Intn(3)],
					NumEdges:  int64(1000 + qr.Intn(10_000_000)),
					Alpha:     2 + qr.Float64(),
					Model:     testModels[qr.Intn(len(testModels))],
				})
			}
			checkAgainstOracle(t, runs, queries)
		}
	}
}

// TestPredictNearHitTieGoesToEarliest: two runs at bit-equal squared
// distances, both inside the exact-hit radius of the query. The run
// earlier in corpus order answers, whichever of the two that is.
func TestPredictNearHitTieGoesToEarliest(t *testing.T) {
	lo := &behavior.Run{Algorithm: "PR", NumEdges: 10000, Alpha: 2, Iterations: 3, Raw: behavior.Vector{1, 1, 1, 1}}
	hi := &behavior.Run{Algorithm: "PR", NumEdges: 10000, Alpha: 2 + 0x1p-22, Iterations: 5, Raw: behavior.Vector{2, 2, 2, 2}}
	q := Query{Algorithm: "PR", NumEdges: 10000, Alpha: 2 + 0x1p-23}
	// The alphas are exactly representable after scaling, so the two
	// distances are the same float64, and both fall under 1e-12.
	qf := featureOf(q.NumEdges, q.Alpha)
	d2 := func(r *behavior.Run) float64 {
		f := featureOf(r.NumEdges, r.Alpha)
		dl, da := qf[0]-f[0], qf[1]-f[1]
		return dl*dl + da*da
	}
	if d2(lo) != d2(hi) || !(d2(lo) < 1e-12) {
		t.Fatalf("setup: distances %v and %v are not an equal near hit", d2(lo), d2(hi))
	}
	for _, runs := range [][]*behavior.Run{{lo, hi}, {hi, lo}} {
		checkAgainstOracle(t, runs, []Query{q})
		p, err := New(runs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Predict(q)
		if err != nil {
			t.Fatal(err)
		}
		if got.Support != 1 || got.Raw != runs[0].Raw || got.Iterations != float64(runs[0].Iterations) {
			t.Fatalf("tie resolved to %+v, want the earlier run (alpha %v)", got, runs[0].Alpha)
		}
	}
}

// TestPredictNoUsableRuns: runs without a positive edge count are left
// out of the predictor, so a corpus of only those answers no query, and
// an algorithm with runs only under another model answers none under
// the queried one.
func TestPredictNoUsableRuns(t *testing.T) {
	runs := []*behavior.Run{
		{Algorithm: "PR", NumEdges: 0, Alpha: 2, Iterations: 4, Raw: behavior.Vector{1, 1, 1, 1}},
		{Algorithm: "PR", NumEdges: -5, Alpha: 2.5, Iterations: 4, Raw: behavior.Vector{1, 1, 1, 1}},
		{Algorithm: "KM", Model: "pregel", NumEdges: 1000, Alpha: 2, Iterations: 4, Raw: behavior.Vector{1, 1, 1, 1}},
	}
	p, err := New(runs)
	if err != nil {
		t.Fatal(err)
	}
	queries := []Query{
		{"PR", 1000, 2, ""}, {"PR", 1000, 2, "gas"}, {"PR", 5000, 2.2, "pregel"},
		{"KM", 1000, 2, "gas"}, {"KM", 1000, 2, "xstream"},
	}
	for _, q := range queries {
		if got, err := p.Predict(q); err == nil {
			t.Errorf("%+v predicted from no usable runs: %+v", q, got)
		}
	}
	checkPredictor(t, p, runs, queries)
}

// TestPredictorKeepsItsOwnCopy: changing the caller's runs after New,
// in place or by replacing them, changes no prediction.
func TestPredictorKeepsItsOwnCopy(t *testing.T) {
	runs := randomCorpus(40, 11)
	orig := make([]*behavior.Run, len(runs))
	for i, r := range runs {
		c := *r
		orig[i] = &c
	}
	p, err := New(runs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range runs {
		if i%2 == 0 {
			r.NumEdges, r.Alpha, r.Model, r.Iterations = 7, 9, "pregel", 999
			r.Raw = behavior.Vector{9, 9, 9, 9}
		} else {
			runs[i] = &behavior.Run{Algorithm: "PR", NumEdges: 1, Raw: behavior.Vector{9, 9, 9, 9}}
		}
	}
	checkPredictor(t, p, orig, queriesAround(orig, testModels))
}

// TestPredictDegenerateCorpus: every run at one configuration, and runs
// along one feature axis only. A query at the shared configuration is
// the first run; anywhere else every weight is equal, so the
// interpolation is the plain mean of the runs.
func TestPredictDegenerateCorpus(t *testing.T) {
	r := rng.New(13)
	var same []*behavior.Run
	var mean behavior.Vector
	for i := 0; i < 40; i++ {
		var raw behavior.Vector
		for d := range raw {
			raw[d] = r.Float64()
			mean[d] += raw[d] / 40
		}
		same = append(same, &behavior.Run{Algorithm: "PR", NumEdges: 10000, Alpha: 2.5, Iterations: 1 + i, Raw: raw})
	}
	p, err := New(same)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := p.Predict(Query{Algorithm: "PR", NumEdges: 10000, Alpha: 2.5})
	if err != nil {
		t.Fatal(err)
	}
	if hit.Raw != same[0].Raw || hit.Support != 1 {
		t.Fatalf("shared configuration answered %+v, want the first run", hit)
	}
	off, err := p.Predict(Query{Algorithm: "PR", NumEdges: 31623, Alpha: 2.1})
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < behavior.Dims; d++ {
		if math.Abs(off.Raw[d]-mean[d]) > 1e-12 {
			t.Fatalf("dim %d: equal-weight interpolation %v, mean %v", d, off.Raw[d], mean[d])
		}
	}
	if math.Abs(off.Iterations-20.5) > 1e-12 || off.Support != 40 {
		t.Fatalf("equal-weight interpolation: iterations %v, support %d; want 20.5, 40", off.Iterations, off.Support)
	}

	var sizeLine, alphaLine []*behavior.Run
	for i := 0; i < 50; i++ {
		raw := behavior.Vector{float64(i), 1, 2, 3}
		sizeLine = append(sizeLine, &behavior.Run{Algorithm: "PR", NumEdges: int64(math.Pow(10, 3+4*float64(i)/49)), Alpha: 2.5, Iterations: i, Raw: raw})
		alphaLine = append(alphaLine, &behavior.Run{Algorithm: "PR", NumEdges: 10000, Alpha: 2 + float64(i)/49, Iterations: i, Raw: raw})
	}
	for _, runs := range [][]*behavior.Run{same, sizeLine, alphaLine} {
		queries := queriesAround(runs, testModels)
		for i := 0; i < 200; i++ {
			queries = append(queries, Query{Algorithm: "PR", NumEdges: int64(1000 + r.Intn(10_000_000)), Alpha: 2 + r.Float64()})
		}
		checkAgainstOracle(t, runs, queries)
	}
}

// TestPredictExhaustiveSmallCorpus draws corpora of every size up to 20
// from a small grid of configurations and models, so duplicates, exact
// hits and equal distances are common, and holds Predict to the
// reference on every grid point, under every model, and on random
// queries.
func TestPredictExhaustiveSmallCorpus(t *testing.T) {
	sizes := []int64{1000, 10000, 100000}
	alphas := []float64{2, 2.25, 2.5, 2.75, 3}
	models := []string{"", "gas", "pregel"}
	r := rng.New(7)
	for n := 1; n <= 20; n++ {
		for trial := 0; trial < 30; trial++ {
			runs := make([]*behavior.Run, n)
			for i := range runs {
				runs[i] = &behavior.Run{
					Algorithm: "PR", Model: models[r.Intn(len(models))],
					NumEdges: sizes[r.Intn(len(sizes))], Alpha: alphas[r.Intn(len(alphas))],
					Iterations: 1 + r.Intn(50), Raw: behavior.Vector{r.Float64(), r.Float64(), r.Float64(), r.Float64()},
				}
			}
			var queries []Query
			for _, e := range sizes {
				for _, a := range alphas {
					for _, m := range testModels {
						queries = append(queries, Query{"PR", e, a, m}, Query{"PR", e * 2, a + 0.125, m})
					}
				}
			}
			for i := 0; i < 50; i++ {
				queries = append(queries, Query{"PR", int64(1000 + r.Intn(100_000)), 2 + r.Float64(), testModels[r.Intn(len(testModels))]})
			}
			checkAgainstOracle(t, runs, queries)
		}
	}
}

// benchCorpus spreads n runs over one algorithm.
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

// BenchmarkPredict re-queries measured configurations (exact hits) and
// off-grid ones (interpolations). n=20 is the standard corpus's number
// of runs per graph-varying algorithm.
func BenchmarkPredict(b *testing.B) {
	for _, n := range []int{20, 512} {
		runs := benchCorpus(n)
		p, err := New(runs)
		if err != nil {
			b.Fatal(err)
		}
		for _, hit := range []bool{true, false} {
			queries := make([]Query, len(runs))
			for i, r := range runs {
				queries[i] = Query{Algorithm: r.Algorithm, NumEdges: r.NumEdges, Alpha: r.Alpha}
				if !hit {
					queries[i].Alpha += 0.05
				}
			}
			b.Run(fmt.Sprintf("n=%d/%s", n, map[bool]string{true: "hit", false: "interpolate"}[hit]), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := p.Predict(queries[i%len(queries)]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
