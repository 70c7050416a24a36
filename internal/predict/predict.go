// Package predict implements the paper's §7 future-work direction: "Can
// we model precisely a graph computation's behavior, and predict its
// performance?" — a behavior-vector predictor over a measured corpus.
//
// The model is deliberately simple and data-driven: for a queried
// <algorithm, size, alpha> tuple, it inverse-distance-interpolates the
// algorithm's measured runs in (log10 size, alpha) feature space. Because
// §4 shows behavior varies smoothly along both axes for most algorithms
// (and the vectors are per-edge normalized, removing first-order scale),
// local interpolation is a credible baseline predictor — and its
// leave-one-out error doubles as a quantitative check of the paper's
// smoothness observations.
//
// A predictor holds at most a few dozen runs per algorithm (the standard
// corpus has 20), so every query is one linear pass over the queried
// algorithm's runs: the pass finds the nearest run for the exact-hit
// check and accumulates the interpolation weights at the same time.
package predict

import (
	"fmt"
	"math"

	"gcbench/internal/behavior"
)

// Predictor interpolates behavior vectors from a corpus. Immutable after
// New; safe for concurrent queries.
type Predictor struct {
	// byAlg holds each algorithm's samples in corpus order.
	byAlg map[string][]sample
}

// sample is one measured run embedded in the feature space: feat is
// (log10 edges, alphaScale·alpha), model the run's effective model.
type sample struct {
	feat  [2]float64
	model string
	raw   behavior.Vector
	iters float64
}

// alphaScale balances the feature axes: alpha spans ~1 while log size
// spans ~3-4 units.
const alphaScale = 3.0

func featureOf(numEdges int64, alpha float64) [2]float64 {
	return [2]float64{math.Log10(float64(numEdges)), alphaScale * alpha}
}

// Query identifies the computation whose behavior to predict.
type Query struct {
	Algorithm string
	NumEdges  int64
	Alpha     float64
	// Model restricts the prediction to the runs of one execution model
	// (matched by behavior.EffectiveModel); empty uses every run. The
	// same computation traverses different event counts under different
	// engines, so interpolating across models would mix incomparable
	// points.
	Model string
}

// Prediction is the interpolated behavior.
type Prediction struct {
	// Raw is the per-edge behavior vector <UPDT, WORK, EREAD, MSG>.
	Raw behavior.Vector
	// Iterations is the predicted run length.
	Iterations float64
	// Support is the number of corpus runs that informed the prediction.
	Support int
}

// New builds a predictor from measured runs.
func New(runs []*behavior.Run) (*Predictor, error) {
	if len(runs) == 0 {
		return nil, fmt.Errorf("predict: empty corpus")
	}
	p := &Predictor{byAlg: map[string][]sample{}}
	for _, r := range runs {
		if r.NumEdges <= 0 {
			continue
		}
		p.byAlg[r.Algorithm] = append(p.byAlg[r.Algorithm], sample{
			feat:  featureOf(r.NumEdges, r.Alpha),
			model: behavior.EffectiveModel(r.Model),
			raw:   r.Raw,
			iters: float64(r.Iterations),
		})
	}
	return p, nil
}

// Predict interpolates the behavior of the queried computation. A
// queried configuration that is (numerically) a measured one returns
// the nearest such measurement itself, ties going to the earliest run;
// any other query is the inverse-squared-distance average of the runs.
// It errors when the corpus holds no runs of the algorithm (under the
// queried model, if any).
func (p *Predictor) Predict(q Query) (*Prediction, error) {
	qf := featureOf(q.NumEdges, q.Alpha)
	var hit *sample
	hitD2 := math.Inf(1)
	var wSum, iters float64
	var raw behavior.Vector
	support := 0
	samples := p.byAlg[q.Algorithm]
	for i := range samples {
		s := &samples[i]
		if q.Model != "" && s.model != q.Model {
			continue
		}
		// The conversion rounds the first square on its own, so a fused
		// multiply-add cannot regroup the sum: the same float64 as
		// accumulating the squares one dimension at a time.
		dl, da := qf[0]-s.feat[0], qf[1]-s.feat[1]
		d2 := float64(dl*dl) + da*da
		// Strict < keeps the earliest run among equally near ones.
		if d2 < hitD2 {
			hit, hitD2 = s, d2
		}
		// At an exact hit w is +Inf; the sums are then discarded below.
		w := 1 / d2
		wSum += w
		for d := 0; d < behavior.Dims; d++ {
			raw[d] += w * s.raw[d]
		}
		iters += w * s.iters
		support++
	}
	// A bad query only makes the pass compute NaNs; checking after it
	// keeps the errors' order: algorithm, edges, alpha.
	if support == 0 {
		return nil, fmt.Errorf("predict: no corpus runs for algorithm %q", q.Algorithm)
	}
	if q.NumEdges <= 0 {
		return nil, fmt.Errorf("predict: query needs a positive edge count")
	}
	if math.IsNaN(q.Alpha) || math.IsInf(q.Alpha, 0) {
		return nil, fmt.Errorf("predict: query alpha must be finite, got %v", q.Alpha)
	}
	if hitD2 < 1e-12 {
		return &Prediction{Raw: hit.raw, Iterations: hit.iters, Support: 1}, nil
	}
	// An alpha so far out that every squared distance overflows leaves
	// every weight 0, and the quotients would be NaN.
	if !(wSum > 0) || math.IsInf(wSum, 0) {
		return nil, fmt.Errorf("predict: query alpha %v is too far from the corpus to interpolate", q.Alpha)
	}
	for d := 0; d < behavior.Dims; d++ {
		raw[d] /= wSum
	}
	return &Prediction{Raw: raw, Iterations: iters / wSum, Support: support}, nil
}

// LeaveOneOut evaluates the predictor on its own corpus: each run is
// predicted from the others and the mean relative error per behavior
// dimension is returned (dimensions where the true value is ~0 are
// skipped). Algorithms need at least 3 runs to participate.
func LeaveOneOut(runs []*behavior.Run) (behavior.Vector, error) {
	var errSum behavior.Vector
	var counts [behavior.Dims]float64
	byAlg := map[string][]*behavior.Run{}
	for _, r := range runs {
		byAlg[r.Algorithm] = append(byAlg[r.Algorithm], r)
	}
	evaluated := false
	for _, algRuns := range byAlg {
		if len(algRuns) < 3 {
			continue
		}
		for i, target := range algRuns {
			rest := make([]*behavior.Run, 0, len(algRuns)-1)
			rest = append(rest, algRuns[:i]...)
			rest = append(rest, algRuns[i+1:]...)
			p, err := New(rest)
			if err != nil {
				return behavior.Vector{}, err
			}
			pred, err := p.Predict(Query{
				Algorithm: target.Algorithm,
				NumEdges:  target.NumEdges,
				Alpha:     target.Alpha,
			})
			if err != nil {
				return behavior.Vector{}, err
			}
			evaluated = true
			for d := 0; d < behavior.Dims; d++ {
				if target.Raw[d] <= 0 {
					continue
				}
				errSum[d] += math.Abs(pred.Raw[d]-target.Raw[d]) / target.Raw[d]
				counts[d]++
			}
		}
	}
	if !evaluated {
		return behavior.Vector{}, fmt.Errorf("predict: no algorithm has enough runs for leave-one-out")
	}
	for d := 0; d < behavior.Dims; d++ {
		if counts[d] > 0 {
			errSum[d] /= counts[d]
		}
	}
	return errSum, nil
}
