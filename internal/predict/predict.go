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
// Queries are served through a per-algorithm nnindex k-d tree: the
// exact-hit check (is the queried configuration already measured?) is an
// O(log n) nearest-neighbor lookup instead of a linear scan, which is
// the hot path when clients re-query measured configurations. The
// linear scan stays reachable (predict's indexed=false) as the oracle
// the differential tests hold Predict bit-identical to.
package predict

import (
	"fmt"
	"math"

	"gcbench/internal/behavior"
	"gcbench/internal/nnindex"
)

// Predictor interpolates behavior vectors from a corpus. Immutable after
// New; safe for concurrent queries.
type Predictor struct {
	byAlg map[string][]sample
	// feats embeds each algorithm's samples into the scaled feature
	// space (featureOf); index is the k-d tree over those points, in the
	// same order as byAlg's samples.
	feats map[string][]behavior.Vector
	index map[string]*nnindex.Index
}

type sample struct {
	logSize float64
	alpha   float64
	raw     behavior.Vector
	iters   float64
}

// alphaScale balances the feature axes: alpha spans ~1 while log size
// spans ~3-4 units.
const alphaScale = 3.0

// featureOf embeds a (log10 size, alpha) pair into the behavior-vector
// type the index is built over (the two trailing dimensions stay zero).
// All distances — hit detection and interpolation weights — are computed
// between these embedded points, so indexed and naive paths compare
// identical float64s.
func featureOf(logSize, alpha float64) behavior.Vector {
	return behavior.Vector{logSize, alphaScale * alpha}
}

// Query identifies the computation whose behavior to predict.
type Query struct {
	Algorithm string
	NumEdges  int64
	Alpha     float64
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
	p := &Predictor{
		byAlg: map[string][]sample{},
		feats: map[string][]behavior.Vector{},
		index: map[string]*nnindex.Index{},
	}
	for _, r := range runs {
		if r.NumEdges <= 0 {
			continue
		}
		s := sample{
			logSize: math.Log10(float64(r.NumEdges)),
			alpha:   r.Alpha,
			raw:     r.Raw,
			iters:   float64(r.Iterations),
		}
		p.byAlg[r.Algorithm] = append(p.byAlg[r.Algorithm], s)
		p.feats[r.Algorithm] = append(p.feats[r.Algorithm], featureOf(s.logSize, s.alpha))
	}
	for alg, feats := range p.feats {
		p.index[alg] = nnindex.Build(feats)
	}
	return p, nil
}

// Predict interpolates the behavior of the queried computation, using
// the k-d index for the exact-hit nearest-neighbor check. It errors when
// the corpus holds no runs of the algorithm.
func (p *Predictor) Predict(q Query) (*Prediction, error) {
	return p.predict(q, true)
}

func (p *Predictor) predict(q Query, indexed bool) (*Prediction, error) {
	samples := p.byAlg[q.Algorithm]
	if len(samples) == 0 {
		return nil, fmt.Errorf("predict: no corpus runs for algorithm %q", q.Algorithm)
	}
	if q.NumEdges <= 0 {
		return nil, fmt.Errorf("predict: query needs a positive edge count")
	}
	if math.IsNaN(q.Alpha) || math.IsInf(q.Alpha, 0) {
		return nil, fmt.Errorf("predict: query alpha must be finite, got %v", q.Alpha)
	}
	qf := featureOf(math.Log10(float64(q.NumEdges)), q.Alpha)
	feats := p.feats[q.Algorithm]

	// Exact hit: the queried configuration is (numerically) a measured
	// one — return the nearest such measurement itself. The index and
	// the scan agree exactly, ties included (nnindex's contract).
	var hit int
	var hitD2 float64
	if indexed {
		hit, hitD2 = p.index[q.Algorithm].Nearest(qf)
	} else {
		hit, hitD2 = nnindex.NearestLinear(feats, qf)
	}
	if hitD2 < 1e-12 {
		s := samples[hit]
		return &Prediction{Raw: s.raw, Iterations: s.iters, Support: 1}, nil
	}

	// Inverse-squared-distance interpolation over all runs. The nearest
	// distance is ≥ 1e-12 here, so no weight divides by zero.
	var wSum float64
	var pred Prediction
	for i, s := range samples {
		w := 1 / nnindex.Dist2(qf, feats[i])
		wSum += w
		for d := 0; d < behavior.Dims; d++ {
			pred.Raw[d] += w * s.raw[d]
		}
		pred.Iterations += w * s.iters
	}
	// An alpha so far out that every squared distance overflows leaves
	// every weight 0, and the quotients would be NaN.
	if !(wSum > 0) || math.IsInf(wSum, 0) {
		return nil, fmt.Errorf("predict: query alpha %v is too far from the corpus to interpolate", q.Alpha)
	}
	for d := 0; d < behavior.Dims; d++ {
		pred.Raw[d] /= wSum
	}
	pred.Iterations /= wSum
	pred.Support = len(samples)
	return &pred, nil
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
