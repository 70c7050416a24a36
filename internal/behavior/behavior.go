// Package behavior defines the paper's graph-computation behavior space
// (§5.1): Behavior(GC) = <UPDT, WORK, EREAD, MSG>, a 4-dimensional vector
// per graph computation, where each component is the per-iteration average
// divided by the number of edges (per-edge behavior, §3.4) and then
// max-normalized to ≤ 1.0 across the run collection.
package behavior

import (
	"fmt"
	"math"

	"gcbench/internal/trace"
)

// Dims is the dimensionality of the behavior space.
const Dims = 4

// Dimension indices into a Vector.
const (
	UPDT = iota
	WORK
	EREAD
	MSG
)

// DimNames lists the dimension labels in index order.
var DimNames = [Dims]string{"UPDT", "WORK", "EREAD", "MSG"}

// Vector is a point in the behavior space.
type Vector [Dims]float64

// Distance returns the Euclidean distance between two behavior vectors —
// the d(·,·) of the spread and coverage definitions.
func Distance(a, b Vector) float64 {
	var s float64
	for i := 0; i < Dims; i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// RunStatus classifies the outcome of one campaign run. Only StatusOK
// runs carry a behavior vector; the other statuses exist so a resilient
// campaign can account for every spec it was asked to execute.
type RunStatus string

// Campaign run outcomes.
const (
	// StatusOK is a successfully measured run.
	StatusOK RunStatus = "ok"
	// StatusFailed is a run whose every attempt returned an error or
	// panicked.
	StatusFailed RunStatus = "failed"
	// StatusTimeout is a run whose last attempt exceeded its per-run
	// wall-clock budget.
	StatusTimeout RunStatus = "timeout"
	// StatusCancelled is a run stopped (or never started) because the
	// campaign context was cancelled.
	StatusCancelled RunStatus = "cancelled"
	// StatusSkipped is a run restored from a checkpoint journal instead of
	// being re-executed (resume).
	StatusSkipped RunStatus = "skipped"
)

// ModelGAS is the effective execution model of runs that carry no model
// tag: everything measured before the model axis existed ran on the GAS
// engine.
const ModelGAS = "gas"

// EffectiveModel maps a run's stored model tag to its effective
// execution model: the empty string (pre-model-axis runs) is GAS.
func EffectiveModel(s string) string {
	if s == "" {
		return ModelGAS
	}
	return s
}

// Run is one graph computation: the <algorithm, graph size, degree
// distribution> tuple of §5.1 plus its measured raw behavior, tagged
// with the execution model that produced it.
type Run struct {
	// Algorithm is the paper abbreviation (CC, KC, …).
	Algorithm string `json:"algorithm"`
	// Model is the execution model that ran the computation, empty for
	// the default GAS engine (so pre-model-axis corpora are unchanged on
	// disk and GAS runs keep encoding byte-identically).
	//
	// Every model reports the same per-iteration trace vocabulary, so
	// the four behavior dimensions always exist; what each counts is
	// model-specific (§3.3: the behavior is conserved, the mechanism
	// differs):
	//
	//	model        | UPDT                  | EREAD                    | MSG                       | WORK
	//	-------------|-----------------------|--------------------------|---------------------------|--------------------
	//	gas          | apply invocations     | gather/scatter traversals| scatter signals           | apply time
	//	pregel       | Compute invocations   | per-edge message sends   | messages sent (combined)  | Compute time
	//	xstream      | apply-phase folds     | streamed edges scanned   | updates emitted to targets| apply time
	//	graphcentric | state improvements    | propagations evaluated   | boundary crossings        | partition drain time
	//
	// The cross-model invariance suite (internal/model tests) pins this
	// mapping; the claims tests assert the resulting behavior-space
	// separation.
	Model string `json:"model,omitempty"`
	// Domain is the application domain.
	Domain string `json:"domain"`
	// NumEdges is the graph scale parameter (Table 2's nedges, or nrows
	// recorded as edges for the solver workloads).
	NumEdges int64 `json:"numEdges"`
	// Alpha is the degree-distribution exponent (0 when not applicable).
	Alpha float64 `json:"alpha"`
	// SizeLabel is the human-readable scale (e.g. "1e5").
	SizeLabel string `json:"sizeLabel"`

	// Iterations is the run length.
	Iterations int `json:"iterations"`
	// Converged reports whether the run ended by its own criterion.
	Converged bool `json:"converged"`
	// ActiveFraction is the per-iteration activity series.
	ActiveFraction []float64 `json:"activeFraction"`

	// Raw holds the pre-normalization per-edge metric means:
	// updates/iter/edge, apply-seconds/iter/edge, reads/iter/edge,
	// messages/iter/edge.
	Raw Vector `json:"raw"`
}

// ID renders the run's identifying tuple. Non-GAS runs append their
// execution model so the same computation under two models never shares
// an ID; GAS runs render exactly as before the model axis existed.
func (r *Run) ID() string {
	var id string
	if r.Alpha == 0 {
		id = fmt.Sprintf("<%s, %s>", r.Algorithm, r.SizeLabel)
	} else {
		id = fmt.Sprintf("<%s, %s, %.2f>", r.Algorithm, r.SizeLabel, r.Alpha)
	}
	if m := EffectiveModel(r.Model); m != ModelGAS {
		id = id[:len(id)-1] + ", " + m + ">"
	}
	return id
}

// FromTrace extracts the raw per-edge behavior vector from a run trace.
func FromTrace(t *trace.RunTrace) Vector {
	edges := float64(t.NumEdges)
	if edges <= 0 {
		return Vector{}
	}
	return Vector{
		UPDT:  t.MeanUpdates() / edges,
		WORK:  t.MeanApplySeconds() / edges,
		EREAD: t.MeanEdgeReads() / edges,
		MSG:   t.MeanMessages() / edges,
	}
}

// Space is a normalized collection of runs: every dimension is scaled by
// the collection-wide maximum so all coordinates lie in [0, 1], making
// distances comparable across dimensions ("we also normalize these metrics
// to make it less than 1.0 for highlighting the relative difference",
// §3.4).
type Space struct {
	Runs   []*Run
	Points []Vector
	// Max holds the per-dimension raw maxima used for normalization.
	Max Vector
}

// NewSpace normalizes a run collection into a behavior space.
func NewSpace(runs []*Run) (*Space, error) {
	if len(runs) == 0 {
		return nil, fmt.Errorf("behavior: empty run collection")
	}
	s := &Space{Runs: runs, Points: make([]Vector, len(runs))}
	for _, r := range runs {
		for d := 0; d < Dims; d++ {
			if math.IsNaN(r.Raw[d]) || math.IsInf(r.Raw[d], 0) || r.Raw[d] < 0 {
				return nil, fmt.Errorf("behavior: run %s has invalid %s = %v",
					r.ID(), DimNames[d], r.Raw[d])
			}
			if r.Raw[d] > s.Max[d] {
				s.Max[d] = r.Raw[d]
			}
		}
	}
	for i, r := range runs {
		for d := 0; d < Dims; d++ {
			if s.Max[d] > 0 {
				s.Points[i][d] = r.Raw[d] / s.Max[d]
			}
		}
	}
	return s, nil
}

// Point returns the normalized behavior vector of run i.
func (s *Space) Point(i int) Vector { return s.Points[i] }

// Len returns the number of runs.
func (s *Space) Len() int { return len(s.Runs) }

// ByAlgorithm groups run indices by algorithm name.
func (s *Space) ByAlgorithm() map[string][]int {
	m := make(map[string][]int)
	for i, r := range s.Runs {
		m[r.Algorithm] = append(m[r.Algorithm], i)
	}
	return m
}

// RangeRatio returns, per dimension, max/min over strictly positive raw
// values — the "1000-fold variation" headline of contribution (1).
func RangeRatio(runs []*Run) Vector {
	var out Vector
	for d := 0; d < Dims; d++ {
		minV, maxV := math.Inf(1), 0.0
		for _, r := range runs {
			v := r.Raw[d]
			if v <= 0 {
				continue
			}
			if v < minV {
				minV = v
			}
			if v > maxV {
				maxV = v
			}
		}
		if maxV > 0 && !math.IsInf(minV, 1) {
			out[d] = maxV / minV
		}
	}
	return out
}
