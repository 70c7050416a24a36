// Package sweep builds and executes the paper's experiment campaign
// (Table 2): every algorithm run over its domain's graph-feature matrix,
// producing the behavior-run corpus that Sections 4 and 5 analyze.
//
// The paper's absolute scales (nedges up to 10^9 on a 48-node cluster)
// are mapped to laptop-scale profiles; per-edge normalization makes the
// behavior vectors scale-invariant to first order (see DESIGN.md §3).
//
// # Campaign execution
//
// ExecuteCampaign is the resilient entry point: per-run wall-clock
// timeouts, bounded retry with exponential backoff, panic isolation, and
// an optional checkpoint Journal that lets an interrupted campaign resume
// with zero re-execution of completed runs. Execute wraps it with
// fail-if-anything-failed semantics for callers that need a complete
// corpus.
//
// Two parallelism knobs compose (see Config): Parallel bounds concurrent
// *runs*, Workers bounds engine goroutines *within* each run, so peak
// engine parallelism is roughly Parallel × Workers. Graph construction is
// cached per structure and shared between concurrent runs; specs are
// dispatched structure-major, so at most Parallel shared graphs are
// resident, while results and the corpus stay in plan order.
package sweep

import (
	"fmt"

	"gcbench/internal/algorithms"
	"gcbench/internal/model"
)

// Spec identifies one graph computation: the <algorithm, graph size,
// degree distribution> tuple of §5.1, extended with the execution model
// that runs it.
type Spec struct {
	Algorithm algorithms.Name `json:"algorithm"`
	// Model is the execution model (empty means GAS, keeping specs and
	// checkpoint journals written before the model axis byte-compatible).
	Model model.Name `json:"model,omitempty"`
	// NumEdges is the generator's target edge count (GA, Clustering, CF
	// and DD workloads).
	NumEdges int64 `json:"numEdges,omitempty"`
	// Alpha is the power-law exponent (0 where Table 2 has no α column).
	Alpha float64 `json:"alpha,omitempty"`
	// NumRows is the matrix/grid dimension (Jacobi and LBP workloads).
	NumRows int `json:"numRows,omitempty"`
	// SizeLabel is the human-readable scale column of Table 2.
	SizeLabel string `json:"sizeLabel"`
	// Seed selects the graph's random stream; runs sharing a graph share
	// the seed, mirroring the paper's one-graph-per-structure setup.
	Seed uint64 `json:"seed"`
}

// ID renders the spec's identifying tuple. Non-GAS specs append the
// model, so the same computation under two models never shares an ID —
// checkpoint resume, fault injection and tracing all key on it. GAS
// specs render exactly as before the model axis, so old journals still
// match.
func (s Spec) ID() string {
	id := ""
	if s.Alpha == 0 {
		id = fmt.Sprintf("<%s, %s>", s.Algorithm, s.SizeLabel)
	} else {
		id = fmt.Sprintf("<%s, %s, %.2f>", s.Algorithm, s.SizeLabel, s.Alpha)
	}
	if m := model.Canonical(string(s.Model)); m != model.GAS {
		id = id[:len(id)-1] + fmt.Sprintf(", %s>", m)
	}
	return id
}

// EffectiveModel returns the spec's execution model, resolving the
// empty (pre-model-axis) tag to GAS.
func (s Spec) EffectiveModel() model.Name {
	return model.Canonical(string(s.Model))
}

// Profile selects the campaign scale.
type Profile string

const (
	// ProfileQuick is for tests and smoke runs (seconds).
	ProfileQuick Profile = "quick"
	// ProfileStandard is the default laptop-scale reproduction (minutes).
	ProfileStandard Profile = "standard"
	// ProfileLarge pushes one decade further (tens of minutes).
	ProfileLarge Profile = "large"
)

// Alphas is the paper's degree-distribution sweep (Table 2).
var Alphas = []float64{2.0, 2.25, 2.5, 2.75, 3.0}

// profileScales returns the four sizes each input family is swept over:
// edge counts, or matrix rows / grid sides for Jacobi and LBP.
func profileScales(p Profile) (map[algorithms.Family][]int64, error) {
	scales := map[algorithms.Family][]int64{
		// DD sizes are the paper's real MRF sizes at every profile — they
		// are already laptop-scale.
		algorithms.FamilyDD: {1056, 1190, 1406, 1560},
	}
	switch p {
	case ProfileQuick:
		scales[algorithms.FamilyGA] = []int64{300, 1000, 3000, 10000}
		scales[algorithms.FamilyCF] = []int64{100, 300, 1000, 3000}
		scales[algorithms.FamilyJacobi] = []int64{100, 200, 300, 400}
		scales[algorithms.FamilyLBP] = []int64{12, 16, 24, 32}
	case ProfileStandard:
		scales[algorithms.FamilyGA] = []int64{1000, 10000, 100000, 1000000}
		scales[algorithms.FamilyCF] = []int64{100, 1000, 10000, 100000}
		scales[algorithms.FamilyJacobi] = []int64{500, 1000, 1500, 2000}
		scales[algorithms.FamilyLBP] = []int64{50, 100, 150, 200}
	case ProfileLarge:
		scales[algorithms.FamilyGA] = []int64{10000, 100000, 1000000, 10000000}
		scales[algorithms.FamilyCF] = []int64{1000, 10000, 100000, 1000000}
		scales[algorithms.FamilyJacobi] = []int64{5000, 10000, 15000, 20000}
		scales[algorithms.FamilyLBP] = []int64{100, 200, 300, 400}
	default:
		return nil, fmt.Errorf("sweep: unknown profile %q", p)
	}
	return scales, nil
}

// sizeLabel renders an edge count compactly (1000 → "1e3").
func sizeLabel(n int64) string {
	e := 0
	v := n
	for v >= 10 && v%10 == 0 {
		v /= 10
		e++
	}
	if v < 10 && e >= 3 {
		return fmt.Sprintf("%de%d", v, e)
	}
	return fmt.Sprintf("%d", n)
}

// graphSeed derives the shared seed of a graph structure so every
// algorithm of an input family sees the same graph, as in the paper.
func graphSeed(base uint64, fam algorithms.Family, size int64, alpha float64) uint64 {
	h := base ^ 0x9e3779b97f4a7c15
	for _, c := range fam {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	h = (h ^ uint64(size)) * 0x100000001b3
	h = (h ^ uint64(alpha*100)) * 0x100000001b3
	return h
}

// BuildPlan constructs the Table 2 campaign for a profile, algorithm by
// algorithm in presentation order: for each Graph Analytics and
// Clustering algorithm, 4 sizes × 5 alphas; for each CF algorithm, the
// same grid one decade lower; Jacobi and LBP over four matrix
// dimensions; DD over the four paper MRF sizes.
func BuildPlan(p Profile, seed uint64) ([]Spec, error) {
	scales, err := profileScales(p)
	if err != nil {
		return nil, err
	}
	var specs []Spec
	for _, alg := range algorithms.AllNames() {
		fam := alg.Family()
		for _, size := range scales[fam] {
			s := Spec{Algorithm: alg, SizeLabel: fmt.Sprint(size)}
			if fam == algorithms.FamilyJacobi || fam == algorithms.FamilyLBP {
				s.NumRows = int(size)
			} else {
				s.NumEdges = size
			}
			// Only the graph-varying families have Table 2's α column.
			alphas := []float64{0}
			if alg.GraphVarying() {
				s.SizeLabel, alphas = sizeLabel(size), Alphas
			}
			for _, alpha := range alphas {
				s.Alpha = alpha
				s.Seed = graphSeed(seed, fam, size, alpha)
				specs = append(specs, s)
			}
		}
	}
	return specs, nil
}

// BuildPlanModels expands the Table 2 campaign across execution models:
// for each requested model, the profile's plan restricted to the
// algorithms that model implements. GAS specs carry an empty Model tag
// (the pre-model-axis encoding), so BuildPlanModels(p, seed, [gas]) is
// spec-for-spec identical to BuildPlan(p, seed). Duplicate model names
// collapse; specs are grouped model-major in AllNames order. That is the
// corpus order only: ExecuteCampaign dispatches structure-major, across
// models, whatever order the plan lists.
func BuildPlanModels(p Profile, seed uint64, models []model.Name) ([]Spec, error) {
	if len(models) == 0 {
		return BuildPlan(p, seed)
	}
	base, err := BuildPlan(p, seed)
	if err != nil {
		return nil, err
	}
	want := make(map[model.Name]bool, len(models))
	for _, m := range models {
		n, err := model.Parse(string(m))
		if err != nil {
			return nil, err
		}
		want[n] = true
	}
	var specs []Spec
	for _, m := range model.AllNames() {
		if !want[m] {
			continue
		}
		impl, err := model.ForName(m)
		if err != nil {
			return nil, err
		}
		for _, s := range base {
			if !impl.Supports(s.Algorithm) {
				continue
			}
			s.Model = model.Name(model.Tag(m))
			specs = append(specs, s)
		}
	}
	return specs, nil
}
