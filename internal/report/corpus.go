package report

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"gcbench/internal/algorithms"
	"gcbench/internal/behavior"
	"gcbench/internal/ensemble"
)

// Corpus wraps a measured run collection with the two normalized views the
// analysis needs: the full space (Figures 1-13) and the ensemble pool of
// the 11 graph-varying algorithms (algorithms.Name.GraphVarying; Figures
// 14-23, Table 3), normalized separately so the
// solver/graphical-model runs don't distort the §5 space the paper built
// from its 215 graph-varying runs.
type Corpus struct {
	Runs  []*behavior.Run
	Space *behavior.Space

	Pool        *behavior.Space
	poolRunIdx  []int // Pool index → Runs index
	sizeRankOf  map[string]int
	alphaValues []float64

	covCache map[int]*ensemble.CoverageEstimator

	// The empirical upper bounds are properties of the unit behavior cube,
	// not of any particular figure, so they are computed once per
	// (maxSize, sample-count) and shared across Figures 14-23.
	ubSpreadCache   map[int][]float64
	ubCoverageCache map[[2]int][]float64
}

// NewCorpus builds both normalized views.
func NewCorpus(runs []*behavior.Run) (*Corpus, error) {
	space, err := behavior.NewSpace(runs)
	if err != nil {
		return nil, err
	}
	var poolRuns []*behavior.Run
	var poolIdx []int
	for i, r := range runs {
		if algorithms.Name(r.Algorithm).GraphVarying() {
			poolRuns = append(poolRuns, r)
			poolIdx = append(poolIdx, i)
		}
	}
	c := &Corpus{
		Runs:            runs,
		Space:           space,
		poolRunIdx:      poolIdx,
		covCache:        map[int]*ensemble.CoverageEstimator{},
		ubSpreadCache:   map[int][]float64{},
		ubCoverageCache: map[[2]int][]float64{},
	}
	if len(poolRuns) > 0 {
		pool, err := behavior.NewSpace(poolRuns)
		if err != nil {
			return nil, err
		}
		c.Pool = pool
	}
	c.buildSizeRanks()
	return c, nil
}

// buildSizeRanks assigns each SizeLabel a per-domain rank so graphs of
// different domains align by scale decade (the paper's CF sizes sit one
// decade below the Graph Analytics sizes but occupy the same four slots
// of Table 2).
func (c *Corpus) buildSizeRanks() {
	c.sizeRankOf = make(map[string]int)
	perDomain := map[string][]string{}
	seen := map[string]bool{}
	for _, r := range c.Runs {
		key := r.Domain + "/" + r.SizeLabel
		if seen[key] {
			continue
		}
		seen[key] = true
		perDomain[r.Domain] = append(perDomain[r.Domain], r.SizeLabel)
	}
	alphaSeen := map[float64]bool{}
	for _, r := range c.Runs {
		if r.Alpha != 0 && !alphaSeen[r.Alpha] {
			alphaSeen[r.Alpha] = true
			c.alphaValues = append(c.alphaValues, r.Alpha)
		}
	}
	sort.Float64s(c.alphaValues)
	for domain, labels := range perDomain {
		sort.Slice(labels, func(i, j int) bool { return parseSizeLabel(labels[i]) < parseSizeLabel(labels[j]) })
		for rank, label := range labels {
			c.sizeRankOf[domain+"/"+label] = rank
		}
	}
}

// SizeRank returns the per-domain scale rank (0 = smallest) of a run.
func (c *Corpus) SizeRank(r *behavior.Run) int {
	return c.sizeRankOf[r.Domain+"/"+r.SizeLabel]
}

// parseSizeLabel inverts sizeLabel-style strings ("1e5" or "1056").
func parseSizeLabel(s string) int64 {
	if i := strings.IndexByte(s, 'e'); i > 0 {
		mant, err1 := strconv.ParseInt(s[:i], 10, 64)
		exp, err2 := strconv.Atoi(s[i+1:])
		if err1 == nil && err2 == nil {
			v := mant
			for k := 0; k < exp; k++ {
				v *= 10
			}
			return v
		}
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return v
}

// Coverage returns (building if needed) a deterministic estimator with the
// given sample count, cached for reuse across figures.
func (c *Corpus) Coverage(samples int) (*ensemble.CoverageEstimator, error) {
	if est, ok := c.covCache[samples]; ok {
		return est, nil
	}
	est, err := ensemble.NewCoverageEstimator(samples, 0x5eed)
	if err != nil {
		return nil, err
	}
	c.covCache[samples] = est
	return est, nil
}

// upperBoundSpread returns the cached empirical spread upper bound.
func (c *Corpus) upperBoundSpread(maxSize int) []float64 {
	if ub, ok := c.ubSpreadCache[maxSize]; ok {
		return ub
	}
	ub := ensemble.UpperBoundSpread(maxSize, 0xface)
	c.ubSpreadCache[maxSize] = ub
	return ub
}

// upperBoundCoverage returns the cached empirical coverage upper bound for
// the given estimator sample count.
func (c *Corpus) upperBoundCoverage(cov *ensemble.CoverageEstimator, maxSize int) []float64 {
	key := [2]int{maxSize, cov.NumSamples()}
	if ub, ok := c.ubCoverageCache[key]; ok {
		return ub
	}
	ub := ensemble.UpperBoundCoverage(cov, maxSize, 0xface)
	c.ubCoverageCache[key] = ub
	return ub
}

// PoolIdxByAlgorithm returns pool indices per algorithm.
func (c *Corpus) PoolIdxByAlgorithm() map[string][]int {
	return c.Pool.ByAlgorithm()
}

// PoolIdxByGraph groups pool indices by (size-rank, alpha) graph
// structure keys, the single-graph ensembles of §5.3.
func (c *Corpus) PoolIdxByGraph() map[string][]int {
	m := make(map[string][]int)
	for i, r := range c.Pool.Runs {
		key := fmt.Sprintf("size#%d/α=%.2f", c.SizeRank(r), r.Alpha)
		m[key] = append(m[key], i)
	}
	return m
}
