package report

import (
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

	Pool       *behavior.Space
	sizeRankOf map[string]int

	// The empirical upper bounds are properties of the unit behavior cube,
	// not of any particular figure, so each is computed once per (metric,
	// maxSize, sample count) and shared across Figures 14-23.
	bounds map[boundKey][]float64
}

// boundKey names one empirical upper bound; samples is 0 for spread.
type boundKey struct {
	metric        ensemble.Metric
	size, samples int
}

// NewCorpus builds both normalized views.
func NewCorpus(runs []*behavior.Run) (*Corpus, error) {
	space, err := behavior.NewSpace(runs)
	if err != nil {
		return nil, err
	}
	var poolRuns []*behavior.Run
	for _, r := range runs {
		if algorithms.Name(r.Algorithm).GraphVarying() {
			poolRuns = append(poolRuns, r)
		}
	}
	c := &Corpus{Runs: runs, Space: space, bounds: map[boundKey][]float64{}}
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
