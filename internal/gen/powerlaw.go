// Package gen provides the synthetic graph generators behind the paper's
// Table 2 workloads: power-law graphs for Graph Analytics and Clustering,
// bipartite rating graphs for Collaborative Filtering, diagonally dominant
// matrix graphs for the Jacobi solver, pixel-grid MRFs for Loopy Belief
// Propagation, and general pairwise MRFs for Dual Decomposition.
//
// All generators are deterministic given a seed and parameterized the way
// the paper parameterizes them: by target edge count nedges and power-law
// exponent alpha (Eq. 1), with vertex data and edge weights drawn from
// Gaussian distributions (§3.2).
package gen

import (
	"fmt"
	"math"
	"sync"

	"gcbench/internal/graph"
	"gcbench/internal/rng"
)

// PowerLawConfig parameterizes a scale-free graph in the paper's terms.
type PowerLawConfig struct {
	// NumEdges is the target edge count (the paper's nedges). The realized
	// count after self-loop/duplicate removal is slightly lower, mirroring
	// the paper's "accepting slight variation" note.
	NumEdges int64
	// Alpha is the power-law exponent of Eq. (1), typically in [2, 3].
	Alpha float64
	// Seed selects the random stream.
	Seed uint64
	// Directed selects arc semantics; Graph Analytics inputs are
	// undirected per §3.2.
	Directed bool
	// SortAdjacency orders neighbor lists (triangle counting needs it).
	SortAdjacency bool
	// Weighted draws Gaussian edge weights |N(0,1)|+0.1 when set.
	Weighted bool
}

// PowerLaw generates a scale-free graph with degree distribution
// P(k) ~ k^-alpha using the Chung-Lu expected-degree model: each vertex
// draws an expected degree from the power law, and nedges endpoint pairs
// are sampled proportionally to those weights through an alias table.
//
// The vertex count is derived from nedges and the mean of the degree
// distribution so the realized average degree matches the target, the same
// coupling the paper accepts ("accepting slight variation in the number of
// vertices").
func PowerLaw(cfg PowerLawConfig) (*graph.Graph, error) {
	if cfg.NumEdges <= 0 {
		return nil, fmt.Errorf("gen: NumEdges must be positive, got %d", cfg.NumEdges)
	}
	if err := checkAlpha(cfg.Alpha); err != nil {
		return nil, err
	}
	r := rng.New(cfg.Seed)

	n := vertexCountFor(cfg.NumEdges, cfg.Alpha)
	kmax := maxDegreeFor(n)
	zipf, err := rng.NewZipf(kmax, cfg.Alpha)
	if err != nil {
		return nil, err
	}

	// Expected degree per vertex, power-law distributed.
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = float64(zipf.Draw(r))
	}
	alias, err := rng.NewAlias(weights)
	if err != nil {
		return nil, err
	}

	b := graph.NewBuilder(n, cfg.Directed).Dedup()
	if cfg.SortAdjacency {
		b.SortAdjacency()
	}
	if cfg.Weighted {
		b.Weighted()
	}
	b.Grow(int(cfg.NumEdges))
	if cfg.Weighted {
		// One edge at a time: an edge's weight is drawn between its
		// endpoints and the next edge's only when it is no self-loop, so
		// where every later endpoint sits in the stream hangs on that test
		// and the endpoints cannot be drawn ahead.
		for i := int64(0); i < cfg.NumEdges; i++ {
			u := uint32(alias.Draw(r))
			v := uint32(alias.Draw(r))
			if u == v {
				continue // dropped anyway; skip the work
			}
			b.AddWeightedEdge(u, v, math.Abs(r.NormFloat64())+0.1)
		}
		return b.Build()
	}
	// Unweighted, the stream is endpoints only, u then v per edge: draw
	// them a batch at a time.
	var ends [256]int
	for left := cfg.NumEdges; left > 0; {
		m := min(left, int64(len(ends)/2))
		alias.DrawInto(r, ends[:2*m])
		for k := 0; k < int(2*m); k += 2 {
			if u, v := uint32(ends[k]), uint32(ends[k+1]); u != v { // a self-loop is dropped anyway
				b.AddEdge(u, v)
			}
		}
		left -= m
	}
	return b.Build()
}

// checkAlpha refuses an exponent without a usable degree law: at α ≤ 1
// (or NaN) the law does not normalize, and from α ≈ 1075 up (+Inf
// included) 2^-α underflows, so every weight past degree 1 is 0.
func checkAlpha(alpha float64) error {
	if !(alpha > 1) { // NaN too
		return fmt.Errorf("gen: Alpha must exceed 1 for a normalizable degree law, got %v", alpha)
	}
	if math.Pow(2, -alpha) == 0 {
		return fmt.Errorf("gen: Alpha %v is too large: every degree past 1 has weight 0", alpha)
	}
	return nil
}

// vertexCountFor sizes the vertex set so that the expected mean degree of
// the power law yields roughly nedges edges: n ≈ 2·nedges / E[k].
func vertexCountFor(nedges int64, alpha float64) int {
	// E[k] for P(k) ~ k^-alpha over k = 1..kmax. Use a generous kmax for
	// the estimate; the sum converges quickly for alpha > 2.
	mean := powerLawMean(100000, alpha)
	n := int(float64(2*nedges) / mean)
	if n < 4 {
		n = 4
	}
	return n
}

// powerLawMean returns E[k] of the truncated power law on [1, kmax]. The
// sum is kmax math.Pow calls — most of the cost of generating a small
// graph — and a campaign asks for the same few alphas over and over, so
// results are memoized. The memo returns what the sum returned, bit for
// bit; vertex counts, and so whole graphs, hang on it.
func powerLawMean(kmax int, alpha float64) float64 {
	if bits, ok := paperMeanBits[alpha]; ok && kmax == 100000 {
		return math.Float64frombits(bits)
	}
	key := meanKey{kmax, alpha}
	meanMemo.Lock()
	defer meanMemo.Unlock()
	mean, ok := meanMemo.m[key]
	if !ok {
		if len(meanMemo.m) >= meanMemoCap {
			clear(meanMemo.m) // callers may pass arbitrary alphas; stay bounded
		}
		mean = sumPowerLawMean(kmax, alpha)
		meanMemo.m[key] = mean
	}
	return mean
}

// paperMeanBits holds sumPowerLawMean(100000, α) for the paper's five
// alphas as float64 bits, so a sweep process sums none of them.
var paperMeanBits = map[float64]uint64{2: 0x401d665f1b6de78e, 2.25: 0x4007f154d202c772,
	2.5: 0x3fff152079a88ee2, 2.75: 0x3ff8e957fd61dff7, 3: 0x3ff5e5110b8ed17a}

type meanKey struct {
	kmax  int
	alpha float64
}

const meanMemoCap = 256

var meanMemo = struct {
	sync.Mutex
	m map[meanKey]float64
}{m: map[meanKey]float64{}}

// sumPowerLawMean computes powerLawMean term by term.
func sumPowerLawMean(kmax int, alpha float64) float64 {
	var num, den float64
	for k := 1; k <= kmax; k++ {
		p := math.Pow(float64(k), -alpha)
		num += float64(k) * p
		den += p
	}
	return num / den
}

// maxDegreeFor caps degrees at the natural cutoff ~sqrt(n·mean) so hub
// vertices cannot exceed simple-graph feasibility; at least 8 so tiny
// graphs still get heavy-tailed draws.
func maxDegreeFor(n int) int {
	k := int(math.Sqrt(float64(n)) * 4)
	if k < 8 {
		k = 8
	}
	if k > n-1 && n > 1 {
		k = n - 1
	}
	return k
}

// GaussianPoints2D returns n 2-D points with coordinates drawn from k
// Gaussian clusters whose centers are themselves drawn from N(0, spread²).
// This is the vertex data for the K-Means workload ("vertices are data
// points (in this paper they are 2D vectors)").
func GaussianPoints2D(n, k int, spread float64, seed uint64) []float64 {
	r := rng.New(seed)
	if k < 1 {
		k = 1
	}
	centers := make([]float64, 2*k)
	for i := range centers {
		centers[i] = r.NormFloat64() * spread
	}
	pts := make([]float64, 2*n)
	for i := 0; i < n; i++ {
		c := r.Intn(k)
		pts[2*i] = centers[2*c] + r.NormFloat64()
		pts[2*i+1] = centers[2*c+1] + r.NormFloat64()
	}
	return pts
}
