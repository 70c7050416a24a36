package gen

import (
	"fmt"
	"math"

	"gcbench/internal/graph"
	"gcbench/internal/rng"
)

// RMATConfig parameterizes a recursive-matrix (Kronecker) generator — the
// model behind the Graph 500 benchmark the paper's related work discusses
// (§6). It complements the Chung-Lu generator: R-MAT produces skewed
// degree distributions through recursive quadrant descent rather than an
// explicit degree law, and exhibits community-like self-similarity.
type RMATConfig struct {
	// Scale is log2 of the vertex count.
	Scale int
	// NumEdges is the target edge count.
	NumEdges int64
	// A, B, C are the quadrant probabilities (D = 1-A-B-C). Zero values
	// default to the Graph 500 parameters (0.57, 0.19, 0.19).
	A, B, C float64
	// Seed selects the random stream.
	Seed uint64
	// Directed selects arc semantics.
	Directed bool
	// SortAdjacency orders neighbor lists.
	SortAdjacency bool
}

// RMAT generates a recursive-matrix graph.
func RMAT(cfg RMATConfig) (*graph.Graph, error) {
	if cfg.Scale < 1 || cfg.Scale > 30 {
		return nil, fmt.Errorf("gen: RMAT scale %d outside [1, 30]", cfg.Scale)
	}
	if cfg.NumEdges <= 0 {
		return nil, fmt.Errorf("gen: NumEdges must be positive, got %d", cfg.NumEdges)
	}
	a, b, c := cfg.A, cfg.B, cfg.C
	if a == 0 && b == 0 && c == 0 {
		a, b, c = 0.57, 0.19, 0.19
	}
	if a < 0 || b < 0 || c < 0 || a+b+c >= 1 {
		return nil, fmt.Errorf("gen: RMAT quadrant probabilities (%v, %v, %v) invalid", a, b, c)
	}
	r := rng.New(cfg.Seed)
	n := 1 << cfg.Scale

	builder := graph.NewBuilder(n, cfg.Directed).Dedup().Grow(int(cfg.NumEdges))
	if cfg.SortAdjacency {
		builder.SortAdjacency()
	}
	for i := int64(0); i < cfg.NumEdges; i++ {
		u, v := uint32(0), uint32(0)
		for bit := cfg.Scale - 1; bit >= 0; bit-- {
			x := r.Float64()
			switch {
			case x < a:
				// top-left: no bits set
			case x < a+b:
				v |= 1 << bit
			case x < a+b+c:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		if u == v {
			continue
		}
		builder.AddEdge(u, v)
	}
	return builder.Build()
}

// ErdosRenyiConfig parameterizes a uniform random graph — the opposite
// extreme from the scale-free generators: near-uniform degrees, like the
// paper's "graph derived from a linear solver" example (§1).
type ErdosRenyiConfig struct {
	// NumVertices is the vertex count.
	NumVertices int
	// NumEdges is the target edge count (G(n, m) model).
	NumEdges int64
	// Seed selects the random stream.
	Seed uint64
	// Directed selects arc semantics.
	Directed bool
	// SortAdjacency orders neighbor lists.
	SortAdjacency bool
}

// ErdosRenyi generates a uniform G(n, m) random graph.
func ErdosRenyi(cfg ErdosRenyiConfig) (*graph.Graph, error) {
	if cfg.NumVertices < 2 {
		return nil, fmt.Errorf("gen: NumVertices must be at least 2, got %d", cfg.NumVertices)
	}
	if cfg.NumEdges <= 0 {
		return nil, fmt.Errorf("gen: NumEdges must be positive, got %d", cfg.NumEdges)
	}
	maxEdges := int64(cfg.NumVertices) * int64(cfg.NumVertices-1) / 2
	if !cfg.Directed && cfg.NumEdges > maxEdges {
		return nil, fmt.Errorf("gen: %d edges exceed the %d possible on %d vertices",
			cfg.NumEdges, maxEdges, cfg.NumVertices)
	}
	r := rng.New(cfg.Seed)
	b := graph.NewBuilder(cfg.NumVertices, cfg.Directed).Dedup()
	if cfg.SortAdjacency {
		b.SortAdjacency()
	}
	// Sample with replacement and dedup; oversample to compensate when
	// density is non-trivial.
	target := cfg.NumEdges
	oversample := float64(target) / float64(maxEdges)
	extra := int64(float64(target) * (0.5*oversample + 0.01))
	b.Grow(int(target + extra))
	for i := int64(0); i < target+extra; i++ {
		u := uint32(r.Intn(cfg.NumVertices))
		v := uint32(r.Intn(cfg.NumVertices))
		if u == v {
			continue
		}
		b.AddEdge(u, v)
	}
	return b.Build()
}

// DegreeCV returns the coefficient of variation of the out-degree
// distribution — the quantitative contrast between uniform and
// heavy-tailed graphs (≈0 for regular graphs, ≫1 for scale-free ones).
func DegreeCV(g *graph.Graph) float64 {
	n := g.NumVertices()
	var sum, sumSq float64
	for v := uint32(0); int(v) < n; v++ {
		d := float64(g.OutDegree(v))
		sum += d
		sumSq += d * d
	}
	mean := sum / float64(n)
	if mean == 0 {
		return 0
	}
	variance := sumSq/float64(n) - mean*mean
	if variance < 0 {
		variance = 0
	}
	return math.Sqrt(variance) / mean
}
