package gen

import (
	"fmt"
	"math"

	"gcbench/internal/graph"
	"gcbench/internal/rng"
)

// BipartiteConfig parameterizes a Collaborative Filtering rating graph.
// Per §3.2 of the paper: source vertices of edges are users, targets are
// items, the edge weight is the rating, and the number of items equals the
// number of users.
type BipartiteConfig struct {
	// NumEdges is the target number of ratings (the paper's nedges).
	NumEdges int64
	// Alpha shapes the power-law popularity of both users and items.
	Alpha float64
	// Seed selects the random stream.
	Seed uint64
	// RatingMean and RatingStddev parameterize the Gaussian rating
	// distribution; zero values default to mean 3, stddev 1 (a 1-5 star
	// scale).
	RatingMean, RatingStddev float64
}

// Bipartite generates a user→item rating graph as a directed weighted
// graph. Vertices [0, U) are users, [U, U+I) are items, with U = I derived
// from nedges like PowerLaw. Users' out-degrees and items' in-degrees both
// follow the power law, produced by sampling each endpoint from its own
// Chung-Lu alias table.
func Bipartite(cfg BipartiteConfig) (*graph.Graph, int, error) {
	if cfg.NumEdges <= 0 {
		return nil, 0, fmt.Errorf("gen: NumEdges must be positive, got %d", cfg.NumEdges)
	}
	if err := checkAlpha(cfg.Alpha); err != nil {
		return nil, 0, err
	}
	mean := cfg.RatingMean
	if mean == 0 {
		mean = 3
	}
	stddev := cfg.RatingStddev
	if stddev == 0 {
		stddev = 1
	}
	r := rng.New(cfg.Seed)

	// Users and items each absorb one endpoint per edge, so size each side
	// by the degree-law mean directly.
	meanDeg := powerLawMean(100000, cfg.Alpha)
	users := int(float64(cfg.NumEdges) / meanDeg)
	if users < 2 {
		users = 2
	}
	items := users
	n := users + items

	kmax := maxDegreeFor(users)
	zipf, err := rng.NewZipf(kmax, cfg.Alpha)
	if err != nil {
		return nil, 0, err
	}
	userW := make([]float64, users)
	for i := range userW {
		userW[i] = float64(zipf.Draw(r))
	}
	itemW := make([]float64, items)
	for i := range itemW {
		itemW[i] = float64(zipf.Draw(r))
	}
	userAlias, err := rng.NewAlias(userW)
	if err != nil {
		return nil, 0, err
	}
	itemAlias, err := rng.NewAlias(itemW)
	if err != nil {
		return nil, 0, err
	}

	b := graph.NewBuilder(n, true).Weighted().Dedup().Grow(int(cfg.NumEdges))
	for i := int64(0); i < cfg.NumEdges; i++ {
		u := uint32(userAlias.Draw(r))
		v := uint32(users + itemAlias.Draw(r))
		rating := mean + stddev*r.NormFloat64()
		// Clamp to a positive scale so NMF's non-negativity holds.
		rating = math.Max(0.5, math.Min(rating, 2*mean-0.5))
		b.AddWeightedEdge(u, v, rating)
	}
	g, err := b.Build()
	if err != nil {
		return nil, 0, err
	}
	return g, users, nil
}
