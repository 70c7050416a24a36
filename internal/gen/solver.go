package gen

import (
	"fmt"
	"math"

	"gcbench/internal/graph"
	"gcbench/internal/rng"
)

// MatrixSystem is a sparse diagonally dominant linear system A·x = b
// encoded as a weighted graph per §2.2 of the paper: each edge models a
// matrix element, source vertex = row, target vertex = column, weight =
// element value. The diagonal and right-hand side live alongside.
type MatrixSystem struct {
	G    *graph.Graph
	Diag []float64 // A[i][i], strictly dominant
	B    []float64 // right-hand side
}

// JacobiConfig parameterizes the linear-solver workload. The paper varies
// nrows in {5000, 10000, 15000, 20000} with uniform vertex degree.
type JacobiConfig struct {
	// NumRows is the matrix dimension (the paper's nrows).
	NumRows int
	// Seed selects the random stream.
	Seed uint64
}

// matrixDegree is the uniform number of off-diagonal entries per row.
const matrixDegree = 8

// Matrix generates a square, diagonally dominant sparse system with
// uniform row degree — the Jacobi input ("a weighted graph with uniform
// degree for all vertices"). Off-diagonal values are Gaussian; the diagonal
// is set to 1 + Σ|offdiag| so Jacobi provably converges.
func Matrix(cfg JacobiConfig) (*MatrixSystem, error) {
	if cfg.NumRows <= 1 {
		return nil, fmt.Errorf("gen: NumRows must exceed 1, got %d", cfg.NumRows)
	}
	deg := matrixDegree
	if deg >= cfg.NumRows {
		return nil, fmt.Errorf("gen: Degree %d must be below NumRows %d", deg, cfg.NumRows)
	}
	r := rng.New(cfg.Seed)
	n := cfg.NumRows

	b := graph.NewBuilder(n, true).Weighted()
	rowSum := make([]float64, n)
	for i := 0; i < n; i++ {
		// deg distinct off-diagonal columns per row: a fixed stride pattern
		// plus jitter keeps degree exactly uniform without rejection loops.
		for k := 1; k <= deg; k++ {
			j := (i + k*(n/(deg+1)) + r.Intn(n/(deg+1))) % n
			if j == i {
				j = (j + 1) % n
			}
			w := r.NormFloat64()
			b.AddWeightedEdge(uint32(i), uint32(j), w)
			rowSum[i] += math.Abs(w)
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	diag := make([]float64, n)
	rhs := make([]float64, n)
	for i := 0; i < n; i++ {
		diag[i] = rowSum[i] + 1
		rhs[i] = r.NormFloat64()
	}
	return &MatrixSystem{G: g, Diag: diag, B: rhs}, nil
}

// GridConfig parameterizes the LBP workload: a square pixel matrix whose
// vertices carry prior estimates for each pixel color (§3.2).
type GridConfig struct {
	// Rows is the side length of the square pixel matrix (the paper's
	// nrows; the grid has Rows×Rows pixels).
	Rows int
	// Seed selects the random stream.
	Seed uint64
}

// The grid's fixed settings: color states per pixel and the Potts
// smoothing strength.
const (
	gridStates   = 3
	gridCoupling = 2.0
)

// Grid generates a 4-connected pixel-grid MRF with Gaussian-noised priors
// — the Loopy Belief Propagation input. The pairwise potential is a Potts
// smoother favoring equal neighboring states.
func Grid(cfg GridConfig) (*graph.MRF, error) {
	if cfg.Rows < 2 {
		return nil, fmt.Errorf("gen: Rows must be at least 2, got %d", cfg.Rows)
	}
	states, coupling := gridStates, gridCoupling
	r := rng.New(cfg.Seed)
	side := cfg.Rows
	n := side * side

	b := graph.NewBuilder(n, false)
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			v := uint32(y*side + x)
			if x+1 < side {
				b.AddEdge(v, v+1)
			}
			if y+1 < side {
				b.AddEdge(v, v+uint32(side))
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}

	card := make([]int, n)
	unary := make([][]float64, n)
	for v := 0; v < n; v++ {
		card[v] = states
		// Prior: a noisy one-hot over a smoothly varying "true" image, so
		// BP has real smoothing work to do.
		truth := ((v / side) / 4) % states
		u := make([]float64, states)
		for s := range u {
			noise := math.Abs(r.NormFloat64()) * 0.5
			if s == truth {
				u[s] = 2 + noise
			} else {
				u[s] = 0.5 + noise
			}
		}
		unary[v] = u
	}
	potts := make([]float64, states*states)
	for i := 0; i < states; i++ {
		for j := 0; j < states; j++ {
			if i == j {
				potts[i*states+j] = coupling
			} else {
				potts[i*states+j] = 1
			}
		}
	}
	pair := make([][]float64, g.NumEdges())
	for e := range pair {
		pair[e] = potts // shared read-only table
	}
	return graph.NewMRF(g, card, unary, pair)
}

// MRFConfig parameterizes the Dual Decomposition workload. The paper uses
// real PIC2011 UAI files with nedges in {1056, 1190, 1406, 1560}; this
// synthetic equivalent produces pairwise MRFs of matching size with mixed
// attractive/repulsive couplings, the regime those inference benchmarks
// stress.
type MRFConfig struct {
	// NumEdges is the target pairwise-factor count.
	NumEdges int64
	// Seed selects the random stream.
	Seed uint64
}

// mrfStates is the variable cardinality (Ising-like).
const mrfStates = 2

// MRF generates a random pairwise Markov Random Field whose structure is a
// sparse power-law graph and whose potentials mix attractive and repulsive
// couplings with Gaussian strengths.
func MRF(cfg MRFConfig) (*graph.MRF, error) {
	if cfg.NumEdges <= 0 {
		return nil, fmt.Errorf("gen: NumEdges must be positive, got %d", cfg.NumEdges)
	}
	states := mrfStates
	g, err := PowerLaw(PowerLawConfig{
		NumEdges: cfg.NumEdges,
		Alpha:    2.5,
		Seed:     cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	r := rng.New(cfg.Seed + 0x9e37)
	n := g.NumVertices()
	card := make([]int, n)
	unary := make([][]float64, n)
	for v := 0; v < n; v++ {
		card[v] = states
		u := make([]float64, states)
		for s := range u {
			u[s] = math.Exp(0.5 * r.NormFloat64())
		}
		unary[v] = u
	}
	pair := make([][]float64, g.NumEdges())
	for e := range pair {
		strength := r.NormFloat64() // sign decides attractive vs repulsive
		t := make([]float64, states*states)
		for i := 0; i < states; i++ {
			for j := 0; j < states; j++ {
				if i == j {
					t[i*states+j] = math.Exp(strength)
				} else {
					t[i*states+j] = math.Exp(-strength)
				}
			}
		}
		pair[e] = t
	}
	return graph.NewMRF(g, card, unary, pair)
}
