package rng

import (
	"fmt"
	"math"
)

// Alias samples from an arbitrary discrete distribution in O(1) per draw
// using Vose's alias method. Construction is O(n).
type Alias struct {
	cols []aliasColumn
}

// aliasColumn keeps both halves of a column side by side, so a draw —
// one random column — touches one cache line, not one per array.
type aliasColumn struct {
	prob  float64 // probability of returning i directly from column i
	alias int32   // fallback outcome for column i
}

// NewAlias builds an alias table for the given non-negative weights.
// Weights need not be normalized. It returns an error if the weights are
// empty, contain negatives/NaN, or sum to zero.
func NewAlias(weights []float64) (*Alias, error) {
	n := len(weights)
	if n == 0 {
		return nil, fmt.Errorf("rng: alias table needs at least one weight")
	}
	total := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("rng: invalid weight %v at index %d", w, i)
		}
		total += w
	}
	if total == 0 {
		return nil, fmt.Errorf("rng: weights sum to zero")
	}

	a := &Alias{cols: make([]aliasColumn, n)}
	// Scale so the average column holds exactly 1.0 of probability mass.
	scaled := make([]float64, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
	}
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i := n - 1; i >= 0; i-- {
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.cols[s] = aliasColumn{scaled[s], l}
		scaled[l] = (scaled[l] + scaled[s]) - 1
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	// Numerical residue: remaining columns carry full mass.
	for _, i := range large {
		a.cols[i] = aliasColumn{1, i}
	}
	for _, i := range small {
		a.cols[i] = aliasColumn{1, i}
	}
	return a, nil
}

// Draw returns an outcome in [0, len(weights)) with probability
// proportional to its construction weight.
func (a *Alias) Draw(r *Source) int {
	i := r.Intn(len(a.cols))
	c := a.cols[i]
	// A conditional move, not a branch: the comparison is a coin flip no
	// predictor learns, and it waits on the column's cache miss.
	out := int(c.alias)
	if r.Float64() < c.prob {
		out = i
	}
	return out
}

// drawBatch is how many draws DrawInto takes from the stream before it
// resolves their columns.
const drawBatch = 256

// DrawInto fills out with the outcomes of len(out) calls to Draw, in
// order, and leaves r where those calls would. It takes each batch's
// (column, uniform) pairs from r first, in the order Draw takes them, and
// only then reads the columns: with no draw waiting on the previous one's
// column, the table's cache misses overlap instead of queueing.
func (a *Alias) DrawInto(r *Source, out []int) {
	var us [drawBatch]float64
	for len(out) > 0 {
		batch := out[:min(len(out), drawBatch)]
		for k := range batch {
			batch[k] = r.Intn(len(a.cols)) // the column, resolved below
			us[k] = r.Float64()
		}
		for k, i := range batch {
			c := a.cols[i]
			o := int(c.alias)
			if us[k] < c.prob {
				o = i
			}
			batch[k] = o
		}
		out = out[len(batch):]
	}
}

// PowerLawWeights returns weights w_k proportional to k^(-alpha) for
// k = 1..n, i.e. the discrete power-law degree distribution of Eq. (1) in
// the paper. Index i holds the weight of degree i+1.
func PowerLawWeights(n int, alpha float64) []float64 {
	w := make([]float64, n)
	for k := 1; k <= n; k++ {
		w[k-1] = math.Pow(float64(k), -alpha)
	}
	return w
}

// Zipf draws integers in [1, n] with P(k) proportional to k^(-alpha),
// backed by an alias table (O(1) per draw after O(n) setup).
type Zipf struct {
	alias *Alias
}

// NewZipf constructs a power-law sampler over [1, n]. It panics only on
// programmer error (n <= 0 handled by error return).
func NewZipf(n int, alpha float64) (*Zipf, error) {
	if n <= 0 {
		return nil, fmt.Errorf("rng: Zipf needs n > 0, got %d", n)
	}
	if !(alpha >= 0) { // NaN too
		return nil, fmt.Errorf("rng: Zipf needs alpha >= 0, got %v", alpha)
	}
	a, err := NewAlias(PowerLawWeights(n, alpha))
	if err != nil {
		return nil, err
	}
	return &Zipf{alias: a}, nil
}

// Draw returns a degree value in [1, n].
func (z *Zipf) Draw(r *Source) int { return z.alias.Draw(r) + 1 }
