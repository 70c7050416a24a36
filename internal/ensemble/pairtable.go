package ensemble

import (
	"math"
	"sync"

	"gcbench/internal/behavior"
)

// maxPairTotals caps a pairTable. The standard corpus's 220-run pool has
// 24 310 unordered pairs, the most a search over it can store; once full,
// the table answers what it holds and stores nothing more.
const maxPairTotals = 1 << 16

// pairTable holds two-member totals: for an unordered point pair {a, b},
// the sample-distance total IncrementalCoverage.evalAdd computes for the
// ensemble {a, b}; a single point p is the pair {p, p}. Such a total
// depends only on the sample set and the member set — min is exact and
// order-free, cell sums are canonical, and min(d, d) = d makes {p, p}
// the empty ensemble's evalAdd(p) bit for bit — so one table serves
// every search on the estimator, whatever pool it is restricted to. The
// mutex makes it safe for concurrent searches.
type pairTable struct {
	mu     sync.Mutex
	totals map[[2]behavior.Vector]float64
}

// pairKey orders {a, b} by coordinates, smaller vector first. ok is
// false when either holds a NaN: such a key never compares equal to
// itself, so it could be stored but never found.
func pairKey(a, b behavior.Vector) (key [2]behavior.Vector, ok bool) {
	for d := 0; d < behavior.Dims; d++ {
		if math.IsNaN(a[d]) || math.IsNaN(b[d]) {
			return key, false
		}
	}
	for d := 0; d < behavior.Dims; d++ {
		if a[d] != b[d] {
			if b[d] < a[d] {
				a, b = b, a
			}
			break
		}
	}
	return [2]behavior.Vector{a, b}, true
}

// load returns the stored total of {a, b}, if any.
func (t *pairTable) load(a, b behavior.Vector) (float64, bool) {
	key, ok := pairKey(a, b)
	if !ok {
		return 0, false
	}
	t.mu.Lock()
	total, ok := t.totals[key]
	t.mu.Unlock()
	return total, ok
}

// store records the total of {a, b} unless the table is full.
func (t *pairTable) store(a, b behavior.Vector, total float64) {
	key, ok := pairKey(a, b)
	if !ok {
		return
	}
	t.mu.Lock()
	if t.totals == nil {
		t.totals = make(map[[2]behavior.Vector]float64)
	}
	if len(t.totals) < maxPairTotals {
		t.totals[key] = total
	}
	t.mu.Unlock()
}
