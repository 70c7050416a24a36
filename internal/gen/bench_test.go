package gen

import (
	"math"
	"testing"
)

// PowerLaw makes a fixed number of allocations — weight and alias tables,
// the builder's columns, the CSR arrays — whatever the graph's size: none
// per vertex (no per-list sort scratch) and none per edge (no append
// doublings).
func TestPowerLawAllocsIndependentOfSize(t *testing.T) {
	allocs := func(edges int64) float64 {
		cfg := PowerLawConfig{NumEdges: edges, Alpha: 2.5, Seed: 3, SortAdjacency: true}
		return testing.AllocsPerRun(3, func() {
			if _, err := PowerLaw(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(2_000), allocs(200_000)
	if large > small+4 { // a few runtime-internal allocations may come and go
		t.Fatalf("PowerLaw allocations grow with size: %.0f at 2e3 edges, %.0f at 2e5", small, large)
	}
	if small > 100 {
		t.Fatalf("PowerLaw makes %.0f allocations, want a few dozen", small)
	}
}

// The memo must return the sum's own value, bit for bit: the vertex count
// of every PowerLaw and Bipartite graph is computed from it.
func TestPowerLawMeanMemoIsExact(t *testing.T) {
	for _, alpha := range []float64{2.0, 2.25, 2.5, 2.75, 3.0} {
		want := sumPowerLawMean(100000, alpha)
		for i := 0; i < 2; i++ { // miss, then hit
			if got := powerLawMean(100000, alpha); got != want {
				t.Fatalf("powerLawMean(1e5, %v) = %v, term-by-term sum is %v", alpha, got, want)
			}
		}
	}
	// Past the cap the memo starts over instead of growing.
	for i := 0; i < 2*meanMemoCap; i++ {
		powerLawMean(10, 2+float64(i)/1000)
	}
	meanMemo.Lock()
	size := len(meanMemo.m)
	meanMemo.Unlock()
	if size > meanMemoCap {
		t.Fatalf("memo holds %d entries, cap is %d", size, meanMemoCap)
	}
}

// The constants powerLawMean returns for the paper's alphas are the sum's
// own results, bit for bit.
func TestPowerLawMeanConstantsAreExact(t *testing.T) {
	if len(paperMeanBits) != 5 {
		t.Fatalf("paperMeanBits has %d alphas, want the paper's 5", len(paperMeanBits))
	}
	for alpha, bits := range paperMeanBits {
		want := sumPowerLawMean(100000, alpha)
		if got := powerLawMean(100000, alpha); math.Float64bits(got) != math.Float64bits(want) || bits != math.Float64bits(want) {
			t.Errorf("powerLawMean(1e5, %v) = %#x, term-by-term sum is %#x", alpha, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

// BenchmarkPowerLaw1e6 generates the sweep's largest graph shape: 1e6
// target edges, undirected, sorted adjacency.
func BenchmarkPowerLaw1e6(b *testing.B) {
	cfg := PowerLawConfig{NumEdges: 1_000_000, Alpha: 2.5, Seed: 1, SortAdjacency: true}
	b.ReportAllocs()
	var edges int64
	for i := 0; i < b.N; i++ {
		g, err := PowerLaw(cfg)
		if err != nil {
			b.Fatal(err)
		}
		edges += g.NumEdges()
	}
	b.ReportMetric(float64(edges)/b.Elapsed().Seconds(), "edges/s")
}
