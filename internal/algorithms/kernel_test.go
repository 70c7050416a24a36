package algorithms

import (
	"fmt"
	"math/rand"
	"testing"

	"gcbench/internal/graph"
)

// offerRunOracle is OfferRun's per-arc definition: Along and Better, one
// arc at a time, keeping the old slot only when it is Better than the
// offer (old ⊕ new).
func offerRunOracle[S any](k Kernel[S], src S, g *graph.Graph, v uint32, slot []S, has []bool) {
	lo, hi := g.OutArcRange(v)
	for a := lo; a < hi; a++ {
		t, offer := g.ArcTarget(a), k.Along(src, g.ArcWeight(a))
		if !has[t] || !k.Better(slot[t], offer) {
			slot[t], has[t] = offer, true
		}
	}
}

// TestOfferRunMatchesAlongBetter holds each kernel's run-shaped fold —
// what the Pregel and X-Stream programs send through — to its per-arc
// definition: every vertex's run, from a random source state, folded in
// turn into one slot array that starts half filled, on unweighted and
// weighted multigraphs (parallel arcs and self-loops give a target
// several offers within one run).
func TestOfferRunMatchesAlongBetter(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for _, weighted := range []bool{false, true} {
		g := randomMultigraph(t, r, 600, 2400, false, weighted)
		t.Run(fmt.Sprintf("MinLabel/weighted=%v", weighted), func(t *testing.T) {
			sameOfferRun[uint32](t, g, MinLabel{}, func() uint32 { return uint32(r.Intn(g.NumVertices())) })
		})
		t.Run(fmt.Sprintf("Relax/weighted=%v", weighted), func(t *testing.T) {
			sameOfferRun[float64](t, g, Relax{}, func() float64 { return float64(r.Intn(8)) + r.Float64() })
		})
	}
}

func sameOfferRun[S comparable](t *testing.T, g *graph.Graph, k Kernel[S], draw func() S) {
	t.Helper()
	n, out := g.NumVertices(), g.OutCSR()
	got, want := make([]S, n), make([]S, n)
	gotHas, wantHas := make([]bool, n), make([]bool, n)
	for v := 0; v < n; v += 2 {
		got[v] = draw()
		want[v], gotHas[v], wantHas[v] = got[v], true, true
	}
	for v := uint32(0); int(v) < n; v++ {
		src := draw()
		k.OfferRun(src, &out, v, got, gotHas)
		offerRunOracle(k, src, g, v, want, wantHas)
	}
	for v := range want {
		if gotHas[v] != wantHas[v] || got[v] != want[v] {
			t.Fatalf("slot %d = %v (has %t), per-arc oracle %v (has %t)", v, got[v], gotHas[v], want[v], wantHas[v])
		}
	}
}
