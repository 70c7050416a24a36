package main

import (
	"math"
	"testing"
)

func TestSelfTimeSubtractsWhatChildrenCover(t *testing.T) {
	ms := func(v int64) int64 { return v * 1e6 }
	spans := []span{
		{Name: "root", Layer: "bench", StartNs: ms(0), EndNs: ms(100), Parent: -1},
		{Name: "gen", Layer: "gen", StartNs: ms(10), EndNs: ms(40), Parent: 0},
		{Name: "build", Layer: "graph", StartNs: ms(20), EndNs: ms(30), Parent: 1},
		// Two overlapping children of the root: their union is 50..80.
		{Name: "run a", Layer: "model", StartNs: ms(50), EndNs: ms(70), Parent: 0},
		{Name: "run b", Layer: "model", StartNs: ms(60), EndNs: ms(80), Parent: 0},
		// A child reaching past its parent counts only inside it.
		{Name: "late", Layer: "model", StartNs: ms(95), EndNs: ms(120), Parent: 0},
	}
	want := []float64{0.100 - 0.030 - 0.030 - 0.005, 0.020, 0.010, 0.020, 0.020, 0.025}
	got := selfSeconds(spans)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("self time of %q = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
	byLayer := layerSelfSeconds(spans)
	if math.Abs(byLayer["model"]-0.065) > 1e-12 || math.Abs(byLayer["gen"]-0.020) > 1e-12 {
		t.Errorf("self time by layer = %v", byLayer)
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer("w")
	var inner float64
	tr.in("outer", "bench", func() {
		tr.in("inner", "gen", func() {})
		inner = tr.in("inner", "gen", func() {})
	})
	tr.in("next", "bench", func() {})
	if len(tr.spans) != 4 {
		t.Fatalf("recorded %d spans, want 4", len(tr.spans))
	}
	for i, wantParent := range []int{-1, 0, 0, -1} {
		if tr.spans[i].Parent != wantParent {
			t.Errorf("span %d has parent %d, want %d", i, tr.spans[i].Parent, wantParent)
		}
		if tr.spans[i].EndNs < tr.spans[i].StartNs || tr.spans[i].Workload != "w" {
			t.Errorf("span %d is malformed: %+v", i, tr.spans[i])
		}
	}
	if inner != tr.spans[2].seconds() {
		t.Error("in did not return its own span's duration")
	}
}
