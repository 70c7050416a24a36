package trace

import (
	"math"
	"testing"
	"time"
)

func sampleTrace() *RunTrace {
	return &RunTrace{
		NumVertices: 100,
		NumEdges:    1000,
		Converged:   true,
		Iterations: []IterationStats{
			{Iteration: 0, Active: 100, Updates: 100, EdgeReads: 2000, Messages: 500,
				ApplyTime: 2 * time.Millisecond, WallTime: 5 * time.Millisecond},
			{Iteration: 1, Active: 50, Updates: 50, EdgeReads: 1000, Messages: 100,
				ApplyTime: 1 * time.Millisecond, WallTime: 3 * time.Millisecond},
			{Iteration: 2, Active: 10, Updates: 10, EdgeReads: 200, Messages: 0,
				ApplyTime: 1 * time.Millisecond, WallTime: 2 * time.Millisecond},
		},
	}
}

func TestActiveFraction(t *testing.T) {
	tr := sampleTrace()
	af := tr.ActiveFraction()
	want := []float64{1.0, 0.5, 0.1}
	for i := range want {
		if math.Abs(af[i]-want[i]) > 1e-12 {
			t.Fatalf("active fraction = %v, want %v", af, want)
		}
	}
}

func TestMeans(t *testing.T) {
	tr := sampleTrace()
	if got := tr.MeanUpdates(); math.Abs(got-160.0/3) > 1e-9 {
		t.Fatalf("MeanUpdates = %v", got)
	}
	if got := tr.MeanEdgeReads(); math.Abs(got-3200.0/3) > 1e-9 {
		t.Fatalf("MeanEdgeReads = %v", got)
	}
	if got := tr.MeanMessages(); math.Abs(got-200) > 1e-9 {
		t.Fatalf("MeanMessages = %v", got)
	}
	if got := tr.MeanApplySeconds(); math.Abs(got-0.004/3) > 1e-12 {
		t.Fatalf("MeanApplySeconds = %v", got)
	}
	if got := tr.TotalWall(); got != 10*time.Millisecond {
		t.Fatalf("TotalWall = %v", got)
	}
	if tr.NumIterations() != 3 {
		t.Fatalf("NumIterations = %d", tr.NumIterations())
	}
}

func TestEmptyTraceMeans(t *testing.T) {
	tr := &RunTrace{NumVertices: 10, NumEdges: 10}
	if tr.MeanUpdates() != 0 || tr.MeanEdgeReads() != 0 ||
		tr.MeanMessages() != 0 || tr.MeanApplySeconds() != 0 {
		t.Fatal("empty trace means not zero")
	}
	if len(tr.ActiveFraction()) != 0 {
		t.Fatal("empty trace has active series")
	}
}

// TestDegenerateTracesNeverNaN pins the guard behavior for traces that
// would otherwise divide by zero: zero (or negative) vertex counts and
// empty iteration lists must produce finite zeros, never NaN/Inf, so a
// corrupt or synthetic trace cannot poison a behavior space.
func TestDegenerateTracesNeverNaN(t *testing.T) {
	iters := []IterationStats{{Iteration: 0, Active: 5, Updates: 5, EdgeReads: 10, Messages: 3}}
	cases := []struct {
		name string
		tr   *RunTrace
		af   []float64
	}{
		{"zero vertices", &RunTrace{NumVertices: 0, NumEdges: 10, Iterations: iters}, []float64{0}},
		{"negative vertices", &RunTrace{NumVertices: -1, NumEdges: 10, Iterations: iters}, []float64{0}},
		{"empty iterations", &RunTrace{NumVertices: 10, NumEdges: 10}, nil},
		{"all zero", &RunTrace{}, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			af := c.tr.ActiveFraction()
			if len(af) != len(c.af) {
				t.Fatalf("ActiveFraction length = %d, want %d", len(af), len(c.af))
			}
			for i, v := range af {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("ActiveFraction[%d] = %v", i, v)
				}
				if v != c.af[i] {
					t.Fatalf("ActiveFraction[%d] = %v, want %v", i, v, c.af[i])
				}
			}
			for name, v := range map[string]float64{
				"MeanUpdates":      c.tr.MeanUpdates(),
				"MeanEdgeReads":    c.tr.MeanEdgeReads(),
				"MeanMessages":     c.tr.MeanMessages(),
				"MeanApplySeconds": c.tr.MeanApplySeconds(),
			} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s = %v", name, v)
				}
			}
		})
	}
}
