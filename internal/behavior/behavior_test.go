package behavior

import (
	"math"
	"testing"
	"time"

	"gcbench/internal/trace"
)

func runWith(alg string, raw Vector) *Run {
	return &Run{Algorithm: alg, SizeLabel: "1e4", Alpha: 2.5, Raw: raw}
}

func TestDistance(t *testing.T) {
	a := Vector{0, 0, 0, 0}
	b := Vector{1, 1, 1, 1}
	if d := Distance(a, b); math.Abs(d-2) > 1e-12 {
		t.Fatalf("distance = %v, want 2", d)
	}
	if Distance(a, a) != 0 {
		t.Fatal("self distance not 0")
	}
	if Distance(a, b) != Distance(b, a) {
		t.Fatal("distance not symmetric")
	}
}

func TestFromTrace(t *testing.T) {
	tr := &trace.RunTrace{
		NumVertices: 10,
		NumEdges:    100,
		Iterations: []trace.IterationStats{
			{Active: 10, Updates: 10, EdgeReads: 200, Messages: 50, ApplyTime: time.Millisecond},
			{Active: 5, Updates: 6, EdgeReads: 100, Messages: 30, ApplyTime: 3 * time.Millisecond},
		},
	}
	v := FromTrace(tr)
	if math.Abs(v[UPDT]-0.08) > 1e-12 {
		t.Fatalf("UPDT = %v, want 0.08", v[UPDT])
	}
	if math.Abs(v[EREAD]-1.5) > 1e-12 {
		t.Fatalf("EREAD = %v, want 1.5", v[EREAD])
	}
	if math.Abs(v[MSG]-0.4) > 1e-12 {
		t.Fatalf("MSG = %v, want 0.4", v[MSG])
	}
	if math.Abs(v[WORK]-0.002/100) > 1e-15 {
		t.Fatalf("WORK = %v, want 2e-5", v[WORK])
	}
	// Empty trace → zero vector, no NaN.
	if z := FromTrace(&trace.RunTrace{NumEdges: 100}); z != (Vector{}) {
		t.Fatalf("empty trace vector = %v", z)
	}
}

// TestFromTraceIgnoresPhaseSpans asserts the observability contract of
// the engine's span instrumentation: the behavior vector — WORK
// included — is a function of the counters and ApplyTime only, so
// populating the phase-span fields must not move any dimension.
func TestFromTraceIgnoresPhaseSpans(t *testing.T) {
	bare := &trace.RunTrace{
		NumVertices: 10,
		NumEdges:    100,
		Iterations: []trace.IterationStats{
			{Active: 10, Updates: 10, EdgeReads: 200, Messages: 50, ApplyTime: time.Millisecond},
			{Active: 5, Updates: 6, EdgeReads: 100, Messages: 30, ApplyTime: 3 * time.Millisecond},
		},
	}
	spanned := &trace.RunTrace{NumVertices: 10, NumEdges: 100}
	for _, it := range bare.Iterations {
		it.WallTime = 10 * time.Millisecond
		it.GatherWall = 4 * time.Millisecond
		it.ApplyWall = 3 * time.Millisecond
		it.ScatterWall = 2 * time.Millisecond
		it.BarrierTime = time.Millisecond
		it.WorkerSpans = []trace.WorkerSpan{{Worker: 0, Gather: time.Millisecond, Apply: it.ApplyTime, Scatter: time.Millisecond}}
		spanned.Iterations = append(spanned.Iterations, it)
	}
	if a, b := FromTrace(bare), FromTrace(spanned); a != b {
		t.Fatalf("phase spans changed the behavior vector: %v vs %v", a, b)
	}
}

func TestNewSpaceNormalizes(t *testing.T) {
	runs := []*Run{
		runWith("A", Vector{2, 4, 8, 1}),
		runWith("B", Vector{1, 2, 2, 0.5}),
	}
	s, err := NewSpace(runs)
	if err != nil {
		t.Fatal(err)
	}
	if s.Max != (Vector{2, 4, 8, 1}) {
		t.Fatalf("max = %v", s.Max)
	}
	if s.Point(0) != (Vector{1, 1, 1, 1}) {
		t.Fatalf("point 0 = %v, want all ones", s.Point(0))
	}
	if s.Point(1) != (Vector{0.5, 0.5, 0.25, 0.5}) {
		t.Fatalf("point 1 = %v", s.Point(1))
	}
}

func TestNewSpaceZeroDimension(t *testing.T) {
	// A dimension that is zero everywhere must normalize to zero, not NaN.
	runs := []*Run{
		runWith("A", Vector{1, 0, 2, 0}),
		runWith("B", Vector{2, 0, 1, 0}),
	}
	s, err := NewSpace(runs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if s.Point(i)[WORK] != 0 || s.Point(i)[MSG] != 0 {
			t.Fatalf("zero dimension leaked: %v", s.Point(i))
		}
	}
}

func TestNewSpaceErrors(t *testing.T) {
	if _, err := NewSpace(nil); err == nil {
		t.Fatal("empty collection accepted")
	}
	bad := []*Run{runWith("A", Vector{math.NaN(), 0, 0, 0})}
	if _, err := NewSpace(bad); err == nil {
		t.Fatal("NaN accepted")
	}
	neg := []*Run{runWith("A", Vector{-1, 0, 0, 0})}
	if _, err := NewSpace(neg); err == nil {
		t.Fatal("negative accepted")
	}
}

func TestGroupings(t *testing.T) {
	runs := []*Run{
		{Algorithm: "CC", SizeLabel: "1e4", Alpha: 2.0, Raw: Vector{1, 1, 1, 1}},
		{Algorithm: "CC", SizeLabel: "1e5", Alpha: 2.0, Raw: Vector{1, 1, 1, 1}},
		{Algorithm: "PR", SizeLabel: "1e4", Alpha: 2.0, Raw: Vector{1, 1, 1, 1}},
	}
	s, err := NewSpace(runs)
	if err != nil {
		t.Fatal(err)
	}
	byAlg := s.ByAlgorithm()
	if len(byAlg["CC"]) != 2 || len(byAlg["PR"]) != 1 {
		t.Fatalf("ByAlgorithm = %v", byAlg)
	}
}

func TestRunID(t *testing.T) {
	r := &Run{Algorithm: "ALS", SizeLabel: "1e5", Alpha: 3.0}
	if r.ID() != "<ALS, 1e5, 3.00>" {
		t.Fatalf("ID = %q", r.ID())
	}
	j := &Run{Algorithm: "Jacobi", SizeLabel: "5000"}
	if j.ID() != "<Jacobi, 5000>" {
		t.Fatalf("ID = %q", j.ID())
	}
}

func TestRangeRatio(t *testing.T) {
	runs := []*Run{
		runWith("A", Vector{0.001, 1, 0, 2}),
		runWith("B", Vector{1, 1, 0, 0.002}),
	}
	rr := RangeRatio(runs)
	if math.Abs(rr[UPDT]-1000) > 1e-9 {
		t.Fatalf("UPDT ratio = %v, want 1000", rr[UPDT])
	}
	if rr[WORK] != 1 {
		t.Fatalf("WORK ratio = %v, want 1", rr[WORK])
	}
	if rr[EREAD] != 0 {
		t.Fatalf("EREAD ratio = %v, want 0 (all zero)", rr[EREAD])
	}
	if math.Abs(rr[MSG]-1000) > 1e-9 {
		t.Fatalf("MSG ratio = %v, want 1000", rr[MSG])
	}
}
