package trace

import (
	"math/rand/v2"
	"slices"
	"strconv"
	"testing"
	"time"

	"gcbench/internal/obs/otrace"
)

// randomTrace builds a trace whose walls obey the engine's invariants
// (the four phase walls sum to WallTime, a worker's busy time never
// exceeds its phase wall) with some phases and workers idle, so the
// zero-wall paths are exercised.
func randomTrace(r *rand.Rand, iterations, workers int) *RunTrace {
	wall := func() time.Duration {
		if r.IntN(4) == 0 {
			return 0
		}
		return time.Duration(1 + r.IntN(5000))
	}
	busy := func(phase time.Duration) time.Duration {
		if phase == 0 || r.IntN(4) == 0 {
			return 0
		}
		return time.Duration(1 + r.Int64N(int64(phase)))
	}
	tr := &RunTrace{Converged: true}
	for i := 0; i < iterations; i++ {
		it := IterationStats{
			Iteration: i, Active: r.Int64N(1000), Updates: r.Int64N(1000),
			EdgeReads: r.Int64N(1000), Messages: r.Int64N(1000),
			GatherWall: wall(), ApplyWall: wall(), ScatterWall: wall(), BarrierTime: wall(),
			GatherMode: []string{"", "dense", "sparse"}[r.IntN(3)],
		}
		it.WallTime = it.GatherWall + it.ApplyWall + it.ScatterWall + it.BarrierTime
		for w := 0; w < workers; w++ {
			it.WorkerSpans = append(it.WorkerSpans, WorkerSpan{
				Worker: w, Gather: busy(it.GatherWall), Apply: busy(it.ApplyWall), Scatter: busy(it.ScatterWall),
			})
		}
		tr.Iterations = append(tr.Iterations, it)
	}
	return tr
}

// TestSpansProperties checks the conversion on seeded random traces:
// iteration spans tile [0, TotalWall], each iteration's phase spans tile
// it exactly, every worker span lies inside its phase, walls that are
// not positive emit nothing, and parents precede their children.
func TestSpansProperties(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		r := rand.New(rand.NewPCG(seed, 17))
		tr := randomTrace(r, 1+r.IntN(40), 1+r.IntN(4))
		spans := tr.Spans(0)
		if !slices.EqualFunc(spans, tr.Spans(0), func(a, b otrace.SpanData) bool {
			return a.SpanID == b.SpanID && a.Parent == b.Parent && a.Name == b.Name &&
				a.Offset == b.Offset && a.Duration == b.Duration
		}) {
			t.Fatalf("seed %d: two conversions of one trace differ", seed)
		}

		byID := map[otrace.SpanID]otrace.SpanData{}
		children := map[otrace.SpanID][]otrace.SpanData{}
		var iters []otrace.SpanData
		for _, s := range spans {
			if s.Duration <= 0 && s.Kind != "iteration" {
				t.Fatalf("seed %d: %s span %q has wall %v", seed, s.Kind, s.Name, s.Duration)
			}
			if _, dup := byID[s.SpanID]; dup || s.SpanID.IsZero() {
				t.Fatalf("seed %d: span id %s zero or repeated", seed, s.SpanID)
			}
			byID[s.SpanID] = s
			if s.Kind == "iteration" {
				if !s.Parent.IsZero() {
					t.Fatalf("seed %d: iteration span has a parent", seed)
				}
				iters = append(iters, s)
				continue
			}
			parent, ok := byID[s.Parent]
			if !ok {
				t.Fatalf("seed %d: %s span %q precedes its parent", seed, s.Kind, s.Name)
			}
			wantParent := map[string]string{"phase": "iteration", "worker": "phase"}[s.Kind]
			if parent.Kind != wantParent {
				t.Fatalf("seed %d: %s span under a %q span", seed, s.Kind, parent.Kind)
			}
			children[s.Parent] = append(children[s.Parent], s)
		}

		if len(iters) != len(tr.Iterations) {
			t.Fatalf("seed %d: %d iteration spans for %d iterations", seed, len(iters), len(tr.Iterations))
		}
		var cursor time.Duration
		var phases, workers int
		for i, it := range iters {
			st := tr.Iterations[i]
			if it.Offset != cursor || it.Duration != st.WallTime {
				t.Fatalf("seed %d: iteration %d spans [%v,+%v], want [%v,+%v]", seed, i, it.Offset, it.Duration, cursor, st.WallTime)
			}
			at := it.Offset
			for _, ph := range children[it.SpanID] {
				if ph.Offset != at {
					t.Fatalf("seed %d: iteration %d phase %q starts at %v, want %v", seed, i, ph.Name, ph.Offset, at)
				}
				at += ph.Duration
				phases++
				for _, w := range children[ph.SpanID] {
					if w.Name != ph.Name || w.Offset != ph.Offset || w.Duration > ph.Duration {
						t.Fatalf("seed %d: worker span %+v escapes phase %+v", seed, w, ph)
					}
					workers++
				}
			}
			if at != it.Offset+it.Duration {
				t.Fatalf("seed %d: iteration %d phases end at %v, iteration at %v", seed, i, at, it.Offset+it.Duration)
			}
			cursor += it.Duration
		}
		if cursor != tr.TotalWall() {
			t.Fatalf("seed %d: iterations end at %v, TotalWall %v", seed, cursor, tr.TotalWall())
		}

		// Exactly the positive walls were emitted.
		var wantPhases, wantWorkers int
		for _, st := range tr.Iterations {
			for _, d := range []time.Duration{st.GatherWall, st.ApplyWall, st.ScatterWall, st.BarrierTime} {
				if d > 0 {
					wantPhases++
				}
			}
			for _, ws := range st.WorkerSpans {
				for _, d := range []time.Duration{ws.Gather, ws.Apply, ws.Scatter} {
					if d > 0 {
						wantWorkers++
					}
				}
			}
		}
		if phases != wantPhases || workers != wantWorkers {
			t.Fatalf("seed %d: %d phase / %d worker spans, want %d / %d", seed, phases, workers, wantPhases, wantWorkers)
		}
	}
}

// TestSpansIterationBound: past the bound the iterations are stride
// sampled, each emitted one says so, and the timeline still covers the
// skipped iterations' walls.
func TestSpansIterationBound(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewPCG(3, 17)), 1000, 1)
	var iters []otrace.SpanData
	for _, s := range tr.Spans(256) {
		if s.Kind == "iteration" {
			iters = append(iters, s)
		}
	}
	// stride = ceil(1000/256) = 4 → iterations 0, 4, …, 996.
	if len(iters) != 250 {
		t.Fatalf("%d iteration spans, want 250 (≤ 256)", len(iters))
	}
	var offset time.Duration
	for i, st := range tr.Iterations {
		if i%4 == 0 {
			it := iters[i/4]
			if it.Offset != offset || it.Name != "iteration "+strconv.Itoa(i) {
				t.Fatalf("iteration %d: span %q at %v, want offset %v", i, it.Name, it.Offset, offset)
			}
			if !slices.Contains(it.Attrs, otrace.Int("stride", 4)) {
				t.Fatalf("iteration %d: attrs %v lack stride 4", i, it.Attrs)
			}
		}
		offset += st.WallTime
	}
	for _, s := range tr.Spans(1000) {
		for _, a := range s.Attrs {
			if a.Key == "stride" {
				t.Fatal("stride attribute set although every iteration was emitted")
			}
		}
	}
	if (*RunTrace)(nil).Spans(0) != nil {
		t.Fatal("nil trace produced spans")
	}
}
