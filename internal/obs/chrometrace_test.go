package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gcbench/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// syntheticTrace builds a fully deterministic trace — fixed durations,
// no clock reads — so the export is byte-stable across runs and hosts.
func syntheticTrace() *trace.RunTrace {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	return &trace.RunTrace{
		NumVertices: 100,
		NumEdges:    500,
		Converged:   true,
		Iterations: []trace.IterationStats{
			{
				Iteration: 0, Active: 100, Updates: 100, EdgeReads: 1000, Messages: 400,
				ApplyTime: ms(3), WallTime: ms(10),
				GatherWall: ms(4), ApplyWall: ms(2), ScatterWall: ms(3), BarrierTime: ms(1),
				GatherMode: "dense", ApplyMode: "dense", ScatterMode: "sparse",
				WorkerSpans: []trace.WorkerSpan{
					{Worker: 0, Gather: ms(3), Apply: ms(2), Scatter: ms(2)},
					{Worker: 1, Gather: ms(4), Apply: ms(1), Scatter: ms(3)},
				},
			},
			{
				Iteration: 1, Active: 40, Updates: 40, EdgeReads: 400, Messages: 0,
				ApplyTime: ms(1), WallTime: ms(5),
				GatherWall: ms(2), ApplyWall: ms(1), ScatterWall: ms(1), BarrierTime: ms(1),
				WorkerSpans: []trace.WorkerSpan{
					{Worker: 0, Gather: ms(2), Apply: ms(1), Scatter: ms(1)},
					{Worker: 1}, // idle worker: no spans emitted
				},
			},
		},
	}
}

// TestChromeTraceGolden pins the `run -tracefile` export — a converted
// engine trace through the one writer — byte-for-byte: the file is the
// contract consumed by chrome://tracing and Perfetto, and determinism
// (no wall-clock in the output) is part of that contract.
func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, syntheticTrace().Spans(0)); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "chrometrace.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("export drifted from golden (regenerate with -update if intended):\ngot:\n%s", buf.String())
	}

	// Byte-stable across repeated exports of the same trace.
	var again bytes.Buffer
	if err := WriteChromeTrace(&again, syntheticTrace().Spans(0)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("two exports of the same trace differ")
	}
}

// TestChromeTraceStructure validates the event stream semantically:
// valid JSON, every iteration with its four counters, its four phases
// (barrier included) tiling it, synthesized timestamps strictly
// cumulative, and one busy span per (worker, phase) with every worker on
// a row of its own.
func TestChromeTraceStructure(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, syntheticTrace().Spans(0)); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}

	var iters, phases, workerSpans int
	iterEnd := map[int]float64{} // ts+dur per iteration index order
	phaseEnd := 0.0              // where the next phase must start
	rowName := map[int]string{}  // tid → thread_name
	workerRow := map[float64]int{}
	seenBusy := map[[3]any]bool{} // (iteration, worker, phase)
	for _, e := range events {
		switch e.Cat {
		case "":
			if e.Name == "thread_name" {
				rowName[e.Tid] = e.Args["name"].(string)
			}
		case "iteration":
			if iters > 0 && phaseEnd != iterEnd[iters-1] {
				t.Errorf("iteration %d: phases end at %v, iteration at %v", iters-1, phaseEnd, iterEnd[iters-1])
			}
			for _, k := range []string{"active", "updates", "edgeReads", "messages"} {
				if _, ok := e.Args[k]; !ok {
					t.Errorf("%s lacks the %q counter: %v", e.Name, k, e.Args)
				}
			}
			iterEnd[iters] = e.Ts + e.Dur
			phaseEnd = e.Ts
			iters++
		case "phase":
			phases++
			if e.Ts != phaseEnd {
				t.Errorf("phase %q starts at %v, previous phase ended at %v", e.Name, e.Ts, phaseEnd)
			}
			phaseEnd = e.Ts + e.Dur
		case "worker":
			workerSpans++
			w := e.Args["worker"].(float64)
			if row, ok := workerRow[w]; ok && row != e.Tid {
				t.Errorf("worker %v on rows %d and %d", w, row, e.Tid)
			}
			workerRow[w] = e.Tid
			if want := fmt.Sprintf("worker %v", w); rowName[e.Tid] != want {
				t.Errorf("worker %v span on row %q, want %q", w, rowName[e.Tid], want)
			}
			key := [3]any{iters - 1, w, e.Name}
			if seenBusy[key] || e.Dur <= 0 {
				t.Errorf("busy span %v repeated or empty (dur %v)", key, e.Dur)
			}
			seenBusy[key] = true
		}
	}
	if iters != 2 {
		t.Fatalf("iteration events = %d, want 2", iters)
	}
	if phaseEnd != iterEnd[1] {
		t.Errorf("last iteration: phases end at %v, iteration at %v", phaseEnd, iterEnd[1])
	}
	// 4 phases in iteration 0, 4 in iteration 1.
	if phases != 8 {
		t.Fatalf("phase events = %d, want 8", phases)
	}
	// Iteration 0: 2 workers × 3 phases = 6; iteration 1: worker 0 only = 3.
	if workerSpans != 9 || len(workerRow) != 2 || workerRow[0] == workerRow[1] {
		t.Fatalf("worker spans = %d on rows %v, want 9 on two distinct rows", workerSpans, workerRow)
	}
	// Iteration 1 starts exactly where iteration 0 ended.
	if iterEnd[0] != 10000 || iterEnd[1] != 15000 {
		t.Fatalf("iteration windows = %v, want cumulative 10ms/15ms in µs", iterEnd)
	}
	var nilTrace *trace.RunTrace
	if err := WriteChromeTrace(&buf, nilTrace.Spans(0)); err == nil {
		t.Fatal("nil trace accepted")
	}
}
