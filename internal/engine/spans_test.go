package engine

import (
	"testing"

	"gcbench/internal/gen"
	"gcbench/internal/obs"
)

// TestPhaseSpansConsistent verifies the span algebra on every iteration:
// the three phase walls plus the barrier residual reconstruct the
// iteration wall exactly (BarrierTime is defined as the remainder), the
// per-worker apply attribution sums to the WORK numerator, and nothing
// is negative.
func TestPhaseSpansConsistent(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{NumEdges: 20_000, Alpha: 2.2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runEdge[float64, float64](g, rankLike{}, Options{Workers: 4, MaxIterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace.Iterations) == 0 {
		t.Fatal("no iterations")
	}
	for _, it := range res.Trace.Iterations {
		if it.GatherWall < 0 || it.ApplyWall < 0 || it.ScatterWall < 0 || it.BarrierTime < 0 {
			t.Fatalf("iteration %d: negative span: %+v", it.Iteration, it)
		}
		if sum := it.GatherWall + it.ApplyWall + it.ScatterWall + it.BarrierTime; sum != it.WallTime {
			t.Fatalf("iteration %d: spans sum to %v, wall %v", it.Iteration, sum, it.WallTime)
		}
		if len(it.WorkerSpans) == 0 {
			t.Fatalf("iteration %d: no worker spans", it.Iteration)
		}
		var applyBusy, gatherBusy int64
		for _, ws := range it.WorkerSpans {
			if ws.Gather < 0 || ws.Apply < 0 || ws.Scatter < 0 {
				t.Fatalf("iteration %d worker %d: negative busy time", it.Iteration, ws.Worker)
			}
			applyBusy += int64(ws.Apply)
			gatherBusy += int64(ws.Gather)
		}
		if applyBusy != int64(it.ApplyTime) {
			t.Fatalf("iteration %d: worker apply busy %d != ApplyTime %d (WORK attribution broken)",
				it.Iteration, applyBusy, int64(it.ApplyTime))
		}
		// A dense-frontier gather does real work; its attribution must
		// not be empty.
		if it.EdgeReads > 0 && gatherBusy == 0 {
			t.Fatalf("iteration %d: %d edge reads but zero gather busy time", it.Iteration, it.EdgeReads)
		}
	}
}

// TestEngineMetricsPopulated verifies the engine feeds the process-wide
// obs registry: counters advance by at least this run's own totals
// (other tests may run concurrently, so exact deltas are not asserted).
func TestEngineMetricsPopulated(t *testing.T) {
	reg := obs.Default()
	before := reg.Snapshot()
	g, err := gen.PowerLaw(gen.PowerLawConfig{NumEdges: 5_000, Alpha: 2.2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runEdge[float64, float64](g, rankLike{}, Options{Workers: 2, MaxIterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	after := reg.Snapshot()
	iters := float64(res.Trace.NumIterations())
	if d := after["gcbench_engine_iterations_total"] - before["gcbench_engine_iterations_total"]; d < iters {
		t.Fatalf("iterations counter advanced by %v, want >= %v", d, iters)
	}
	var updates float64
	for _, it := range res.Trace.Iterations {
		updates += float64(it.Updates)
	}
	if d := after["gcbench_engine_updates_total"] - before["gcbench_engine_updates_total"]; d < updates {
		t.Fatalf("updates counter advanced by %v, want >= %v", d, updates)
	}
	if d := after["gcbench_engine_runs_total"] - before["gcbench_engine_runs_total"]; d < 1 {
		t.Fatalf("runs counter advanced by %v, want >= 1", d)
	}
}
