package sweep

import (
	"slices"

	"gcbench/internal/obs/otrace"
	"gcbench/internal/trace"
)

// graftMaxIterations bounds how many iterations one run grafts as spans.
// Longer runs are stride-sampled: the graft is post-run bookkeeping that
// happens after the run's Duration is measured, but it still costs
// allocations, and a 10k-iteration run must not pay 50k span inserts for
// a trace whose per-trace cap would drop most of them anyway.
const graftMaxIterations = 256

// graftRunTrace attaches a finished run's engine timeline under its run
// span: the iteration and phase spans of rt.Spans, without the per-worker
// busy spans, which would exhaust the per-trace span cap. The engine is
// never instrumented — every offset and duration is a wall the engine
// already recorded — and an untraced run (nil sp) converts nothing.
//
// Offsets are relative to the run span's start. Graph generation and
// cache waits precede iteration 0, so the grafted timeline is the
// iterations' internal structure, not an absolute alignment with the run
// span's wall time.
func graftRunTrace(sp *otrace.Span, rt *trace.RunTrace) {
	if sp == nil || rt == nil {
		return
	}
	sp.Graft(slices.DeleteFunc(rt.Spans(graftMaxIterations), func(d otrace.SpanData) bool {
		return d.Kind == "worker"
	}))
	sp.SetAttr("iterations", len(rt.Iterations))
	sp.SetAttr("converged", rt.Converged)
}
