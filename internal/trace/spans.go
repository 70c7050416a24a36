package trace

import (
	"encoding/binary"
	"fmt"
	"time"

	"gcbench/internal/obs/otrace"
)

// Spans renders the run's timeline as a span subtree — the one
// conversion from the engine's recorded walls to otrace.SpanData, which
// `gcbench run -tracefile` exports and the sweep grafts under a run span.
// Each iteration becomes an "iteration" span carrying its four behavior
// counters; its gather/apply/scatter/barrier walls become "phase"
// children (with the frontier mode the phase ran under); each worker's
// busy time in a phase becomes a "worker" child of that phase, anchored
// at the phase's start.
//
// Nothing here reads a clock: iteration k starts at the summed WallTime
// of iterations 0..k-1 and phases run back to back inside it, so two
// conversions of one trace are identical. Walls that are not positive
// emit no phase or worker span. Span ids count up from 1 in emission
// order (parents before children) and iteration spans have no parent:
// the ids are local to the returned slice until otrace.Span.Graft remaps
// them into a live trace.
//
// maxIterations > 0 bounds the emitted iterations by stride sampling
// (every ceil(n/max)-th iteration, each tagged with a "stride"
// attribute); skipped iterations still advance the timeline.
func (t *RunTrace) Spans(maxIterations int) []otrace.SpanData {
	if t == nil {
		return nil
	}
	stride := 1
	if n := len(t.Iterations); maxIterations > 0 && n > maxIterations {
		stride = (n + maxIterations - 1) / maxIterations
	}
	var spans []otrace.SpanData
	emit := func(parent otrace.SpanID, name, kind string, offset, dur time.Duration, attrs ...otrace.Attr) otrace.SpanID {
		var id otrace.SpanID
		binary.BigEndian.PutUint64(id[:], uint64(len(spans)+1))
		spans = append(spans, otrace.SpanData{
			SpanID: id, Parent: parent, Name: name, Kind: kind,
			Offset: offset, Duration: dur, Attrs: attrs,
		})
		return id
	}
	var cursor time.Duration
	for i := range t.Iterations {
		it := &t.Iterations[i]
		start := cursor
		cursor += it.WallTime
		if i%stride != 0 {
			continue
		}
		attrs := []otrace.Attr{
			otrace.Int64("active", it.Active),
			otrace.Int64("updates", it.Updates),
			otrace.Int64("edgeReads", it.EdgeReads),
			otrace.Int64("messages", it.Messages),
		}
		if stride > 1 {
			attrs = append(attrs, otrace.Int("stride", stride))
		}
		iter := emit(otrace.SpanID{}, fmt.Sprintf("iteration %d", it.Iteration), "iteration", start, it.WallTime, attrs...)
		at := start
		for _, ph := range [...]struct {
			name, mode string
			wall       time.Duration
			busy       func(WorkerSpan) time.Duration
		}{
			{"gather", it.GatherMode, it.GatherWall, func(ws WorkerSpan) time.Duration { return ws.Gather }},
			{"apply", it.ApplyMode, it.ApplyWall, func(ws WorkerSpan) time.Duration { return ws.Apply }},
			{"scatter", it.ScatterMode, it.ScatterWall, func(ws WorkerSpan) time.Duration { return ws.Scatter }},
			{"barrier", "", it.BarrierTime, nil},
		} {
			if ph.wall <= 0 {
				continue
			}
			var mode []otrace.Attr
			if ph.mode != "" {
				mode = []otrace.Attr{otrace.String("mode", ph.mode)}
			}
			phase := emit(iter, ph.name, "phase", at, ph.wall, mode...)
			if ph.busy != nil {
				for _, ws := range it.WorkerSpans {
					if busy := ph.busy(ws); busy > 0 {
						emit(phase, ph.name, "worker", at, busy, otrace.Int("worker", ws.Worker))
					}
				}
			}
			at += ph.wall
		}
	}
	return spans
}
