package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, as dumped to the span file.
type span struct {
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Parent   int    `json:"parent"` // index of the causing span in the file, -1 for a root
	Workload string `json:"workload"`
}

func (s span) seconds() float64 { return float64(s.EndNs-s.StartNs) / 1e9 }

// tracer records spans in memory, from one goroutine, and writes them out
// at exit.
type tracer struct {
	workload string
	epoch    time.Time
	spans    []span
	open     []int // stack of open span indices; the top is the next parent
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// in times fn as a span of the given layer under the innermost open span
// and returns the span's duration in seconds.
func (t *tracer) in(name, layer string, fn func()) float64 {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Layer: layer, Parent: parent, Workload: t.workload,
		StartNs: time.Since(t.epoch).Nanoseconds()})
	t.open = append(t.open, id)
	fn()
	t.open = t.open[:len(t.open)-1]
	t.spans[id].EndNs = time.Since(t.epoch).Nanoseconds()
	return t.spans[id].seconds()
}

func (t *tracer) write(path string) error {
	body, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(body, '\n'), 0o644)
}

// selfSeconds returns each span's self time: its duration minus the part
// of its interval that its direct children cover (overlapping children
// are counted once).
func selfSeconds(spans []span) []float64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNs < spans[kids[b]].StartNs })
		covered, reach := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(spans[k].StartNs, reach), min(spans[k].EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = float64(s.EndNs-s.StartNs-covered) / 1e9
	}
	return self
}

// layerSelfSeconds sums self time by layer.
func layerSelfSeconds(spans []span) map[string]float64 {
	out := map[string]float64{}
	for i, v := range selfSeconds(spans) {
		out[spans[i].Layer] += v
	}
	return out
}
