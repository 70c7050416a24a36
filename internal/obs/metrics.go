// Package obs is gcbench's observability layer: a dependency-free
// metrics registry with Prometheus text-format exposition and expvar
// bridging, an opt-in HTTP server (/metrics, /statusz, /healthz,
// /debug/pprof), and Chrome trace-event export of engine phase spans.
//
// The registry deliberately implements the minimal subset of the
// Prometheus data model the benchmark harness needs — counters, gauges
// and fixed-bucket histograms, each one family type with or without
// labels (vec.go) — so the engine hot path pays one atomic add per
// metric update and the module keeps zero third-party dependencies.
package obs

import (
	"expvar"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing float64 metric. The zero value
// is unusable; obtain counters from a Registry.
type Counter struct {
	bits atomic.Uint64
}

// Add increments the counter by d. Negative deltas are ignored —
// counters are monotone by contract, and a monotone scrape is what the
// HTTP-surface tests assert.
func (c *Counter) Add(d float64) {
	if d < 0 || math.IsNaN(d) {
		return
	}
	for {
		old := c.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + d)
		if c.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Inc increments the counter by 1.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a float64 metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by d (negative d decreases it).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed upper-bound buckets
// (cumulative on exposition, Prometheus-style) and tracks their sum.
type Histogram struct {
	bounds  []float64 // sorted upper bounds, +Inf implied
	counts  []atomic.Uint64
	sumBits atomic.Uint64
	total   atomic.Uint64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sumBits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the observed
// distribution from the bucket counts, interpolating linearly within
// the containing bucket — the same estimate Prometheus's
// histogram_quantile() computes. The second return is false when the
// histogram is empty. Observations above the last finite bound clamp
// the estimate to that bound (the +Inf bucket has no width to
// interpolate over), so tail quantiles are lower bounds, not exact.
func (h *Histogram) Quantile(q float64) (float64, bool) {
	total := h.total.Load()
	if total == 0 || math.IsNaN(q) {
		return 0, false
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum uint64
	for i, bound := range h.bounds {
		c := h.counts[i].Load()
		if float64(cum)+float64(c) >= rank && c > 0 {
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lower + (bound-lower)*frac, true
		}
		cum += c
	}
	// The rank lands in the +Inf bucket: clamp to the last finite bound.
	if len(h.bounds) == 0 {
		return 0, false
	}
	return h.bounds[len(h.bounds)-1], true
}

// Registry holds named metric families and renders them in Prometheus
// text format. All methods are safe for concurrent use; metric
// constructors are get-or-create, so independent packages can reference
// the same metric by name.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]any // *family[Counter] | *family[Gauge] | *family[Histogram]
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]any)}
}

// defaultRegistry is the process-wide registry the engine and sweep
// runner publish into.
var defaultRegistry = NewRegistry()

// Default returns the process-wide default registry.
func Default() *Registry { return defaultRegistry }

// register is the one get-or-create: the family of T registered under
// name, created with the given label names and child constructor if
// absent. A label-free family gets its single child right away, so a
// counter nobody has touched yet still prints `name 0`.
func register[T any](r *Registry, name, help string, labels []string, newChild func() *T) *family[T] {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		f, ok := m.(*family[T])
		if !ok {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different type", name))
		}
		return f
	}
	f := &family[T]{
		name:     name,
		help:     help,
		labels:   append([]string(nil), labels...),
		newChild: newChild,
		children: make(map[string]*T),
	}
	if len(labels) == 0 {
		f.With()
	}
	r.metrics[name] = f
	return f
}

// Counter returns the counter registered under name, creating it with
// the given help text if absent.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterVec(name, help, nil).With()
}

// Gauge returns the gauge registered under name, creating it if absent.
func (r *Registry) Gauge(name, help string) *Gauge {
	return register(r, name, help, nil, func() *Gauge { return new(Gauge) }).With()
}

// Histogram returns the histogram registered under name, creating it
// with the given upper-bound buckets if absent. bounds must be sorted
// ascending; a +Inf bucket is implicit.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.HistogramVec(name, help, nil, bounds).With()
}

// CounterVec returns the labeled counter family registered under name,
// creating it with the given label names if absent. See CounterVec.With.
func (r *Registry) CounterVec(name, help string, labels []string) *CounterVec {
	return register(r, name, help, labels, func() *Counter { return new(Counter) })
}

// HistogramVec returns the labeled histogram family registered under
// name, creating it with the given label names and bucket bounds if
// absent. Children share the bounds; see HistogramVec.With.
func (r *Registry) HistogramVec(name, help string, labels []string, bounds []float64) *HistogramVec {
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("obs: histogram %q bounds not sorted", name))
	}
	bounds = append([]float64(nil), bounds...)
	return register(r, name, help, labels, func() *Histogram {
		return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	})
}

// formatValue renders a float the way Prometheus clients do: integral
// values without an exponent, the rest in shortest-round-trip form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every registered metric in Prometheus text
// exposition format (version 0.0.4), sorted by metric name so scrapes
// are stable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	ms := make([]any, len(names))
	for i, name := range names {
		ms[i] = r.metrics[name]
	}
	r.mu.Unlock()

	for _, m := range ms {
		var err error
		switch f := m.(type) {
		case *family[Counter]:
			err = writeScalars(w, f, "counter", (*Counter).Value)
		case *family[Gauge]:
			err = writeScalars(w, f, "gauge", (*Gauge).Value)
		case *family[Histogram]:
			err = writeHistograms(w, f)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writeHeader writes a family's HELP (when it has one) and TYPE lines.
func (f *family[T]) writeHeader(w io.Writer, kind string) error {
	if f.help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, kind)
	return err
}

// writeScalars renders a counter or gauge family: one `name{labels} v`
// line per child, the braces omitted for the label-free child.
func writeScalars[T any](w io.Writer, f *family[T], kind string, value func(*T) float64) error {
	if err := f.writeHeader(w, kind); err != nil {
		return err
	}
	keys, children := f.sortedChildren()
	for i, c := range children {
		if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, braced(keys[i]), formatValue(value(c))); err != nil {
			return err
		}
	}
	return nil
}

// writeHistograms renders a histogram family: per child the cumulative
// buckets (the child's labels, when it has any, before `le`), then sum
// and count.
func writeHistograms(w io.Writer, f *family[Histogram]) error {
	if err := f.writeHeader(w, "histogram"); err != nil {
		return err
	}
	keys, children := f.sortedChildren()
	for i, h := range children {
		prefix, suffix := "", braced(keys[i])
		if keys[i] != "" {
			prefix = keys[i] + ","
		}
		var cum uint64
		for bi, b := range h.bounds {
			cum += h.counts[bi].Load()
			if _, err := fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", f.name, prefix, formatValue(b), cum); err != nil {
				return err
			}
		}
		cum += h.counts[len(h.bounds)].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n%s_sum%s %s\n%s_count%s %d\n",
			f.name, prefix, cum, f.name, suffix, formatValue(h.Sum()), f.name, suffix, h.Count()); err != nil {
			return err
		}
	}
	return nil
}

// braced wraps rendered label text in braces; the label-free child's
// empty text stays empty.
func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// Snapshot returns the current value of every scalar metric plus
// histogram sums/counts, keyed by name (and label text) — the expvar
// bridge payload.
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.metrics))
	for name, m := range r.metrics {
		switch f := m.(type) {
		case *family[Counter]:
			snapshotScalars(out, f, (*Counter).Value)
		case *family[Gauge]:
			snapshotScalars(out, f, (*Gauge).Value)
		case *family[Histogram]:
			keys, hs := f.sortedChildren()
			for i, h := range hs {
				out[name+braced(keys[i])+"_sum"] = h.Sum()
				out[name+braced(keys[i])+"_count"] = float64(h.Count())
			}
		}
	}
	return out
}

// snapshotScalars adds a counter or gauge family's children to out.
func snapshotScalars[T any](out map[string]float64, f *family[T], value func(*T) float64) {
	keys, children := f.sortedChildren()
	for i, c := range children {
		out[f.name+braced(keys[i])] = value(c)
	}
}

// Handler returns an http.Handler serving the registry in Prometheus
// text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// expvarOnce guards the process-global expvar namespace, which panics on
// duplicate Publish.
var expvarOnce sync.Once

// PublishExpvar exposes the default registry under the "gcbench" expvar
// variable (visible at /debug/vars alongside the runtime's memstats).
// Safe to call more than once.
func PublishExpvar() {
	expvarOnce.Do(func() {
		expvar.Publish("gcbench", expvar.Func(func() any {
			return defaultRegistry.Snapshot()
		}))
	})
}
