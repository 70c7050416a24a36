package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// family is a set of metrics of one type sharing a name, distinguished
// by label values. Every registered metric is a family: a label-free
// counter, gauge or histogram is the family with no label names and one
// child. Children are created on first use and never evicted; label
// sets are expected to be low-cardinality by construction (route
// patterns × status classes, shard indices × a fixed operation
// vocabulary — never raw paths).
type family[T any] struct {
	name     string
	help     string
	labels   []string
	newChild func() *T

	mu       sync.RWMutex
	children map[string]*T // key: rendered label text, e.g. `route="/api/runs",code="2xx"`
}

// CounterVec is a family of Counters — the shard tier's per-shard ×
// RPC-kind error counts.
type CounterVec = family[Counter]

// HistogramVec is a family of Histograms sharing one bucket layout —
// the serve tier's per-route × status-class RED metrics.
type HistogramVec = family[Histogram]

// With returns the child for the given label values (one per registered
// label name, in order), creating it on first use. The returned child
// is cacheable by the caller; updating it is the same lock-free atomic
// path whether or not the family has labels.
func (f *family[T]) With(values ...string) *T {
	key := f.renderLabels(values)
	f.mu.RLock()
	c, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok = f.children[key]; ok {
		return c
	}
	c = f.newChild()
	f.children[key] = c
	return c
}

// renderLabels produces the canonical Prometheus label text for the
// given values: names in registration order, values escaped.
func (f *family[T]) renderLabels(values []string) string {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q expects %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	parts := make([]string, len(values))
	for i, val := range values {
		parts[i] = f.labels[i] + `="` + escapeLabel(val) + `"`
	}
	return strings.Join(parts, ",")
}

// sortedChildren snapshots the children sorted by label text for stable
// exposition.
func (f *family[T]) sortedChildren() (keys []string, children []*T) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	keys = make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	children = make([]*T, len(keys))
	for i, k := range keys {
		children[i] = f.children[k]
	}
	return keys, children
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}
