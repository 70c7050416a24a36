package obs

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"time"

	"gcbench/internal/obs/otrace"
)

// SpanNode is one span in the nested /debug/traces/{id} tree: the
// recorded span data plus its children — the JSON shape clients walk to
// see where a request's time went.
type SpanNode struct {
	otrace.SpanData
	Children []*SpanNode `json:"children,omitempty"`
}

// BuildSpanTree nests a trace's flat span list into parent→child trees.
// The first return holds the root spans (normally exactly one); the
// second holds orphans — spans whose parent was dropped past the
// per-trace cap — so nothing recorded is silently hidden. Every list
// keeps the order of spans, which Trace.Spans returns in otrace.Sort
// order.
func BuildSpanTree(spans []otrace.SpanData) (roots, orphans []*SpanNode) {
	nodes := make(map[otrace.SpanID]*SpanNode, len(spans))
	for i := range spans {
		nodes[spans[i].SpanID] = &SpanNode{SpanData: spans[i]}
	}
	for i := range spans {
		n := nodes[spans[i].SpanID]
		if n.Parent.IsZero() {
			roots = append(roots, n)
		} else if p, ok := nodes[n.Parent]; ok {
			p.Children = append(p.Children, n)
		} else {
			orphans = append(orphans, n)
		}
	}
	return roots, orphans
}

// traceEvent is one Chrome trace-event ("Trace Event Format", the JSON
// consumed by chrome://tracing and Perfetto). Field order is fixed by
// the struct so exports are byte-stable for a given trace.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// traceRow identifies the virtual thread a span renders on: one row per
// kind, except that every worker gets a row of its own.
type traceRow struct {
	rank int // index in otrace.Kinds; len(otrace.Kinds) for a kind outside it
	kind string
	lane int // the "worker" attribute of a worker span, else 0
}

func rowOf(s *otrace.SpanData) traceRow {
	r := traceRow{rank: slices.Index(otrace.Kinds, s.Kind), kind: s.Kind}
	if r.rank < 0 {
		r.rank = len(otrace.Kinds)
	}
	if s.Kind == "worker" {
		for _, a := range s.Attrs {
			if n, ok := a.Value.(int); a.Key == "worker" && ok {
				r.lane = n
			}
		}
	}
	return r
}

func (r traceRow) label() string {
	switch r.kind {
	case "":
		return "internal"
	case "worker":
		return fmt.Sprintf("worker %d", r.lane)
	}
	return r.kind
}

// WriteChromeTrace exports spans — a request's tree from the trace
// store, or one run's converted engine trace (trace.RunTrace.Spans) — as
// a Chrome trace-event JSON array, openable in chrome://tracing or
// Perfetto. Rows (virtual threads) follow otrace.Kinds: the kinds
// present get consecutive rows in table order so the serve / job / run /
// iteration / phase layers stack visually, a kind outside the table gets
// its own row after them, and each worker gets its own row.
//
// The export is deterministic for a given span list: events carry only
// relative offsets and durations (never absolute clock readings or span
// ids), are emitted in otrace.Sort order, and attribute maps JSON-encode
// with sorted keys. Two exports of the same quiesced trace are
// byte-identical — the property the golden tests pin.
func WriteChromeTrace(w io.Writer, spans []otrace.SpanData) error {
	if len(spans) == 0 {
		return fmt.Errorf("obs: no spans to export")
	}
	ordered := slices.Clone(spans)
	otrace.Sort(ordered)

	spanRow := make([]traceRow, len(ordered))
	for i := range ordered {
		spanRow[i] = rowOf(&ordered[i])
	}
	rows := slices.Clone(spanRow)
	slices.SortFunc(rows, func(a, b traceRow) int {
		return cmp.Or(cmp.Compare(a.rank, b.rank), cmp.Compare(a.kind, b.kind), cmp.Compare(a.lane, b.lane))
	})
	rows = slices.Compact(rows)
	events := []traceEvent{
		{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "gcbench request"}},
	}
	tids := make(map[traceRow]int, len(rows))
	for tid, r := range rows {
		tids[r] = tid
		events = append(events, traceEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
			Args: map[string]any{"name": r.label()},
		})
	}

	for i := range ordered {
		s := &ordered[i]
		args := map[string]any{}
		if s.Status != "" {
			args["status"] = s.Status
		}
		if s.Error != "" {
			args["error"] = s.Error
		}
		for _, a := range s.Attrs {
			args[a.Key] = a.Value
		}
		if len(args) == 0 {
			args = nil
		}
		events = append(events, traceEvent{
			Name: s.Name, Cat: cmp.Or(s.Kind, "internal"), Ph: "X",
			Ts: us(s.Offset), Dur: us(s.Duration), Pid: 1, Tid: tids[spanRow[i]],
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(events)
}

// RegisterTraceRoutes serves the trace store on mux:
//
//	GET /debug/traces          recent-trace index, newest first
//	GET /debug/traces/{id}     one trace's full span tree as JSON;
//	                           ?format=chrome renders the Chrome
//	                           trace-event export instead
func RegisterTraceRoutes(mux *http.ServeMux, store *otrace.Store) {
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		list := store.List()
		started, evicted := store.Stats()
		writeJSON(w, http.StatusOK, map[string]any{
			"count":   len(list),
			"started": started,
			"evicted": evicted,
			"traces":  list,
		})
	})
	mux.HandleFunc("/debug/traces/{id}", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		id, err := otrace.ParseTraceID(r.PathValue("id"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		tr, ok := store.Get(id)
		if !ok {
			http.Error(w, fmt.Sprintf("no retained trace %s (the tail sampler evicts boring traces first)", id), http.StatusNotFound)
			return
		}
		spans := tr.Spans()
		if r.URL.Query().Get("format") == "chrome" {
			// The writer encodes before it writes, so a refused export
			// (no span finished yet) has sent nothing.
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			if err := WriteChromeTrace(w, spans); err != nil {
				http.Error(w, err.Error(), http.StatusNotFound)
			}
			return
		}
		roots, orphans := BuildSpanTree(spans)
		payload := map[string]any{
			"traceId": tr.ID(),
			"start":   tr.Start().UTC().Format(time.RFC3339Nano),
			"spans":   len(spans),
			"dropped": tr.Dropped(),
			"tree":    roots,
		}
		if len(orphans) > 0 {
			payload["orphans"] = orphans
		}
		writeJSON(w, http.StatusOK, payload)
	})
}
