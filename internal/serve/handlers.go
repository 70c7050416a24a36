package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"gcbench/internal/algorithms"
	"gcbench/internal/behavior"
	"gcbench/internal/corpus"
	"gcbench/internal/model"
	"gcbench/internal/predict"
	"gcbench/internal/shard"
)

// runSummary is the per-run payload of /api/runs and ensemble member
// lists. Raw is the measured per-edge vector; Behavior is the
// max-normalized point in the full corpus space (coordinates in [0,1]).
type runSummary struct {
	Key       string `json:"key"`
	ID        string `json:"id,omitempty"`
	Algorithm string `json:"algorithm"`
	// Model is the execution model tag, omitted for GAS runs so
	// pre-model-axis corpora render byte-identically.
	Model      string           `json:"model,omitempty"`
	Domain     string           `json:"domain,omitempty"`
	SizeLabel  string           `json:"sizeLabel"`
	Alpha      float64          `json:"alpha,omitempty"`
	NumEdges   int64            `json:"numEdges,omitempty"`
	Iterations int              `json:"iterations,omitempty"`
	Converged  bool             `json:"converged,omitempty"`
	Status     string           `json:"status"`
	Error      string           `json:"error,omitempty"`
	Raw        *behavior.Vector `json:"raw,omitempty"`
	Behavior   *behavior.Vector `json:"behavior,omitempty"`
}

func summarize(snap *corpus.Snapshot, recIdx int) runSummary {
	rec := &snap.Records[recIdx]
	out := runSummary{
		Key:       rec.Key,
		Algorithm: rec.Algorithm,
		Model:     rec.Model,
		SizeLabel: rec.SizeLabel,
		Alpha:     rec.Alpha,
		Status:    string(rec.Status),
		Error:     rec.Err,
	}
	if rec.Run != nil {
		out.ID = rec.Run.ID()
		out.Domain = rec.Run.Domain
		out.NumEdges = rec.Run.NumEdges
		out.Iterations = rec.Run.Iterations
		out.Converged = rec.Run.Converged
		raw := rec.Run.Raw
		out.Raw = &raw
		if si := snap.SpaceIndexOf(recIdx); si >= 0 {
			pt := snap.Space.Point(si)
			out.Behavior = &pt
		}
	}
	return out
}

// fragTable holds one view's /api/runs record fragments: record i is
// rendered once, on first use, indented at the depth it occupies inside
// "runs": [ … ], and every listing of that view is assembled from these
// bytes. They cannot change within a view; the table is dropped with it.
type fragTable struct {
	view *shard.View
	recs []recFrag
}

type recFrag struct {
	once sync.Once
	json []byte
	err  error
}

func (t *fragTable) record(i int) ([]byte, error) {
	f := &t.recs[i]
	f.once.Do(func() { f.json, f.err = json.MarshalIndent(summarize(t.view.Merged, i), "  ", " ") })
	return f.json, f.err
}

// fragsFor returns view's fragment table, installing a fresh one when
// view is newer than the table held. A request still on an older view
// than the one installed gets a table of its own.
func (s *Server) fragsFor(view *shard.View) *fragTable {
	for {
		cur := s.frags.Load()
		if cur != nil && cur.view == view {
			return cur
		}
		t := &fragTable{view: view, recs: make([]recFrag, len(view.Merged.Records))}
		if (cur != nil && view.Epoch() < cur.view.Epoch()) || s.frags.CompareAndSwap(cur, t) {
			return t
		}
	}
}

// parseFilter reads the shared algorithm/size/alpha/status/model query
// parameters (repeatable and comma-splittable).
func parseFilter(r *http.Request) (corpus.Filter, error) {
	var f corpus.Filter
	q := r.URL.Query()
	f.Algorithms = splitParams(q["algorithm"])
	f.Sizes = splitParams(q["size"])
	for _, m := range splitParams(q["model"]) {
		n, err := model.Parse(m)
		if err != nil {
			return f, errInvalidf("%v", err)
		}
		f.Models = append(f.Models, string(n))
	}
	for _, a := range splitParams(q["alpha"]) {
		v, err := strconv.ParseFloat(a, 64)
		if err != nil {
			return f, errInvalidf("alpha %q is not a number", a)
		}
		f.Alphas = append(f.Alphas, v)
	}
	for _, st := range splitParams(q["status"]) {
		switch behavior.RunStatus(st) {
		case behavior.StatusOK, behavior.StatusFailed, behavior.StatusTimeout,
			behavior.StatusCancelled, behavior.StatusSkipped:
			f.Statuses = append(f.Statuses, behavior.RunStatus(st))
		default:
			return f, errInvalidf("unknown status %q", st)
		}
	}
	return f, nil
}

// splitParams flattens repeated query parameters and comma lists.
func splitParams(vals []string) []string {
	var out []string
	for _, v := range vals {
		for _, part := range strings.Split(v, ",") {
			if part = strings.TrimSpace(part); part != "" {
				out = append(out, part)
			}
		}
	}
	return out
}

// currentCorpus loads the request's view, answering 503 itself when
// nothing is published yet (/readyz reports the same condition to the
// load balancer).
func (s *Server) currentCorpus(w http.ResponseWriter) (*shard.View, bool) {
	view, ok := s.currentView()
	if !ok {
		writeError(w, http.StatusServiceUnavailable, "no_corpus", "no corpus published yet; check /readyz")
	}
	return view, ok
}

// handleRuns serves GET /api/runs: the filtered corpus listing in stable
// load order, as a scatter-gather: each shard selects over its own
// partition and the merge restores canonical sequence order.
func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	view, ok := s.currentCorpus(w)
	if !ok {
		return
	}
	snap := view.Merged
	f, err := parseFilter(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_request", "%v", err)
		return
	}
	idx, err := s.cluster.Scatter(r.Context(), f, false)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "shard_unavailable", "%v", err)
		return
	}
	idx = clampSeqs(idx, len(snap.Records))
	frags := s.fragsFor(view)
	bp := runsBodies.Get().(*[]byte)
	defer runsBodies.Put(bp)
	body := appendEnvelope((*bp)[:0], snap.Version)
	body = strconv.AppendInt(append(body, ",\n \"count\": "...), int64(len(idx)), 10)
	body = append(body, ",\n \"runs\": ["...)
	sep := "\n  "
	for _, i := range idx {
		frag, err := frags.record(i)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "encoding_failed", "encoding response: %v", err)
			return
		}
		body = append(append(body, sep...), frag...)
		sep = ",\n  "
	}
	if len(idx) > 0 {
		body = append(body, "\n "...)
	}
	body = append(body, "]\n}\n"...)
	writeBody(w, http.StatusOK, body)
	*bp = body // keep what it grew to
}

// runsBodies recycles /api/runs body buffers: a listing is ~100 KB, and
// allocating one per request is what paced the server's GC cycles. A
// buffer goes back once writeBody returns — every ResponseWriter in the
// chain copies or sends p before Write returns (io.Writer may not retain
// it).
var runsBodies = sync.Pool{New: func() any { return new([]byte) }}

// behaviorDetail extends runSummary with the full activity series and
// the pool-normalized point used by ensemble design.
type behaviorDetail struct {
	runSummary
	ActiveFraction []float64        `json:"activeFraction,omitempty"`
	PoolBehavior   *behavior.Vector `json:"poolBehavior,omitempty"`
}

// clampSeqs drops sequence numbers beyond the view's merged snapshot: a
// shard may already be serving a publish newer than the view a request
// loaded, and those records become visible with the next view. Seqs are
// ascending, so the stale tail is a suffix.
func clampSeqs(seqs []int, n int) []int {
	for len(seqs) > 0 && seqs[len(seqs)-1] >= n {
		seqs = seqs[:len(seqs)-1]
	}
	return seqs
}

// handleBehavior serves GET /api/behavior/{key}: one run's complete
// record, by fragment cache → owner-shard routed read → render from the
// consistent view.
//
// The read routes to the key's owning shard (any replica answers from
// its own immutable partition snapshot), and the rendered record
// fragment is cached keyed by (key, owner shard version, normalization
// epoch): a hot-publish to a different shard that leaves the corpus
// maxima unchanged cannot alter this record's bytes, so the cached
// fragment keeps serving across it — only the envelope's corpusVersion
// is rendered fresh.
func (s *Server) handleBehavior(w http.ResponseWriter, r *http.Request) {
	view, ok := s.currentCorpus(w)
	if !ok {
		return
	}
	snap := view.Merged
	key := r.PathValue("key")
	owner := s.cluster.Owner(key)
	fragKey := fmt.Sprintf("bfrag|%s|s%d.v%d|ne%d", key, owner, view.VV[owner], view.NormEpoch)
	if frag, ok := s.cache.Get(fragKey); ok {
		s.mCacheHit.Inc()
		reqInfoFrom(r.Context()).setCache("hit")
		writeRun(w, snap.Version, frag)
		return
	}
	resp, err := s.cluster.Get(r.Context(), key)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "shard_unavailable", "%v", err)
		return
	}
	i, known := snap.Lookup(key)
	if !resp.Found || !known {
		// Either truly absent, or just appended and not yet in this
		// request's view.
		writeError(w, http.StatusNotFound, "not_found", "no corpus record with key %q", key)
		return
	}
	s.mCacheMiss.Inc()
	det := behaviorDetail{runSummary: summarize(snap, i)}
	if rec := &snap.Records[i]; rec.Run != nil {
		det.ActiveFraction = rec.Run.ActiveFraction
		if pi := view.PoolIndexOfSeq(i); pi >= 0 {
			pt := snap.Pool.Point(pi)
			det.PoolBehavior = &pt
		}
	}
	// Indented at its depth inside the envelope, so hits and misses are
	// assembled from the same bytes and neither re-indents them.
	frag, err := json.MarshalIndent(det, " ", " ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding_failed", "encoding record: %v", err)
		return
	}
	s.cache.Put(fragKey, frag)
	reqInfoFrom(r.Context()).setCache("miss")
	writeRun(w, snap.Version, frag)
}

// writeRun writes the /api/behavior envelope around a rendered record.
func writeRun(w http.ResponseWriter, version int64, frag []byte) {
	body := appendEnvelope(make([]byte, 0, len(frag)+64), version)
	body = append(append(body, ",\n \"run\": "...), frag...)
	writeBody(w, http.StatusOK, append(body, "\n}\n"...))
}

// handlePredict serves GET /api/predict: §7 behavior interpolation for
// an <algorithm, edges, alpha> query. The predictor interpolates over
// the whole corpus, so it is built from the merged view — the same
// insertion-order float summation for every shard count, keeping
// predictions bit-identical across deployments.
// A rendered body is cached under the parsed query and the version vector.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	view, okc := s.currentCorpus(w)
	if !okc {
		return
	}
	snap := view.Merged
	q := r.URL.Query()
	algName, err := algorithms.Parse(q.Get("algorithm"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_request", "%v", err)
		return
	}
	edges, err := strconv.ParseInt(q.Get("edges"), 10, 64)
	if err != nil || edges <= 0 {
		writeError(w, http.StatusBadRequest, "invalid_request", "edges must be a positive integer, got %q", q.Get("edges"))
		return
	}
	alpha := 0.0
	if a := q.Get("alpha"); a != "" {
		alpha, err = strconv.ParseFloat(a, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "invalid_request", "alpha %q is not a number", a)
			return
		}
	}
	// An explicit model restricts interpolation to that model's runs
	// (prediction never mixes engines); absent, every run informs it, so
	// existing queries against GAS-only corpora keep their exact bytes.
	var mName model.Name
	if m := q.Get("model"); m != "" {
		if mName, err = model.Parse(m); err != nil {
			writeError(w, http.StatusBadRequest, "invalid_request", "%v", err)
			return
		}
	}
	key := "predict|vv" + view.VVString() + "|alg=" + string(algName) + "|edges=" + strconv.FormatInt(edges, 10) +
		"|alpha=" + strconv.FormatFloat(alpha, 'g', -1, 64) + "|model=" + string(mName)
	if body, ok := s.cache.Get(key); ok {
		s.mCacheHit.Inc()
		reqInfoFrom(r.Context()).setCache("hit")
		writeBody(w, http.StatusOK, body)
		return
	}
	query := map[string]any{
		"algorithm": string(algName), "edges": edges, "alpha": alpha,
	}
	if mName != "" {
		query["model"] = string(mName)
	}
	p, err := snap.Predictor()
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "no_corpus", "%v", err)
		return
	}
	pred, err := p.Predict(predict.Query{Algorithm: string(algName), NumEdges: edges, Alpha: alpha, Model: string(mName)})
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_request", "%v", err)
		return
	}
	if body := writeJSON(w, http.StatusOK, map[string]any{
		"corpusVersion": snap.Version,
		"query":         query,
		"raw":           pred.Raw,
		"iterations":    pred.Iterations,
		"support":       pred.Support,
	}); body != nil {
		s.mCacheMiss.Inc()
		s.cache.Put(key, body)
		reqInfoFrom(r.Context()).setCache("miss")
	}
}

// handleCorpusInfo serves GET /api/corpus: snapshot metadata plus the
// shard tier's shape and version vector.
func (s *Server) handleCorpusInfo(w http.ResponseWriter, r *http.Request) {
	view, ok := s.currentCorpus(w)
	if !ok {
		return
	}
	snap := view.Merged
	byStatus := map[string]int{}
	for i := range snap.Records {
		byStatus[string(snap.Records[i].Status)]++
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"corpusVersion": snap.Version,
		"source":        snap.Source,
		"loadedAt":      snap.LoadedAt,
		"records":       len(snap.Records),
		"okRuns":        snap.OKCount(),
		"poolSize":      snap.PoolSize(),
		"byStatus":      byStatus,
		"shards": map[string]any{
			"count":         s.cluster.Shards(),
			"replicas":      s.cluster.Replicas(),
			"versionVector": view.VVString(),
			"normEpoch":     view.NormEpoch,
		},
	})
}

// handleReload serves POST /api/corpus/reload: re-reads the corpus
// source file, repartitions it and republishes every shard. Running
// requests keep their old view; the response reports the new version.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	view, err := s.cluster.Reload(r.Context())
	if err != nil {
		writeError(w, http.StatusInternalServerError, "reload_failed", "%v", err)
		return
	}
	snap := view.Merged
	// A reload advances every shard, so no cache entry stays addressable;
	// purge simply returns the memory.
	s.cache.Purge()
	s.mReloads.Inc()
	writeJSON(w, http.StatusOK, map[string]any{
		"corpusVersion": snap.Version,
		"source":        snap.Source,
		"records":       len(snap.Records),
		"okRuns":        snap.OKCount(),
		"poolSize":      snap.PoolSize(),
	})
}
