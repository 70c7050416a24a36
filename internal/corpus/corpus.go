// Package corpus is the serving-side store for behavior-run corpora: an
// immutable, indexed snapshot of measured runs (loaded from a
// `gcbench sweep` corpus JSON or a checkpoint journal) behind an
// atomically swappable Store, so a long-running server can hot-reload a
// refreshed corpus without dropping or torn-reading concurrent requests.
//
// A Snapshot is strictly read-only after construction: every index is
// built up front, queries never mutate shared state, and the ensemble
// pool (the §5.2 graph-varying runs, max-normalized) is materialized once
// per snapshot. Store.Swap publishes a new snapshot with a single atomic
// pointer store; readers that already hold the old snapshot finish their
// requests against a consistent view.
package corpus

import (
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gcbench/internal/algorithms"
	"gcbench/internal/behavior"
	"gcbench/internal/predict"
	"gcbench/internal/sweep"
)

// Record is one corpus entry: a run (nil for failed/cancelled journal
// entries that never produced a measurement) plus its campaign outcome,
// addressable by a URL-safe Key.
type Record struct {
	// Key is the record's stable, URL-safe identifier, e.g. "PR_1e5_a2.5".
	Key string
	// Run is the measured behavior run; nil when Status is not "ok".
	Run *behavior.Run
	// Status is the campaign outcome ("ok" for corpus-file loads).
	Status behavior.RunStatus
	// Err carries the failure message of a non-ok journal entry.
	Err string
	// Spec echoes the identifying tuple for records without a Run.
	Algorithm string
	SizeLabel string
	Alpha     float64
	// Model is the execution model tag, empty for GAS (the pre-model-axis
	// encoding, so old corpora rebuild byte-identical keys and wire
	// payloads).
	Model string `json:",omitempty"`
}

// Snapshot is one immutable, fully indexed corpus version.
type Snapshot struct {
	// Version is assigned by the Store on publication (1, 2, ...).
	Version int64
	// Source is the file path or description the snapshot was loaded from.
	Source string
	// LoadedAt is the snapshot's construction time.
	LoadedAt time.Time

	// Records holds every entry in load order.
	Records []Record

	// Space is the max-normalized behavior space over the ok runs
	// (nil when the snapshot holds no ok runs).
	Space *behavior.Space
	// spaceRec maps Space index → Records index.
	spaceRec []int

	// Pool is the §5.2 ensemble-design pool: the graph-varying ok runs,
	// normalized separately (nil when empty).
	Pool *behavior.Space
	// poolRec maps Pool index → Records index.
	poolRec []int

	byKey    map[string]int
	byAlg    map[string][]int
	bySize   map[string][]int
	byStatus map[behavior.RunStatus][]int
	// byModel indexes records by effective execution model ("" → "gas").
	byModel map[string][]int

	predOnce sync.Once
	pred     *predict.Predictor
	predErr  error
}

// Filter selects records. Empty slices mean "no restriction on this
// dimension"; alphas match within a 1e-9 tolerance; model names match by
// effective model, so "gas" selects both tagged and pre-model-axis
// (untagged) records.
type Filter struct {
	Algorithms []string
	Sizes      []string
	Alphas     []float64
	Statuses   []behavior.RunStatus
	Models     []string `json:",omitempty"`
}

// zero reports whether the filter is unrestricted.
func (f Filter) zero() bool {
	return len(f.Algorithms) == 0 && len(f.Sizes) == 0 && len(f.Alphas) == 0 &&
		len(f.Statuses) == 0 && len(f.Models) == 0
}

// alphaMatch reports whether a is in the filter's alpha set.
func alphaMatch(alphas []float64, a float64) bool {
	for _, v := range alphas {
		if math.Abs(v-a) < 1e-9 {
			return true
		}
	}
	return false
}

// KeyOf renders the canonical record key for an identifying tuple:
// URL-safe, human-readable, unique within a campaign (collisions at load
// time get a numeric suffix).
func KeyOf(algorithm, sizeLabel string, alpha float64) string {
	if alpha == 0 {
		return fmt.Sprintf("%s_%s", algorithm, sizeLabel)
	}
	return fmt.Sprintf("%s_%s_a%s", algorithm, sizeLabel, strconv.FormatFloat(alpha, 'g', -1, 64))
}

// KeyOfModel renders the record key for a model-tagged tuple: non-GAS
// records get a model suffix (e.g. "PR_1e5_a2.5_pregel"), so identical
// specs under two execution models never collide, while GAS records keep
// their pre-model-axis keys byte-identical.
func KeyOfModel(model, algorithm, sizeLabel string, alpha float64) string {
	key := KeyOf(algorithm, sizeLabel, alpha)
	if m := behavior.EffectiveModel(model); m != behavior.ModelGAS {
		key += "_" + m
	}
	return key
}

// NewSnapshotFromRuns builds a snapshot from a measured run collection
// (every record has status ok).
func NewSnapshotFromRuns(runs []*behavior.Run, source string) (*Snapshot, error) {
	return newSnapshot(appendOKRecords(nil, runs), source)
}

// appendOKRecords appends one ok record per measured run.
func appendOKRecords(records []Record, runs []*behavior.Run) []Record {
	for _, r := range runs {
		records = append(records, Record{
			Run: r, Status: behavior.StatusOK,
			Algorithm: r.Algorithm, SizeLabel: r.SizeLabel, Alpha: r.Alpha, Model: r.Model,
		})
	}
	return records
}

// Grow returns old grown by measured runs: old's records plus one ok
// record per run, rebuilt and re-indexed as a fresh snapshot through the
// shared constructor. This is the one definition of append semantics —
// Store.Append and the shard coordinator's Cluster.Append both publish
// what it returns. Keys of pre-existing records are stable (collision
// suffixes depend only on records loaded before them) and new records
// get corpus-unique keys. Rebuilding runs the normalization from
// scratch, so the paper's max-normalization invariant — every behavior
// dimension ≤ 1.0 across the whole collection (§3.4) — holds however far
// the corpus grows: a new run that raises a dimension's maximum rescales
// every older point, it does not escape the unit cube. from names where
// the runs came from (e.g. a job ID) and becomes the Source of a corpus
// that had none. old is not modified.
func Grow(old *Snapshot, runs []*behavior.Run, from string) (*Snapshot, error) {
	if len(runs) == 0 {
		return nil, fmt.Errorf("corpus: nothing to append")
	}
	records := make([]Record, 0, len(old.Records)+len(runs))
	records = appendOKRecords(append(records, old.Records...), runs)
	source := old.Source
	if source == "" {
		source = from
	}
	snap, err := newSnapshot(records, source)
	if err != nil {
		return nil, fmt.Errorf("corpus: appending %d runs from %s: %w", len(runs), from, err)
	}
	return snap, nil
}

// NewSnapshotFromJournal builds a snapshot from checkpoint-journal
// entries, preserving failed/timeout/cancelled outcomes so the corpus
// accounts for every spec the campaign was asked to execute.
func NewSnapshotFromJournal(entries []sweep.JournalEntry, source string) (*Snapshot, error) {
	records := make([]Record, 0, len(entries))
	for _, e := range entries {
		rec := Record{
			Run: e.Run, Status: e.Status, Err: e.Err,
			Algorithm: string(e.Spec.Algorithm), SizeLabel: e.Spec.SizeLabel, Alpha: e.Spec.Alpha,
			Model: string(e.Spec.Model),
		}
		// A resumed-campaign journal marks restored runs "skipped"; for
		// serving they are measurements like any other.
		if rec.Status == behavior.StatusSkipped && rec.Run != nil {
			rec.Status = behavior.StatusOK
		}
		if rec.Run != nil {
			rec.Algorithm = rec.Run.Algorithm
			rec.SizeLabel = rec.Run.SizeLabel
			rec.Alpha = rec.Run.Alpha
			rec.Model = rec.Run.Model
		}
		records = append(records, rec)
	}
	return newSnapshot(records, source)
}

// NewSnapshotFromRecords builds a snapshot from pre-assembled records,
// e.g. a copy of another snapshot's. Keys are (re)assigned by the same
// deterministic first-wins-suffix rule as every other constructor, so a
// record list in canonical sequence order yields exactly the keys,
// normalization and index layout a load of the same records would. The
// records slice is retained and mutated (keys are written in place);
// pass a copy when the caller still shares it.
func NewSnapshotFromRecords(records []Record, source string) (*Snapshot, error) {
	return newSnapshot(records, source)
}

// LoadFile loads a snapshot from either corpus format: a runs JSON array
// (from `gcbench sweep -out`) or a JSONL checkpoint journal, detected by
// the first non-space byte.
func LoadFile(path string) (*Snapshot, error) {
	head, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	if len(head) == 0 {
		// A zero-byte corpus is a torn write (a crashed `sweep -out`, a
		// truncate-then-write editor), never a valid collection; refusing
		// here keeps a reload serving the previous snapshot instead of
		// publishing an empty corpus.
		return nil, fmt.Errorf("corpus: %s is empty (partial write?); refusing to load", path)
	}
	trimmed := strings.TrimLeft(string(head), " \t\r\n")
	if strings.HasPrefix(trimmed, "[") {
		runs, err := sweep.LoadRunsFile(path)
		if err != nil {
			return nil, fmt.Errorf("corpus: loading runs file %s: %w", path, err)
		}
		return NewSnapshotFromRuns(runs, path)
	}
	entries, err := sweep.LoadJournal(path)
	if err != nil {
		return nil, fmt.Errorf("corpus: loading journal %s: %w", path, err)
	}
	return NewSnapshotFromJournal(entries, path)
}

func newSnapshot(records []Record, source string) (*Snapshot, error) {
	if len(records) == 0 {
		return nil, fmt.Errorf("corpus: empty corpus from %s", source)
	}
	s := &Snapshot{
		Source:   source,
		LoadedAt: time.Now(),
		Records:  records,
		byKey:    make(map[string]int, len(records)),
		byAlg:    map[string][]int{},
		bySize:   map[string][]int{},
		byStatus: map[behavior.RunStatus][]int{},
		byModel:  map[string][]int{},
	}
	var okRuns, poolRuns []*behavior.Run
	for i := range s.Records {
		rec := &s.Records[i]
		key := KeyOfModel(rec.Model, rec.Algorithm, rec.SizeLabel, rec.Alpha)
		for n := 2; ; n++ {
			if _, taken := s.byKey[key]; !taken {
				break
			}
			key = fmt.Sprintf("%s_%d", KeyOfModel(rec.Model, rec.Algorithm, rec.SizeLabel, rec.Alpha), n)
		}
		rec.Key = key
		s.byKey[key] = i
		s.byAlg[rec.Algorithm] = append(s.byAlg[rec.Algorithm], i)
		s.bySize[rec.SizeLabel] = append(s.bySize[rec.SizeLabel], i)
		s.byStatus[rec.Status] = append(s.byStatus[rec.Status], i)
		s.byModel[behavior.EffectiveModel(rec.Model)] = append(s.byModel[behavior.EffectiveModel(rec.Model)], i)
		if rec.Status == behavior.StatusOK && rec.Run != nil {
			okRuns = append(okRuns, rec.Run)
			s.spaceRec = append(s.spaceRec, i)
			if PoolMember(rec) {
				poolRuns = append(poolRuns, rec.Run)
				s.poolRec = append(s.poolRec, i)
			}
		}
	}
	if len(okRuns) > 0 {
		space, err := behavior.NewSpace(okRuns)
		if err != nil {
			return nil, fmt.Errorf("corpus: %w", err)
		}
		s.Space = space
	}
	if len(poolRuns) > 0 {
		pool, err := behavior.NewSpace(poolRuns)
		if err != nil {
			return nil, fmt.Errorf("corpus: %w", err)
		}
		s.Pool = pool
	}
	return s, nil
}

// Lookup returns the record index for a key.
func (s *Snapshot) Lookup(key string) (int, bool) {
	i, ok := s.byKey[key]
	return i, ok
}

// Select returns the indices of records matching the filter, ascending.
// The smallest applicable index list narrows the candidates before the
// full predicate runs, so single-dimension queries never scan the corpus.
func (s *Snapshot) Select(f Filter) []int {
	var candidates []int
	if f.zero() {
		out := make([]int, len(s.Records))
		for i := range out {
			out[i] = i
		}
		return out
	}
	// Pick the narrowest index among the dimensions the filter restricts.
	narrow := func(lists [][]int) []int {
		var merged []int
		for _, l := range lists {
			merged = append(merged, l...)
		}
		sort.Ints(merged)
		return merged
	}
	best := -1
	consider := func(c []int) {
		if best < 0 || len(c) < best {
			best = len(c)
			candidates = c
		}
	}
	if len(f.Algorithms) > 0 {
		lists := make([][]int, 0, len(f.Algorithms))
		for _, a := range f.Algorithms {
			lists = append(lists, s.byAlg[a])
		}
		consider(narrow(lists))
	}
	if len(f.Sizes) > 0 {
		lists := make([][]int, 0, len(f.Sizes))
		for _, sz := range f.Sizes {
			lists = append(lists, s.bySize[sz])
		}
		consider(narrow(lists))
	}
	if len(f.Statuses) > 0 {
		lists := make([][]int, 0, len(f.Statuses))
		for _, st := range f.Statuses {
			lists = append(lists, s.byStatus[st])
		}
		consider(narrow(lists))
	}
	if len(f.Models) > 0 {
		lists := make([][]int, 0, len(f.Models))
		for _, m := range f.Models {
			lists = append(lists, s.byModel[behavior.EffectiveModel(m)])
		}
		consider(narrow(lists))
	}
	if candidates == nil {
		// Only an alpha restriction: scan.
		candidates = make([]int, len(s.Records))
		for i := range candidates {
			candidates[i] = i
		}
	}
	out := make([]int, 0, len(candidates))
	for _, i := range candidates {
		if s.matches(i, f) {
			out = append(out, i)
		}
	}
	return out
}

func (s *Snapshot) matches(i int, f Filter) bool {
	return f.Matches(&s.Records[i])
}

// Matches reports whether rec satisfies the filter — the single
// predicate shared by snapshot queries and the shard tier's scattered
// partial selects, so a distributed query can never diverge from a
// single-store scan.
func (f Filter) Matches(rec *Record) bool {
	if len(f.Algorithms) > 0 && !slices.Contains(f.Algorithms, rec.Algorithm) {
		return false
	}
	if len(f.Sizes) > 0 && !slices.Contains(f.Sizes, rec.SizeLabel) {
		return false
	}
	if len(f.Alphas) > 0 && !alphaMatch(f.Alphas, rec.Alpha) {
		return false
	}
	if len(f.Statuses) > 0 && !slices.Contains(f.Statuses, rec.Status) {
		return false
	}
	if len(f.Models) > 0 {
		m := behavior.EffectiveModel(rec.Model)
		found := false
		for _, v := range f.Models {
			if behavior.EffectiveModel(v) == m {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// PoolMember reports whether rec belongs to the §5.2 ensemble-design
// pool: a measured graph-varying run. Shared with the shard tier so
// scattered candidate sets agree exactly with PoolSelect.
func PoolMember(rec *Record) bool {
	return rec.Status == behavior.StatusOK && rec.Run != nil &&
		algorithms.Name(rec.Algorithm).GraphVarying()
}

// PoolSelect returns the Pool indices whose records match the filter's
// algorithm/size/alpha restrictions (status is implicitly ok — only
// measured runs enter the pool).
func (s *Snapshot) PoolSelect(f Filter) []int {
	if s.Pool == nil {
		return nil
	}
	f.Statuses = nil
	var out []int
	for pi, ri := range s.poolRec {
		if s.matches(ri, f) {
			out = append(out, pi)
		}
	}
	return out
}

// PoolRecord maps a Pool index back to its record.
func (s *Snapshot) PoolRecord(poolIdx int) *Record {
	return &s.Records[s.poolRec[poolIdx]]
}

// SpaceIndexOf returns the Space index of record i, or -1 when the record
// carries no measurement.
func (s *Snapshot) SpaceIndexOf(recIdx int) int {
	for si, ri := range s.spaceRec {
		if ri == recIdx {
			return si
		}
	}
	return -1
}

// OKCount returns the number of measured runs.
func (s *Snapshot) OKCount() int { return len(s.spaceRec) }

// PoolSize returns the ensemble-design pool size.
func (s *Snapshot) PoolSize() int { return len(s.poolRec) }

// Predictor returns the snapshot's behavior predictor, built once from
// the ok runs on first use. A query's Model narrows it to one execution
// model's runs.
func (s *Snapshot) Predictor() (*predict.Predictor, error) {
	s.predOnce.Do(func() {
		if s.Space == nil {
			s.predErr = fmt.Errorf("corpus: no measured runs to predict from")
			return
		}
		s.pred, s.predErr = predict.New(s.Space.Runs)
	})
	return s.pred, s.predErr
}

// Store publishes corpus snapshots to concurrent readers with atomic
// swap semantics. The zero value is not usable; construct with NewStore.
type Store struct {
	cur     atomic.Pointer[Snapshot]
	version atomic.Int64
	// pubMu serializes Append's read-modify-write publications; readers
	// never take it.
	pubMu sync.Mutex
}

// NewStore returns a store serving the given initial snapshot.
func NewStore(initial *Snapshot) *Store {
	st := &Store{}
	st.Swap(initial)
	return st
}

// Snapshot returns the current corpus version. The result is immutable;
// callers may hold it across an entire request while Swap publishes a
// newer version concurrently.
func (st *Store) Snapshot() *Snapshot { return st.cur.Load() }

// Swap atomically publishes snap as the current version, assigning it the
// next version number, and returns the previous snapshot (nil on first
// publication).
func (st *Store) Swap(snap *Snapshot) *Snapshot {
	snap.Version = st.version.Add(1)
	return st.cur.Swap(snap)
}

// Append publishes the current snapshot grown by runs (see Grow for the
// renormalization rule).
//
// The swap is atomic: readers holding the previous snapshot finish
// against a consistent view, and concurrent Append publishers are
// serialized so no appended run is lost.
func (st *Store) Append(runs []*behavior.Run, from string) (*Snapshot, error) {
	st.pubMu.Lock()
	defer st.pubMu.Unlock()
	cur := st.Snapshot()
	if cur == nil {
		return nil, fmt.Errorf("corpus: store has no published snapshot")
	}
	snap, err := Grow(cur, runs, from)
	if err != nil {
		return nil, err
	}
	st.Swap(snap)
	return snap, nil
}
