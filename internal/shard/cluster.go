package shard

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gcbench/internal/behavior"
	"gcbench/internal/corpus"
	"gcbench/internal/obs"
	"gcbench/internal/obs/otrace"
)

// Options parameterizes a Cluster.
type Options struct {
	// Shards is the partition count (default 1).
	Shards int
	// Replicas is the read-replica count per shard (default 1). In
	// process, R > 1 puts a ReplicaSet of R LocalShards behind each
	// shard — each replica holds its own snapshot, as over the wire.
	Replicas int
	// Registry receives the gcbench_shard_* metrics (default obs.Default()).
	Registry *obs.Registry
	// Clients, when non-empty, supplies one logical transport per shard
	// — e.g. a ReplicaSet of RemoteShards over TCP — instead of the
	// default in-process LocalShards. len(Clients) must equal Shards
	// (or Shards may be left 0 to derive it). Replicas then only
	// describes the deployment for /statusz; the replica fan-out lives
	// inside the injected clients.
	Clients []ShardClient
}

// View is one consistent, immutable global state of the cluster: the
// merged snapshot plus the per-shard version vector it was built from.
// Readers load the current view once and use it for a whole request;
// publishes install a fresh view atomically.
type View struct {
	// Merged is the cluster-wide corpus snapshot, rebuilt through the
	// same internal/corpus constructors a single store uses, so its
	// normalization maxima, canonical record order, key assignment,
	// ensemble pool and predictor are bit-identical to a single-store
	// load of the same records. Merged.Version is the cluster epoch.
	Merged *corpus.Snapshot
	// VV is the monotonic per-shard version vector at build time.
	VV []uint64
	// NormEpoch identifies the normalization regime: it advances only
	// when a publish changes the corpus-wide maxima (or the record set
	// they are computed over in a way that rescales points). Responses
	// that depend on one shard plus the normalization can be cached
	// across publishes of unrelated shards by keying on
	// (owner shard version, NormEpoch).
	NormEpoch int64

	// poolIdxBySeq maps a record's global sequence number to its index
	// in Merged.Pool (-1 when the record is not a pool member).
	poolIdxBySeq []int
}

// Epoch returns the view's cluster epoch (Merged.Version): the number
// of publishes — initial load, appends, reloads — the cluster has
// performed. A 1-shard cluster's epoch equals a single store's version
// for the same publish history, which the differential harness relies
// on.
func (v *View) Epoch() int64 { return v.Merged.Version }

// VVString renders the version vector canonically ("3.1.4.2") — the
// serving layer's cache-key component for whole-corpus responses.
func (v *View) VVString() string {
	parts := make([]string, len(v.VV))
	for i, ver := range v.VV {
		parts[i] = strconv.FormatUint(ver, 10)
	}
	return strings.Join(parts, ".")
}

// PoolIndexOfSeq maps a global sequence number to the merged pool index
// (-1 when the record is not a pool member, or when seq is outside this
// view — a caller racing a publish can hold a seq from a newer view
// than the one it loaded, and must treat it as not-yet-visible rather
// than panic).
func (v *View) PoolIndexOfSeq(seq int) int {
	if seq < 0 || seq >= len(v.poolIdxBySeq) {
		return -1
	}
	return v.poolIdxBySeq[seq]
}

// Cluster coordinates N consistent-hash shards with R replicas each:
// global key assignment, versioned per-shard hot-publish, the merged
// global view, and scatter-gather query execution. Construct with New;
// the zero value is not usable.
type Cluster struct {
	opts   Options
	ring   *Ring
	shards []ShardClient

	view atomic.Pointer[View]
	// pubMu serializes publishers (Load, Append, Reload, Rehydrate)
	// against each other. Readers never take it: they load the view
	// pointer and the shards' snapshot pointers, both atomic.
	pubMu sync.Mutex

	mFanouts  *obs.Counter
	mShardLat *obs.HistogramVec
	mRPCErrs  *obs.CounterVec
}

// shardLatencyBuckets resolve the in-process microsecond regime and the
// wire regime: a remote shard RPC on a loaded network lands in
// milliseconds-to-seconds, and bounded retries on a flapping process
// push the tail past the old 1s ceiling — without the 2.5/10/30s
// buckets every wire-mode latency collapses into +Inf and the histogram
// tail goes blind exactly when it matters.
var shardLatencyBuckets = []float64{
	1e-6, 5e-6, 25e-6, 100e-6, 500e-6, .002, .01, .05, .25, 1, 2.5, 10, 30,
}

// New builds an empty cluster: ring and shards exist, but nothing is
// published yet, so Ready reports false and there is no View until
// Load. This unpublished state is exactly what /readyz reports 503 for.
func New(opts Options) (*Cluster, error) {
	if opts.Shards == 0 {
		opts.Shards = max(1, len(opts.Clients))
	}
	if opts.Replicas == 0 {
		opts.Replicas = 1
	}
	if opts.Shards < 1 || opts.Replicas < 1 {
		return nil, fmt.Errorf("shard: need ≥ 1 shard and ≥ 1 replica, got %d × %d", opts.Shards, opts.Replicas)
	}
	if len(opts.Clients) > 0 && len(opts.Clients) != opts.Shards {
		return nil, fmt.Errorf("shard: %d injected clients for %d shards", len(opts.Clients), opts.Shards)
	}
	if opts.Registry == nil {
		opts.Registry = obs.Default()
	}
	ring, err := NewRing(opts.Shards)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		opts: opts,
		ring: ring,
		mFanouts: opts.Registry.Counter("gcbench_shard_fanouts_total",
			"Scatter-gather fan-outs executed across the shard tier."),
		mShardLat: opts.Registry.HistogramVec("gcbench_shard_request_seconds",
			"Shard RPC latency in seconds by shard and operation.",
			[]string{"shard", "op"}, shardLatencyBuckets),
		mRPCErrs: opts.Registry.CounterVec(rpcErrorsMetric,
			rpcErrorsHelp, []string{"shard", "kind"}),
	}
	c.shards = append(c.shards, opts.Clients...)
	for i := len(c.shards); i < opts.Shards; i++ {
		// One replica routes straight to the LocalShard; more are the same
		// ReplicaSet fan-out the wire deployment uses.
		var client ShardClient = NewLocalShard(i)
		if opts.Replicas > 1 {
			replicas := []ShardClient{client}
			for len(replicas) < opts.Replicas {
				replicas = append(replicas, NewLocalShard(i))
			}
			if client, err = NewReplicaSet(i, replicas, opts.Registry); err != nil {
				return nil, err
			}
		}
		c.shards = append(c.shards, client)
	}
	return c, nil
}

// timedCall is the one instrumented shard call: fn's latency lands in
// gcbench_shard_request_seconds{shard,op} and a failure counts in
// gcbench_shard_rpc_errors_total{shard,kind=op}.
func timedCall[Resp any](c *Cluster, shard int, op string, fn func() (Resp, error)) (Resp, error) {
	label := strconv.Itoa(shard)
	begin := time.Now()
	resp, err := fn()
	c.mShardLat.With(label, op).Observe(time.Since(begin).Seconds())
	if err != nil {
		c.mRPCErrs.With(label, op).Inc()
	}
	return resp, err
}

// rpcErrorsMetric is shared by the Cluster (logical call failures) and
// the wire transports (per-attempt and per-replica failures), so one
// scrape shows the whole failure picture by shard and kind.
const (
	rpcErrorsMetric = "gcbench_shard_rpc_errors_total"
	rpcErrorsHelp   = "Shard RPC failures by shard and kind (logical op, per-replica attempt, or transport retry)."
)

// Shards returns the shard count.
func (c *Cluster) Shards() int { return c.opts.Shards }

// Replicas returns the per-shard replica count.
func (c *Cluster) Replicas() int { return c.opts.Replicas }

// View returns the current global view (nil before Load).
func (c *Cluster) View() *View { return c.view.Load() }

// Ready reports whether every shard has published at least one version,
// every replica process is reachable, and a global view exists — the
// /readyz criterion — plus the per-shard serving state for the probe's
// diagnostic payload. A shard with a dead replica keeps answering reads
// through failover, but readiness stays false until the supervisor
// restores the replica: the probe's job is to say "degraded", the
// survivors' job is to keep the reads flowing meanwhile.
func (c *Cluster) Ready(ctx context.Context) (bool, []InfoResponse) {
	infos := make([]InfoResponse, len(c.shards))
	ready := c.View() != nil
	for i, s := range c.shards {
		info, err := s.Info(ctx, InfoRequest{})
		if err != nil || info.Version == 0 || info.Down > 0 {
			ready = false
		}
		info.Shard = i
		infos[i] = info
	}
	return ready, infos
}

// Load partitions snap's records across the shards by consistent hash
// of their (already assigned) keys, publishes every partition — every
// shard gets a publish, even an empty one, so readiness is uniform —
// and installs the initial global view. The snapshot is retained as the
// merged view; the cluster owns it from here on.
func (c *Cluster) Load(ctx context.Context, snap *corpus.Snapshot) (*View, error) {
	c.pubMu.Lock()
	defer c.pubMu.Unlock()
	return c.publishLocked(ctx, snap, 0, true, -1)
}

// Append publishes the merged view grown by runs — corpus.Grow defines
// the semantics (re-keyed and renormalized globally: a new run that
// raises a dimension maximum rescales every older point) — with only
// the shards owning new records republished. Unaffected shards keep
// serving their snapshots untouched — appends propagate with per-shard
// publishes, never a cluster-wide reader-blocking lock.
func (c *Cluster) Append(ctx context.Context, runs []*behavior.Run, from string) (*View, error) {
	c.pubMu.Lock()
	defer c.pubMu.Unlock()
	cur := c.View()
	if cur == nil {
		return nil, fmt.Errorf("shard: cluster has no published view")
	}
	merged, err := corpus.Grow(cur.Merged, runs, from)
	if err != nil {
		return nil, err
	}
	return c.publishLocked(ctx, merged, len(cur.Merged.Records), false, -1)
}

// Reload re-reads the merged view's source file and replaces every
// partition with the fresh load.
func (c *Cluster) Reload(ctx context.Context) (*View, error) {
	c.pubMu.Lock()
	defer c.pubMu.Unlock()
	cur := c.View()
	if cur == nil || cur.Merged.Source == "" {
		return nil, fmt.Errorf("shard: cluster has no reloadable source")
	}
	snap, err := corpus.LoadFile(cur.Merged.Source)
	if err != nil {
		return nil, err
	}
	return c.publishLocked(ctx, snap, 0, true, -1)
}

// Rehydrate restores a restarted shard from the coordinator's current
// merged view: the shard's whole partition is republished (Replace, to
// every replica) with the epoch fence, and a new view installs with
// that shard's version-vector entry advanced. Restart amnesia is the
// failure this heals — a shard process that crashed lost both its
// in-memory partition and its version counter; the republish restores
// the exact records the merged view says it owns (including every
// hot-publish since initial load, which the on-disk corpus source alone
// would not), and the fence lands it strictly above every version it
// served before.
//
// The merged snapshot itself is unchanged — the corpus did not move, so
// the cluster epoch (corpusVersion) and NormEpoch stay put and every
// /api body renders exactly as before the crash. Only the version
// vector advances, which retires the dead process's cache keys: caches
// keyed on (VV) or (owner version, NormEpoch) can never serve a body
// the restarted shard no longer backs.
func (c *Cluster) Rehydrate(ctx context.Context, shardID int) (*View, error) {
	if shardID < 0 || shardID >= len(c.shards) {
		return nil, fmt.Errorf("shard: rehydrate shard %d of %d", shardID, len(c.shards))
	}
	c.pubMu.Lock()
	defer c.pubMu.Unlock()
	cur := c.View()
	if cur == nil {
		return nil, fmt.Errorf("shard: cluster has no published view to rehydrate from")
	}
	return c.publishLocked(ctx, cur.Merged, 0, true, shardID)
}

// publishLocked is the one publish path; the caller holds pubMu. It
// partitions merged.Records[from:] by ring owner, publishes — in
// parallel, one RPC per shard, each serialized only by that shard's own
// publish mutex — to shard `only`, or with only < 0 to every shard
// (replace) or every shard that owns a new record (append), and
// installs the next view.
//
// Every publish carries the epoch fence — the last acknowledged version
// + 1 — so replicas acknowledge in lockstep and a restarted process can
// never regress the version vector; the vector's new entries are the
// versions the publishes acknowledged. Shards are published before the
// view swaps, so every key a view knows is fetchable from its owner;
// any failure aborts the swap and readers keep the previous consistent
// view (the cluster then needs a Reload to re-establish partition/view
// agreement).
//
// Republishing the snapshot the current view already holds (rehydrate)
// keeps the cluster epoch and NormEpoch; any other snapshot advances
// the epoch, and NormEpoch with it unless the normalization is
// unchanged.
func (c *Cluster) publishLocked(ctx context.Context, merged *corpus.Snapshot, from int, replace bool, only int) (*View, error) {
	prev := c.View()
	v := &View{
		Merged:       merged,
		VV:           make([]uint64, len(c.shards)),
		poolIdxBySeq: make([]int, len(merged.Records)),
	}
	if prev != nil {
		copy(v.VV, prev.VV)
	}
	parts := make([][]Entry, len(c.shards))
	for seq := from; seq < len(merged.Records); seq++ {
		owner := c.ring.Owner(merged.Records[seq].Key)
		parts[owner] = append(parts[owner], Entry{Seq: seq, Record: merged.Records[seq]})
	}
	for seq := range v.poolIdxBySeq {
		v.poolIdxBySeq[seq] = -1
	}
	for pi := 0; pi < merged.PoolSize(); pi++ {
		if seq, ok := merged.Lookup(merged.PoolRecord(pi).Key); ok {
			v.poolIdxBySeq[seq] = pi
		}
	}

	op := "publish"
	if only >= 0 {
		op = "rehydrate"
	}
	var wg sync.WaitGroup
	errs := make([]error, len(c.shards))
	for i := range c.shards {
		if (only >= 0 && i != only) || (!replace && len(parts[i]) == 0) {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ack, err := timedCall(c, i, op, func() (PublishResponse, error) {
				return c.shards[i].Publish(ctx, PublishRequest{
					Replace: replace, Entries: parts[i], MinVersion: v.VV[i] + 1,
				})
			})
			v.VV[i], errs[i] = ack.Version, err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard %d: %s: %w", i, op, err)
		}
	}

	switch {
	case prev == nil:
		merged.Version, v.NormEpoch = 1, 1
	case merged == prev.Merged:
		v.NormEpoch = prev.NormEpoch
	default:
		merged.Version = prev.Epoch() + 1
		v.NormEpoch = merged.Version
		if sameNormalization(prev.Merged, merged) {
			v.NormEpoch = prev.NormEpoch
		}
	}
	c.view.Store(v)
	return v, nil
}

// sameNormalization reports whether two merged snapshots normalize
// points identically: equal space and pool maxima. A publish that
// leaves the maxima untouched cannot move any pre-existing record's
// normalized coordinates, so responses depending only on one record
// plus the normalization survive it.
func sameNormalization(a, b *corpus.Snapshot) bool {
	sameSpace := func(x, y *behavior.Space) bool {
		if (x == nil) != (y == nil) {
			return false
		}
		return x == nil || x.Max == y.Max
	}
	return sameSpace(a.Space, b.Space) && sameSpace(a.Pool, b.Pool)
}

// Owner returns the shard index owning key under the current ring.
func (c *Cluster) Owner(key string) int { return c.ring.Owner(key) }

// Get routes a single-record read to the key's owning shard (any
// replica answers from its own snapshot).
func (c *Cluster) Get(ctx context.Context, key string) (GetResponse, error) {
	owner := c.ring.Owner(key)
	ctx, sp := otrace.StartSpan(ctx, fmt.Sprintf("shard %d get", owner), "shard",
		otrace.Int("shard", owner), otrace.String("key", key))
	resp, err := timedCall(c, owner, "get", func() (GetResponse, error) {
		return c.shards[owner].Get(ctx, GetRequest{Key: key})
	})
	if err != nil {
		sp.Fail(err.Error())
	}
	sp.End()
	return resp, err
}

// Scatter fans a filter out to every shard in parallel, gathers each
// shard's partial result set, and merges them into one ascending
// global sequence list — identical to the order a single-store scan
// would produce. poolOnly restricts matches to ensemble-pool members
// (the design search's candidate scatter).
func (c *Cluster) Scatter(ctx context.Context, f corpus.Filter, poolOnly bool) ([]int, error) {
	c.mFanouts.Inc()
	op := "select"
	if poolOnly {
		op = "candidates"
	}
	ctx, sp := otrace.StartSpan(ctx, "scatter "+op, "scatter",
		otrace.Int("shards", len(c.shards)))
	defer sp.End()

	var wg sync.WaitGroup
	partial := make([][]int, len(c.shards))
	errs := make([]error, len(c.shards))
	for i := range c.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sctx, ssp := otrace.StartSpan(ctx, fmt.Sprintf("shard %d %s", i, op), "shard",
				otrace.Int("shard", i))
			begin := time.Now()
			resp, err := c.shards[i].Select(sctx, SelectRequest{Filter: f, PoolOnly: poolOnly})
			c.mShardLat.With(strconv.Itoa(i), op).Observe(time.Since(begin).Seconds())
			if err != nil {
				ssp.Fail(err.Error())
			} else {
				ssp.SetAttr("matches", len(resp.Seqs))
			}
			ssp.End()
			partial[i], errs[i] = resp.Seqs, err
		}(i)
	}
	wg.Wait()
	total := 0
	for i := range c.shards {
		if errs[i] != nil {
			c.mRPCErrs.With(strconv.Itoa(i), op).Inc()
			sp.Fail(errs[i].Error())
			return nil, fmt.Errorf("shard %d: select: %w", i, errs[i])
		}
		total += len(partial[i])
	}
	merged := make([]int, 0, total)
	for _, p := range partial {
		merged = append(merged, p...)
	}
	sort.Ints(merged)
	sp.SetAttr("matches", total)
	return merged, nil
}
