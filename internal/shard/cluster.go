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
	// Replicas is the read-replica count per shard (default 1).
	Replicas int
	// VirtualNodes is the ring's per-shard virtual-node count
	// (default DefaultVirtualNodes).
	VirtualNodes int
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
	// BuiltAt is the view's construction time.
	BuiltAt time.Time

	// poolIdxBySeq maps a record's global sequence number to its index
	// in Merged.Pool (-1 when the record is not a pool member).
	poolIdxBySeq []int
	// ownerBySeq maps a record's sequence number to its owning shard.
	ownerBySeq []int
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

// OwnerOfSeq returns the shard owning the record at seq, or -1 when seq
// is outside this view (see PoolIndexOfSeq).
func (v *View) OwnerOfSeq(seq int) int {
	if seq < 0 || seq >= len(v.ownerBySeq) {
		return -1
	}
	return v.ownerBySeq[seq]
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
	// pubMu serializes publishers (Load, Append, Reload) against each
	// other. Readers never take it: they load the view pointer and the
	// shard replicas' snapshot pointers, both atomic.
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
	ring, err := NewRing(opts.Shards, opts.VirtualNodes)
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
	if len(opts.Clients) > 0 {
		c.shards = append(c.shards, opts.Clients...)
	} else {
		for i := 0; i < opts.Shards; i++ {
			c.shards = append(c.shards, NewLocalShard(i, opts.Replicas, corpus.PoolMember))
		}
	}
	return c, nil
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

// Ring returns the cluster's consistent-hash ring.
func (c *Cluster) Ring() *Ring { return c.ring }

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
	return c.replaceLocked(ctx, snap)
}

// replaceLocked implements Load and Reload: full-partition Replace
// publishes to every shard, then a fresh view.
func (c *Cluster) replaceLocked(ctx context.Context, snap *corpus.Snapshot) (*View, error) {
	parts := make([][]Entry, len(c.shards))
	for seq := range snap.Records {
		owner := c.ring.Owner(snap.Records[seq].Key)
		parts[owner] = append(parts[owner], Entry{Seq: seq, Record: snap.Records[seq]})
	}
	if err := c.publishAll(ctx, parts, true, nil); err != nil {
		return nil, err
	}
	return c.installView(ctx, snap)
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
	old := cur.Merged
	merged, err := corpus.Grow(old, runs, from)
	if err != nil {
		return nil, err
	}
	parts := make([][]Entry, len(c.shards))
	for seq := len(old.Records); seq < len(merged.Records); seq++ {
		owner := c.ring.Owner(merged.Records[seq].Key)
		parts[owner] = append(parts[owner], Entry{Seq: seq, Record: merged.Records[seq]})
	}
	affected := make([]bool, len(c.shards))
	for i := range parts {
		affected[i] = len(parts[i]) > 0
	}
	if err := c.publishAll(ctx, parts, false, affected); err != nil {
		return nil, err
	}
	return c.installView(ctx, merged)
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
	return c.replaceLocked(ctx, snap)
}

// publishAll pushes partitions to their shards in parallel (one RPC per
// shard, each serialized only by that shard's own publish mutex). With
// affected non-nil, only flagged shards are published (append); nil
// publishes every shard (replace). Every publish carries the epoch
// fence — last acknowledged version + 1 — so replicas acknowledge in
// lockstep and restarted processes can never regress the version
// vector. Any failure aborts the view swap, so readers keep the
// previous consistent view; the cluster then needs a Reload to
// re-establish partition/view agreement.
func (c *Cluster) publishAll(ctx context.Context, parts [][]Entry, replace bool, affected []bool) error {
	fence := c.fences()
	var wg sync.WaitGroup
	errs := make([]error, len(c.shards))
	for i := range c.shards {
		if affected != nil && !affected[i] {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			begin := time.Now()
			_, err := c.shards[i].Publish(ctx, PublishRequest{
				Replace: replace, Entries: parts[i], MinVersion: fence[i],
			})
			c.mShardLat.With(strconv.Itoa(i), "publish").Observe(time.Since(begin).Seconds())
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			c.mRPCErrs.With(strconv.Itoa(i), "publish").Inc()
			return fmt.Errorf("shard %d: publish: %w", i, err)
		}
	}
	return nil
}

// fences returns the per-shard publish fence: the last version the
// coordinator saw acknowledged, plus one. Called with pubMu held.
func (c *Cluster) fences() []uint64 {
	fence := make([]uint64, len(c.shards))
	if cur := c.View(); cur != nil {
		for i, v := range cur.VV {
			fence[i] = v + 1
		}
	} else {
		for i := range fence {
			fence[i] = 1
		}
	}
	return fence
}

// installView assembles and atomically publishes the next global view
// from the current shard versions and the freshly merged snapshot.
// Shards are already published when this runs, so every key the view
// knows is fetchable from its owner.
func (c *Cluster) installView(ctx context.Context, merged *corpus.Snapshot) (*View, error) {
	prev := c.View()
	var epoch int64 = 1
	if prev != nil {
		epoch = prev.Epoch() + 1
	}
	merged.Version = epoch
	vv := make([]uint64, len(c.shards))
	for i, s := range c.shards {
		info, err := s.Info(ctx, InfoRequest{})
		if err != nil {
			c.mRPCErrs.With(strconv.Itoa(i), "info").Inc()
			return nil, fmt.Errorf("shard %d: info: %w", i, err)
		}
		vv[i] = info.Version
	}
	v := &View{
		Merged:       merged,
		VV:           vv,
		NormEpoch:    epoch,
		BuiltAt:      time.Now(),
		poolIdxBySeq: make([]int, len(merged.Records)),
		ownerBySeq:   make([]int, len(merged.Records)),
	}
	for seq := range v.poolIdxBySeq {
		v.poolIdxBySeq[seq] = -1
		v.ownerBySeq[seq] = c.ring.Owner(merged.Records[seq].Key)
	}
	for pi := 0; pi < merged.PoolSize(); pi++ {
		if seq, ok := merged.Lookup(merged.PoolRecord(pi).Key); ok {
			v.poolIdxBySeq[seq] = pi
		}
	}
	if prev != nil && sameNormalization(prev.Merged, merged) {
		v.NormEpoch = prev.NormEpoch
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
	begin := time.Now()
	resp, err := c.shards[owner].Get(ctx, GetRequest{Key: key})
	c.mShardLat.With(strconv.Itoa(owner), "get").Observe(time.Since(begin).Seconds())
	if err != nil {
		c.mRPCErrs.With(strconv.Itoa(owner), "get").Inc()
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
	var part []Entry
	for seq := range cur.Merged.Records {
		if cur.ownerBySeq[seq] == shardID {
			part = append(part, Entry{Seq: seq, Record: cur.Merged.Records[seq]})
		}
	}
	begin := time.Now()
	_, err := c.shards[shardID].Publish(ctx, PublishRequest{
		Replace: true, Entries: part, MinVersion: cur.VV[shardID] + 1,
	})
	c.mShardLat.With(strconv.Itoa(shardID), "rehydrate").Observe(time.Since(begin).Seconds())
	if err != nil {
		c.mRPCErrs.With(strconv.Itoa(shardID), "rehydrate").Inc()
		return nil, fmt.Errorf("shard %d: rehydrate: %w", shardID, err)
	}
	info, err := c.shards[shardID].Info(ctx, InfoRequest{})
	if err != nil {
		c.mRPCErrs.With(strconv.Itoa(shardID), "info").Inc()
		return nil, fmt.Errorf("shard %d: info after rehydrate: %w", shardID, err)
	}
	vv := append([]uint64(nil), cur.VV...)
	vv[shardID] = info.Version
	v := &View{
		Merged:       cur.Merged,
		VV:           vv,
		NormEpoch:    cur.NormEpoch,
		BuiltAt:      time.Now(),
		poolIdxBySeq: cur.poolIdxBySeq,
		ownerBySeq:   cur.ownerBySeq,
	}
	c.view.Store(v)
	return v, nil
}
