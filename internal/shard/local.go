package shard

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"gcbench/internal/corpus"
)

// partSnapshot is one immutable version of a shard's partition: the
// shard's entries in ascending sequence order plus a key index. Strictly
// read-only after construction, so replicas can serve it lock-free.
type partSnapshot struct {
	version uint64
	entries []Entry
	byKey   map[string]int // key → index into entries
	pool    []bool         // entries[i] is an ensemble-pool member
}

// replica is one read replica: an atomically swappable pointer to the
// partition snapshot it serves. In-process the replicas share the
// immutable snapshot memory; over a wire each would hold its own copy,
// which is why publishes install replicas one by one instead of assuming
// shared state.
type replica struct {
	snap atomic.Pointer[partSnapshot]
}

// LocalShard is the in-process ShardClient: R replicas over a
// consistent-hash partition, versioned publishes serialized by a
// per-shard mutex (never a cluster-wide lock), reads served round-robin
// from any replica without locking.
type LocalShard struct {
	id       int
	replicas []*replica
	// next picks the serving replica round-robin, spreading read load
	// the way a wire client would across replica endpoints.
	next atomic.Uint64
	// pubMu serializes publishers against each other; readers never
	// take it — they load a replica's snapshot pointer and are done.
	pubMu   sync.Mutex
	version atomic.Uint64
	// poolMember classifies records into the ensemble-design pool; the
	// cluster injects it so shard and coordinator agree on membership.
	poolMember func(*corpus.Record) bool
}

// NewLocalShard builds shard id with the given replica count (min 1).
func NewLocalShard(id, replicas int, poolMember func(*corpus.Record) bool) *LocalShard {
	if replicas < 1 {
		replicas = 1
	}
	s := &LocalShard{id: id, poolMember: poolMember}
	for i := 0; i < replicas; i++ {
		s.replicas = append(s.replicas, &replica{})
	}
	return s
}

// read returns the serving replica's current snapshot (nil before the
// first publish).
func (s *LocalShard) read() *partSnapshot {
	r := s.replicas[s.next.Add(1)%uint64(len(s.replicas))]
	return r.snap.Load()
}

// Info implements ShardClient.
func (s *LocalShard) Info(_ context.Context, _ InfoRequest) (InfoResponse, error) {
	resp := InfoResponse{Shard: s.id, Replicas: len(s.replicas)}
	if snap := s.read(); snap != nil {
		resp.Version = snap.version
		resp.Records = len(snap.entries)
	}
	return resp, nil
}

// Get implements ShardClient.
func (s *LocalShard) Get(_ context.Context, req GetRequest) (GetResponse, error) {
	snap := s.read()
	if snap == nil {
		return GetResponse{}, fmt.Errorf("shard %d: no snapshot published", s.id)
	}
	resp := GetResponse{Version: snap.version}
	if i, ok := snap.byKey[req.Key]; ok {
		resp.Found = true
		resp.Entry = snap.entries[i]
	}
	return resp, nil
}

// Select implements ShardClient: the shard-local leg of a scatter-gather
// query. Entries are stored in ascending sequence order, so the response
// is too — the coordinator's merge is a k-way append, not a sort.
func (s *LocalShard) Select(ctx context.Context, req SelectRequest) (SelectResponse, error) {
	snap := s.read()
	if snap == nil {
		return SelectResponse{}, fmt.Errorf("shard %d: no snapshot published", s.id)
	}
	if err := ctx.Err(); err != nil {
		return SelectResponse{}, err
	}
	f := req.Filter
	if req.PoolOnly {
		// Pool membership already implies status ok; mirroring
		// corpus.PoolSelect, the status restriction is ignored.
		f.Statuses = nil
	}
	resp := SelectResponse{Version: snap.version}
	for i := range snap.entries {
		if req.PoolOnly && !snap.pool[i] {
			continue
		}
		if f.Matches(&snap.entries[i].Record) {
			resp.Seqs = append(resp.Seqs, snap.entries[i].Seq)
		}
	}
	return resp, nil
}

// Publish implements ShardClient: build one immutable snapshot from the
// previous one plus the request, then install it on every replica before
// acknowledging. Serialized per shard; concurrent readers keep serving
// whichever snapshot their replica pointed at when they loaded it.
func (s *LocalShard) Publish(_ context.Context, req PublishRequest) (PublishResponse, error) {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()

	var entries []Entry
	if req.Replace {
		entries = append([]Entry(nil), req.Entries...)
	} else {
		cur := s.replicas[0].snap.Load()
		if cur == nil {
			return PublishResponse{}, fmt.Errorf("shard %d: append before initial publish", s.id)
		}
		entries = make([]Entry, 0, len(cur.entries)+len(req.Entries))
		entries = append(entries, cur.entries...)
		entries = append(entries, req.Entries...)
	}
	for i := 1; i < len(entries); i++ {
		if entries[i].Seq <= entries[i-1].Seq {
			return PublishResponse{}, fmt.Errorf("shard %d: publish entries out of sequence order (%d after %d)",
				s.id, entries[i].Seq, entries[i-1].Seq)
		}
	}
	snap := &partSnapshot{
		entries: entries,
		byKey:   make(map[string]int, len(entries)),
		pool:    make([]bool, len(entries)),
	}
	for i := range entries {
		if entries[i].Record.Key == "" {
			return PublishResponse{}, fmt.Errorf("shard %d: entry seq %d has no key (keys are assigned by the coordinator)",
				s.id, entries[i].Seq)
		}
		if prev, dup := snap.byKey[entries[i].Record.Key]; dup {
			return PublishResponse{}, fmt.Errorf("shard %d: duplicate key %q (seqs %d and %d)",
				s.id, entries[i].Record.Key, entries[prev].Seq, entries[i].Seq)
		}
		snap.byKey[entries[i].Record.Key] = i
		snap.pool[i] = s.poolMember(&entries[i].Record)
	}
	// The version moves only now that the snapshot is valid: a rejected
	// publish must leave it alone, or replicas with different rejection
	// histories acknowledge one publish at different versions.
	//
	// Epoch fence: never publish below the coordinator's MinVersion. A
	// fresh process (version 0) rehydrating after a crash lands at the
	// fence — strictly above every version it served before — instead
	// of restarting at 1 and aliasing stale cache entries.
	snap.version = max(s.version.Load()+1, req.MinVersion)
	s.version.Store(snap.version)
	for _, r := range s.replicas {
		r.snap.Store(snap)
	}
	return PublishResponse{Version: snap.version, Records: len(entries)}, nil
}
