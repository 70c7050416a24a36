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
// read-only after construction, so it is served lock-free.
type partSnapshot struct {
	version uint64
	entries []Entry
	byKey   map[string]int // key → index into entries
	pool    []bool         // entries[i] is an ensemble-pool member
}

// LocalShard is the in-process ShardClient and the partition a
// standalone shard process serves: one replica endpoint over one
// consistent-hash partition. Publishes are versioned and serialized by
// a per-shard mutex (never a cluster-wide lock); reads load the current
// snapshot pointer and never lock. R replicas of a shard are R
// LocalShards behind a ReplicaSet, in process or one per OS process.
type LocalShard struct {
	id   int
	snap atomic.Pointer[partSnapshot]
	// pubMu serializes publishers against each other; readers never
	// take it.
	pubMu sync.Mutex
}

// NewLocalShard builds an empty replica endpoint of shard id (version
// 0, nothing published).
func NewLocalShard(id int) *LocalShard { return &LocalShard{id: id} }

// Info implements ShardClient.
func (s *LocalShard) Info(_ context.Context, _ InfoRequest) (InfoResponse, error) {
	resp := InfoResponse{Shard: s.id, Replicas: 1}
	if snap := s.snap.Load(); snap != nil {
		resp.Version = snap.version
		resp.Records = len(snap.entries)
	}
	return resp, nil
}

// Get implements ShardClient.
func (s *LocalShard) Get(_ context.Context, req GetRequest) (GetResponse, error) {
	snap := s.snap.Load()
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
	snap := s.snap.Load()
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
// previous one plus the request, then install it before acknowledging.
// Serialized per shard; concurrent readers keep serving whichever
// snapshot they loaded.
func (s *LocalShard) Publish(_ context.Context, req PublishRequest) (PublishResponse, error) {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()

	cur := s.snap.Load()
	var entries []Entry
	if req.Replace {
		entries = append([]Entry(nil), req.Entries...)
	} else if cur == nil {
		return PublishResponse{}, fmt.Errorf("shard %d: append before initial publish", s.id)
	} else {
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
		snap.pool[i] = corpus.PoolMember(&entries[i].Record)
	}
	// The version lives in the installed snapshot, so it moves only now
	// that the new one is valid: a rejected publish must leave it alone,
	// or replicas with different rejection histories acknowledge one
	// publish at different versions.
	//
	// Epoch fence: never publish below the coordinator's MinVersion. A
	// fresh process (version 0) rehydrating after a crash lands at the
	// fence — strictly above every version it served before — instead
	// of restarting at 1 and aliasing stale cache entries.
	snap.version = max(1, req.MinVersion)
	if cur != nil {
		snap.version = max(cur.version+1, req.MinVersion)
	}
	s.snap.Store(snap)
	return PublishResponse{Version: snap.version, Records: len(entries)}, nil
}
