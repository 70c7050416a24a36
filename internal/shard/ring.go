// Package shard is the sharded, replicated corpus serving tier, in four
// layers: a replica endpoint (LocalShard in process, RemoteShard over
// TCP) holds one immutable snapshot of one partition; a ReplicaSet —
// the only replica mechanism — puts R endpoints of a shard behind one
// client with read failover; a Cluster splits the corpus across N
// shards by consistent hash of record key and coordinates versioned
// hot-publish and scatter-gather queries; a Supervisor keeps spawned
// shard processes alive.
//
// The shard boundary is the RPC-shaped ShardClient interface: every
// method takes a context and exchanges JSON-serializable request/
// response structs, so endpoint, set and transport are interchangeable
// without touching the coordinator. Results are bit-
// identical to the single-store path by construction: the Cluster
// rebuilds its merged global view (normalization maxima, canonical
// record order, ensemble pool, predictor) through the same
// internal/corpus constructors a single store uses, and scatter-gather
// merges preserve the canonical sequence order.
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// virtualNodes is the ring's virtual-node count per shard. 160 points
// per shard keeps the key distribution within a few percent of uniform
// for realistic shard counts while the ring stays small enough to
// rebuild instantly on resize.
const virtualNodes = 160

// Ring is a consistent-hash ring mapping record keys to shard indices.
// Each shard owns virtualNodes points on the ring; a key belongs to the
// shard owning the first point clockwise of the key's hash. Immutable
// after construction — resizing builds a new Ring, and consistent
// hashing bounds how many keys change owner to roughly K/N.
type Ring struct {
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash  uint64
	shard int
}

// NewRing builds a ring over shards shard indices (0..shards-1).
func NewRing(shards int) (*Ring, error) {
	if shards < 1 {
		return nil, fmt.Errorf("shard: ring needs at least 1 shard, got %d", shards)
	}
	r := &Ring{points: make([]ringPoint, 0, shards*virtualNodes)}
	for s := 0; s < shards; s++ {
		for v := 0; v < virtualNodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:  hashKey(fmt.Sprintf("shard-%d#vnode-%d", s, v)),
				shard: s,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Identical 64-bit hashes are vanishingly rare but must still
		// order deterministically for the ring to be reproducible.
		return r.points[i].shard < r.points[j].shard
	})
	return r, nil
}

// Owner returns the shard index owning key.
func (r *Ring) Owner(key string) int {
	h := hashKey(key)
	// First ring point at or clockwise of h, wrapping past the top.
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// hashKey is the ring's hash: 64-bit FNV-1a through a splitmix64
// finalizer. Plain FNV-1a leaves similar short keys (record keys and
// vnode labels differ in a handful of characters) correlated enough to
// visibly skew the ring; the finalizer's avalanche restores uniform
// point placement. Both stages are fixed algorithms — stable across
// processes and Go versions, so a wire deployment's routers agree on
// placement.
func hashKey(key string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer: a bijective avalanche over uint64.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
