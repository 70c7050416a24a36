package shard

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"gcbench/internal/obs"
)

// ReplicaSet groups R replica endpoints of one shard — LocalShards in
// process, RemoteShards over TCP — into the single logical ShardClient
// the Cluster routes to; it is the only replica mechanism. Reads spread
// round-robin across the replicas and fail over: a dead or
// not-yet-rehydrated replica's error sends the read to the next
// survivor instead of surfacing, so one crashed process degrades
// capacity, not availability. Publishes fan out to every replica and
// succeed only when all acknowledge — the install-before-ack guarantee
// of one LocalShard, preserved across the set. Info aggregates the
// set's state, reporting unreachable replicas as Down so /readyz can
// show the shard degraded while failover keeps reads green.
type ReplicaSet struct {
	shard    int
	replicas []ShardClient
	next     atomic.Uint64
	mErrs    *obs.CounterVec
}

// NewReplicaSet builds the logical client for shard id over the given
// replica transports (min 1). reg receives per-replica failover error
// counts (default obs.Default()).
func NewReplicaSet(id int, replicas []ShardClient, reg *obs.Registry) (*ReplicaSet, error) {
	if len(replicas) < 1 {
		return nil, fmt.Errorf("shard %d: replica set needs ≥ 1 replica", id)
	}
	if reg == nil {
		reg = obs.Default()
	}
	return &ReplicaSet{
		shard:    id,
		replicas: replicas,
		mErrs:    reg.CounterVec(rpcErrorsMetric, rpcErrorsHelp, []string{"shard", "kind"}),
	}, nil
}

// failover runs op against replicas round-robin, starting at the next
// rotation slot and advancing past failures until one answers or every
// replica has been tried.
func failover[Resp any](ctx context.Context, rs *ReplicaSet, kind string, op func(ShardClient) (Resp, error)) (Resp, error) {
	start := rs.next.Add(1)
	var lastErr error
	var zero Resp
	for i := 0; i < len(rs.replicas); i++ {
		replica := rs.replicas[(start+uint64(i))%uint64(len(rs.replicas))]
		resp, err := op(replica)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		rs.mErrs.With(strconv.Itoa(rs.shard), "replica_"+kind).Inc()
		if ctx.Err() != nil {
			// The caller's deadline expired; trying more replicas only
			// burns their time on a request nobody is waiting for.
			return zero, lastErr
		}
	}
	return zero, fmt.Errorf("shard %d: all %d replicas failed: %w", rs.shard, len(rs.replicas), lastErr)
}

// each runs op against every replica concurrently and returns the
// answers by replica index.
func each[Resp any](rs *ReplicaSet, op func(ShardClient) (Resp, error)) ([]Resp, []error) {
	resps := make([]Resp, len(rs.replicas))
	errs := make([]error, len(rs.replicas))
	var wg sync.WaitGroup
	for i, replica := range rs.replicas {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resps[i], errs[i] = op(replica)
		}()
	}
	wg.Wait()
	return resps, errs
}

// Info implements ShardClient: every replica is probed concurrently and
// the answers aggregate into the shard's serving state. Version is the
// minimum over reachable replicas — the version any read is guaranteed
// to see at least — and Down counts the unreachable ones. Only a shard
// with zero reachable replicas errors.
func (rs *ReplicaSet) Info(ctx context.Context, req InfoRequest) (InfoResponse, error) {
	infos, errs := each(rs, func(c ShardClient) (InfoResponse, error) { return c.Info(ctx, req) })
	agg := InfoResponse{Shard: rs.shard, Replicas: len(rs.replicas)}
	live := 0
	var lastErr error
	for i, info := range infos {
		if errs[i] != nil {
			rs.mErrs.With(strconv.Itoa(rs.shard), "replica_info").Inc()
			agg.Down++
			lastErr = errs[i]
			continue
		}
		if live == 0 || info.Version < agg.Version {
			agg.Version, agg.Records = info.Version, info.Records
		}
		live++
	}
	if live == 0 {
		return agg, fmt.Errorf("shard %d: all %d replicas unreachable: %w", rs.shard, len(rs.replicas), lastErr)
	}
	return agg, nil
}

// Get implements ShardClient with read failover.
func (rs *ReplicaSet) Get(ctx context.Context, req GetRequest) (GetResponse, error) {
	return failover(ctx, rs, "get", func(c ShardClient) (GetResponse, error) {
		return c.Get(ctx, req)
	})
}

// Select implements ShardClient with read failover.
func (rs *ReplicaSet) Select(ctx context.Context, req SelectRequest) (SelectResponse, error) {
	return failover(ctx, rs, "select", func(c ShardClient) (SelectResponse, error) {
		return c.Select(ctx, req)
	})
}

// Publish implements ShardClient: the partition installs on every
// replica before the set acknowledges. The shared epoch fence
// (PublishRequest.MinVersion) lands every replica on the same version,
// so the acknowledged Version is the set's version, not one process's.
// A replica that cannot accept the publish fails the whole call; the
// coordinator keeps its previous view and the supervisor's restore path
// retries once the replica is back.
func (rs *ReplicaSet) Publish(ctx context.Context, req PublishRequest) (PublishResponse, error) {
	acks, errs := each(rs, func(c ShardClient) (PublishResponse, error) { return c.Publish(ctx, req) })
	agg := PublishResponse{}
	for i, ack := range acks {
		if errs[i] != nil {
			rs.mErrs.With(strconv.Itoa(rs.shard), "replica_publish").Inc()
			return PublishResponse{}, fmt.Errorf("shard %d replica %d: publish: %w", rs.shard, i, errs[i])
		}
		if ack.Version > agg.Version {
			agg = ack
		}
	}
	return agg, nil
}
