package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"time"

	"gcbench/internal/obs"
)

// defaultRPCTransport is the shared connection pool for every
// RemoteShard in the process: shard RPCs are many small requests to a
// handful of endpoints, exactly the shape keep-alive pooling exists
// for. Shared across shards so the pool amortizes over the whole tier.
var defaultRPCTransport = &http.Transport{
	MaxIdleConns:        256,
	MaxIdleConnsPerHost: 64,
	IdleConnTimeout:     90 * time.Second,
}

// defaultRPCClient wraps the shared transport. Per-call deadlines come
// from contexts, not from http.Client.Timeout, so one slow publish
// cannot be cut short by a ceiling tuned for reads.
var defaultRPCClient = &http.Client{Transport: defaultRPCTransport}

// Per-call deadlines applied on top of the caller's context: reads are
// small; publishes ship whole partitions.
const (
	rpcTimeout     = 5 * time.Second
	publishTimeout = 60 * time.Second
)

// RemoteOptions parameterizes a RemoteShard.
type RemoteOptions struct {
	// Shard is the shard index served by the endpoint (metric label and
	// error-message context).
	Shard int
	// Retries is how many extra attempts a read (Info/Get/Select) gets
	// after a transport-level failure (default 2). Publishes are never
	// retried here: the coordinator owns publish recovery, and a blind
	// retry of a non-idempotent version bump could double-advance the
	// fence.
	Retries int
	// RetryBackoff is the base delay between read retries, jittered
	// uniformly in [base, 2·base] and doubled per attempt (default
	// 25ms). The jitter matters for the same reason the serve tier's
	// Retry-After is jittered: simultaneous failures must not retry in
	// lockstep.
	RetryBackoff time.Duration
	// Client overrides the pooled HTTP client (tests, custom TLS).
	Client *http.Client
	// Registry receives gcbench_shard_rpc_errors_total attempt failures
	// (default obs.Default()).
	Registry *obs.Registry
}

// RemoteShard is the wire ShardClient: it speaks the shard RPC protocol
// to one replica endpoint over pooled HTTP connections, with per-call
// deadlines and bounded, jittered retry on transport-level read
// failures. Safe for concurrent use.
type RemoteShard struct {
	base  string
	opts  RemoteOptions
	mErrs *obs.CounterVec
}

// NewRemoteShard builds a client for the replica endpoint at baseURL
// (e.g. "http://127.0.0.1:9301"; a bare host:port is promoted to http).
func NewRemoteShard(baseURL string, opts RemoteOptions) *RemoteShard {
	if !strings.Contains(baseURL, "://") {
		baseURL = "http://" + baseURL
	}
	if opts.Retries == 0 {
		opts.Retries = 2
	}
	if opts.RetryBackoff == 0 {
		opts.RetryBackoff = 25 * time.Millisecond
	}
	if opts.Client == nil {
		opts.Client = defaultRPCClient
	}
	if opts.Registry == nil {
		opts.Registry = obs.Default()
	}
	return &RemoteShard{
		base:  strings.TrimRight(baseURL, "/"),
		opts:  opts,
		mErrs: opts.Registry.CounterVec(rpcErrorsMetric, rpcErrorsHelp, []string{"shard", "kind"}),
	}
}

// errRemoteApp is an application-level error relayed from the shard
// process (the wire error body, or the HTTP status line without one):
// the request reached the shard and was answered; retrying the
// transport cannot change the answer.
type errRemoteApp string

func (e errRemoteApp) Error() string { return string(e) }

// call performs one RPC with bounded retry: transport failures
// (connection refused while a process restarts, a torn connection, a
// deadline on the wire) are retried for idempotent reads with jittered
// doubling backoff; application errors and publishes are not.
func call[Resp any](ctx context.Context, r *RemoteShard, op string, req any, idempotent bool) (resp Resp, err error) {
	body, err := json.Marshal(req)
	if err != nil {
		return resp, fmt.Errorf("shard %d: marshal %s: %w", r.opts.Shard, op, err)
	}
	timeout, retries := publishTimeout, 0
	if idempotent {
		timeout, retries = rpcTimeout, r.opts.Retries
	}
	backoff := r.opts.RetryBackoff
	var lastErr error
	for attempt := 0; ; attempt++ {
		lastErr = r.attempt(ctx, op, body, &resp, timeout)
		if lastErr == nil {
			return resp, nil
		}
		r.mErrs.With(strconv.Itoa(r.opts.Shard), op).Inc()
		var app errRemoteApp
		if errors.As(lastErr, &app) || attempt >= retries || ctx.Err() != nil {
			break
		}
		// Jittered, doubling backoff between read retries.
		delay := backoff + time.Duration(rand.Int64N(int64(backoff)+1))
		backoff *= 2
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return resp, ctx.Err()
		}
	}
	return resp, fmt.Errorf("shard %d: %s %s: %w", r.opts.Shard, op, r.base, lastErr)
}

// attempt is one HTTP round trip under the per-call deadline.
func (r *RemoteShard) attempt(ctx context.Context, op string, body []byte, resp any, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, r.base+"/rpc/"+op, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := r.opts.Client.Do(hreq)
	if err != nil {
		return err
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		var werr rpcError
		msg := hresp.Status
		if b, rerr := io.ReadAll(io.LimitReader(hresp.Body, 4096)); rerr == nil {
			if json.Unmarshal(b, &werr) == nil && werr.Error != "" {
				msg = werr.Error
			}
		}
		return errRemoteApp(msg)
	}
	if err := json.NewDecoder(hresp.Body).Decode(resp); err != nil {
		return fmt.Errorf("decoding %s response: %w", op, err)
	}
	return nil
}

// Healthy probes the endpoint's /healthz within timeout.
func (r *RemoteShard) Healthy(ctx context.Context, timeout time.Duration) bool {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := r.opts.Client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// Info implements ShardClient.
func (r *RemoteShard) Info(ctx context.Context, req InfoRequest) (InfoResponse, error) {
	return call[InfoResponse](ctx, r, "info", req, true)
}

// Get implements ShardClient.
func (r *RemoteShard) Get(ctx context.Context, req GetRequest) (GetResponse, error) {
	return call[GetResponse](ctx, r, "get", req, true)
}

// Select implements ShardClient.
func (r *RemoteShard) Select(ctx context.Context, req SelectRequest) (SelectResponse, error) {
	return call[SelectResponse](ctx, r, "select", req, true)
}

// Publish implements ShardClient. Not retried: see RemoteOptions.Retries.
func (r *RemoteShard) Publish(ctx context.Context, req PublishRequest) (PublishResponse, error) {
	return call[PublishResponse](ctx, r, "publish", req, false)
}
