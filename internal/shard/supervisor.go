package shard

import (
	"context"
	"fmt"
	"log/slog"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gcbench/internal/obs"
)

// ProcSpec names one shard replica process: which shard it serves,
// which replica slot it fills, and the address it must listen on. The
// address is fixed by the supervisor, not chosen by the child, so a
// restarted process rebinds the same endpoint and the coordinator's
// RemoteShard clients reconnect without re-wiring.
type ProcSpec struct {
	Shard   int
	Replica int
	Addr    string
}

// SupervisorOptions parameterizes process supervision.
type SupervisorOptions struct {
	// Spawn starts one replica process for a spec (required; `gcbench
	// serve -shard-spawn` re-enters its own binary as `gcbench
	// shard-serve`). wait blocks until the process exits, like
	// (*exec.Cmd).Wait; kill terminates it.
	Spawn func(ProcSpec) (wait func() error, kill func(), err error)
	// HealthInterval is the probe period per process (default 500ms).
	HealthInterval time.Duration
	// HealthTimeout bounds one probe (default 1s).
	HealthTimeout time.Duration
	// HealthFailures is how many consecutive probe failures declare a
	// live process dead and force a restart (default 3).
	HealthFailures int
	// StartTimeout bounds how long a spawned process gets to become
	// healthy before the supervisor gives up on that attempt and
	// respawns (default 10s).
	StartTimeout time.Duration
	// RestartBackoff is the initial delay before respawning a dead
	// process, doubling per consecutive failure up to 5s (default
	// 100ms). A successful restore resets it.
	RestartBackoff time.Duration
	// Logger receives supervision events (default slog.Default()).
	Logger *slog.Logger
	// Registry receives gcbench_shard_proc_restarts_total (default
	// obs.Default()).
	Registry *obs.Registry
}

const (
	procRestartsMetric = "gcbench_shard_proc_restarts_total"
	procRestartsHelp   = "Shard replica process restarts performed by the supervisor, by shard and replica."
)

// Supervisor owns a fleet of shard replica processes: it spawns them,
// probes their /healthz, and when one dies — process exit or
// consecutive probe failures — respawns it on the same address and
// invokes the restore hook so the coordinator rehydrates it (see
// Cluster.Rehydrate). Restart, not failover, is its job: while a
// replica is down, the coordinator's ReplicaSet keeps reads flowing to
// the survivors; the supervisor's work is making "down" temporary.
type Supervisor struct {
	opts  SupervisorOptions
	specs []ProcSpec
	procs []*superProc

	// onRestore is called after a replica process is healthy again so
	// the coordinator can republish its partition (epoch-fenced).
	onRestore atomic.Pointer[func(ctx context.Context, spec ProcSpec) error]

	mRestarts *obs.CounterVec

	ctx      context.Context
	cancel   context.CancelFunc
	wg       sync.WaitGroup
	started  atomic.Bool
	restarts atomic.Uint64
}

// superProc is one supervised process slot.
type superProc struct {
	spec   ProcSpec
	client *RemoteShard // health probe target

	mu     sync.Mutex
	kill   func()        // terminates the current incarnation (nil when down)
	exited chan struct{} // closed when the current incarnation exits
}

// terminate kills the slot's current incarnation, if any.
func (p *superProc) terminate() {
	p.mu.Lock()
	kill := p.kill
	p.kill = nil
	p.mu.Unlock()
	if kill != nil {
		kill()
	}
}

// exitedCh returns the current incarnation's exit channel (nil if the
// slot has no live incarnation).
func (p *superProc) exitedCh() chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.exited
}

// NewSupervisor builds a supervisor for the given replica specs.
func NewSupervisor(specs []ProcSpec, opts SupervisorOptions) (*Supervisor, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("supervisor: no processes to supervise")
	}
	if opts.Spawn == nil {
		return nil, fmt.Errorf("supervisor: no Spawn hook")
	}
	if opts.HealthInterval == 0 {
		opts.HealthInterval = 500 * time.Millisecond
	}
	if opts.HealthTimeout == 0 {
		opts.HealthTimeout = time.Second
	}
	if opts.HealthFailures == 0 {
		opts.HealthFailures = 3
	}
	if opts.StartTimeout == 0 {
		opts.StartTimeout = 10 * time.Second
	}
	if opts.RestartBackoff == 0 {
		opts.RestartBackoff = 100 * time.Millisecond
	}
	if opts.Logger == nil {
		opts.Logger = slog.Default()
	}
	if opts.Registry == nil {
		opts.Registry = obs.Default()
	}
	s := &Supervisor{
		opts:      opts,
		specs:     specs,
		mRestarts: opts.Registry.CounterVec(procRestartsMetric, procRestartsHelp, []string{"shard", "replica"}),
	}
	for _, spec := range specs {
		s.procs = append(s.procs, &superProc{
			spec: spec,
			client: NewRemoteShard(spec.Addr, RemoteOptions{
				Shard:    spec.Shard,
				Retries:  -1, // probes decide retry policy themselves
				Registry: opts.Registry,
			}),
		})
	}
	return s, nil
}

// SetOnRestore installs the hook invoked after a crashed replica is
// healthy again — typically Cluster.Rehydrate, which republishes the
// replica's partition above the epoch fence. Must be set before the
// first restart can complete a restore; safe to set after Start.
func (s *Supervisor) SetOnRestore(fn func(ctx context.Context, spec ProcSpec) error) {
	s.onRestore.Store(&fn)
}

// Start spawns every replica process and blocks until all are healthy
// (or ctx expires). Monitors then run until Stop.
func (s *Supervisor) Start(ctx context.Context) error {
	if s.started.Swap(true) {
		return fmt.Errorf("supervisor: already started")
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	for _, p := range s.procs {
		if err := s.spawn(p); err != nil {
			s.Stop()
			return fmt.Errorf("supervisor: spawning shard %d replica %d: %w", p.spec.Shard, p.spec.Replica, err)
		}
	}
	for _, p := range s.procs {
		if err := s.awaitHealthy(ctx, p, s.opts.StartTimeout); err != nil {
			s.Stop()
			return err
		}
	}
	for _, p := range s.procs {
		s.wg.Add(1)
		go s.monitor(p)
	}
	return nil
}

// Stop waits for the monitors to return, so none respawns a process,
// then terminates every process and waits for it to exit: none outlives
// the caller. Safe to call more than once.
func (s *Supervisor) Stop() {
	if s.cancel != nil {
		s.cancel()
	}
	s.wg.Wait()
	for _, p := range s.procs {
		exited := p.exitedCh()
		p.terminate()
		if exited != nil {
			<-exited
		}
	}
}

// Kill forcibly terminates the process serving (shard, replica) — the
// failure-injection hook the differential harness uses to prove
// crash-recovery invariants. The monitor observes the death and
// restarts the process as it would any crash.
func (s *Supervisor) Kill(shardID, replica int) error {
	for _, p := range s.procs {
		if p.spec.Shard == shardID && p.spec.Replica == replica {
			p.terminate()
			return nil
		}
	}
	return fmt.Errorf("supervisor: no process for shard %d replica %d", shardID, replica)
}

// spawn starts one incarnation of p and hands its wait/kill handles to
// the slot. exited is signalled (once) when the process ends.
func (s *Supervisor) spawn(p *superProc) error {
	wait, kill, err := s.opts.Spawn(p.spec)
	if err != nil {
		return err
	}
	exited := make(chan struct{})
	go func() {
		_ = wait()
		close(exited)
	}()
	p.mu.Lock()
	p.kill = kill
	p.exited = exited
	p.mu.Unlock()
	return nil
}

// awaitHealthy polls p's /healthz until it answers or the budget runs
// out.
func (s *Supervisor) awaitHealthy(ctx context.Context, p *superProc, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for {
		if p.client.Healthy(ctx, s.opts.HealthTimeout) {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("supervisor: shard %d replica %d (%s) not healthy after %v",
				p.spec.Shard, p.spec.Replica, p.spec.Addr, budget)
		}
		select {
		case <-time.After(50 * time.Millisecond):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// monitor watches one slot for the life of the supervisor: it waits for
// the current incarnation to die — process exit or HealthFailures
// consecutive probe failures — then respawns it on the same address,
// waits for health, and runs the restore hook. Backoff doubles across
// consecutive failed restarts and resets on a completed restore.
func (s *Supervisor) monitor(p *superProc) {
	defer s.wg.Done()
	backoff := s.opts.RestartBackoff
	for {
		exited := p.exitedCh()
		if exited == nil {
			// Slot is down (restart in progress below, or terminal).
			exited = closedChan
		}
		ticker := time.NewTicker(s.opts.HealthInterval)
		fails := 0
	alive:
		for {
			select {
			case <-s.ctx.Done():
				ticker.Stop()
				return
			case <-exited:
				break alive
			case <-ticker.C:
				if p.client.Healthy(s.ctx, s.opts.HealthTimeout) {
					fails = 0
					continue
				}
				fails++
				if fails >= s.opts.HealthFailures {
					s.opts.Logger.Warn("shard replica unresponsive; restarting",
						"shard", p.spec.Shard, "replica", p.spec.Replica, "addr", p.spec.Addr,
						"consecutiveFailures", fails)
					p.terminate()
					break alive
				}
			}
		}
		ticker.Stop()
		if s.ctx.Err() != nil {
			return
		}

		// The incarnation is dead: respawn on the same address, restore,
		// repeat until it sticks or the supervisor stops.
		s.opts.Logger.Warn("shard replica process exited; restarting",
			"shard", p.spec.Shard, "replica", p.spec.Replica, "addr", p.spec.Addr)
		for {
			select {
			case <-time.After(backoff):
			case <-s.ctx.Done():
				return
			}
			s.restarts.Add(1)
			s.mRestarts.With(strconv.Itoa(p.spec.Shard), strconv.Itoa(p.spec.Replica)).Inc()
			if err := s.spawn(p); err != nil {
				s.opts.Logger.Error("respawn failed", "shard", p.spec.Shard, "replica", p.spec.Replica, "err", err)
				backoff = nextBackoff(backoff)
				continue
			}
			if err := s.awaitHealthy(s.ctx, p, s.opts.StartTimeout); err != nil {
				s.opts.Logger.Error("restarted replica never became healthy",
					"shard", p.spec.Shard, "replica", p.spec.Replica, "err", err)
				p.terminate()
				backoff = nextBackoff(backoff)
				continue
			}
			if err := s.restore(p); err != nil {
				s.opts.Logger.Error("restore after restart failed",
					"shard", p.spec.Shard, "replica", p.spec.Replica, "err", err)
				p.terminate()
				backoff = nextBackoff(backoff)
				continue
			}
			s.opts.Logger.Info("shard replica restored",
				"shard", p.spec.Shard, "replica", p.spec.Replica, "addr", p.spec.Addr)
			backoff = s.opts.RestartBackoff
			break
		}
	}
}

// restore runs the coordinator's rehydration hook for p, retrying a few
// times — the coordinator may briefly refuse while a concurrent publish
// holds its lock.
func (s *Supervisor) restore(p *superProc) error {
	fn := s.onRestore.Load()
	if fn == nil {
		return nil
	}
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		ctx, cancel := context.WithTimeout(s.ctx, s.opts.StartTimeout)
		lastErr = (*fn)(ctx, p.spec)
		cancel()
		if lastErr == nil {
			return nil
		}
		select {
		case <-time.After(100 * time.Millisecond << attempt):
		case <-s.ctx.Done():
			return s.ctx.Err()
		}
	}
	return lastErr
}

func nextBackoff(d time.Duration) time.Duration {
	d *= 2
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	return d
}

// closedChan is a pre-closed channel monitor uses when a slot has no
// live incarnation, making the "dead" path immediate.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()
