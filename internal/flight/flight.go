// Package flight coalesces concurrent calls that share a key into one
// execution: a minimal, dependency-free take on the x/sync singleflight
// pattern. The serving tier's identical in-flight design searches and the
// sweep's concurrent requests for one graph both go through it.
package flight

import (
	"context"
	"sync"
)

// Group coalesces calls per key. The zero value is ready to use.
type Group[V any] struct {
	mu    sync.Mutex
	calls map[string]*call[V]
}

type call[V any] struct {
	done chan struct{} // closed when val/err are final
	val  V
	err  error
}

// Do executes fn once per concurrent set of callers sharing key: the
// first caller (the leader) runs fn synchronously, every concurrent
// duplicate (a follower) waits and shares the leader's result, error
// included. A follower whose ctx expires stops waiting without cancelling
// the leader. coalesced reports whether this caller was a follower.
//
// Nothing is retained once the leader returns — a failed execution is
// never replayed to a later caller. A caller that wants results kept
// stores them from inside fn and re-checks that store first thing in fn,
// because a caller that missed the store may become the next leader just
// after the previous one finished.
func (g *Group[V]) Do(ctx context.Context, key string, fn func() (V, error)) (val V, err error, coalesced bool) {
	g.mu.Lock()
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		select {
		case <-c.done:
			return c.val, c.err, true
		case <-ctx.Done():
			return val, ctx.Err(), true
		}
	}
	if g.calls == nil {
		g.calls = make(map[string]*call[V])
	}
	c := &call[V]{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	c.val, c.err = fn()

	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	close(c.done)
	return c.val, c.err, false
}
