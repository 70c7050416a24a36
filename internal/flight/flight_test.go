package flight

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// Concurrent callers of one key run fn once and share its result; the
// key is free again once the leader returns, error or not.
func TestDoCoalescesAndForgets(t *testing.T) {
	var g Group[int]
	var runs atomic.Int32
	boom := errors.New("boom")
	started, release := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the leader
		defer wg.Done()
		v, err, coalesced := g.Do(context.Background(), "k", func() (int, error) {
			runs.Add(1)
			close(started)
			<-release
			return 7, boom
		})
		if v != 7 || !errors.Is(err, boom) || coalesced {
			t.Errorf("leader got %d, %v, coalesced=%t", v, err, coalesced)
		}
	}()
	<-started
	// A caller scheduled only after the leader returns leads a call of
	// its own; every other one shares the leader's without running fn.
	var led atomic.Int32
	var joined sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		joined.Add(1)
		go func() {
			defer wg.Done()
			joined.Done()
			v, err, coalesced := g.Do(context.Background(), "k", func() (int, error) {
				runs.Add(1)
				return 7, boom
			})
			if v != 7 || !errors.Is(err, boom) {
				t.Errorf("caller got %d, %v; want 7, boom", v, err)
			}
			if !coalesced {
				led.Add(1)
			}
		}()
	}

	// A follower whose context ends stops waiting; the leader runs on.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err, coalesced := g.Do(ctx, "k", func() (int, error) { return 0, nil }); !errors.Is(err, context.Canceled) || !coalesced {
		t.Fatalf("cancelled follower got %v, coalesced=%t", err, coalesced)
	}

	joined.Wait()
	close(release)
	wg.Wait()

	// The failed call was not retained.
	v, err, coalesced := g.Do(context.Background(), "k", func() (int, error) { return 9, nil })
	if v != 9 || err != nil || coalesced {
		t.Fatalf("call after the failure got %d, %v, coalesced=%t; want a fresh 9", v, err, coalesced)
	}
	if n := runs.Load(); n != 1+led.Load() {
		t.Fatalf("fn ran %d times for 1 leader and %d late callers", n, led.Load())
	}
}
