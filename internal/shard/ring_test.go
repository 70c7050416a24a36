package shard

import (
	"fmt"
	"testing"
)

// probeKeys generates a deterministic corpus-like key population: the
// record-key shapes the ring actually routes in production.
func probeKeys(n int) []string {
	keys := make([]string, n)
	algs := []string{"PR", "CC", "SSSP", "BFS", "KC", "TC", "Jacobi"}
	for i := range keys {
		keys[i] = fmt.Sprintf("%s_1e%d_a2.%d_%d", algs[i%len(algs)], 3+i%4, i%9, i)
	}
	return keys
}

func TestRingDeterministicAndValid(t *testing.T) {
	a, err := NewRing(5)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewRing(5)
	for _, k := range probeKeys(500) {
		oa, ob := a.Owner(k), b.Owner(k)
		if oa != ob {
			t.Fatalf("ring not deterministic: %q → %d vs %d", k, oa, ob)
		}
		if oa < 0 || oa >= 5 {
			t.Fatalf("owner out of range: %q → %d", k, oa)
		}
	}
	if _, err := NewRing(0); err == nil {
		t.Error("0-shard ring accepted")
	}
}

// TestRingUniformity asserts the consistent-hash key distribution stays
// within tolerance of uniform across realistic shard counts: with 160
// virtual nodes per shard the expected per-shard share deviates from
// K/N by ~1/√160 ≈ 8%, so a [0.7, 1.35]× band is a real property, not
// a vacuous one.
func TestRingUniformity(t *testing.T) {
	const K = 20000
	keys := probeKeys(K)
	for _, n := range []int{2, 4, 8, 16} {
		r, err := NewRing(n)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, n)
		for _, k := range keys {
			counts[r.Owner(k)]++
		}
		mean := float64(K) / float64(n)
		for s, c := range counts {
			if ratio := float64(c) / mean; ratio < 0.70 || ratio > 1.35 {
				t.Errorf("n=%d shard %d holds %d keys (%.2f× mean %.0f); distribution out of tolerance: %v",
					n, s, c, ratio, mean, counts)
			}
		}
	}
}

// TestRingBoundedMovementOnAdd asserts the consistent-hashing resize
// contract: growing N → N+1 shards remaps at most K/N + ε keys, and
// every remapped key lands on the new shard (existing shards never
// trade keys among themselves — their ring points are unchanged).
func TestRingBoundedMovementOnAdd(t *testing.T) {
	const K = 20000
	keys := probeKeys(K)
	for _, n := range []int{2, 4, 8} {
		before, _ := NewRing(n)
		after, _ := NewRing(n + 1)
		moved := 0
		for _, k := range keys {
			a, b := before.Owner(k), after.Owner(k)
			if a == b {
				continue
			}
			moved++
			if b != n {
				t.Fatalf("n=%d→%d: key %q moved %d→%d, not to the added shard", n, n+1, k, a, b)
			}
		}
		// ε = 2% of K absorbs the hash-placement variance around the
		// expected K/(N+1) movement.
		if bound := K/n + K/50; moved > bound {
			t.Errorf("n=%d→%d: %d keys remapped, bound K/N+ε = %d", n, n+1, moved, bound)
		}
		if moved == 0 {
			t.Errorf("n=%d→%d: no keys remapped; the new shard would start empty forever", n, n+1)
		}
	}
}

// TestRingBoundedMovementOnRemove asserts the inverse: shrinking N+1 →
// N moves exactly the removed shard's keys (nothing else may move, and
// nothing of the removed shard may stay).
func TestRingBoundedMovementOnRemove(t *testing.T) {
	const K = 20000
	keys := probeKeys(K)
	for _, n := range []int{2, 4, 8} {
		before, _ := NewRing(n + 1)
		after, _ := NewRing(n)
		moved := 0
		for _, k := range keys {
			a, b := before.Owner(k), after.Owner(k)
			if a == n && b == n {
				t.Fatalf("n=%d→%d: key %q still owned by removed shard", n+1, n, k)
			}
			if a != n && a != b {
				t.Fatalf("n=%d→%d: key %q moved %d→%d though its shard was not removed", n+1, n, k, a, b)
			}
			if a == n {
				moved++
			}
		}
		if bound := K/n + K/50; moved > bound {
			t.Errorf("n=%d→%d: %d keys remapped, bound K/N+ε = %d", n+1, n, moved, bound)
		}
	}
}
