// Frontier-adaptive execution: the paper's behavior metrics hinge on the
// active fraction collapsing over iterations (Figs. 3–5 — most algorithms
// spend their tail at <5% active), yet a dense scan pays O(V) bitset words
// per phase no matter how few vertices are active. This file adds the
// sparse alternative: compact the active bitset into a sorted vertex list
// once per iteration, then deal edge-balanced slices of that list to
// workers. Which strategy runs is an engine concern only — every counter
// the paper's metrics are built on (UPDT, EREAD, MSG, active fraction) is
// computed per vertex and is bit-identical across modes by construction.
package engine

import (
	"fmt"
	"math/bits"
	"strings"

	"gcbench/internal/graph"
)

// FrontierMode selects how phases iterate the active vertex set.
type FrontierMode int

const (
	// FrontierAuto picks dense or sparse per iteration and phase from the
	// active fraction and a degree-prefix edge estimate (the default).
	FrontierAuto FrontierMode = iota
	// FrontierDense always scans the full vertex bitset in word-aligned
	// chunks (the pre-frontier behavior).
	FrontierDense
	// FrontierSparse always compacts the active set and schedules
	// edge-balanced slices of it, regardless of density.
	FrontierSparse
)

// String renders the mode as its flag spelling.
func (m FrontierMode) String() string {
	switch m {
	case FrontierDense:
		return "dense"
	case FrontierSparse:
		return "sparse"
	default:
		return "auto"
	}
}

// ParseFrontierMode resolves a case-insensitive -frontier flag value.
func ParseFrontierMode(s string) (FrontierMode, error) {
	switch strings.ToLower(s) {
	case "", "auto":
		return FrontierAuto, nil
	case "dense":
		return FrontierDense, nil
	case "sparse":
		return FrontierSparse, nil
	}
	return FrontierAuto, fmt.Errorf("engine: unknown frontier mode %q (want auto, dense or sparse)", s)
}

// Phase mode labels recorded in trace.IterationStats.
const (
	modeDense  = "dense"
	modeSparse = "sparse"
)

// sparseActiveDivisor is the Auto compaction threshold: an iteration is a
// sparse candidate when at most 1/sparseActiveDivisor of the vertices are
// active (5%, the tail regime of the paper's Figs. 3–5).
const sparseActiveDivisor = 20

// densePhaseEdgeDivisor keeps a compacted phase dense when its frontier
// still reaches more than 1/densePhaseEdgeDivisor of all arcs: with a
// hub-heavy frontier the edge work dwarfs the bitset word scan, and the
// dense scan's sequential CSR locality wins.
const densePhaseEdgeDivisor = 10

// sparseSlicesPerWorker oversubscribes sparse slices so the atomic-cursor
// deal can rebalance when one slice (a hub) runs long.
const sparseSlicesPerWorker = 4

// sparseSliceMinCost floors the cost (vertices + edges) of one sparse
// slice: a phase whose whole frontier costs less than this runs as a
// single serial slice, because goroutine fan-out would cost more than the
// work itself. The tail of a low-active run must not pay parallelism tax.
const sparseSliceMinCost = 1024

// serialCompactWords bounds the bitset size (in 64-bit words) compacted
// by a single serial pass. Below it — 2M vertices — the whole scan is a
// few microseconds and parallel fan-out only adds latency.
const serialCompactWords = 1 << 15

// countAndPlan counts the current frontier, decides the iteration's
// schedule, and compacts the frontier when the sparse path is in play.
// For small bitsets the count and the compaction are fused into a single
// word scan — in the low-active tail that scan IS the iteration's fixed
// cost, so paying it twice (popcount pass, then extraction pass) would
// halve the sparse win. The scan extracts vertex IDs optimistically and
// falls back to popcount-only the moment the count exceeds the sparse
// budget. Runs serially between the frontier swap and the gather phase.
func (e *engine[S, A]) countAndPlan() int64 {
	if e.frontierM == FrontierDense {
		e.sparseIter = false
		return e.cur.Count()
	}
	if len(e.cur.words) > serialCompactWords {
		// Large bitsets: parallel popcount, then (maybe) a parallel
		// two-pass compaction.
		active := e.cur.Count()
		e.planIteration(active)
		return active
	}
	n := int64(e.g.NumVertices())
	budget := n // FrontierSparse compacts whatever the density
	if e.frontierM == FrontierAuto {
		budget = n / sparseActiveDivisor
	}
	if int64(cap(e.frontier)) < budget {
		e.frontier = make([]uint32, budget)
	}
	f := e.frontier[:cap(e.frontier)]
	i := int64(0)
	words := e.cur.words
	for wi := 0; wi < len(words); {
		// In the low-active tail nearly every word is zero; skipping them
		// four at a time halves the scan — the iteration's fixed cost.
		if wi+4 <= len(words) && words[wi]|words[wi+1]|words[wi+2]|words[wi+3] == 0 {
			wi += 4
			continue
		}
		w := words[wi]
		if w != 0 {
			c := int64(bits.OnesCount64(w))
			if i+c > budget {
				// Too dense for sparse scheduling: finish counting without
				// materializing the rest.
				total := i + c
				for _, w2 := range words[wi+1:] {
					total += int64(bits.OnesCount64(w2))
				}
				e.sparseIter = false
				return total
			}
			for w != 0 {
				f[i] = uint32(wi<<6 + bits.TrailingZeros64(w))
				i++
				w &= w - 1
			}
		}
		wi++
	}
	e.sparseIter = true
	e.frontier = f[:i]
	return i
}

// planIteration is countAndPlan's large-bitset tail: the count is already
// known, so only the schedule decision and the parallel compaction remain.
func (e *engine[S, A]) planIteration(active int64) {
	switch e.frontierM {
	case FrontierSparse:
		e.sparseIter = true
	default:
		e.sparseIter = active*sparseActiveDivisor <= int64(e.g.NumVertices())
	}
	if e.sparseIter {
		e.compactFrontier(active)
	}
}

// compactFrontier materializes the current active bitset as a sorted
// vertex list in e.frontier: a parallel per-chunk popcount pass sizes the
// per-chunk output offsets, a serial prefix sum over the (few) chunks
// places them, and a second parallel pass writes vertex IDs. Sorted order
// falls out of chunk order plus in-word bit order.
func (e *engine[S, A]) compactFrontier(active int64) {
	if cap(e.frontier) < int(active) {
		e.frontier = make([]uint32, active)
	}
	e.frontier = e.frontier[:active]
	numChunks := e.numChunks()
	if int64(cap(e.chunkOff)) < numChunks+1 {
		e.chunkOff = make([]int64, numChunks+1)
	}
	off := e.chunkOff[:numChunks+1]
	off[0] = 0
	e.parallelDeal(numChunks, func(_ int, c int64) {
		off[c+1] = e.cur.CountRange(e.chunkRange(c))
	})
	for c := int64(1); c <= numChunks; c++ {
		off[c] += off[c-1]
	}
	e.parallelDeal(numChunks, func(_ int, c int64) {
		lo, hi := e.chunkRange(c)
		// Appends in place: the chunk's off[c+1]-off[c] vertices fit the
		// region [off[c], off[c+1]) no other chunk writes.
		e.cur.appendSet(lo, hi, e.frontier[off[c]:off[c]])
	})
}

// planPhase decides one phase's schedule against the compacted frontier
// and, when sparse, cuts the frontier into edge-balanced slices. The cut
// weighs each vertex as 1 + degree-in-phase-direction, so a hub gets a
// slice (or several targets' worth) of its own instead of serializing a
// long run of siblings behind it. Returns the slice boundaries (bounds[k]
// .. bounds[k+1] index e.frontier) and whether the phase runs sparse.
func (e *engine[S, A]) planPhase(sides []*graph.CSR) ([]int, bool) {
	if !e.sparseIter {
		return nil, false
	}
	L := len(e.frontier)
	if L == 0 {
		return nil, false
	}
	var totalEdges int64
	if len(sides) > 0 {
		if cap(e.prefix) < L+1 {
			e.prefix = make([]int64, L+1)
		}
		e.prefix = e.prefix[:L+1]
		e.prefix[0] = 0
		for i, v := range e.frontier {
			e.prefix[i+1] = e.prefix[i]
			for _, c := range sides {
				e.prefix[i+1] += c.Off[v+1] - c.Off[v]
			}
		}
		totalEdges = e.prefix[L]
		// Auto only: a frontier that still reaches a large share of all
		// arcs runs dense — the word scan is noise next to the edge work.
		if e.frontierM == FrontierAuto && totalEdges*densePhaseEdgeDivisor > e.g.NumArcs() {
			return nil, false
		}
	}
	totalCost := int64(L) + totalEdges
	slices := len(e.ws) * sparseSlicesPerWorker
	// Never cut slices cheaper than sparseSliceMinCost: a tail iteration
	// with a handful of vertices runs serially inside parallelDeal's
	// spawn<=1 path instead of paying goroutine fan-out per phase.
	if byCost := int(totalCost / sparseSliceMinCost); slices > byCost {
		slices = byCost
	}
	if slices > L {
		slices = L
	}
	if slices < 1 {
		slices = 1
	}
	target := (totalCost + int64(slices) - 1) / int64(slices)
	bounds := append(e.bounds[:0], 0)
	if len(sides) == 0 {
		// Apply-style phase: no edges, slices balance by vertex count.
		for k := 1; k < slices; k++ {
			bounds = append(bounds, k*L/slices)
		}
	} else {
		next := target
		for i := 0; i+1 < L; i++ {
			cum := int64(i+1) + e.prefix[i+1]
			if cum >= next {
				bounds = append(bounds, i+1)
				for next <= cum {
					next += target
				}
			}
		}
	}
	bounds = append(bounds, L)
	e.bounds = bounds
	return bounds, true
}

// CountRange returns the number of set bits in the vertex range [lo, hi).
// Same contract as appendSet: lo and hi are multiples of 64 or the ends of
// the set (bits beyond n are never set, so whole-word popcounts suffice).
func (b *bitset) CountRange(lo, hi uint32) int64 {
	wLo, wHi := int(lo>>6), int((hi+63)>>6)
	if wHi > len(b.words) {
		wHi = len(b.words)
	}
	var c int64
	for wi := wLo; wi < wHi; wi++ {
		c += int64(bits.OnesCount64(b.words[wi]))
	}
	return c
}
