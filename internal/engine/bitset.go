package engine

import "math/bits"

// bitset is a fixed-size bitmap over vertex IDs. Its own methods are
// unsynchronized; the scatter phase sets bits through Signals.
type bitset struct {
	words []uint64
	n     int
}

func newBitset(n int) *bitset {
	return &bitset{words: make([]uint64, (n+63)/64), n: n}
}

// SetSerial marks bit i without synchronization (single-goroutine phases).
func (b *bitset) SetSerial(i uint32) {
	b.words[i>>6] |= uint64(1) << (i & 63)
}

// Clear zeroes the whole set.
func (b *bitset) Clear() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// SetAll marks every bit in [0, n).
func (b *bitset) SetAll() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	// Mask the tail beyond n.
	if rem := b.n & 63; rem != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] = (uint64(1) << rem) - 1
	}
}

// Count returns the number of set bits.
func (b *bitset) Count() int64 {
	var c int64
	for _, w := range b.words {
		c += int64(bits.OnesCount64(w))
	}
	return c
}

// appendSet appends every set bit in the vertex range [lo, hi) to buf in
// ascending order and returns it. lo and hi must be multiples of 64 or the
// ends of the set (bits beyond n are never set, so whole words are taken).
func (b *bitset) appendSet(lo, hi uint32, buf []uint32) []uint32 {
	wLo, wHi := int(lo>>6), int((hi+63)>>6)
	if wHi > len(b.words) {
		wHi = len(b.words)
	}
	for wi := wLo; wi < wHi; wi++ {
		base := uint32(wi) << 6
		for w := b.words[wi]; w != 0; w &= w - 1 {
			buf = append(buf, base+uint32(bits.TrailingZeros64(w)))
		}
	}
	return buf
}
