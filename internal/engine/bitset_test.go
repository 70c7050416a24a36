package engine

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

func TestBitsetBasics(t *testing.T) {
	b := newBitset(130)
	if b.Count() != 0 {
		t.Fatalf("fresh bitset count = %d", b.Count())
	}
	b.SetSerial(0)
	b.SetSerial(63)
	b.SetSerial(64)
	b.SetSerial(129)
	if b.Count() != 4 {
		t.Fatalf("count = %d, want 4", b.Count())
	}
	if got, want := b.appendSet(0, 130, nil), []uint32{0, 63, 64, 129}; !slices.Equal(got, want) {
		t.Fatalf("set bits %v, want %v", got, want)
	}
	b.Clear()
	if b.Count() != 0 {
		t.Fatalf("count after clear = %d", b.Count())
	}
}

func TestBitsetSetAllMasksTail(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 127, 128, 1000} {
		b := newBitset(n)
		b.SetAll()
		if got := b.Count(); got != int64(n) {
			t.Fatalf("n=%d: SetAll count = %d", n, got)
		}
	}
}

func TestBitsetAppendSet(t *testing.T) {
	b := newBitset(300)
	want := []uint32{0, 5, 63, 64, 130, 299}
	for _, v := range want {
		b.SetSerial(v)
	}
	if got := b.appendSet(0, 300, nil); !slices.Equal(got, want) {
		t.Fatalf("appendSet visited %v, want %v", got, want)
	}
	// Sub-range on word boundaries, appended after existing contents.
	if got := b.appendSet(64, 192, []uint32{7}); !slices.Equal(got, []uint32{7, 64, 130}) {
		t.Fatalf("sub-range gave %v, want [7 64 130]", got)
	}
}

// TestBitsetAppendSetTail: n is a multiple of neither 64 nor chunkSize, so
// the last chunk is short and its last word only partially in range.
func TestBitsetAppendSetTail(t *testing.T) {
	const n = chunkSize + 64 + 37
	b := newBitset(n)
	b.SetAll()
	got := b.appendSet(chunkSize, n, nil)
	if len(got) != 64+37 || got[0] != chunkSize || got[len(got)-1] != n-1 {
		t.Fatalf("all-set tail chunk: %d vertices [%d..%d], want %d [%d..%d]",
			len(got), got[0], got[len(got)-1], 64+37, chunkSize, n-1)
	}
	for i, v := range got {
		if v != chunkSize+uint32(i) {
			t.Fatalf("tail[%d] = %d, want %d", i, v, chunkSize+i)
		}
	}
	b.Clear()
	want := []uint32{chunkSize + 64, chunkSize + 64 + 5, n - 1}
	for _, v := range want {
		b.SetSerial(v)
	}
	if got := b.appendSet(chunkSize, n, nil); !slices.Equal(got, want) {
		t.Fatalf("partial last word gave %v, want %v", got, want)
	}
	if got := b.appendSet(0, chunkSize, nil); len(got) != 0 {
		t.Fatalf("empty first chunk gave %v", got)
	}
}

// TestSignalsSerialMatchesShared: the plain-OR path of a one-goroutine
// phase and the CAS path leave the same next bitset and message count,
// repeated signals included — by Send one vertex at a time and by
// SendRun over the whole run alike.
func TestSignalsSerialMatchesShared(t *testing.T) {
	const n = 1000
	sends := []uint32{0, 63, 64, 64, 999, 5, 5, 5, 512, 0}
	var words [4][]uint64
	for i, c := range []struct{ shared, run bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
		set := newBitset(n)
		s := Signals{next: set.words, shared: c.shared}
		if c.run {
			s.SendRun(sends)
		} else {
			for _, v := range sends {
				s.Send(v)
			}
		}
		if s.sent != int64(len(sends)) {
			t.Fatalf("shared=%v SendRun=%v: sent %d, want %d", c.shared, c.run, s.sent, len(sends))
		}
		if got := set.appendSet(0, n, nil); !slices.Equal(got, []uint32{0, 5, 63, 64, 512, 999}) {
			t.Fatalf("shared=%v SendRun=%v: signalled set = %v", c.shared, c.run, got)
		}
		words[i] = set.words
	}
	for i := range words[1:] {
		if !slices.Equal(words[0], words[i+1]) {
			t.Fatal("Send and SendRun, serial and shared, left different bitsets")
		}
	}
}

// TestSignalsSendIfMatchesSend: on the serial and the shared path alike,
// SendIf(v, ok) leaves the bitset and message count `if ok { Send(v) }`
// leaves, and SendRun over the taken signals of a run leaves those of a
// Send loop over them, over a seeded mix of runs — empty ones included —
// that repeat vertices, reach the last word and mix taken and untaken
// signals.
func TestSignalsSendIfMatchesSend(t *testing.T) {
	const n = 1000
	r := rand.New(rand.NewSource(29))
	for _, shared := range []bool{false, true} {
		got, want, gotRun := newBitset(n), newBitset(n), newBitset(n)
		a := Signals{next: got.words, shared: shared}
		b := Signals{next: want.words, shared: shared}
		c := Signals{next: gotRun.words, shared: shared}
		for i := 0; i < 1000; i++ {
			var taken []uint32
			for k := r.Intn(10); k > 0; k-- {
				v, ok := uint32(r.Intn(n)), r.Intn(3) == 0
				a.SendIf(v, ok)
				if ok {
					b.Send(v)
					taken = append(taken, v)
				}
			}
			c.SendRun(taken)
		}
		if a.sent != b.sent || !slices.Equal(got.words, want.words) {
			t.Fatalf("shared=%v: SendIf left %d messages and %d bits, Send %d and %d",
				shared, a.sent, got.Count(), b.sent, want.Count())
		}
		if c.sent != b.sent || !slices.Equal(gotRun.words, want.words) {
			t.Fatalf("shared=%v: SendRun left %d messages and %d bits, Send %d and %d",
				shared, c.sent, gotRun.Count(), b.sent, want.Count())
		}
		if b.sent == 0 || want.Count() == n || want.words[len(want.words)-1] == 0 {
			t.Fatalf("shared=%v: %d messages, %d bits: the run proves nothing", shared, b.sent, want.Count())
		}
	}
}

// TestSignalsConcurrentSend: eight goroutines signal into one set on the
// shared path, half by Send and half by one SendRun each; every bit and
// every message arrives.
func TestSignalsConcurrentSend(t *testing.T) {
	const n = 1 << 16
	b := newBitset(n)
	var wg sync.WaitGroup
	var sent atomic.Int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := Signals{next: b.words, shared: true}
			var run []uint32
			for i := uint32(w); i < n; i += 8 {
				if w%2 == 0 {
					s.Send(i)
				} else {
					run = append(run, i)
				}
			}
			s.SendRun(run)
			sent.Add(s.sent)
		}(w)
	}
	wg.Wait()
	if b.Count() != n || sent.Load() != n {
		t.Fatalf("concurrent Send: %d bits, %d messages, want %d each", b.Count(), sent.Load(), n)
	}
}
