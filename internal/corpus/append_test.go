package corpus

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"gcbench/internal/behavior"
)

func TestAppendGrowsAndRenormalizes(t *testing.T) {
	base, err := NewSnapshotFromRuns([]*behavior.Run{
		fakeRun("PR", "1e5", 2.5), fakeRun("CC", "1e3", 2),
	}, "seed-corpus")
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore(base)

	// The appended run dominates every behavior dimension, so the whole
	// corpus must be rescaled around it.
	big := fakeRun("SSSP", "1e6", 2.2)
	big.Raw = behavior.Vector{100, 100, 100, 100}
	snap, err := st.Append([]*behavior.Run{big}, "job j1")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != 2 || len(snap.Records) != 3 || snap.OKCount() != 3 {
		t.Fatalf("appended snapshot: version=%d records=%d ok=%d", snap.Version, len(snap.Records), snap.OKCount())
	}
	if snap.Source != "seed-corpus" {
		t.Errorf("append replaced Source: %q", snap.Source)
	}
	if st.Snapshot() != snap {
		t.Fatal("Append did not publish the new snapshot")
	}
	for i, p := range snap.Space.Points {
		for d := 0; d < behavior.Dims; d++ {
			if p[d] > 1.0 {
				t.Fatalf("point %d dim %d = %v: renormalization must keep every dimension ≤ 1", i, d, p[d])
			}
		}
	}
	// The dominating run sits at the unit corner; the old points shrank.
	var foundCorner bool
	for _, p := range snap.Space.Points {
		if p[0] == 1 && p[1] == 1 && p[2] == 1 && p[3] == 1 {
			foundCorner = true
		}
	}
	if !foundCorner {
		t.Fatal("dominating appended run is not at the unit corner")
	}

	if _, err := st.Append(nil, "job j2"); err == nil {
		t.Fatal("empty append accepted")
	}
}

// TestAppendConcurrentReaders hammers the store from two concurrent
// appenders while readers continuously traverse snapshots — run under
// -race, it proves readers never observe a torn snapshot and serialized
// publishers never lose a version or a run.
func TestAppendConcurrentReaders(t *testing.T) {
	snap, err := NewSnapshotFromRuns([]*behavior.Run{fakeRun("PR", "1e5", 2.5)}, "test")
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore(snap)

	const (
		readers   = 6
		appenders = 2
		appends   = 40 // per appender
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := st.Snapshot()
				if s.Version < last {
					t.Errorf("version went backwards: %d after %d", s.Version, last)
					return
				}
				last = s.Version
				// Touch the derived indexes: a half-built snapshot would
				// trip the race detector or return inconsistent sizes.
				if s.Space != nil && len(s.Space.Points) != s.OKCount() {
					t.Errorf("torn snapshot: %d points for %d ok runs", len(s.Space.Points), s.OKCount())
					return
				}
				for _, p := range s.Space.Points {
					for d := 0; d < behavior.Dims; d++ {
						if p[d] > 1.0 {
							t.Errorf("reader saw unnormalized point %v", p)
							return
						}
					}
				}
			}
		}()
	}

	var pub sync.WaitGroup
	for a := 0; a < appenders; a++ {
		pub.Add(1)
		go func() {
			defer pub.Done()
			for i := 0; i < appends; i++ {
				r := fakeRun("CC", fmt.Sprintf("append-%d-%d", a, i), 2)
				if _, err := st.Append([]*behavior.Run{r}, "race-test"); err != nil {
					t.Errorf("append %d/%d: %v", a, i, err)
					return
				}
			}
		}()
	}
	pub.Wait()
	close(stop)
	wg.Wait()

	// Serialized publishers: every publication got its own version, and
	// no appended run was lost.
	final := st.Snapshot()
	if final.Version != 1+appenders*appends || len(final.Records) != 1+appenders*appends {
		t.Fatalf("final version %d with %d records, want %d and %d (lost publication)",
			final.Version, len(final.Records), 1+appenders*appends, 1+appenders*appends)
	}
}

func TestLoadFileRejectsEmptyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.json")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadFile(path)
	if err == nil {
		t.Fatal("zero-byte corpus accepted")
	}
	if !strings.Contains(err.Error(), "empty") {
		t.Fatalf("error %q does not name the zero-byte cause", err)
	}
}
