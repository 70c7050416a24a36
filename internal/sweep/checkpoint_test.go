package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"gcbench/internal/behavior"
)

// TestJournalAppendsOneLinePerRecord holds the journal to linear bytes —
// each Record adds exactly its own JSON line — and to last-wins on load:
// a failed run re-recorded as ok is one entry, the ok one, at the
// position of its first line.
func TestJournalAppendsOneLinePerRecord(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "j")
	j, err := OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	var size int64
	record := func(e JournalEntry) {
		t.Helper()
		if err := j.Record(e); err != nil {
			t.Fatal(err)
		}
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(jpath)
		if err != nil {
			t.Fatal(err)
		}
		if grew, want := fi.Size()-size, int64(len(line)+1); grew != want {
			t.Fatalf("Record %s grew the journal by %d bytes, want %d", e.ID, grew, want)
		}
		size = fi.Size()
	}
	specs := campaignSpecs(3)
	okEntry := func(s Spec) JournalEntry {
		return entryOf(RunResult{Spec: s, Status: behavior.StatusOK, Attempts: 1,
			Run: &behavior.Run{Algorithm: string(s.Algorithm), SizeLabel: s.SizeLabel}})
	}
	record(entryOf(RunResult{Spec: specs[0], Status: behavior.StatusFailed, Attempts: 2, Err: "boom"}))
	for _, s := range specs[1:] {
		record(okEntry(s))
	}
	record(okEntry(specs[0])) // the failed spec, retried on resume

	entries, err := LoadJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(specs) {
		t.Fatalf("loaded %d entries, want %d (one per spec ID)", len(entries), len(specs))
	}
	for i, e := range entries {
		if e.ID != specs[i].ID() || e.Status != behavior.StatusOK || e.Run == nil {
			t.Errorf("entry %d = %s %s, want %s ok", i, e.ID, e.Status, specs[i].ID())
		}
	}
	if j.Len() != len(specs) || j.Summary() != "3 checkpointed (3 ok, 0 failed)" {
		t.Errorf("Len %d, Summary %q", j.Len(), j.Summary())
	}
	j2, err := OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := j2.Completed(specs[0]); !ok {
		t.Error("re-recorded ok run not restored on reopen")
	}
}

// TestResumeAfterTornWrite is the in-process form of a kill at step k:
// the journal of a campaign's first k runs is cut inside its last line,
// as a kill in the middle of an append leaves it, and the campaign
// resumes. Only the torn spec and the unjournaled ones execute, and every
// run's exact fields equal a straight run's.
func TestResumeAfterTornWrite(t *testing.T) {
	plan, err := BuildPlan(ProfileQuick, 42)
	if err != nil {
		t.Fatal(err)
	}
	var specs []Spec
	for i := 0; i < len(plan); i += 29 {
		specs = append(specs, plan[i])
	}
	straight, err := Execute(specs, Config{Workers: 1, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	const k = 4
	dir := t.TempDir()
	j, err := OpenJournal(filepath.Join(dir, "first-k.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExecuteCampaign(context.Background(), specs[:k], Config{Workers: 1, Parallel: 1, Journal: j}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(j.path)
	if err != nil {
		t.Fatal(err)
	}
	last := bytes.LastIndexByte(raw[:len(raw)-1], '\n') + 1 // where line k starts
	// Cut just after the line's first byte, exactly before its newline,
	// and at seeded offsets between.
	// A subtest is named by its cut's role, not its byte offset, since
	// the line's length differs from run to run.
	type cut struct {
		name string
		at   int
	}
	cuts := []cut{{"after-first-byte", last + 1}, {"before-newline", len(raw) - 1}}
	rng := rand.New(rand.NewPCG(7, 41))
	for i := range 3 {
		cuts = append(cuts, cut{fmt.Sprintf("seeded-%d", i+1), last + 1 + rng.IntN(len(raw)-last-2)})
	}
	for _, c := range cuts {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(dir, c.name+".journal")
			if err := os.WriteFile(path, raw[:c.at], 0o644); err != nil {
				t.Fatal(err)
			}
			j, err := OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if fi.Size() != int64(last) || j.Len() != k-1 {
				t.Fatalf("opened torn journal: %d entries, file cut to %d bytes; want %d, %d",
					j.Len(), fi.Size(), k-1, last)
			}
			var mu sync.Mutex
			executed := map[string]bool{}
			res, err := ExecuteCampaign(context.Background(), specs, Config{
				Workers: 1, Parallel: 2, Journal: j,
				InjectFault: func(s Spec) error {
					mu.Lock()
					executed[s.ID()] = true
					mu.Unlock()
					return nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Skipped != k-1 || len(executed) != len(specs)-k+1 {
				t.Fatalf("skipped %d, executed %d; want %d, %d", res.Skipped, len(executed), k-1, len(specs)-k+1)
			}
			for i, s := range specs {
				if executed[s.ID()] != (i >= k-1) {
					t.Errorf("spec %d %s: executed %t", i, s.ID(), executed[s.ID()])
				}
			}
			entries, err := LoadJournal(path)
			if err != nil {
				t.Fatalf("resumed journal does not load: %v", err)
			}
			if len(entries) != len(specs) || len(res.Runs) != len(specs) {
				t.Fatalf("%d entries, %d runs; want %d", len(entries), len(res.Runs), len(specs))
			}
			journaled := map[string]*behavior.Run{}
			for _, e := range entries {
				journaled[e.ID] = e.Run
			}
			for i, r := range res.Runs {
				want := corpusCounterSum(straight[i])
				if got := corpusCounterSum(r); got != want {
					t.Errorf("%s: resumed run diverges from the straight run", specs[i].ID())
				}
				if jr := journaled[specs[i].ID()]; jr == nil || corpusCounterSum(jr) != want {
					t.Errorf("%s: journaled run missing or diverges from the straight run", specs[i].ID())
				}
			}
		})
	}
}

// FuzzLoadJournal feeds the loader torn, truncated, duplicated and
// corrupt lines. It must never panic, and whenever a load succeeds, an
// append through OpenJournal must keep every loaded entry and add the
// new one: a torn tail never buries a record.
func FuzzLoadJournal(f *testing.F) {
	line := func(id string, st behavior.RunStatus) string {
		b, err := json.Marshal(JournalEntry{ID: id, Status: st, Attempts: 1,
			Run: &behavior.Run{Algorithm: "CC", SizeLabel: "1e3", Raw: behavior.Vector{1, 2, 3, 4}}})
		if err != nil {
			f.Fatal(err)
		}
		return string(b) + "\n"
	}
	a, b := line("<CC, 1e3>", behavior.StatusOK), line("<PR, 1e3>", behavior.StatusFailed)
	for _, seed := range []string{
		"",
		a + b,
		a + b[:len(b)-1], // whole entry, no newline
		a + b[:len(b)/2], // torn mid-line
		a + b + a,        // duplicated line
		b + a + line("<PR, 1e3>", behavior.StatusOK), // failed, then re-recorded ok
		a + "garbage\n" + b[:9],                      // corruption before a torn tail
		"\n" + a + "\n",
		"{}\n" + a[:1],
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "j")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		before, err := LoadJournal(path)
		if err != nil {
			return
		}
		j, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("LoadJournal accepted what OpenJournal refuses: %v", err)
		}
		taken := map[string]bool{}
		for _, e := range before {
			taken[e.ID] = true
		}
		if j.Len() != len(taken) {
			t.Fatalf("OpenJournal holds %d IDs, LoadJournal %d", j.Len(), len(taken))
		}
		e := JournalEntry{ID: "new", Status: behavior.StatusOK, Attempts: 1}
		for taken[e.ID] {
			e.ID += "'"
		}
		if err := j.Record(e); err != nil {
			t.Fatal(err)
		}
		after, err := LoadJournal(path)
		if err != nil {
			t.Fatalf("journal unreadable after an append: %v", err)
		}
		if want := append(before, e); !reflect.DeepEqual(after, want) {
			t.Fatalf("after an append the journal loads %d entries, want the %d before plus the new one", len(after), len(before))
		}
	})
}
