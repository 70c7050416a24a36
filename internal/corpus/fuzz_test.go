package corpus

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"gcbench/internal/behavior"
	"gcbench/internal/sweep"
)

// FuzzLoadCorpus feeds arbitrary bytes to LoadFile, the parser serve and
// shard-serve read a corpus from disk with, through both branches it
// detects: a runs JSON array and a checkpoint journal. It never panics,
// and every snapshot it accepts finds each of its records by key.
func FuzzLoadCorpus(f *testing.F) {
	raw, err := os.ReadFile("../../runs-standard.json")
	if err != nil {
		f.Fatal(err)
	}
	var all []json.RawMessage
	if err := json.Unmarshal(raw, &all); err != nil {
		f.Fatal(err)
	}
	first, err := json.Marshal(all[:3])
	if err != nil {
		f.Fatal(err)
	}
	dup, err := json.Marshal([]json.RawMessage{all[0], all[1], all[0]})
	if err != nil {
		f.Fatal(err)
	}
	line, err := json.Marshal(sweep.JournalEntry{ID: "<CC, 1e3>", Status: behavior.StatusOK, Attempts: 1,
		Run: &behavior.Run{Algorithm: "CC", SizeLabel: "1e3", Raw: behavior.Vector{1, 2, 3, 4}}})
	if err != nil {
		f.Fatal(err)
	}
	failed, err := json.Marshal(sweep.JournalEntry{ID: "<TC, 1e3>", Status: behavior.StatusFailed, Attempts: 3,
		Err: "boom"})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{
		first,
		first[:len(first)/2], // torn runs file
		dup,                  // a key collision
		{},                   // zero-byte file
		[]byte(" \n\t"),
		[]byte("[]"),
		[]byte("[null]"),
		append(line, '\n'),
		append(line, line[:len(line)/2]...),   // torn journal tail
		append(append(line, '\n'), line...),   // one spec journaled twice
		append(append(failed, '\n'), line...), // a failed run beside a measured one
		[]byte("null\n"),
		[]byte("{}\n"),
		[]byte(`[{"algorithm":"CC"}]`), // a run with no behavior vector
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "corpus")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		snap, err := LoadFile(path)
		if err != nil {
			return
		}
		for i := range snap.Records {
			if j, ok := snap.Lookup(snap.Records[i].Key); !ok || j != i {
				t.Fatalf("record %d (key %q): Lookup = (%d, %v)", i, snap.Records[i].Key, j, ok)
			}
		}
	})
}
