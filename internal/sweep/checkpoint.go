package sweep

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"gcbench/internal/behavior"
	"gcbench/internal/obs"
)

// metricJournalWrites counts atomic journal rewrites (one per Record).
var metricJournalWrites = obs.Default().Counter("gcbench_sweep_journal_writes_total", "Checkpoint journal rewrites.")

// JournalEntry is one checkpoint record: the final outcome of one spec,
// keyed by the spec's ID. Successful entries embed the measured behavior
// run so a resumed campaign can rebuild the full corpus without
// re-executing anything.
type JournalEntry struct {
	ID     string             `json:"id"`
	Spec   Spec               `json:"spec"`
	Status behavior.RunStatus `json:"status"`
	// Attempts and DurationMs mirror the RunResult accounting.
	Attempts   int           `json:"attempts"`
	DurationMs int64         `json:"durationMs"`
	Err        string        `json:"error,omitempty"`
	Run        *behavior.Run `json:"run,omitempty"`
	// Provenance carries the run's execution environment and start/end
	// timestamps into the checkpoint, so a resumed campaign's corpus
	// still documents where every measurement came from.
	Provenance *Provenance `json:"provenance,omitempty"`
}

// entryOf converts a finished RunResult into its journal record.
func entryOf(r RunResult) JournalEntry {
	return JournalEntry{
		ID:         r.Spec.ID(),
		Spec:       r.Spec,
		Status:     r.Status,
		Attempts:   r.Attempts,
		DurationMs: r.Duration.Milliseconds(),
		Err:        r.Err,
		Run:        r.Run,
		Provenance: r.Provenance,
	}
}

// Journal is a campaign checkpoint: an append-only JSONL file with one
// JournalEntry per line, rewritten atomically (temp file + rename in the
// journal's directory) on every Record so a killed process never leaves a
// torn file behind. Re-recording a spec ID (a failed run retried by a
// resumed campaign) replaces the earlier entry.
type Journal struct {
	path string

	mu      sync.Mutex
	order   []string
	entries map[string]JournalEntry
}

// OpenJournal opens (or creates) the journal at path, loading any
// existing entries for resume. A trailing partial line — a write cut off
// by a kill before the atomic rewrite landed — is tolerated and dropped.
func OpenJournal(path string) (*Journal, error) {
	j := &Journal{path: path, entries: make(map[string]JournalEntry)}
	entries, err := LoadJournal(path)
	if err != nil {
		if os.IsNotExist(err) {
			return j, nil
		}
		return nil, err
	}
	for _, e := range entries {
		if _, ok := j.entries[e.ID]; !ok {
			j.order = append(j.order, e.ID)
		}
		j.entries[e.ID] = e
	}
	return j, nil
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Len returns the number of distinct spec IDs recorded.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.entries)
}

// Completed returns the journaled behavior run for spec if a successful
// entry exists for the same spec identity (ID and seed — a journal from a
// different campaign seed never satisfies a resume). Failed or timed-out
// entries return false so a resumed campaign re-executes them.
func (j *Journal) Completed(spec Spec) (*behavior.Run, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	e, ok := j.entries[spec.ID()]
	if !ok || e.Status != behavior.StatusOK || e.Run == nil || e.Spec.Seed != spec.Seed {
		return nil, false
	}
	return e.Run, true
}

// Entries returns the recorded entries in first-recorded order.
func (j *Journal) Entries() []JournalEntry {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]JournalEntry, 0, len(j.order))
	for _, id := range j.order {
		out = append(out, j.entries[id])
	}
	return out
}

// Record checkpoints one finished spec and atomically persists the
// journal. Safe for concurrent use by campaign worker goroutines.
func (j *Journal) Record(e JournalEntry) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.entries[e.ID]; !ok {
		j.order = append(j.order, e.ID)
	}
	j.entries[e.ID] = e
	metricJournalWrites.Inc()
	return j.flushLocked()
}

// flushLocked writes every entry as one JSON line to a temp file in the
// journal's directory, fsyncs, and renames it over the journal path.
func (j *Journal) flushLocked() error {
	dir := filepath.Dir(j.path)
	tmp, err := os.CreateTemp(dir, filepath.Base(j.path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	bw := bufio.NewWriter(tmp)
	enc := json.NewEncoder(bw)
	for _, id := range j.order {
		if err := enc.Encode(j.entries[id]); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), j.path)
}

// LoadJournal reads a journal file's entries in file order. A final
// partial line is dropped; a malformed line elsewhere is an error.
func LoadJournal(path string) ([]JournalEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	var entries []JournalEntry
	var pendingErr error
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if len(text) == 0 {
			continue
		}
		var e JournalEntry
		if err := json.Unmarshal([]byte(text), &e); err != nil {
			// Only tolerate corruption on the final line (torn write).
			pendingErr = fmt.Errorf("sweep: journal %s line %d: %w", path, line, err)
			continue
		}
		if pendingErr != nil {
			return nil, pendingErr
		}
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sweep: reading journal %s: %w", path, err)
	}
	return entries, nil
}

// Summary renders a one-line résumé of the journal for CLI output.
func (j *Journal) Summary() string {
	entries := j.Entries()
	ok, failed := 0, 0
	for _, e := range entries {
		if e.Status == behavior.StatusOK {
			ok++
		} else {
			failed++
		}
	}
	return fmt.Sprintf("%d checkpointed (%d ok, %d failed)", len(entries), ok, failed)
}
