package sweep

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"gcbench/internal/behavior"
	"gcbench/internal/obs"
)

// metricJournalWrites counts journal appends (one per Record).
var metricJournalWrites = obs.Default().Counter("gcbench_sweep_journal_writes_total", "Checkpoint journal appends.")

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

// Journal is a campaign checkpoint: a JSONL file with one JournalEntry
// per line. Record appends one line per finished spec and fsyncs it, so a
// kill leaves at most a torn final line, which LoadJournal drops.
// Re-recording a spec ID (a failed run retried by a resumed campaign)
// appends again, and the last line for an ID wins.
type Journal struct {
	path string

	mu      sync.Mutex
	entries map[string]JournalEntry
	err     error // sticky: a failed append may have left a torn line
}

// OpenJournal opens (or creates) the journal at path, loading any
// existing entries for resume. A torn final line is cut from the file so
// the next append starts a line of its own.
func OpenJournal(path string) (*Journal, error) {
	j := &Journal{path: path, entries: make(map[string]JournalEntry)}
	entries, complete, torn, err := loadJournal(path)
	if os.IsNotExist(err) {
		return j, nil
	}
	if err == nil && torn {
		err = os.Truncate(path, complete)
	}
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		j.entries[e.ID] = e
	}
	return j, nil
}

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

// Record checkpoints one finished spec: it appends the entry as one JSON
// line and fsyncs it. After a failed append every later Record fails too,
// so a partial line can only ever be the file's last. Safe for concurrent
// use by campaign worker goroutines.
func (j *Journal) Record(e JournalEntry) error {
	line, err := json.Marshal(e)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(append(line, '\n')); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		j.err = err
		return err
	}
	j.entries[e.ID] = e
	metricJournalWrites.Inc()
	return nil
}

// LoadJournal reads a journal's entries, one per spec ID: the last line
// for an ID wins, at the position of the ID's first line. A final line
// without its newline is a torn append and is dropped even if it parses;
// a malformed line that ends in a newline is an error.
func LoadJournal(path string) ([]JournalEntry, error) {
	entries, _, _, err := loadJournal(path)
	return entries, err
}

// loadJournal is LoadJournal, also reporting the byte length of the
// file's complete lines and whether a torn tail follows them.
func loadJournal(path string) (entries []JournalEntry, complete int64, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, false, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 64<<20) // at most 64 MiB a line
	// Lines keep their newline, so a torn tail is the one token without.
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			return i + 1, data[:i+1], nil
		}
		if atEOF && len(data) > 0 {
			return len(data), data, nil
		}
		return 0, nil, nil
	})
	at := map[string]int{}
	for line := 1; sc.Scan(); line++ {
		b := sc.Bytes()
		if b[len(b)-1] != '\n' {
			return entries, complete, true, nil
		}
		complete += int64(len(b))
		if len(bytes.TrimSpace(b)) == 0 {
			continue
		}
		var e JournalEntry
		if err := json.Unmarshal(b, &e); err != nil {
			return nil, 0, false, fmt.Errorf("sweep: journal %s line %d: %w", path, line, err)
		}
		if i, ok := at[e.ID]; ok {
			entries[i] = e
			continue
		}
		at[e.ID] = len(entries)
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, 0, false, fmt.Errorf("sweep: reading journal %s: %w", path, err)
	}
	return entries, complete, false, nil
}

// Summary renders a one-line résumé of the journal for CLI output.
func (j *Journal) Summary() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	ok := 0
	for _, e := range j.entries {
		if e.Status == behavior.StatusOK {
			ok++
		}
	}
	return fmt.Sprintf("%d checkpointed (%d ok, %d failed)", len(j.entries), ok, len(j.entries)-ok)
}
