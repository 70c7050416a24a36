package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"gcbench/internal/algorithms"
	"gcbench/internal/behavior"
)

// campaignSpecs builds n small, fast specs with distinct IDs.
func campaignSpecs(n int) []Spec {
	algs := []algorithms.Name{algorithms.CC, algorithms.PR, algorithms.KC, algorithms.SSSP}
	specs := make([]Spec, n)
	for i := range specs {
		specs[i] = Spec{
			Algorithm: algs[i%len(algs)],
			NumEdges:  300,
			Alpha:     2.0 + 0.25*float64(i%5),
			SizeLabel: fmt.Sprintf("c%d", i),
			Seed:      uint64(i + 1),
		}
	}
	return specs
}

// TestCampaignFaultIsolation is the acceptance scenario: one spec always
// fails, the campaign still completes, emits a corpus containing every
// other run, and reports the failure with its attempt count.
func TestCampaignFaultIsolation(t *testing.T) {
	specs := campaignSpecs(6)
	poison := specs[2].ID()
	progress := 0
	lastDone := 0
	cfg := Config{
		Parallel: 3, Workers: 1,
		Retries: 2, RetryBackoff: time.Millisecond,
		InjectFault: func(s Spec) error {
			if s.ID() == poison {
				return errors.New("always failing")
			}
			return nil
		},
		Progress: func(done, total int, id string) {
			progress++
			lastDone = done
			if total != len(specs) {
				t.Errorf("total = %d", total)
			}
		},
	}
	res, err := ExecuteCampaign(context.Background(), specs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 5 || res.Failed != 1 || len(res.Runs) != 5 {
		t.Fatalf("completed=%d failed=%d corpus=%d, want 5/1/5",
			res.Completed, res.Failed, len(res.Runs))
	}
	f := res.FirstFailure()
	if f == nil || f.Spec.ID() != poison {
		t.Fatalf("FirstFailure = %+v, want %s", f, poison)
	}
	if f.Status != behavior.StatusFailed || f.Attempts != 3 || f.Err == "" {
		t.Fatalf("failed result = status %s attempts %d err %q, want failed/3/non-empty",
			f.Status, f.Attempts, f.Err)
	}
	// Progress must account for the failed run too (not just successes).
	if progress != 6 || lastDone != 6 {
		t.Fatalf("progress fired %d times, last done %d; want 6 and 6", progress, lastDone)
	}
	// Sibling results stay in spec order and unpoisoned.
	for i, r := range res.Results {
		if r.Spec.ID() != specs[i].ID() {
			t.Fatalf("result %d is %s, want %s", i, r.Spec.ID(), specs[i].ID())
		}
		if i != 2 && (r.Status != behavior.StatusOK || r.Run == nil) {
			t.Fatalf("sibling %d poisoned: %+v", i, r)
		}
	}
	// The strict Execute wrapper reports the failure as an error.
	if _, err := Execute(specs, cfg); err == nil {
		t.Fatal("Execute accepted a failing campaign")
	}
}

func TestCampaignRetryRecoversTransientFault(t *testing.T) {
	specs := campaignSpecs(4)
	flaky := specs[1].ID()
	var mu sync.Mutex
	attempts := 0
	cfg := Config{
		Parallel: 2, Workers: 1,
		Retries: 2, RetryBackoff: time.Millisecond,
		InjectFault: func(s Spec) error {
			if s.ID() != flaky {
				return nil
			}
			mu.Lock()
			defer mu.Unlock()
			attempts++
			if attempts <= 2 {
				return fmt.Errorf("transient fault %d", attempts)
			}
			return nil
		},
	}
	res, err := ExecuteCampaign(context.Background(), specs, cfg)
	if err != nil || res.Failed != 0 || res.Completed != 4 {
		t.Fatalf("err=%v completed=%d failed=%d, want nil/4/0", err, res.Completed, res.Failed)
	}
	for _, r := range res.Results {
		want := 1
		if r.Spec.ID() == flaky {
			want = 3
		}
		if r.Attempts != want {
			t.Fatalf("%s attempts = %d, want %d", r.Spec.ID(), r.Attempts, want)
		}
	}
}

// TestCampaignNegativeRetriesIsSingleAttempt: a negative retry budget
// means one attempt, like 0 — not zero attempts and a nil error — on
// every way that attempt can end.
func TestCampaignNegativeRetriesIsSingleAttempt(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want behavior.RunStatus
	}{
		{"ok", Config{Retries: -1}, behavior.StatusOK},
		{"failed", Config{Retries: -1, InjectFault: func(Spec) error { return errors.New("always failing") }},
			behavior.StatusFailed},
		{"timeout", Config{Retries: -1, Timeout: time.Nanosecond}, behavior.StatusTimeout},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := ExecuteCampaign(context.Background(), campaignSpecs(1), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			r := res.Results[0]
			if r.Status != tc.want || r.Attempts != 1 || (r.Err == "") != (tc.want == behavior.StatusOK) {
				t.Fatalf("result = status %s attempts %d err %q, want %s/1", r.Status, r.Attempts, r.Err, tc.want)
			}
		})
	}
}

func TestCampaignPanicIsolated(t *testing.T) {
	specs := campaignSpecs(3)
	bomb := specs[0].ID()
	cfg := Config{
		Parallel: 1, Workers: 1,
		InjectFault: func(s Spec) error {
			if s.ID() == bomb {
				panic("spec exploded")
			}
			return nil
		},
	}
	res, err := ExecuteCampaign(context.Background(), specs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 || res.Completed != 2 {
		t.Fatalf("completed=%d failed=%d, want 2/1", res.Completed, res.Failed)
	}
	if f := res.FirstFailure(); f.Status != behavior.StatusFailed ||
		f.Err != "panic: spec exploded" {
		t.Fatalf("panic not captured: %+v", f)
	}
}

func TestCampaignPerRunTimeout(t *testing.T) {
	specs := campaignSpecs(2)
	cfg := Config{
		Parallel: 1, Workers: 1,
		// An already-expired per-attempt deadline: every attempt stops at
		// the first barrier check with DeadlineExceeded.
		Timeout: time.Nanosecond,
		Retries: 1, RetryBackoff: time.Millisecond,
	}
	res, err := ExecuteCampaign(context.Background(), specs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 2 || len(res.Runs) != 0 {
		t.Fatalf("failed=%d corpus=%d, want 2/0", res.Failed, len(res.Runs))
	}
	for _, r := range res.Results {
		if r.Status != behavior.StatusTimeout || r.Attempts != 2 {
			t.Fatalf("result = status %s attempts %d, want timeout/2", r.Status, r.Attempts)
		}
	}
}

// TestCampaignCancelThenResume is the acceptance scenario for checkpoint
// + resume: cancel a campaign mid-flight, verify the journal is valid,
// then resume and verify zero completed specs are re-executed.
func TestCampaignCancelThenResume(t *testing.T) {
	specs := campaignSpecs(8)
	jpath := filepath.Join(t.TempDir(), "campaign.journal")

	j1, err := OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Config{
		Parallel: 1, Workers: 1, Journal: j1,
		Progress: func(done, total int, id string) {
			if done == 3 {
				cancel()
			}
		},
	}
	res1, err := ExecuteCampaign(ctx, specs, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled campaign returned %v, want context.Canceled", err)
	}
	// Parallel=1 and the slot being released only after the checkpoint
	// lands make the cut deterministic: exactly 3 completed.
	if res1.Completed != 3 || res1.Cancelled != 5 {
		t.Fatalf("completed=%d cancelled=%d, want 3/5", res1.Completed, res1.Cancelled)
	}

	// The journal on disk is valid and holds exactly the completed runs.
	entries, err := LoadJournal(jpath)
	if err != nil {
		t.Fatalf("journal invalid after cancellation: %v", err)
	}
	completed := map[string]bool{}
	for _, e := range entries {
		if e.Status != behavior.StatusOK || e.Run == nil {
			t.Fatalf("journal entry %s: status %s run=%v", e.ID, e.Status, e.Run != nil)
		}
		completed[e.ID] = true
	}
	if len(completed) != 3 {
		t.Fatalf("journal has %d completed entries, want 3", len(completed))
	}

	// Resume: only the missing five execute, none of the journaled three.
	j2, err := OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	executed := map[string]bool{}
	cfg2 := Config{
		Parallel: 2, Workers: 1, Journal: j2,
		InjectFault: func(s Spec) error {
			mu.Lock()
			executed[s.ID()] = true
			mu.Unlock()
			return nil
		},
	}
	res2, err := ExecuteCampaign(context.Background(), specs, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Skipped != 3 || res2.Completed != 5 || len(res2.Runs) != len(specs) {
		t.Fatalf("skipped=%d completed=%d corpus=%d, want 3/5/%d",
			res2.Skipped, res2.Completed, len(res2.Runs), len(specs))
	}
	for id := range executed {
		if completed[id] {
			t.Fatalf("completed spec %s was re-executed on resume", id)
		}
	}
	if len(executed) != 5 {
		t.Fatalf("%d specs executed on resume, want 5", len(executed))
	}
	// The resumed corpus preserves spec order across the skip/run split.
	for i, r := range res2.Runs {
		if r.Algorithm != string(specs[i].Algorithm) || r.SizeLabel != specs[i].SizeLabel {
			t.Fatalf("corpus entry %d is <%s,%s>, want <%s,%s>",
				i, r.Algorithm, r.SizeLabel, specs[i].Algorithm, specs[i].SizeLabel)
		}
	}
	// A second resume of the now-complete journal re-executes nothing.
	j3, err := OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	res3, err := ExecuteCampaign(context.Background(), specs, Config{
		Parallel: 2, Journal: j3,
		InjectFault: func(s Spec) error {
			t.Errorf("spec %s executed on full resume", s.ID())
			return nil
		},
	})
	if err != nil || res3.Skipped != len(specs) || len(res3.Runs) != len(specs) {
		t.Fatalf("full resume: err=%v skipped=%d corpus=%d", err, res3.Skipped, len(res3.Runs))
	}
}

func TestJournalSeedMismatchNotResumed(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "j")
	j, err := OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	spec := campaignSpecs(1)[0]
	run := &behavior.Run{Algorithm: string(spec.Algorithm), SizeLabel: spec.SizeLabel}
	if err := j.Record(entryOf(RunResult{Spec: spec, Status: behavior.StatusOK, Run: run, Attempts: 1})); err != nil {
		t.Fatal(err)
	}
	if _, ok := j.Completed(spec); !ok {
		t.Fatal("matching spec not restored")
	}
	other := spec
	other.Seed++
	if _, ok := j.Completed(other); ok {
		t.Fatal("journal from a different campaign seed satisfied a resume")
	}
}

func TestJournalTornTailTolerated(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "j")
	j, err := OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	specs := campaignSpecs(2)
	for _, s := range specs {
		e := entryOf(RunResult{Spec: s, Status: behavior.StatusOK, Attempts: 1,
			Run: &behavior.Run{Algorithm: string(s.Algorithm), SizeLabel: s.SizeLabel}})
		if err := j.Record(e); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate a torn write: a partial record with no trailing newline.
	f, err := os.OpenFile(jpath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"id":"<CC, trunca`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	entries, err := LoadJournal(jpath)
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	if len(entries) != 2 {
		t.Fatalf("got %d entries, want 2", len(entries))
	}
	good, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	good = good[:bytes.LastIndexByte(good, '\n')+1]
	// A final line without its newline is torn even when it parses: the
	// append that wrote it never reached its fsync.
	whole := bytes.SplitAfter(good, []byte("\n"))[0]
	if err := os.WriteFile(jpath, append(good, whole[:len(whole)-1]...), 0o644); err != nil {
		t.Fatal(err)
	}
	if entries, err := LoadJournal(jpath); err != nil || len(entries) != 2 {
		t.Fatalf("parsing torn tail: %d entries, err %v; want 2, nil", len(entries), err)
	}
	// Corruption anywhere else is a real error, not silently dropped —
	// also when a torn line follows it.
	for _, tail := range []string{"garbage\n{\"id\":\"x\"}\n", "garbage\n{\"id\":\"<CC, trun"} {
		if err := os.WriteFile(jpath, append(good, tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadJournal(jpath); err == nil {
			t.Fatalf("mid-file corruption accepted before %q", tail)
		}
	}
}

func TestFaultRateDeterministicAndSeedable(t *testing.T) {
	specs := campaignSpecs(32)
	count := func(seed uint64) (failed int, pattern string) {
		hook := FaultRate(0.5, seed)
		for _, s := range specs {
			if hook(s) != nil {
				failed++
				pattern += "x"
			} else {
				pattern += "."
			}
		}
		return
	}
	f1, p1 := count(7)
	_, p2 := count(7)
	if p1 != p2 {
		t.Fatal("same seed produced different fault patterns")
	}
	if f1 == 0 || f1 == len(specs) {
		t.Fatalf("rate 0.5 failed %d/%d specs", f1, len(specs))
	}
	if _, p3 := count(8); p3 == p1 {
		t.Fatal("different seeds produced identical fault patterns")
	}
	if FaultRate(0, 1) != nil {
		t.Fatal("rate 0 should disable injection")
	}
}
