package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gcbench/internal/algorithms"
	"gcbench/internal/sweep"
)

// writeTinyCorpus sweeps a minimal campaign and saves it for the
// figure/ensemble subcommand tests.
func writeTinyCorpus(t *testing.T) string {
	t.Helper()
	var specs []sweep.Spec
	for _, alg := range []algorithms.Name{"CC", "PR", "TC", "KM", "ALS", "SGD"} {
		for _, alpha := range []float64{2.0, 3.0} {
			s := sweep.Spec{Algorithm: alg, NumEdges: 300, Alpha: alpha,
				SizeLabel: "300", Seed: uint64(alpha * 7)}
			if alg == "ALS" || alg == "SGD" {
				s.NumEdges = 150
			}
			specs = append(specs, s)
		}
	}
	runs, err := sweep.Execute(specs, sweep.Config{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "runs.json")
	if err := sweep.SaveRunsFile(path, runs); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCmdPlan(t *testing.T) {
	if err := cmdPlan([]string{"-profile", "quick"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdPlan([]string{"-profile", "bogus"}); err == nil {
		t.Fatal("bogus profile accepted")
	}
}

func TestCmdRun(t *testing.T) {
	if err := cmdRun([]string{"-alg", "CC", "-edges", "300"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdRun([]string{"-alg", "LBP", "-rows", "8"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdRun([]string{"-alg", "nope"}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

// TestCmdRunTracefile verifies the CLI trace export: the file must be a
// valid Chrome trace-event JSON array with one span per iteration.
func TestCmdRunTracefile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cc.trace.json")
	if err := cmdRun([]string{"-alg", "CC", "-edges", "300", "-tracefile", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	iterations := 0
	for _, e := range events {
		if e["cat"] == "iteration" {
			iterations++
		}
	}
	if iterations == 0 {
		t.Fatalf("trace file has no iteration spans (%d events)", len(events))
	}
}

// TestCmdSweepListenFlag verifies the -listen flag is plumbed: an
// unbindable address must fail the command before any run executes.
// (Serving /metrics and /statusz during a live campaign is covered by
// the race-enabled test in internal/sweep.)
func TestCmdSweepListenFlag(t *testing.T) {
	out := filepath.Join(t.TempDir(), "runs.json")
	err := cmdSweep([]string{"-profile", "quick", "-out", out, "-journal", "none",
		"-quiet", "-listen", "256.256.256.256:0"})
	if err == nil {
		t.Fatal("unbindable -listen address accepted")
	}
}

// TestCmdSweepRejectsNegativeRetries: -retries below zero is refused
// with the campaign API's wording before any run executes.
func TestCmdSweepRejectsNegativeRetries(t *testing.T) {
	out := filepath.Join(t.TempDir(), "runs.json")
	err := cmdSweep([]string{"-profile", "quick", "-out", out, "-journal", "none",
		"-quiet", "-retries", "-1"})
	if err == nil || !strings.Contains(err.Error(), "retries must be ≥ 0") {
		t.Fatalf("err = %v, want a retries must be ≥ 0 refusal", err)
	}
	if _, statErr := os.Stat(out); !os.IsNotExist(statErr) {
		t.Fatalf("refused sweep wrote %s (stat err %v)", out, statErr)
	}
}

// TestCmdSweepRejectsOutOfRangeFlags: the campaign knobs beside -retries
// are refused out of range before any run executes, with
// sweep.Config.Validate's wording for those POST /api/campaigns shares.
func TestCmdSweepRejectsOutOfRangeFlags(t *testing.T) {
	for _, tc := range []struct {
		flag, value, want string
	}{
		{"-parallel", "-1", "parallel must be ≥ 0, got -1"},
		{"-workers", "-3", "workers must be ≥ 0, got -3"},
		{"-timeout", "-1s", "timeout must be ≥ 0, got -1s"},
		{"-backoff", "-5ms", "backoff must be ≥ 0, got -5ms"},
		{"-faultrate", "2", "faultrate must be in [0,1], got 2"},
		{"-faultrate", "-0.5", "faultrate must be in [0,1], got -0.5"},
		{"-faultrate", "NaN", "faultrate must be in [0,1], got NaN"},
	} {
		t.Run(tc.flag+"="+tc.value, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "runs.json")
			err := cmdSweep([]string{"-profile", "quick", "-out", out, "-quiet", tc.flag, tc.value})
			if err == nil || err.Error() != tc.want {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
			for _, p := range []string{out, out + ".journal"} {
				if _, statErr := os.Stat(p); !os.IsNotExist(statErr) {
					t.Fatalf("refused sweep wrote %s (stat err %v)", p, statErr)
				}
			}
		})
	}
}

func TestCmdFiguresAndEnsemble(t *testing.T) {
	path := writeTinyCorpus(t)
	for _, fig := range []string{"table2", "13", "18"} {
		if err := cmdFigures([]string{"-runs", path, "-fig", fig,
			"-samples", "2000", "-maxsize", "4"}); err != nil {
			t.Fatalf("figures %s: %v", fig, err)
		}
	}
	if err := cmdFigures([]string{"-runs", path, "-fig", "13", "-csv"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdFigures([]string{"-runs", "/nonexistent.json", "-fig", "13"}); err == nil {
		t.Fatal("missing corpus accepted")
	}
	if err := cmdEnsemble([]string{"-runs", path, "-size", "3", "-samples", "2000"}); err != nil {
		t.Fatal(err)
	}
}

// TestCmdRejectsOutOfRangeSizes: an ensemble size outside [1, pool
// size] and a negative figure size bound or sample count are refused
// with an error, not a panic or an empty ensemble, and before anything
// is printed — `-fig all` included.
func TestCmdRejectsOutOfRangeSizes(t *testing.T) {
	path := writeTinyCorpus(t) // a pool of 12 runs
	for _, tc := range []struct {
		cmd  func([]string) error
		args []string
		want string
	}{
		{cmdEnsemble, []string{"-size", "-1"}, "between 1 and the pool's 12 runs, got -1"},
		{cmdEnsemble, []string{"-size", "0"}, "between 1 and the pool's 12 runs, got 0"},
		{cmdEnsemble, []string{"-size", "13"}, "between 1 and the pool's 12 runs, got 13"},
		{cmdEnsemble, []string{"-size", "500"}, "between 1 and the pool's 12 runs, got 500"},
		{cmdFigures, []string{"-fig", "14", "-maxsize", "-5"}, "must be ≥ 0, got -5"},
		{cmdFigures, []string{"-fig", "18", "-maxsize", "-1"}, "must be ≥ 0, got -1"},
		{cmdFigures, []string{"-fig", "table3", "-maxsize", "-2", "-samples", "2000"}, "must be ≥ 0, got -2"},
		{cmdFigures, []string{"-fig", "all", "-maxsize", "-5"}, "must be ≥ 0, got -5"},
		{cmdFigures, []string{"-fig", "all", "-samples", "-1"}, "must be ≥ 0, got -1"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			var err error
			out := captureStdout(t, func() { err = tc.cmd(append([]string{"-runs", path}, tc.args...)) })
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
			if out != "" {
				t.Fatalf("printed %d bytes before failing:\n%.200s", len(out), out)
			}
		})
	}
}

// captureStdout returns what fn writes to os.Stdout.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	orig := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = orig }()
	fn()
	b, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestCmdPredict(t *testing.T) {
	path := writeTinyCorpus(t)
	if err := cmdPredict([]string{"-runs", path, "-alg", "PR", "-edges", "500", "-alpha", "2.5"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdPredict([]string{"-runs", path, "-alg", "nope"}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if err := cmdPredict([]string{"-runs", "/nonexistent.json"}); err == nil {
		t.Fatal("missing corpus accepted")
	}
}

func TestCmdSweepQuickSubset(t *testing.T) {
	// Full quick sweep is exercised elsewhere; here only the error path.
	if err := cmdSweep([]string{"-profile", "bogus"}); err == nil {
		t.Fatal("bogus profile accepted")
	}
}
