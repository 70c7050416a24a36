package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// runParams is what one workload run is given.
type runParams struct {
	gcbench string   // the built CLI
	seed    uint64   // feeds -seed, request schedules, design pools and publish seeds
	seconds int      // nominal measured time
	trace   bool     // also collect the per-layer metrics
	dir     string   // this run's temp dir, removed by the caller
	exp     expected // committed digests; empty while they are being recorded
}

// result is one run of one workload: what the driver's result line and a
// result file's entry are rendered from.
type result struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Seconds   int      `json:"seconds"`
	Correct   bool     `json:"correct"`
	Failures  []string `json:"failed_checks,omitempty"`
	Attempted int64    `json:"ops_attempted"`
	Failed    int64    `json:"ops_failed"`
	// EndToEnd is always measured; PerLayer holds the from-outside numbers
	// always and the in-process pass's numbers after a traced run.
	EndToEnd map[string]float64 `json:"end_to_end"`
	PerLayer map[string]float64 `json:"per_layer"`
	// Rounds keeps the raw per-round (or per-set-up) values the medians
	// above were taken from.
	Rounds map[string][]float64 `json:"rounds"`
	// Digests are the output fingerprints the correctness checks compared.
	Digests map[string]string `json:"digests,omitempty"`
}

func newResult(workload string, p runParams) *result {
	return &result{
		Workload: workload, Seed: p.seed, Seconds: p.seconds, Correct: true,
		EndToEnd: map[string]float64{}, PerLayer: map[string]float64{},
		Rounds: map[string][]float64{}, Digests: map[string]string{},
	}
}

// fail records a failed correctness check; the run still reports its
// numbers, marked incorrect.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// checkDigest compares a digest with the committed one, when one is
// committed for this key; otherwise it is only recorded.
func (r *result) checkDigest(kind string, want map[string]string, key, got string) {
	r.Digests[kind] = got
	if w, ok := want[key]; ok && w != got {
		r.fail("%s digest %s differs from the committed %s (%s in %s)", kind, got, w, key, expectedPath)
	}
}

// clientCount is one: the whole benchmark, load generator and program
// under test, runs pinned to one CPU (see pinToOneCPU), and a closed loop
// with one client keeps exactly one side of the connection runnable at a
// time. A second client would queue behind the first and measure the
// scheduler.
const clientCount = 1

// workloadFunc runs one workload.
type workloadFunc func(ctx context.Context, p runParams) (*result, error)

var (
	campaigns   = []campaign{campaignBreadth, campaignScale}
	deployments = []deployment{serveRead, serveDesignCold, servePublish, serveWire}
)

// workloadNames lists every workload the benchmark implements. The first
// four are the manifest's, which the driver runs and gates. serve-publish
// and serve-wire are kept outside the gate: `-workload all` and a
// `--workload` by name still run them, with every metric and check, but
// the driver's time limit leaves room for four workloads at a run length
// that is steady on a shared host, and these two are the deployments of
// several processes whose figures are the noisiest.
func workloadNames() []string {
	var names []string
	for _, c := range campaigns {
		names = append(names, c.name)
	}
	for _, d := range deployments {
		names = append(names, d.name)
	}
	return names
}

// workloadByName resolves a workload name to its implementation.
func workloadByName(name string) workloadFunc {
	for _, c := range campaigns {
		if c.name == name {
			return c.run
		}
	}
	if d := deploymentByName(name); d.name != "" {
		return d.run
	}
	return nil
}

func deploymentByName(name string) deployment {
	for _, d := range deployments {
		if d.name == name {
			return d
		}
	}
	return deployment{}
}

// inprocReport is what the traced in-process pass hands back.
type inprocReport struct {
	Metrics map[string]float64 `json:"metrics"`
	// Runs is the corpus file the campaign replay produced, in the format
	// `gcbench sweep -out` writes, so one digest function reads both.
	Runs string `json:"runs,omitempty"`
}

// runInproc builds and runs the traced in-process pass for a workload and
// merges its per-layer numbers into res. A pass that does not build —
// because a later change moved one of the internal functions it pins —
// costs the per-layer numbers of this run (bench.inproc_ok reads 0) and
// says so on standard error; it never fails the workload.
func runInproc(ctx context.Context, p runParams, res *result, args ...string) (*inprocReport, error) {
	bin, _, err := buildInproc()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: the in-process pass does not build; its per-layer metrics read 0:\n%v\n", err)
		res.PerLayer["bench.inproc_ok"] = 0
		return nil, nil
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	report := filepath.Join(p.dir, "inproc.json")
	spans, err := filepath.Abs(filepath.Join(outDir, "trace-"+res.Workload+".json"))
	if err != nil {
		return nil, err
	}
	args = append([]string{
		"-workload", res.Workload, "-seed", strconv.FormatUint(p.seed, 10),
		"-dir", p.dir, "-report", report, "-spans", spans,
	}, args...)
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stderr = os.Stderr
	if out, err := cmd.Output(); err != nil {
		return nil, fmt.Errorf("in-process pass: %w\n%s", err, out)
	}
	body, err := os.ReadFile(report)
	if err != nil {
		return nil, err
	}
	var rep inprocReport
	if err := json.Unmarshal(body, &rep); err != nil {
		return nil, fmt.Errorf("in-process report: %w", err)
	}
	for k, v := range rep.Metrics {
		res.PerLayer[k] = v
	}
	res.PerLayer["bench.inproc_ok"] = 1
	return &rep, nil
}
