// Command bench is the repository's benchmark: six workloads driven
// through the shipped gcbench binary (two sweep campaigns, four serve
// deployments over loopback TCP; four of the six are in the manifest and
// gated), five end-to-end metrics with regression bounds, and per-layer
// attribution measured from outside the program and by a separate traced
// in-process pass. It runs pinned to one CPU and corrects its times by a
// calibration probe (affinity.go, probe.go). See README.md.
//
//	bash bench/run.sh --workload serve-read --seed 1 --seconds 25 --trace 0   # one run, driver's result line
//	bash bench/run.sh -seed 1                                                 # every workload, a result file
//	bash bench/run.sh -seed 1 -trace 1                                        # plus the per-layer pass
//	bash bench/run.sh -runs 10 -out bench/out/a.json                          # a set: ten seeds per workload
//	bash bench/run.sh -runs 10 -out bench/out/a.json -pair bench/out/b.json   # two sets, taken run by run in turn
//	bash bench/run.sh -compare bench/out/a.json bench/out/b.json              # agreement / regression check
//	bash bench/run.sh -update-expected                                        # re-record bench/expected/
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	workload := flag.String("workload", "all", "workload name from BENCHMARK.json, or all")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 0, "nominal measured seconds per run (0 = run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1 = report the per-layer metrics (adds the traced in-process pass)")
	runs := flag.Int("runs", 1, "with -workload all: runs per workload, on seeds seed..seed+runs-1")
	out := flag.String("out", filepath.Join(outDir, "result.json"), "with -workload all: result file to write")
	pair := flag.String("pair", "", "with -workload all: run every (workload, seed) twice back to back and write the second runs here")
	compare := flag.Bool("compare", false, "compare two result files given as arguments; exit 1 on a regression")
	update := flag.Bool("update-expected", false, "re-record the committed digests under bench/expected/ (seed 1)")
	calibrate := flag.Bool("calibrate", false, "run both calibration probes for -seconds and print their slowdowns (1 = the nominal constants of probe.go)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	man, err := loadManifest(manifestPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v (run from the root of the checkout)\n", err)
		return 2
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(os.Stdout, man, flag.Arg(0), flag.Arg(1))
	}
	if *seconds == 0 {
		*seconds = man.RunSeconds
	}

	b := &bencher{man: man, seconds: *seconds}
	if b.gcbench, b.buildS, err = buildGcbench(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if *trace == 1 {
		// Built here, with every core, before the process pins itself; a
		// pass that does not build costs the run its traced rows only
		// (see runInproc).
		buildInproc()
	}
	if b.pinnedCPU, err = pinToOneCPU(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: could not pin to one CPU, running unpinned (expect noisier figures): %v\n", err)
	}
	if !*update {
		exp, err := loadExpected()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		b.exp = *exp
	}

	switch {
	case *calibrate:
		err = calibrateProbes(ctx, os.Stdout, time.Duration(*seconds)*time.Second)
	case *update:
		err = b.updateExpected(ctx)
	case *workload == "all":
		err = b.suite(ctx, *seed, *runs, *trace == 1, *out, *pair)
	default:
		err = b.driverRun(ctx, *workload, *seed, *trace == 1)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// bencher holds what every run of this process shares.
type bencher struct {
	man     *manifest
	gcbench string
	buildS  float64 // bench.build_s: outside every workload, cache-dependent
	seconds int
	exp     expected // empty while the digests are being recorded
	// pinnedCPU is the one CPU the benchmark and its children run on, -1
	// when pinning failed.
	pinnedCPU int
}

// runOne runs one workload once, in a temp dir of its own that is removed
// whatever happens.
func (b *bencher) runOne(ctx context.Context, name string, seed uint64, trace bool) (*result, error) {
	fn := workloadByName(name)
	if fn == nil {
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
	}
	dir, err := newTempDir(name)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	res, err := fn(ctx, runParams{gcbench: b.gcbench, seed: seed, seconds: b.seconds, trace: trace, dir: dir, exp: b.exp})
	if err != nil {
		return nil, err
	}
	res.PerLayer["bench.build_s"] = b.buildS
	if b.pinnedCPU >= 0 {
		res.PerLayer["bench.pinned"] = 1
	}
	// Every end-to-end metric measured, and nothing measured under a name
	// the manifest does not declare.
	if _, err := emit(b.man.EndToEnd, res.EndToEnd, true); err != nil {
		return nil, err
	}
	if _, err := emit(b.man.PerLayer, res.PerLayer, false); err != nil {
		return nil, err
	}
	return res, nil
}

// driverRun is the mode the driver uses: one workload, one run, and as
// the last line of standard output the result object with the end-to-end
// metrics (trace 0) or the per-layer metrics (trace 1). A failed output
// check is reported in that object (correct: false), not by the exit
// code, which is reserved for a run that could not be completed.
func (b *bencher) driverRun(ctx context.Context, name string, seed uint64, trace bool) error {
	res, err := b.runOne(ctx, name, seed, trace)
	if err != nil {
		return err
	}
	printResult(os.Stderr, b.man, res, trace)
	defs, got := b.man.EndToEnd, res.EndToEnd
	if trace {
		defs, got = b.man.PerLayer, res.PerLayer
	}
	metrics, err := emit(defs, got, !trace)
	if err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// resultFile is what suite mode writes and -compare reads: where it was
// measured, and every run with its raw per-round values.
type resultFile struct {
	Env fingerprint `json:"environment"`
	// Claim is always null: the benchmark measures, a change claims.
	Claim   *string   `json:"claim"`
	BuildS  float64   `json:"bench.build_s"`
	Seconds int       `json:"seconds"`
	Runs    []*result `json:"runs"`
}

// suite runs every workload the benchmark implements — the gated ones of
// the manifest and the two it keeps outside the gate (see workloadNames) —
// runs times each, prints every metric by name with its unit and writes
// the result file. It fails when any output check failed.
//
// With pair set, every (workload, seed) is run twice back to back and the
// second runs form a set of their own, written to pair. That is how two
// sets of one commit are taken on a machine whose speed drifts: both see
// the same minutes, so what `-compare` then shows is the benchmark's own
// disagreement with itself and not the host's mood.
func (b *bencher) suite(ctx context.Context, seed uint64, runs int, trace bool, out, pair string) error {
	sets := []*resultFile{{Env: takeFingerprint(buildDir, b.pinnedCPU), BuildS: b.buildS, Seconds: b.seconds}}
	paths := []string{out}
	if pair != "" {
		second := *sets[0]
		sets, paths = append(sets, &second), append(paths, pair)
	}
	incorrect := 0
	for _, name := range workloadNames() {
		for r := 0; r < runs; r++ {
			for _, set := range sets {
				res, err := b.runOne(ctx, name, seed+uint64(r), trace)
				if err != nil {
					return err
				}
				printResult(os.Stdout, b.man, res, trace)
				if !res.Correct {
					incorrect++
				}
				set.Runs = append(set.Runs, res)
			}
		}
	}
	for i, set := range sets {
		if err := checkByteIdentity(set.Runs); err != nil {
			incorrect++
			fmt.Fprintf(os.Stdout, "FAILED CHECK: %v\n", err)
		}
		if err := os.MkdirAll(filepath.Dir(paths[i]), 0o755); err != nil {
			return err
		}
		body, err := json.MarshalIndent(set, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(paths[i], append(body, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", paths[i])
	}
	fmt.Printf("bench.build_s %.3f s\n", b.buildS)
	if incorrect > 0 {
		return fmt.Errorf("%d output check(s) failed", incorrect)
	}
	return nil
}

// checkByteIdentity holds the single-store and the wire deployment to the
// same probe bytes when one invocation ran both, whatever is committed.
func checkByteIdentity(runs []*result) error {
	digest := map[string]string{}
	for _, r := range runs {
		digest[r.Workload] = r.Digests["probes"]
	}
	read, wire := digest[serveRead.name], digest[serveWire.name]
	if read != "" && wire != "" && read != wire {
		return fmt.Errorf("serve-read and serve-wire answered the probes with different bytes (%s vs %s)", read, wire)
	}
	return nil
}

// printResult lists every metric of a run by name, with its unit.
func printResult(w io.Writer, man *manifest, res *result, trace bool) {
	verdict := "correct"
	if !res.Correct {
		verdict = "INCORRECT"
	}
	fmt.Fprintf(w, "== %s seed=%d seconds=%d: %s, ops_attempted %d count, ops_failed %d count\n",
		res.Workload, res.Seed, res.Seconds, verdict, res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "   FAILED CHECK: %s\n", f)
	}
	if steal := res.PerLayer["bench.host_steal_share"]; steal > 0.02 {
		fmt.Fprintf(w, "   NOTE: the hypervisor took %.0f %% of the machine's CPU time during the measured phase; these timings are the host's, not the program's\n", 100*steal)
	}
	for _, d := range man.EndToEnd {
		fmt.Fprintf(w, "   %-34s %14.4f %s\n", d.Name, res.EndToEnd[d.Name], d.Unit)
	}
	// The from-outside per-layer rows are free and always shown; rows that
	// do not apply to the workload (or need the traced pass) read 0 and
	// are left out of the listing unless the traced pass ran.
	for _, d := range man.PerLayer {
		if v, ok := res.PerLayer[d.Name]; ok && (trace || v != 0) {
			fmt.Fprintf(w, "   %-34s %14.4f %s\n", d.Name, v, d.Unit)
		}
	}
	keys := make([]string, 0, len(res.Digests))
	for k := range res.Digests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "   digest %-27s %s\n", k, res.Digests[k])
	}
}

// updateExpected re-records the committed digests from seed-1 runs: the
// counter digest of each campaign and the probe digests of the serve
// deployments. It is the deliberate act that
// follows a change meant to alter outputs.
func (b *bencher) updateExpected(ctx context.Context) error {
	exp := &expected{Campaign: map[string]string{}, Probes: map[string]string{}}
	b.seconds = 1 // one round; only the outputs matter
	for _, name := range workloadNames() {
		res, err := b.runOne(ctx, name, 1, false)
		if err != nil {
			return err
		}
		if !res.Correct {
			return fmt.Errorf("%s: %v", name, res.Failures)
		}
		if d := res.Digests["counters"]; d != "" {
			exp.Campaign[campaignKey(name, 1)] = d
		}
		if d := res.Digests["probes"]; d != "" {
			key := deploymentByName(name).probeKey()
			if prev, ok := exp.Probes[key]; ok && prev != d {
				return fmt.Errorf("%s answers the probes with %s, an earlier deployment with %s: they must agree", name, d, prev)
			}
			exp.Probes[key] = d
		}
		fmt.Printf("%s recorded\n", name)
	}
	if err := os.MkdirAll(filepath.Dir(expectedPath), 0o755); err != nil {
		return err
	}
	return exp.save()
}
