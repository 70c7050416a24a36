// Command gcbench drives the full reproduction workflow:
//
//	gcbench plan    [-profile standard]                 # print the Table 2 campaign
//	gcbench sweep   [-profile standard] [-out runs.json] # execute it, save the corpus
//	gcbench sweep   -resume runs.json.journal            # finish an interrupted campaign
//	gcbench sweep   -timeout 90s -retries 2              # per-run budget + bounded retry
//	gcbench sweep   -listen :9090                        # live /metrics /statusz /healthz /debug/pprof
//	gcbench sweep   -models gas,pregel,xstream,graphcentric # multi-model campaign (or -models all)
//	gcbench run     -alg PR [-edges 100000] [-alpha 2.5] # one instrumented computation
//	gcbench run     -alg PR -model pregel                # same computation under another execution model
//	gcbench run     -alg PR -tracefile pr.trace.json     # + Chrome trace-event phase spans
//	gcbench figures [-runs runs.json] [-fig all|N|tableN] # regenerate figures/tables
//	gcbench ensemble [-runs runs.json] [-size 10]        # best spread/coverage ensembles
//	gcbench serve   [-runs runs.json] [-listen :8080]    # corpus + ensemble design HTTP API (1 shard × 1 replica)
//	gcbench serve   -shards 4 -replicas 2                # the same backend, partitioned and replicated
//	gcbench serve   -shards 4 -replicas 2 -shard-spawn   # each replica its own supervised OS process
//	gcbench shard-serve -listen 127.0.0.1:9301 -shard 0  # one shard replica process (wire protocol)
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gcbench/internal/algorithms"
	"gcbench/internal/behavior"
	"gcbench/internal/ensemble"
	"gcbench/internal/model"
	"gcbench/internal/obs"
	"gcbench/internal/predict"
	"gcbench/internal/report"
	"gcbench/internal/sweep"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "plan":
		err = cmdPlan(os.Args[2:])
	case "sweep":
		err = cmdSweep(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "figures":
		err = cmdFigures(os.Args[2:])
	case "ensemble":
		err = cmdEnsemble(os.Args[2:])
	case "predict":
		err = cmdPredict(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "shard-serve":
		err = cmdShardServe(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "gcbench: unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "gcbench: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `gcbench — graph computation behavior benchmarking (HPDC'15 reproduction)

subcommands:
  plan      print the Table 2 experiment campaign
  sweep     execute the campaign and save the behavior corpus
  run       run one algorithm on one generated graph, print its behavior
  figures   regenerate the paper's figures/tables from a corpus
  ensemble  search the corpus for the best benchmark ensembles
  predict   interpolate a computation's behavior from the corpus (§7)
  serve     serve the corpus + ensemble design as a JSON HTTP API
  shard-serve  run one corpus shard replica as a wire-protocol process

run 'gcbench <subcommand> -h' for flags.
`)
}

func cmdPlan(args []string) error {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	profile := fs.String("profile", "standard", "campaign scale: quick | standard | large")
	seed := fs.Uint64("seed", 42, "campaign seed")
	fs.Parse(args)

	specs, err := sweep.BuildPlan(sweep.Profile(*profile), *seed)
	if err != nil {
		return err
	}
	fmt.Printf("# Table 2 campaign, profile=%s: %d runs\n", *profile, len(specs))
	for _, s := range specs {
		fmt.Println(s.ID())
	}
	return nil
}

func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	profile := fs.String("profile", "standard", "campaign scale: quick | standard | large")
	seed := fs.Uint64("seed", 42, "campaign seed")
	out := fs.String("out", "runs.json", "corpus output path")
	parallel := fs.Int("parallel", 0, "concurrent runs (0 = cores/2)")
	workers := fs.Int("workers", 0, "engine workers per run (0 = all cores)")
	vb := verbosityFlags(fs)
	listen := fs.String("listen", "", "serve /metrics /statusz /healthz /debug/pprof on this addr (e.g. :9090) while sweeping")
	timeout := fs.Duration("timeout", 0, "per-run wall-clock budget, e.g. 90s (0 = unlimited)")
	retries := fs.Int("retries", 0, "extra attempts for a failed or timed-out run")
	backoff := fs.Duration("backoff", 100*time.Millisecond, "base retry backoff (doubles per attempt)")
	journalPath := fs.String("journal", "", "checkpoint journal path (default <out>.journal; 'none' disables)")
	resume := fs.String("resume", "", "resume from this journal, skipping its completed runs")
	faultRate := fs.Float64("faultrate", 0, "deterministic fault-injection rate in [0,1] (testing only)")
	faultSeed := fs.Uint64("faultseed", 1, "seed for -faultrate injection")
	frontierFlag := fs.String("frontier", "auto", "engine frontier schedule: auto | dense | sparse (behavior metrics are identical across modes)")
	modelsFlag := fs.String("models", "", "comma-separated execution models to sweep: gas, pregel, xstream, graphcentric (empty = gas only; each model covers the algorithms it implements)")
	algsFlag := fs.String("algs", "", "comma-separated algorithm restriction, e.g. PR,CC,SSSP (empty = full plan)")
	fs.Parse(args)
	vb.setup()
	quiet := vb.quiet
	frontier, err := algorithms.ParseFrontierMode(*frontierFlag)
	if err != nil {
		return err
	}
	cfg := sweep.Config{
		Parallel: *parallel, Workers: *workers,
		Timeout: *timeout, Retries: *retries, RetryBackoff: *backoff,
		Frontier: frontier,
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if !(*faultRate >= 0 && *faultRate <= 1) {
		return fmt.Errorf("faultrate must be in [0,1], got %g", *faultRate)
	}

	models, err := parseModelList(*modelsFlag)
	if err != nil {
		return err
	}
	specs, err := sweep.BuildPlanModels(sweep.Profile(*profile), *seed, models)
	if err != nil {
		return err
	}
	if *algsFlag != "" {
		keep := map[algorithms.Name]bool{}
		for _, a := range strings.Split(*algsFlag, ",") {
			name, err := algorithms.Parse(strings.TrimSpace(a))
			if err != nil {
				return err
			}
			keep[name] = true
		}
		filtered := specs[:0]
		for _, s := range specs {
			if keep[s.Algorithm] {
				filtered = append(filtered, s)
			}
		}
		specs = filtered
		if len(specs) == 0 {
			return fmt.Errorf("no campaign specs match -algs %s (with models %v)", *algsFlag, *modelsFlag)
		}
	}

	// The journal defaults next to the corpus. A fresh sweep truncates any
	// stale journal; -resume keeps and reuses it.
	jpath := *journalPath
	if *resume != "" {
		jpath = *resume
	} else if jpath == "" {
		jpath = *out + ".journal"
	}
	var journal *sweep.Journal
	if jpath != "none" {
		if *resume == "" {
			os.Remove(jpath)
		} else if _, err := os.Stat(*resume); err != nil {
			// A typo'd -resume path must not silently start from scratch.
			return fmt.Errorf("resume journal: %w", err)
		}
		journal, err = sweep.OpenJournal(jpath)
		if err != nil {
			return err
		}
		if *resume != "" {
			slog.Info("resuming campaign", "journal", jpath, "checkpointed", journal.Summary())
		}
	}

	// Ctrl-C / SIGTERM cancels the campaign at the next iteration
	// barriers; completed runs stay checkpointed for -resume.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	cfg.Journal, cfg.InjectFault = journal, sweep.FaultRate(*faultRate, *faultSeed)

	// -listen attaches the observability surface to this campaign: the
	// tracker feeds /statusz, the default metric registry feeds /metrics.
	if *listen != "" {
		tracker := sweep.NewTracker()
		cfg.Tracker = tracker
		mux := http.NewServeMux()
		obs.RegisterRoutes(mux, obs.ServerOptions{
			Status: func() any { return tracker.Snapshot() },
		})
		url, stopHTTP, err := serveHTTP(*listen, mux)
		if err != nil {
			return err
		}
		// Close, not drain: campaign shutdown must not wait on a
		// 30-second pprof capture.
		defer stopHTTP(0)
		slog.Info("observability server listening", "url", url,
			"endpoints", "/metrics /statusz /healthz /debug/pprof/")
	}

	switch {
	case *vb.verbose:
		// Structured per-run events instead of the carriage-return bar,
		// which interleaves badly with log lines.
		cfg.Progress = func(done, total int, id string) {
			slog.Debug("run finished", "done", done, "total", total, "id", id)
		}
	case !*quiet:
		cfg.Progress = func(done, total int, id string) {
			fmt.Fprintf(os.Stderr, "\r[%3d/%3d] %-40s", done, total, id)
		}
	}
	res, cerr := sweep.ExecuteCampaign(ctx, specs, cfg)
	if !*quiet && !*vb.verbose {
		fmt.Fprintln(os.Stderr)
	}
	if len(res.Runs) > 0 {
		if err := sweep.SaveRunsFile(*out, res.Runs); err != nil {
			return err
		}
	}
	fmt.Printf("swept %d/%d runs in %s → %s (%d ok, %d resumed, %d failed, %d cancelled)\n",
		len(res.Runs), len(specs), time.Since(start).Round(time.Millisecond), *out,
		res.Completed, res.Skipped, res.Failed, res.Cancelled)
	for _, r := range res.Results {
		if r.Status == behavior.StatusFailed || r.Status == behavior.StatusTimeout {
			fmt.Printf("  %s %s after %d attempt(s) in %s: %s\n",
				r.Status, r.Spec.ID(), r.Attempts, r.Duration.Round(time.Millisecond), r.Err)
		}
	}
	if cerr != nil {
		if journal != nil {
			slog.Warn("campaign interrupted — completed runs are checkpointed",
				"resume", fmt.Sprintf("gcbench sweep -profile %s -seed %d -out %s -resume %s",
					*profile, *seed, *out, jpath))
		}
		return cerr
	}
	// The partial corpus is saved above; exit nonzero so scripted
	// campaigns (reproduce.sh runs under set -e) notice the gap.
	if res.Failed > 0 {
		return fmt.Errorf("%d of %d runs failed", res.Failed, len(specs))
	}
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	alg := fs.String("alg", "PR", "algorithm: CC KC TC SSSP PR AD KM ALS NMF SGD SVD Jacobi LBP DD")
	edges := fs.Int64("edges", 100000, "target edge count (graph-based algorithms)")
	alpha := fs.Float64("alpha", 2.5, "power-law exponent")
	rows := fs.Int("rows", 1000, "matrix rows / grid side (Jacobi, LBP)")
	seed := fs.Uint64("seed", 1, "graph seed")
	tracefile := fs.String("tracefile", "", "write the run's phase spans as Chrome trace-event JSON (open in chrome://tracing or Perfetto)")
	frontierFlag := fs.String("frontier", "auto", "engine frontier schedule: auto | dense | sparse (behavior metrics are identical across modes)")
	modelFlag := fs.String("model", "gas", "execution model: gas | pregel | xstream | graphcentric")
	vb := verbosityFlags(fs)
	fs.Parse(args)
	vb.setup()

	name, err := algorithms.Parse(*alg)
	if err != nil {
		return err
	}
	frontier, err := algorithms.ParseFrontierMode(*frontierFlag)
	if err != nil {
		return err
	}
	mname, err := model.Parse(*modelFlag)
	if err != nil {
		return err
	}
	spec := sweep.Spec{Algorithm: name, Seed: *seed}
	if mname != model.GAS {
		impl, err := model.ForName(mname)
		if err != nil {
			return err
		}
		if !impl.Supports(name) {
			return fmt.Errorf("model %s does not implement algorithm %s (models implementing it: %v)",
				mname, name, model.Supporting(name))
		}
		spec.Model = mname
	}
	switch strings.ToUpper(*alg) {
	case "JACOBI", "LBP":
		spec.NumRows = *rows
		spec.SizeLabel = fmt.Sprint(*rows)
	case "DD":
		spec.NumEdges = *edges
		spec.SizeLabel = fmt.Sprint(*edges)
	default:
		spec.NumEdges = *edges
		spec.Alpha = *alpha
		spec.SizeLabel = fmt.Sprint(*edges)
	}
	r, tr, err := sweep.RunSpecTrace(context.Background(), spec, frontier)
	if err != nil {
		return err
	}
	if *tracefile != "" {
		f, err := os.Create(*tracefile)
		if err != nil {
			return err
		}
		if err := obs.WriteChromeTrace(f, tr.Spans(0)); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		slog.Info("wrote Chrome trace", "path", *tracefile, "iterations", tr.NumIterations())
	}
	fmt.Printf("run %s\n", r.ID())
	fmt.Printf("  edges (realized): %d\n", r.NumEdges)
	fmt.Printf("  iterations:       %d (converged=%t)\n", r.Iterations, r.Converged)
	fmt.Printf("  raw per-edge behavior: UPDT=%.3e WORK=%.3e EREAD=%.3e MSG=%.3e\n",
		r.Raw[0], r.Raw[1], r.Raw[2], r.Raw[3])
	fmt.Printf("  active fraction: ")
	step := 1
	if len(r.ActiveFraction) > 20 {
		step = len(r.ActiveFraction) / 20
	}
	for i := 0; i < len(r.ActiveFraction); i += step {
		fmt.Printf("%.2f ", r.ActiveFraction[i])
	}
	fmt.Println()
	return nil
}

func cmdFigures(args []string) error {
	fs := flag.NewFlagSet("figures", flag.ExitOnError)
	runsPath := fs.String("runs", "runs.json", "behavior corpus (from 'gcbench sweep')")
	fig := fs.String("fig", "all", "figure id: all, or one of "+strings.Join(report.FigureIDs(), " "))
	samples := fs.Int("samples", 1000000, "coverage Monte-Carlo samples (paper: 1e6)")
	maxSize := fs.Int("maxsize", 20, "largest ensemble size analyzed")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	fs.Parse(args)

	opt := report.FigureOptions{CoverageSamples: *samples, MaxSize: *maxSize}
	if err := opt.Validate(); err != nil {
		return err
	}
	runs, err := sweep.LoadRunsFile(*runsPath)
	if err != nil {
		return fmt.Errorf("loading corpus (run 'gcbench sweep' first): %w", err)
	}
	corpus, err := report.NewCorpus(runs)
	if err != nil {
		return err
	}
	ids := []string{*fig}
	if *fig == "all" {
		ids = report.FigureIDs()
	}
	for _, id := range ids {
		rep, err := report.Figure(corpus, id, opt)
		if err != nil {
			return err
		}
		render := rep.Render
		if *csv {
			render = rep.RenderCSV
		}
		if err := render(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

func cmdEnsemble(args []string) error {
	fs := flag.NewFlagSet("ensemble", flag.ExitOnError)
	runsPath := fs.String("runs", "runs.json", "behavior corpus (from 'gcbench sweep')")
	size := fs.Int("size", 10, "ensemble size to design")
	samples := fs.Int("samples", 200000, "coverage Monte-Carlo samples")
	anneal := fs.Bool("anneal", false, "refine with simulated annealing")
	export := fs.String("export", "", "directory to export the designed suites' workload files")
	fs.Parse(args)

	runs, err := sweep.LoadRunsFile(*runsPath)
	if err != nil {
		return fmt.Errorf("loading corpus (run 'gcbench sweep' first): %w", err)
	}
	corpus, err := report.NewCorpus(runs)
	if err != nil {
		return err
	}
	pool := corpus.Pool
	if pool == nil {
		return fmt.Errorf("ensemble: the corpus has no graph-varying runs to design from")
	}
	if *size < 1 || *size > pool.Len() {
		return fmt.Errorf("ensemble: -size must be between 1 and the pool's %d runs, got %d", pool.Len(), *size)
	}
	idx := make([]int, pool.Len())
	for i := range idx {
		idx[i] = i
	}
	ctx := context.Background()
	spreadSets, err := ensemble.BestSpreadGreedyCtx(ctx, pool.Points, idx, *size)
	if err != nil {
		return err
	}
	spreadMembers := spreadSets[*size]
	if *anneal {
		refined, score, err := ensemble.AnnealSpreadCtx(ctx, pool.Points, idx, ensemble.AnnealOptions{Size: *size, Seed: 1})
		if err != nil {
			return err
		}
		spreadMembers = refined
		fmt.Printf("annealed spread: %.4f (greedy+exchange: %.4f)\n",
			score, ensemble.SpreadOf(pool.Points, spreadSets[*size]))
	}
	fmt.Printf("Best-spread ensemble of size %d (spread %.4f):\n", *size,
		ensemble.SpreadOf(pool.Points, spreadMembers))
	for _, m := range spreadMembers {
		fmt.Printf("  %s\n", pool.Runs[m].ID())
	}

	cov, err := ensemble.NewCoverageEstimator(*samples, 0x5eed)
	if err != nil {
		return err
	}
	covSets, err := ensemble.BestCoverageGreedyCtx(ctx, cov, pool.Points, idx, *size)
	if err != nil {
		return err
	}
	covMembers := covSets[*size]
	if *anneal {
		refined, _, err := ensemble.AnnealCoverageCtx(ctx, cov, pool.Points, idx, ensemble.AnnealOptions{Size: *size, Seed: 1, Steps: 500})
		if err != nil {
			return err
		}
		covMembers = refined
	}
	pts := make([]behavior.Vector, len(covMembers))
	for i, m := range covMembers {
		pts[i] = pool.Points[m]
	}
	fmt.Printf("Best-coverage ensemble of size %d (coverage %.4f, NS=%d):\n",
		*size, cov.Coverage(pts), *samples)
	for _, m := range covMembers {
		fmt.Printf("  %s\n", pool.Runs[m].ID())
	}

	if *export != "" {
		members := make([]*behavior.Run, 0, len(spreadMembers)+len(covMembers))
		seen := map[int]bool{}
		for _, m := range append(append([]int(nil), spreadMembers...), covMembers...) {
			if seen[m] {
				continue
			}
			seen[m] = true
			members = append(members, pool.Runs[m])
		}
		if err := sweep.ExportSuite(*export, members); err != nil {
			return err
		}
		fmt.Printf("exported %d workload files to %s\n", len(members), *export)
	}
	return nil
}

func cmdPredict(args []string) error {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	runsPath := fs.String("runs", "runs.json", "behavior corpus (from 'gcbench sweep')")
	alg := fs.String("alg", "PR", "algorithm to predict")
	edges := fs.Int64("edges", 50000, "target edge count")
	alpha := fs.Float64("alpha", 2.4, "power-law exponent")
	loo := fs.Bool("loo", false, "also report leave-one-out error over the corpus")
	fs.Parse(args)

	runs, err := sweep.LoadRunsFile(*runsPath)
	if err != nil {
		return fmt.Errorf("loading corpus (run 'gcbench sweep' first): %w", err)
	}
	name, err := algorithms.Parse(*alg)
	if err != nil {
		return err
	}
	p, err := predict.New(runs)
	if err != nil {
		return err
	}
	pred, err := p.Predict(predict.Query{
		Algorithm: string(name), NumEdges: *edges, Alpha: *alpha,
	})
	if err != nil {
		return err
	}
	fmt.Printf("predicted behavior of <%s, %d, %.2f> (from %d corpus runs):\n",
		name, *edges, *alpha, pred.Support)
	fmt.Printf("  UPDT=%.3e WORK=%.3e EREAD=%.3e MSG=%.3e  iterations≈%.0f\n",
		pred.Raw[0], pred.Raw[1], pred.Raw[2], pred.Raw[3], pred.Iterations)
	if *loo {
		errs, err := predict.LeaveOneOut(runs)
		if err != nil {
			return err
		}
		fmt.Printf("leave-one-out mean relative error: UPDT=%.1f%% WORK=%.1f%% EREAD=%.1f%% MSG=%.1f%%\n",
			100*errs[0], 100*errs[1], 100*errs[2], 100*errs[3])
	}
	return nil
}

// parseModelList resolves a comma-separated -models flag value; "all"
// expands to every execution model.
func parseModelList(s string) ([]model.Name, error) {
	if s == "" {
		return nil, nil
	}
	var models []model.Name
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if strings.EqualFold(part, "all") {
			models = append(models, model.AllNames()...)
			continue
		}
		n, err := model.Parse(part)
		if err != nil {
			return nil, err
		}
		models = append(models, n)
	}
	return models, nil
}
