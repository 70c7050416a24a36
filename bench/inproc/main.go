// Command inproc is the benchmark's traced pass. It calls the public
// functions of each layer directly, with a span around every call, and
// reports per-layer numbers the shipped binary cannot be made to show
// from outside. It changes nothing under internal/: everything it
// measures it measures from here.
//
// It is started by the bench command (never by the driver) for a run
// with --trace 1, and it alone links the repository's internal packages.
// The functions it calls are listed in ../README.md as the pinned call
// surface.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
)

// config is the pass's command line, written by bench/workload.go.
type config struct {
	workload string
	seed     uint64
	dir      string // temp dir for journals and corpus files
	report   string // where the metrics go
	spans    string // where the spans go

	pass string // campaign | serve

	// campaign: the sweep's own -profile, -models and -algs, plus whether
	// to add the profile's DD specs after the replay.
	profile, models, algs string
	dd                    bool

	// serve: the corpus file and the coverage sample count.
	corpus  string
	samples int
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload name, for the span file")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.StringVar(&cfg.dir, "dir", "", "temp dir")
	flag.StringVar(&cfg.report, "report", "", "report file to write")
	flag.StringVar(&cfg.spans, "spans", "", "span file to write")
	flag.StringVar(&cfg.pass, "pass", "", "campaign | serve")
	flag.StringVar(&cfg.profile, "profile", "quick", "campaign profile")
	flag.StringVar(&cfg.models, "models", "", "campaign execution models")
	flag.StringVar(&cfg.algs, "algs", "", "campaign algorithm restriction")
	flag.BoolVar(&cfg.dd, "dd", false, "also replay the profile's DD specs")
	flag.StringVar(&cfg.corpus, "corpus", "", "serve corpus file")
	flag.IntVar(&cfg.samples, "samples", 10000, "coverage samples")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "inproc: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, cfg config) error {
	tr := newTracer(cfg.workload)
	rep := struct {
		Metrics map[string]float64 `json:"metrics"`
		Runs    string             `json:"runs,omitempty"`
	}{}
	var err error
	switch cfg.pass {
	case "campaign":
		rep.Metrics, rep.Runs, err = campaignPass(ctx, cfg, tr)
	case "serve":
		rep.Metrics, err = servePass(ctx, cfg, tr)
	default:
		err = fmt.Errorf("unknown -pass %q", cfg.pass)
	}
	if err != nil {
		return err
	}
	if err := tr.write(cfg.spans); err != nil {
		return err
	}
	printLayerSelf(tr)
	body, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	return os.WriteFile(cfg.report, body, 0o644)
}

// printLayerSelf shows where the traced pass's own time went, by layer.
func printLayerSelf(tr *tracer) {
	self := layerSelfSeconds(tr.spans)
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(a, b int) bool { return self[layers[a]] > self[layers[b]] })
	fmt.Fprintf(os.Stderr, "   traced pass self time by layer (%d spans → %s):\n", len(tr.spans), tr.workload)
	for _, l := range layers {
		fmt.Fprintf(os.Stderr, "   %-34s %14.4f s\n", "self."+l, self[l])
	}
}
