package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one workload × end-to-end metric comparison.
const (
	verdictWithin     = "within bound"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// verdict judges set B against set A for one metric: regressed when B's
// median is worse than A's by more than the bound; unresolved when either
// set's own run-to-run spread (interquartile distance over its median) is
// wider than the bound, so that a difference inside it says nothing —
// reported as unresolved, never as unchanged; within bound otherwise. A
// regression beyond the bound is reported even from a noisy set.
func verdict(def metricDef, a, b []float64) (string, float64) {
	ma, mb := median(a), median(b)
	diff := ratio(mb-ma, ma)
	worse := diff
	if def.Better == "higher" {
		worse = -diff
	}
	switch {
	case worse > def.Bound:
		return verdictRegressed, diff
	case spread(a) > def.Bound || spread(b) > def.Bound:
		return verdictUnresolved, diff
	}
	return verdictWithin, diff
}

func loadResultFile(path string) (*resultFile, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(body, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// workloads lists the workloads of the file's runs, in order of first
// appearance: the manifest's four and whatever else the set ran.
func (f *resultFile) workloads() []string {
	var names []string
	seen := map[string]bool{}
	for _, r := range f.Runs {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			names = append(names, r.Workload)
		}
	}
	return names
}

// values collects one metric's value from every run of a workload.
func (f *resultFile) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload == workload {
			if v, ok := r.EndToEnd[metric]; ok {
				out = append(out, v)
			}
		}
	}
	return out
}

// exactCounts are the per-layer rows that are counts made by the program
// and must repeat exactly between two sets of the same commit and seeds.
var exactCounts = []string{
	"engine.iterations", "engine.updates", "engine.edge_reads", "engine.messages",
	"sweep.journal_records", "jobs.published_runs",
}

// compareFiles prints, per workload × end-to-end metric, both medians
// with their spreads, the relative difference and the verdict, then the
// exact counts of runs that share workload and seed. It returns the exit
// code: 1 when anything regressed or an exact count differs.
func compareFiles(w io.Writer, man *manifest, pathA, pathB string) int {
	var sets [2]*resultFile
	for i, path := range []string{pathA, pathB} {
		f, err := loadResultFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 2
		}
		sets[i] = f
	}
	return compareSets(w, man, sets[0], sets[1])
}

func compareSets(w io.Writer, man *manifest, a, b *resultFile) int {
	// Time and revision are expected to differ; anything else makes the
	// comparison one across machines or toolchains, which the reader must
	// know.
	ea, eb := a.Env, b.Env
	ea.Time, eb.Time, ea.GitRev, eb.GitRev = "", "", "", ""
	if ea != eb {
		fmt.Fprintf(w, "note: the two sets were measured in different environments:\n  A %+v\n  B %+v\n", a.Env, b.Env)
	}
	bad := 0
	fmt.Fprintf(w, "%-18s %-18s %14s %8s %14s %8s %8s  %s\n",
		"workload", "metric", "A median", "A spread", "B median", "B spread", "diff", "verdict")
	for _, wl := range a.workloads() {
		for _, def := range man.EndToEnd {
			va, vb := a.values(wl, def.Name), b.values(wl, def.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, diff := verdict(def, va, vb)
			if v == verdictRegressed {
				bad++
			}
			fmt.Fprintf(w, "%-18s %-18s %14.4f %7.1f%% %14.4f %7.1f%% %+7.1f%%  %s (bound %.0f%%, n=%d/%d)\n",
				wl, def.Name, median(va), 100*spread(va), median(vb), 100*spread(vb), 100*diff,
				v, 100*def.Bound, len(va), len(vb))
		}
	}
	for _, ra := range a.Runs {
		for _, rb := range b.Runs {
			if ra.Workload != rb.Workload || ra.Seed != rb.Seed {
				continue
			}
			for _, name := range exactCounts {
				ca, okA := ra.PerLayer[name]
				cb, okB := rb.PerLayer[name]
				if okA && okB && ca != cb {
					bad++
					fmt.Fprintf(w, "%s seed %d: exact count %s differs: %v vs %v\n", ra.Workload, ra.Seed, name, ca, cb)
				}
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "%d regression(s) or count mismatch(es)\n", bad)
		return 1
	}
	return 0
}
