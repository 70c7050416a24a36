// Benchmark designer: the paper's core use case. Sweep a campaign of
// graph computations, build the behavior space, and design a compact
// benchmark suite that maximizes spread and coverage — then compare it
// with the naive single-algorithm suite a practitioner might pick.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"gcbench"
)

func main() {
	// A quick-profile Table 2 campaign: 232 runs over 14 algorithms.
	specs, err := gcbench.BuildPlan(gcbench.ProfileQuick, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sweeping %d graph computations...\n", len(specs))
	runs, err := gcbench.Sweep(specs, gcbench.SweepConfig{
		Progress: func(done, total int, id string) {
			if done%50 == 0 || done == total {
				fmt.Fprintf(os.Stderr, "  %d/%d\n", done, total)
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	corpus, err := gcbench.NewCorpus(runs)
	if err != nil {
		log.Fatal(err)
	}
	pool := corpus.Pool
	fmt.Printf("ensemble pool: %d graph-varying runs over 11 algorithms\n\n", pool.Len())

	idx := make([]int, pool.Len())
	for i := range idx {
		idx[i] = i
	}

	// Design a 5-member suite for spread (dispersion across the space).
	const suiteSize = 5
	ctx := context.Background()
	spreadSets, err := gcbench.BestSpreadGreedy(ctx, pool.Points, idx, suiteSize)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("designed suite (max spread = %.3f):\n", gcbench.SpreadOf(pool.Points, spreadSets[suiteSize]))
	for _, m := range spreadSets[suiteSize] {
		fmt.Printf("  %s\n", pool.Runs[m].ID())
	}

	// And for coverage (no behavior is far from a member).
	cov, err := gcbench.NewCoverageEstimator(200_000, 7)
	if err != nil {
		log.Fatal(err)
	}
	covSets, err := gcbench.BestCoverageGreedy(ctx, cov, pool.Points, idx, suiteSize)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndesigned suite (max coverage = %.3f):\n",
		coverageOf(cov, pool.Points, covSets[suiteSize]))
	for _, m := range covSets[suiteSize] {
		fmt.Printf("  %s\n", pool.Runs[m].ID())
	}

	// The naive alternative: five PageRank runs on different graphs —
	// the kind of ad-hoc ensemble §5.2 shows to be a poor benchmark.
	var prIdx []int
	for i, r := range pool.Runs {
		if r.Algorithm == "PR" {
			prIdx = append(prIdx, i)
		}
	}
	naive, err := gcbench.BestSpreadExhaustive(ctx, pool.Points, prIdx, suiteSize)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nnaive single-algorithm suite (5 best PR runs):\n")
	fmt.Printf("  spread   %.3f vs designed %.3f\n",
		gcbench.SpreadOf(pool.Points, naive[suiteSize]), gcbench.SpreadOf(pool.Points, spreadSets[suiteSize]))
	fmt.Printf("  coverage %.3f vs designed %.3f\n",
		coverageOf(cov, pool.Points, naive[suiteSize]),
		coverageOf(cov, pool.Points, covSets[suiteSize]))
	fmt.Println("\nthe designed ensembles explore the behavior space far more efficiently —")
	fmt.Println("that is the paper's case for systematic benchmark construction.")
}

func coverageOf(cov *gcbench.CoverageEstimator, pool []gcbench.Vector, idx []int) float64 {
	pts := make([]gcbench.Vector, len(idx))
	for i, j := range idx {
		pts[i] = pool[j]
	}
	return cov.Coverage(pts)
}
