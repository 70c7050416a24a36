package main

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"strconv"
	"time"
)

// campaign is a workload that times whole `gcbench sweep` processes.
//
// Both campaigns run with `-journal none`. The checkpoint journal rewrites
// and fsyncs its file once per run; on this class of machine one fsync
// takes 2 to 10 ms depending on what else the host's disk is doing, which
// put a 388-record sweep anywhere between 5.3 and 8.4 s and no round count
// could steady it. The journal keeps its own per-layer rows
// (sweep.journal_*), measured by the in-process pass.
//
// Both also run with `-workers 1 -parallel 1`, spelled out although the
// one CPU the benchmark is pinned to would give the same defaults: the
// counter digest then does not depend on the machine's core count.
type campaign struct {
	name string
	// profile, models and algs are the sweep's -profile, -models and -algs.
	profile, models, algs string
	// roundSeconds is the nominal wall time of one sweep: a run starts
	// another sweep as long as at least half of one fits in what is left
	// of its measured seconds.
	roundSeconds float64
	// dd adds the profile's four DD specs to the in-process pass, so that
	// DD, left out of the timed sweep, still has a per-layer row.
	dd bool
}

var campaignBreadth = campaign{
	name: "campaign-breadth", profile: "quick", models: "all",
	algs:         "CC,KC,TC,SSSP,PR,AD,KM,ALS,NMF,SGD,SVD,Jacobi,LBP",
	roundSeconds: 2.3, dd: true,
}

var campaignScale = campaign{
	name: "campaign-scale", profile: "standard", algs: "CC,SSSP",
	roundSeconds: 7,
}

// setupRepeats is how many times a run performs its set-up; setup_s is
// the median, so one slow spawn does not read as a regression.
const setupRepeats = 3

// campaignProbes is how many calibration probes are taken between two
// sweeps; their median brackets the sweep.
const campaignProbes = 7

func (c campaign) sweepArgs(seed uint64, out string) []string {
	args := []string{"sweep", "-profile", c.profile, "-algs", c.algs,
		"-seed", strconv.FormatUint(seed, 10), "-journal", "none", "-workers", "1", "-parallel", "1", "-quiet", "-out", out}
	if c.models != "" {
		args = append(args, "-models", c.models)
	}
	return args
}

// sweepOnce runs one sweep to completion and returns its wall time (spawn
// to exit, output corpus written) and resource usage.
func sweepOnce(ctx context.Context, p runParams, tag string, args []string) (wall float64, ch *child, err error) {
	begin := time.Now()
	ch, err = startChild(p.gcbench, filepath.Join(p.dir, tag+".log"), args...)
	if err != nil {
		return 0, nil, err
	}
	defer ch.stop()
	select {
	case <-ch.done:
	case <-ctx.Done():
		return 0, ch, ctx.Err()
	}
	wall = time.Since(begin).Seconds()
	if ch.waitErr != nil {
		return wall, ch, fmt.Errorf("gcbench sweep (%s): %w\n%s", tag, ch.waitErr, ch.logTail(2000))
	}
	return wall, ch, nil
}

func (c campaign) run(ctx context.Context, p runParams) (*result, error) {
	res := newResult(c.name, p)
	cal, err := newCalibrator(probeCompute)
	if err != nil {
		return nil, err
	}
	defer cal.close()
	before, err := cal.sampleMedian(campaignProbes)
	if err != nil {
		return nil, err
	}
	// bracket closes the slice that began at the last probe: it probes
	// again and returns the slice's slowdown.
	bracket := func() (float64, error) {
		after, err := cal.sampleMedian(campaignProbes)
		if err != nil {
			return 0, err
		}
		s := slowdownOf(before, after)
		before = after
		return s, nil
	}

	// Set-up: a temp dir and a small discarded sweep through the same
	// binary (gas, CC and SSSP at quick scale), which pages the binary in
	// and proves the sweep path works before anything is timed.
	var setups, setupsRaw []float64
	for i := 0; i < setupRepeats; i++ {
		begin := time.Now()
		warm := campaign{profile: "quick", algs: "CC,SSSP"}
		out := filepath.Join(p.dir, fmt.Sprintf("warm-%d.json", i))
		if _, _, err := sweepOnce(ctx, p, fmt.Sprintf("warm-%d", i), warm.sweepArgs(p.seed, out)); err != nil {
			return nil, err
		}
		took := time.Since(begin).Seconds()
		slow, err := bracket()
		if err != nil {
			return nil, err
		}
		setups, setupsRaw = append(setups, took/slow), append(setupsRaw, took)
	}

	// One sweep is one round. A traced run reports no end-to-end number;
	// one sweep gives it the from-outside rows and the digest the
	// in-process pass must match.
	budget := float64(p.seconds)
	if p.trace {
		budget = 0
	}
	var walls, wallsRaw, slowdowns, cpus, rss []float64
	var runs int
	hostTotal, hostSteal := hostCPU()
	for r := 0; r == 0 || sum(wallsRaw)+c.roundSeconds/2 <= budget; r++ {
		out := filepath.Join(p.dir, fmt.Sprintf("round-%d.json", r))
		wall, ch, err := sweepOnce(ctx, p, fmt.Sprintf("round-%d", r), c.sweepArgs(p.seed, out))
		if err != nil {
			return nil, err
		}
		slow, err := bracket()
		if err != nil {
			return nil, err
		}
		corpus, err := loadCorpus(out)
		if err != nil {
			return nil, err
		}
		// A sweep exits 0 only when every spec produced a run, so the
		// corpus length is the number of ok runs.
		digest := counterDigest(corpus)
		switch {
		case len(corpus) == 0:
			res.fail("round %d wrote an empty corpus", r)
		case r == 0:
			runs = len(corpus)
			res.checkDigest("counters", p.exp.Campaign, campaignKey(c.name, p.seed), digest)
		case digest != res.Digests["counters"]:
			res.fail("round %d counter digest %s differs from round 0's %s", r, digest, res.Digests["counters"])
		}
		walls, wallsRaw, slowdowns = append(walls, wall/slow), append(wallsRaw, wall), append(slowdowns, slow)
		cpus = append(cpus, cpuSeconds(ch.rusage()))
		rss = append(rss, maxRSSMB(ch.rusage()))
	}
	rounds := len(walls)
	res.Attempted = int64(runs * rounds)

	// The run's value is the median round, each sweep's wall corrected by
	// the probes around it. With so few sweeps no percentile above the
	// median is supported, so the tail reads what the median reads.
	wall := median(walls)
	res.EndToEnd["throughput_ops_s"] = ratio(float64(runs), wall)
	res.EndToEnd["latency_p50_ms"] = wall * 1000
	res.EndToEnd["latency_tail_ms"] = wall * 1000
	res.EndToEnd["peak_rss_mb"] = slices.Max(rss)
	res.EndToEnd["setup_s"] = median(setups)
	res.Rounds["wall_s"], res.Rounds["wall_raw_s"], res.Rounds["slowdown"] = walls, wallsRaw, slowdowns
	res.Rounds["cpu_s"], res.Rounds["rss_mb"] = cpus, rss
	res.Rounds["setup_s"], res.Rounds["setup_raw_s"] = setups, setupsRaw

	res.PerLayer["bench.host_steal_share"] = stealShare(hostTotal, hostSteal)
	res.PerLayer["bench.tail_percentile"] = tailQuantile(rounds) * 100
	res.PerLayer["bench.slowdown"] = median(slowdowns)
	res.PerLayer["bench.raw_throughput_ops_s"] = ratio(float64(runs), median(wallsRaw))
	res.PerLayer["bench.raw_latency_p50_ms"] = median(wallsRaw) * 1000
	res.PerLayer["bench.raw_latency_tail_ms"] = median(wallsRaw) * 1000
	res.PerLayer["cmd.sweep.wall_s"] = median(wallsRaw)
	res.PerLayer["cmd.sweep.cpu_s"] = median(cpus)
	res.PerLayer["cmd.sweep.cpu_over_wall"] = ratio(sum(cpus), sum(wallsRaw))

	if p.trace {
		args := []string{"-pass", "campaign", "-profile", c.profile, "-models", c.models, "-algs", c.algs}
		if c.dd {
			args = append(args, "-dd")
		}
		rep, err := runInproc(ctx, p, res, args...)
		if err != nil {
			return nil, err
		}
		if rep != nil {
			replayed, err := loadCorpus(rep.Runs)
			if err != nil {
				return nil, err
			}
			// The same digest from the layer-by-layer replay proves the
			// traced pass did the computation the shipped binary did.
			if d := counterDigest(replayed); d != res.Digests["counters"] {
				res.fail("in-process replay counter digest %s differs from the sweep's %s", d, res.Digests["counters"])
			}
		}
	}
	return res, nil
}
