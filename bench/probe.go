package main

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"sort"
	"strings"
	"time"
)

// The calibration probe.
//
// The machines this benchmark runs on are small VMs on shared hosts, and
// what the host's other tenants do reaches the guest as whole episodes,
// ten seconds to a minute long, in which everything that touches memory
// or the kernel runs 30 to 60 % slower (a pure ALU loop does not notice).
// No number of rounds inside a run sees through an episode that outlasts
// the run, and two runs of one commit then differ by more than any bound.
//
// So every measured slice — half a second of requests, one sweep, one
// set-up — is bracketed by a short fixed piece of work of the benchmark's
// own, the probe, and its time is divided by the slowdown the probe saw:
// the mean of the probe before and the probe after, over the probe's time
// on a quiet machine (the nominal constants below). End-to-end times are
// thus reported at the speed of the quiet reference machine. Probe and
// workload share the CPU, the caches and the kernel, so an episode slows
// both; the program cannot influence the probe, which never calls it.
//
// There are two probes because there are two kinds of work, and an
// episode hits them differently (kernel-heavy work harder):
//
//   - probeRequest: round trips to an HTTP echo server inside the bench
//     process over loopback, through the same net/http client stack the
//     load uses — for the workloads that are many small requests;
//   - probeCompute: allocation, map inserts and a sort, which keep the
//     allocator, the garbage collector and the caches busy the way the
//     program's own computing does — for the workloads that are dominated
//     by computing in the program (sweeps, cold designs). Of the kernels
//     tried (this one, a streaming pass over 16 MB, random updates over
//     128 MB) it was the one whose time followed a sweep's through the
//     host's episodes; the other two followed it worse than no
//     correction at all.
//
// The raw, uncorrected figures are kept as per-layer rows
// (bench.raw_latency_p50_ms, bench.raw_throughput_ops_s) next to
// bench.slowdown, so nothing is hidden by the correction.
type probeKind int

const (
	probeRequest probeKind = iota
	probeCompute
)

// The probes' times on the reference machine when quiet: this repository's
// 2-core Xeon 2.1 GHz Firecracker VM, pinned to one CPU, measured on
// 2026-09-27 over twenty quiet minutes (medians). They only fix the scale
// of the corrected figures; comparisons between commits do not depend on
// them.
const (
	requestProbeTrips   = 400
	requestProbeNominal = 9.8e-3  // seconds for requestProbeTrips round trips
	computeProbeNominal = 16.5e-3 // seconds for one compute pass
)

// calibrator owns what the request probe needs: the echo server and its
// client. The compute probe needs nothing.
type calibrator struct {
	kind   probeKind
	srv    *http.Server
	client *http.Client
	url    string
}

func newCalibrator(kind probeKind) (*calibrator, error) {
	c := &calibrator{kind: kind}
	if kind == probeCompute {
		return c, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	payload := strings.Repeat("x", 2048)
	c.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, payload)
	})}
	go c.srv.Serve(ln)
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	c.client = &http.Client{Transport: tr}
	c.url = "http://" + ln.Addr().String() + "/"
	return c, nil
}

func (c *calibrator) close() {
	if c.srv != nil {
		c.client.CloseIdleConnections()
		c.srv.Close()
	}
}

// sample runs the probe once and returns the slowdown it saw: its time
// over its nominal time. 1 is the quiet reference machine.
func (c *calibrator) sample() (float64, error) {
	begin := time.Now()
	if c.kind == probeCompute {
		computePass()
		return time.Since(begin).Seconds() / computeProbeNominal, nil
	}
	for i := 0; i < requestProbeTrips; i++ {
		resp, err := c.client.Get(c.url)
		if err != nil {
			return 0, fmt.Errorf("calibration probe: %w", err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, fmt.Errorf("calibration probe: %w", err)
		}
	}
	return time.Since(begin).Seconds() / requestProbeNominal, nil
}

// sampleMedian takes the median of n probes: used where a slice is long
// (a whole sweep), so that one odd probe does not skew it.
func (c *calibrator) sampleMedian(n int) (float64, error) {
	vals := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		v, err := c.sample()
		if err != nil {
			return 0, err
		}
		vals = append(vals, v)
	}
	return median(vals), nil
}

// computePass is fixed work: the same draws every time.
func computePass() {
	r := rand.New(rand.NewPCG(3, 4))
	for k := 0; k < 6; k++ {
		m := map[int]int{}
		v := make([]int, 20000)
		for i := range v {
			v[i] = r.IntN(1 << 20)
			m[v[i]]++
		}
		sort.Ints(v)
	}
}

// slowdownOf is the correction of one slice: the mean of the probe before
// it and the probe after it.
func slowdownOf(before, after float64) float64 {
	return (before + after) / 2
}

// calibrateProbes runs both probes in turn for dur and prints the
// quartiles of the slowdowns they saw. On the reference machine when
// quiet the medians read 1; on another machine they give the factors by
// which to rescale the nominal constants, should absolute figures matter.
func calibrateProbes(ctx context.Context, w io.Writer, dur time.Duration) error {
	names := map[probeKind]string{probeRequest: "request", probeCompute: "compute"}
	got := map[probeKind][]float64{}
	cals := map[probeKind]*calibrator{}
	for kind := range names {
		c, err := newCalibrator(kind)
		if err != nil {
			return err
		}
		defer c.close()
		cals[kind] = c
	}
	for begin := time.Now(); time.Since(begin) < dur && ctx.Err() == nil; {
		for kind, c := range cals {
			v, err := c.sample()
			if err != nil {
				return err
			}
			got[kind] = append(got[kind], v)
		}
	}
	for _, kind := range []probeKind{probeRequest, probeCompute} {
		q1, q3 := quartiles(got[kind])
		fmt.Fprintf(w, "%-8s probe: %d samples, slowdown q1 %.3f median %.3f q3 %.3f\n", names[kind], len(got[kind]), q1, median(got[kind]), q3)
	}
	return nil
}
