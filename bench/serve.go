package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// deployment is a workload that drives `gcbench serve` over loopback TCP.
type deployment struct {
	name string
	// flags are added to `gcbench serve -runs runs-standard.json -listen …`.
	flags []string
	// cold replaces the read mix with never-repeated coverage designs.
	cold bool
	// publish adds the once-per-second campaign writer beside the reads.
	publish bool
	// probe is the calibration probe that resembles the workload's work.
	probe probeKind
}

// coldSamples is the server's coverage sample count on serve-design-cold.
// The 1e6 default makes one search take 3 to 25 s here; this count makes
// it ~0.1 s, so the measured phase pools well over the 100 samples that a
// p90 with ten samples beyond it needs.
const coldSamples = "10000"

var (
	serveRead       = deployment{name: "serve-read"}
	serveDesignCold = deployment{name: "serve-design-cold", flags: []string{"-samples", coldSamples}, cold: true, probe: probeCompute}
	servePublish    = deployment{name: "serve-publish", flags: []string{"-jobs"}, publish: true}
	serveWire       = deployment{name: "serve-wire", flags: []string{"-shards", "2", "-replicas", "1", "-shard-spawn"}}
)

// corpusFile is the committed standard-profile corpus every deployment
// serves.
const corpusFile = "runs-standard.json"

// control is the client for everything that is not measured load:
// readiness polls, discovery, probes, scrapes, publishes.
var control = &http.Client{Timeout: 60 * time.Second}

type server struct {
	ch     *child
	base   string
	readyS float64
	keys   []string // every record key, in corpus order
	probes string   // digest of the probe responses
}

// fetch performs one control request and returns status and body.
func fetch(ctx context.Context, method, url, body string) (int, []byte, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := control.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// fetchJSON is fetch for a request that must answer 200 with JSON.
func fetchJSON(ctx context.Context, method, url, body string, into any) error {
	code, b, err := fetch(ctx, method, url, body)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, url, code, strings.TrimSpace(string(b)))
	}
	return json.Unmarshal(b, into)
}

// freeLoopbackAddr reserves a loopback port by binding and releasing it.
// The benchmark picks the port itself rather than reading the one the
// server logs: the flag is a stable interface, the log line is not.
func freeLoopbackAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// probeList is one request per route plus one design per search method.
// It does not depend on the seed, so its digest is committed once and
// holds for every run; read, publish and wire deployments must all
// produce the same bytes (the API's byte-identity invariant across
// backends). /api/corpus is left out: its body carries the load time.
func (d deployment) probeList() []request {
	design := func(body string) request {
		return request{method: "POST", path: "/api/ensemble/design", body: body}
	}
	probes := []request{
		{method: "GET", path: "/api/runs?algorithm=PR"},
		{method: "GET", path: "/api/behavior/CC_1e5_a2"},
		{method: "GET", path: predictPaths[0]},
		{method: "GET", path: "/api/ensemble/best?n=5"},
		design(`{"n":4}`),
		design(`{"n":4,"method":"exchange"}`),
		design(`{"n":4,"method":"anneal","seed":9}`),
		design(`{"n":4,"method":"beam"}`),
	}
	if d.cold {
		// Coverage probes only where the sample count makes them cheap;
		// the first one also pays the lazy estimator build, so the
		// measured phase starts warm.
		probes = append(probes,
			design(`{"n":4,"metric":"coverage","method":"greedy"}`),
			design(`{"n":4,"metric":"coverage","method":"exchange"}`))
	}
	return probes
}

// probeKey names the committed digest a deployment's probes must match.
func (d deployment) probeKey() string {
	if d.cold {
		return "serve-samples-" + coldSamples
	}
	return "serve"
}

// setUp spawns the deployment and brings it to the point where measured
// load could start: ready, keys discovered, probes answered (which also
// fills the caches the read mix hits and builds what is built lazily).
// It returns the time all of that took.
func (d deployment) setUp(ctx context.Context, p runParams, tag string) (*server, float64, error) {
	begin := time.Now()
	addr, err := freeLoopbackAddr()
	if err != nil {
		return nil, 0, err
	}
	corpus, err := filepath.Abs(corpusFile)
	if err != nil {
		return nil, 0, err
	}
	args := append([]string{"serve", "-runs", corpus, "-listen", addr}, d.flags...)
	ch, err := startChild(p.gcbench, filepath.Join(p.dir, tag+".log"), args...)
	if err != nil {
		return nil, 0, err
	}
	s := &server{ch: ch, base: "http://" + addr}
	fail := func(err error) (*server, float64, error) {
		ch.stop()
		return nil, 0, fmt.Errorf("%s set-up: %w\n%s", d.name, err, ch.logTail(2000))
	}
	for {
		code, _, err := fetch(ctx, "GET", s.base+"/readyz", "")
		if err == nil && code == http.StatusOK {
			break
		}
		select {
		case <-ch.done:
			return fail(fmt.Errorf("server exited before it was ready: %v", ch.waitErr))
		case <-ctx.Done():
			return fail(ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Since(begin) > 60*time.Second {
			return fail(fmt.Errorf("not ready after 60 s"))
		}
	}
	s.readyS = time.Since(begin).Seconds()

	var listing struct {
		Runs []struct {
			Key string `json:"key"`
		} `json:"runs"`
	}
	if err := fetchJSON(ctx, "GET", s.base+"/api/runs", "", &listing); err != nil {
		return fail(err)
	}
	for _, r := range listing.Runs {
		s.keys = append(s.keys, r.Key)
	}
	if len(s.keys) < behaviorKeyCount {
		return fail(fmt.Errorf("/api/runs lists %d records, need %d", len(s.keys), behaviorKeyCount))
	}

	var bodies [][]byte
	for _, pr := range d.probeList() {
		code, body, err := fetch(ctx, pr.method, s.base+pr.path, pr.body)
		if err != nil {
			return fail(err)
		}
		if code != http.StatusOK {
			return fail(fmt.Errorf("probe %s %s %s: status %d: %s", pr.method, pr.path, pr.body, code, body))
		}
		bodies = append(bodies, body)
	}
	s.probes = bodyDigest(bodies)
	return s, time.Since(begin).Seconds(), nil
}

// behaviorKeyCount is how many single-record keys the read mix cycles.
const behaviorKeyCount = 8

// sample is one measured request.
type sample struct {
	route  string
	slice  int // index of the measured slice it was sent in
	took   time.Duration
	status int  // 0 on a transport error
	cached bool // the response said X-Cache: hit
}

func (s sample) ok() bool { return s.status == http.StatusOK }

// loader is the one closed-loop client: it holds one keep-alive
// connection and sends its next request when the previous response has
// been read to the end. It walks one stream of a schedule and keeps its
// place between slices, so a run sends the same requests in the same
// order however it is sliced.
type loader struct {
	hc     *http.Client
	base   string
	sched  schedule
	stream int // the schedule's client index
	next   int // index of the next request
}

func newLoader(base string, sched schedule, stream int) *loader {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &loader{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base, sched: sched, stream: stream}
}

func (l *loader) close() { l.hc.CloseIdleConnections() }

// run sends requests for dur (it stops starting them when dur has passed)
// and returns the samples, tagged with slice, and the time to the last
// completion.
func (l *loader) run(ctx context.Context, slice int, dur time.Duration) ([]sample, time.Duration) {
	var samples []sample
	begin := time.Now()
	for ctx.Err() == nil && time.Since(begin) < dur {
		rq := l.sched(l.stream, l.next)
		l.next++
		if rq.path == "" { // schedule exhausted: an error, reported as a failed op
			samples = append(samples, sample{route: "exhausted", slice: slice})
			break
		}
		sm := sample{route: rq.route, slice: slice}
		sent := time.Now()
		var body io.Reader
		if rq.body != "" {
			body = strings.NewReader(rq.body)
		}
		req, err := http.NewRequestWithContext(ctx, rq.method, l.base+rq.path, body)
		if err == nil {
			if rq.body != "" {
				req.Header.Set("Content-Type", "application/json")
			}
			var resp *http.Response
			if resp, err = l.hc.Do(req); err == nil {
				// Read to the end: the latency a client sees ends with
				// the last byte, and the connection is reused only then.
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err == nil {
					sm.status = resp.StatusCode
					sm.cached = resp.Header.Get("X-Cache") == "hit"
				}
			}
		}
		sm.took = time.Since(sent)
		samples = append(samples, sm)
	}
	return samples, time.Since(begin)
}

// publishBody is the campaign the writer submits: the quick profile's PR
// and CC specs at its smallest size, ten runs ("1000" matches no quick
// size label and is kept only because the issue fixed this body).
func publishBody(seed uint64) string {
	return fmt.Sprintf(`{"profile":"quick","algorithms":["PR","CC"],"sizes":["300","1000"],"seed":%d}`, seed)
}

type jobStatus struct {
	Job struct {
		ID            string `json:"id"`
		State         string `json:"state"`
		Total         int    `json:"total"`
		CorpusVersion int64  `json:"corpusVersion"`
	} `json:"job"`
}

// publisher submits count campaigns on a fixed schedule, one every
// interval starting half an interval in, and times each from the moment
// it was due (not from when it was sent, so that a stalled writer counts
// against the system) until the job is ok and its corpus version is out.
type publisher struct {
	dueToVisibleMs []float64
	submitToOkMs   []float64
	publishedRuns  int
	failed         int
}

func (pb *publisher) run(ctx context.Context, base string, seed uint64, begin time.Time, count int, interval time.Duration) {
	for k := 0; k < count; k++ {
		due := begin.Add(interval/2 + time.Duration(k)*interval)
		select {
		case <-time.After(time.Until(due)):
		case <-ctx.Done():
			pb.failed += count - k
			return
		}
		sent := time.Now()
		var st jobStatus
		code, body, err := fetch(ctx, "POST", base+"/api/campaigns", publishBody(seed*1000+uint64(k)+1))
		if err != nil || code != http.StatusAccepted || json.Unmarshal(body, &st) != nil {
			pb.failed++
			continue
		}
		ok := false
		for ctx.Err() == nil && time.Since(sent) < 30*time.Second {
			if err := fetchJSON(ctx, "GET", base+"/api/jobs/"+st.Job.ID, "", &st); err != nil {
				break
			}
			if st.Job.State == "ok" && st.Job.CorpusVersion > 0 {
				ok = true
				break
			}
			if st.Job.State != "queued" && st.Job.State != "running" {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		if !ok {
			pb.failed++
			continue
		}
		now := time.Now()
		pb.dueToVisibleMs = append(pb.dueToVisibleMs, now.Sub(due).Seconds()*1000)
		pb.submitToOkMs = append(pb.submitToOkMs, now.Sub(sent).Seconds()*1000)
		pb.publishedRuns += st.Job.Total
	}
}

type corpusInfo struct {
	Records       int   `json:"records"`
	CorpusVersion int64 `json:"corpusVersion"`
}

// routeLabel maps a route of the mix to its label in the server's
// gcbench_serve_route_seconds histogram.
var routeLabel = map[string]string{
	"predict":  `route="/api/predict"`,
	"runs":     `route="/api/runs"`,
	"behavior": `route="/api/behavior/{key}"`,
	"design":   `route="/api/ensemble/design"`,
	"best":     `route="/api/ensemble/best"`,
}

func scrape(ctx context.Context, base string) (promSample, error) {
	code, body, err := fetch(ctx, "GET", base+"/metrics", "")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", code)
	}
	return parseProm(bytes.NewReader(body))
}

func (d deployment) run(ctx context.Context, p runParams) (*result, error) {
	res := newResult(d.name, p)
	cal, err := newCalibrator(d.probe)
	if err != nil {
		return nil, err
	}
	defer cal.close()

	// Set up several times and keep the last deployment for the measured
	// phase; setup_s is the median of the set-up times, each corrected by
	// the probes around it.
	repeats := setupRepeats
	if p.trace {
		repeats = 1
	}
	var srv *server
	var setups, setupsRaw []float64
	before, err := cal.sample()
	if err != nil {
		return nil, err
	}
	for i := 0; i < repeats; i++ {
		if srv != nil {
			srv.ch.stop()
		}
		s, took, err := d.setUp(ctx, p, fmt.Sprintf("serve-%d", i))
		if err != nil {
			return nil, err
		}
		srv = s
		after, err := cal.sample()
		if err != nil {
			srv.ch.stop()
			return nil, err
		}
		setups = append(setups, took/slowdownOf(before, after))
		setupsRaw = append(setupsRaw, took)
		before = after
	}
	defer srv.ch.stop()
	res.EndToEnd["setup_s"] = median(setups)
	res.Rounds["setup_s"], res.Rounds["setup_raw_s"] = setups, setupsRaw
	res.PerLayer["serve.ready_s"] = srv.readyS
	res.checkDigest("probes", p.exp.Probes, d.probeKey(), srv.probes)

	if err := d.measure(ctx, p, cal, srv, res); err != nil {
		return nil, fmt.Errorf("%s: %w\n%s", d.name, err, srv.ch.logTail(2000))
	}

	if p.trace {
		srv.ch.stop() // the in-process pass should have the machine to itself
		corpus, err := filepath.Abs(corpusFile)
		if err != nil {
			return nil, err
		}
		if _, err := runInproc(ctx, p, res, "-pass", "serve", "-corpus", corpus, "-samples", coldSamples); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// sliceDur is how long the load runs between two calibration probes:
// short against the host's episodes (ten seconds and more), long against
// a probe (about ten milliseconds).
const sliceDur = 500 * time.Millisecond

// measure runs the warm-up and the measured phase against a ready
// deployment and fills in every number but the set-up's.
func (d deployment) measure(ctx context.Context, p runParams, cal *calibrator, srv *server, res *result) error {
	var before corpusInfo
	if err := fetchJSON(ctx, "GET", srv.base+"/api/corpus", "", &before); err != nil {
		return err
	}

	dur := time.Duration(p.seconds) * time.Second
	var sched schedule
	if d.cold {
		sched = coldSchedule(coldDesigns(p.seed))
	} else {
		sched = readMix(p.seed, pickKeys(p.seed, srv.keys, behaviorKeyCount))
		// Warm-up: the same mix on a stream the measured phase never uses,
		// until connection, caches and the runtime have settled.
		warm := newLoader(srv.base, sched, 1)
		warm.run(ctx, 0, dur/10+time.Second)
		warm.close()
	}

	tree := processTree(srv.ch.pid())
	cpuBefore := treeCPU(tree)
	promBefore, err := scrape(ctx, srv.base)
	if err != nil {
		return err
	}

	// The measured phase: half-second slices of load, a calibration probe
	// before and after each. The publisher, when there is one, keeps its
	// own wall-clock schedule across slices and probes.
	hostTotal, hostSteal := hostCPU()
	begin := time.Now()
	var pub publisher
	var pubDone sync.WaitGroup
	if d.publish {
		pubDone.Add(1)
		go func() {
			defer pubDone.Done()
			pub.run(ctx, srv.base, p.seed, begin, p.seconds, time.Second)
		}()
	}
	ld := newLoader(srv.base, sched, 0)
	defer ld.close()
	var samples []sample
	var slowdowns, sliceS []float64 // per slice: correction, measured seconds
	probeBefore, err := cal.sample()
	if err != nil {
		return err
	}
	for measured := time.Duration(0); measured < dur && ctx.Err() == nil; {
		got, took := ld.run(ctx, len(slowdowns), min(sliceDur, dur-measured))
		probeAfter, err := cal.sample()
		if err != nil {
			return err
		}
		samples = append(samples, got...)
		slowdowns = append(slowdowns, slowdownOf(probeBefore, probeAfter))
		sliceS = append(sliceS, took.Seconds())
		measured += took
		probeBefore = probeAfter
	}
	pubDone.Wait()
	res.PerLayer["bench.host_steal_share"] = stealShare(hostTotal, hostSteal)
	if err := ctx.Err(); err != nil {
		return err
	}

	promAfter, err := scrape(ctx, srv.base)
	if err != nil {
		return err
	}
	cpuAfter := treeCPU(tree)
	var rss float64
	for _, pid := range tree {
		rss += peakRSSMB(pid)
	}
	var after corpusInfo
	if err := fetchJSON(ctx, "GET", srv.base+"/api/corpus", "", &after); err != nil {
		return err
	}
	prom := promAfter.delta(promBefore)

	// Pool the successful requests: raw by route for the per-layer rows,
	// corrected by their slice's slowdown for the end-to-end figures.
	perSlice := make([][]float64, len(slowdowns))
	perRoute := map[string][]float64{}
	var raw, corrected []float64
	var okCount, failCount, fiveXX, cacheHits int
	for _, sm := range samples {
		if !sm.ok() {
			failCount++
			if sm.status >= 500 {
				fiveXX++
			}
			continue
		}
		okCount++
		if sm.cached {
			cacheHits++
		}
		ms := sm.took.Seconds() * 1000
		raw = append(raw, ms)
		corrected = append(corrected, ms/slowdowns[sm.slice])
		perSlice[sm.slice] = append(perSlice[sm.slice], ms)
		perRoute[sm.route] = append(perRoute[sm.route], ms)
	}
	res.Attempted, res.Failed = int64(okCount+failCount), int64(failCount)
	if d.publish {
		res.Attempted += int64(p.seconds)
		res.Failed += int64(pub.failed)
	}
	if okCount == 0 {
		return fmt.Errorf("no request succeeded")
	}
	sort.Float64s(raw)
	sort.Float64s(corrected)

	// Seconds of load at reference speed: each slice's seconds over its
	// slowdown.
	var correctedS float64
	var sliceRate, sliceP50 []float64
	for k, took := range sliceS {
		correctedS += took / slowdowns[k]
		sort.Float64s(perSlice[k])
		sliceRate = append(sliceRate, ratio(float64(len(perSlice[k])), took))
		sliceP50 = append(sliceP50, quantile(perSlice[k], 0.5))
	}
	var cpu, cpuShards float64
	for pid, c := range cpuAfter {
		cpu += c - cpuBefore[pid]
		if pid != srv.ch.pid() {
			cpuShards += c - cpuBefore[pid]
		}
	}

	tail := tailQuantile(len(corrected))
	res.EndToEnd["throughput_ops_s"] = ratio(float64(okCount), correctedS)
	res.EndToEnd["latency_p50_ms"] = quantile(corrected, 0.5)
	res.EndToEnd["latency_tail_ms"] = quantile(corrected, tail)
	res.EndToEnd["peak_rss_mb"] = rss
	res.Rounds["slowdown"], res.Rounds["raw_ops_s"], res.Rounds["raw_p50_ms"] = slowdowns, sliceRate, sliceP50

	pl := res.PerLayer
	pl["bench.tail_percentile"] = tail * 100
	pl["bench.slowdown"] = median(slowdowns)
	pl["bench.raw_throughput_ops_s"] = ratio(float64(okCount), sum(sliceS))
	pl["bench.raw_latency_p50_ms"] = quantile(raw, 0.5)
	pl["bench.raw_latency_tail_ms"] = quantile(raw, tail)
	pl["serve.cpu_us_per_req"] = cpu / float64(okCount) * 1e6
	var handlerSum, handlerCount float64
	for _, route := range readRoutes {
		ms := perRoute[route]
		sort.Float64s(ms)
		pl["serve.route."+route+".count"] = float64(len(ms))
		pl["serve.route."+route+".p50_ms"] = quantile(ms, 0.5)
		pl["serve.route."+route+".p99_ms"] = quantile(ms, 0.99)
		hs := prom.total("gcbench_serve_route_seconds_sum", routeLabel[route])
		hc := prom.total("gcbench_serve_route_seconds_count", routeLabel[route])
		pl["serve.route."+route+".handler_mean_us"] = ratio(hs, hc) * 1e6
		handlerSum, handlerCount = handlerSum+hs, handlerCount+hc
	}
	// What the client waits for beyond the handler: kernel, net/http on
	// both sides, and the middleware outside the route timer.
	pl["serve.net_overhead_us"] = sum(raw)/float64(len(raw))*1000 - ratio(handlerSum, handlerCount)*1e6
	hits, misses := prom.total("gcbench_serve_cache_hits_total"), prom.total("gcbench_serve_cache_misses_total")
	pl["serve.cache_hit_ratio"] = ratio(hits, hits+misses)
	pl["serve.coalesced"] = prom.total("gcbench_serve_coalesced_total")
	pl["serve.shed"] = prom.total("gcbench_serve_shed_total")
	pl["serve.searches"] = prom.total("gcbench_serve_searches_total")
	pl["serve.errors_5xx"] = float64(fiveXX)
	pl["serve.design_search_mean_ms"] = ratio(prom.total("gcbench_serve_design_seconds_sum"),
		prom.total("gcbench_serve_design_seconds_count")) * 1000
	pl["jobs.submitted"] = prom.total("gcbench_jobs_submitted_total")
	pl["jobs.ok"] = prom.total("gcbench_jobs_ok_total")
	pl["jobs.published_runs"] = prom.total("gcbench_jobs_published_runs_total")
	pl["jobs.submit_to_ok_p50_ms"] = median(pub.submitToOkMs)
	pl["jobs.publish_p50_ms"] = median(pub.dueToVisibleMs)
	pl["shard.fanouts"] = prom.total("gcbench_shard_fanouts_total")
	pl["shard.rpc_mean_us"] = ratio(prom.total("gcbench_shard_request_seconds_sum"),
		prom.total("gcbench_shard_request_seconds_count")) * 1e6
	pl["shard.rpc_errors"] = prom.total("gcbench_shard_rpc_errors_total")
	pl["shard.proc_restarts"] = prom.total("gcbench_shard_proc_restarts_total")
	pl["shard.cpu_share"] = ratio(cpuShards, cpu)

	// Output checks beyond the probes.
	if d.cold && cacheHits > 0 {
		res.fail("%d cold designs were answered from the cache", cacheHits)
	}
	if d.publish {
		res.Rounds["publish_ms"] = pub.dueToVisibleMs
		wantRecords := before.Records + pub.publishedRuns
		wantVersion := before.CorpusVersion + int64(len(pub.dueToVisibleMs))
		if pub.failed > 0 || after.Records != wantRecords || after.CorpusVersion != wantVersion {
			res.fail("after %d publishes (%d failed): records %d (want %d), corpusVersion %d (want %d)",
				p.seconds, pub.failed, after.Records, wantRecords, after.CorpusVersion, wantVersion)
		}
	} else if after != before {
		res.fail("a read-only workload changed the corpus: %+v → %+v", before, after)
	}
	return nil
}
