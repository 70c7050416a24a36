package main

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// These tests spawn nothing and finish in well under a second; the
// workloads themselves are exercised by running the benchmark.

func TestQuantileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0, 1}, {0.05, 1}, {0.11, 2},
	} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}

// The tail percentile is the highest one with at least ten samples beyond
// it: that is what chooses p99 on the read workloads, p90 on the cold
// designs, and nothing above the median for a handful of sweeps.
func TestTailQuantileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5000, 0.99}, {1000, 0.99}, {999, 0.90}, {430, 0.90}, {100, 0.90}, {99, 0.5}, {3, 0.5}} {
		got := tailQuantile(c.n)
		if got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
		if got > 0.5 {
			if beyond := c.n - int(math.Ceil(got*float64(c.n))); beyond < 10 {
				t.Errorf("tailQuantile(%d) = %v leaves only %d samples beyond", c.n, got, beyond)
			}
		}
	}
}

// A slice's slowdown is the mean of the probes around it, and dividing by
// it takes a host episode out of a figure: a run of which two thirds were
// measured on a machine running 1.5 times slower reads what a quiet run
// reads.
func TestSlowdownCorrectionSeesThroughAnEpisode(t *testing.T) {
	if got := slowdownOf(1.0, 1.5); got != 1.25 {
		t.Errorf("slowdownOf(1, 1.5) = %v, want 1.25", got)
	}
	quiet := []float64{0.25, 0.24, 0.26, 0.25, 0.24, 0.25, 0.26, 0.25, 0.24, 0.25, 0.26, 0.25}
	var raw, corrected []float64
	for i, v := range quiet {
		slow := 1.0
		if i < 8 {
			slow = 1.5
		}
		raw = append(raw, v*slow)
		corrected = append(corrected, v*slow/slowdownOf(slow, slow))
	}
	if m := median(raw); m < 0.35 {
		t.Errorf("the median of the raw rounds is %v; the test means it to read the episode", m)
	}
	if q, c := median(quiet), median(corrected); math.Abs(c-q) > 1e-9 {
		t.Errorf("corrected median %v, quiet median %v", c, q)
	}
}

// Both probes do their fixed work and report a positive slowdown; the
// request probe makes exactly its round trips and leaves nothing behind.
func TestProbesSample(t *testing.T) {
	for _, kind := range []probeKind{probeRequest, probeCompute} {
		c, err := newCalibrator(kind)
		if err != nil {
			t.Fatal(err)
		}
		v, err := c.sampleMedian(3)
		if err != nil || v <= 0 {
			t.Errorf("probe %d: slowdown %v, err %v", kind, v, err)
		}
		c.close()
		if kind == probeRequest {
			if _, err := c.sample(); err == nil {
				t.Error("the echo server still answers after close")
			}
		}
	}
}

// The loader keeps its place in the schedule between slices, so a run
// sends the same requests in the same order however it is sliced, and it
// tags every sample with the slice it was sent in.
func TestLoaderWalksOneStreamAcrossSlices(t *testing.T) {
	var mu sync.Mutex
	var seen []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = append(seen, r.URL.Path)
		mu.Unlock()
	}))
	defer srv.Close()
	sched := func(stream, i int) request {
		if i >= 40 {
			return request{} // exhausted
		}
		return request{route: "r", method: "GET", path: "/" + string(rune('a'+stream)) + "/" + string(rune('A'+i))}
	}
	ld := newLoader(srv.URL, sched, 1)
	defer ld.close()
	var samples []sample
	for slice := 0; slice < 100 && ld.next <= 40; slice++ {
		got, _ := ld.run(context.Background(), slice, time.Millisecond)
		for _, sm := range got {
			if sm.slice != slice {
				t.Fatalf("sample of slice %d tagged %d", slice, sm.slice)
			}
		}
		samples = append(samples, got...)
	}
	if len(seen) != 40 || len(samples) != 41 || samples[40].route != "exhausted" || samples[40].ok() {
		t.Fatalf("server saw %d requests, loader returned %d samples (last %+v)", len(seen), len(samples), samples[len(samples)-1])
	}
	for i, path := range seen {
		if want := sched(1, i).path; path != want {
			t.Fatalf("request %d was %s, want %s", i, path, want)
		}
		if !samples[i].ok() {
			t.Fatalf("sample %d failed: %+v", i, samples[i])
		}
	}
}

func TestMedianAndSpreadMatchPythonQuantiles(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	vals := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(vals)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got, want := spread(vals), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if vals[0] != 10 {
		t.Error("spread reordered its input")
	}
}

func TestReadMixIsAPureFunctionOfSeedClientIndex(t *testing.T) {
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	mixA, mixB := readMix(7, keys), readMix(7, keys)
	other := readMix(8, keys)
	differ := 0
	count := map[string]int{}
	for c := 0; c < 2; c++ {
		// Visit indices out of order: the i-th request must not depend on
		// what was drawn before it.
		for _, i := range []int{500, 3, 3, 0, 1999, 42} {
			if mixA(c, i) != mixB(c, i) {
				t.Fatalf("client %d request %d differs between two schedules of one seed", c, i)
			}
		}
		for i := 0; i < 2000; i++ {
			a := mixA(c, i)
			count[a.route]++
			if a != other(c, i) {
				differ++
			}
		}
	}
	if differ == 0 {
		t.Error("another seed gave the same schedule")
	}
	// The weights are 5:2:2:1:1 of 11.
	for route, w := range map[string]float64{"predict": 5, "runs": 2, "behavior": 2, "design": 1, "best": 1} {
		share := float64(count[route]) / 4000
		if math.Abs(share-w/11) > 0.03 {
			t.Errorf("route %s has share %.3f, want about %.3f", route, share, w/11)
		}
	}
}

func TestColdDesignsNeverRepeatAndBalanceSizes(t *testing.T) {
	list := coldDesigns(3)
	if len(list) != 165*5*5 {
		t.Fatalf("cold list has %d requests, want %d", len(list), 165*5*5)
	}
	seen := map[string]bool{}
	for _, r := range list {
		if seen[r.body] {
			t.Fatalf("cold design repeats: %s", r.body)
		}
		seen[r.body] = true
	}
	// Every block of five holds each n once, so a run's prefix has the
	// same cost mix whatever its length.
	for b := 0; b+5 <= len(list); b += 5 {
		sizes := map[string]bool{}
		for _, r := range list[b : b+5] {
			sizes[r.body[:strings.Index(r.body, ",")]] = true
		}
		if len(sizes) != 5 {
			t.Fatalf("block at %d does not hold five distinct n: %v", b, sizes)
		}
	}
	again := coldDesigns(3)
	for i := range list {
		if list[i] != again[i] {
			t.Fatal("the same seed gave another cold list")
		}
	}
	if other := coldDesigns(4); other[0] == list[0] && other[1] == list[1] && other[2] == list[2] {
		t.Error("another seed starts with the same three designs")
	}
	// Walked in order, everything is sent once and the end is marked.
	sched := coldSchedule(list)
	for i := range list {
		if sched(0, i) != list[i] {
			t.Fatalf("request %d of the schedule is not entry %d of the list", i, i)
		}
	}
	if r := sched(0, len(list)); r.path != "" {
		t.Errorf("past its end the schedule yields %v", r)
	}
}

func TestPromDelta(t *testing.T) {
	before, err := parseProm(strings.NewReader(`# HELP gcbench_serve_requests_total Requests.
# TYPE gcbench_serve_requests_total counter
gcbench_serve_requests_total 10
gcbench_serve_route_seconds_sum{route="/api/runs",code="2xx"} 0.5
gcbench_serve_route_seconds_count{route="/api/runs",code="2xx"} 5
gcbench_serve_route_seconds_sum{route="/api/runs/x y",code="2xx"} 9
`))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(`gcbench_serve_requests_total 25
gcbench_serve_route_seconds_sum{route="/api/runs",code="2xx"} 2.5
gcbench_serve_route_seconds_count{route="/api/runs",code="2xx"} 15
gcbench_serve_route_seconds_sum{route="/api/runs",code="4xx"} 1
gcbench_serve_route_seconds_count{route="/api/runs",code="4xx"} 1
gcbench_serve_route_seconds_sum{route="/api/runs/x y",code="2xx"} 9
not a metric line
`))
	if err != nil {
		t.Fatal(err)
	}
	d := after.delta(before)
	if got := d.total("gcbench_serve_requests_total"); got != 15 {
		t.Errorf("requests delta = %v, want 15", got)
	}
	// Both status classes of the route, the new series counted from 0, and
	// not the longer route that shares the prefix.
	if got := d.total("gcbench_serve_route_seconds_sum", `route="/api/runs"`); got != 3 {
		t.Errorf("route sum delta = %v, want 3", got)
	}
	if got := d.total("gcbench_serve_route_seconds_count", `route="/api/runs"`, `code="2xx"`); got != 10 {
		t.Errorf("route 2xx count delta = %v, want 10", got)
	}
	if got := d.total("gcbench_serve_route_seconds_sum", `route="/api/runs/x y"`); got != 0 {
		t.Errorf("untouched series delta = %v, want 0", got)
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio over 0 = %v, want 0", got)
	}
}

func TestParseProcStat(t *testing.T) {
	// A command name with spaces and parentheses, as the kernel prints it.
	st, err := parseProcStat("4242 (gcb (x) y) S 17 4242 4242 0 -1 4194560 1 2 3 4 250 50 0 0 20 0 9 0 100 200 300")
	if err != nil {
		t.Fatal(err)
	}
	if st.pid != 4242 || st.ppid != 17 || st.cpuS != 3 {
		t.Errorf("parsed %+v, want pid 4242, ppid 17, 3 s of CPU", st)
	}
	if _, err := parseProcStat("garbage"); err == nil {
		t.Error("a malformed line parsed")
	}
}

func TestCounterDigestIgnoresWorkAndSpelling(t *testing.T) {
	run := corpusRun{Algorithm: "PR", SizeLabel: "1e3", Alpha: 2.5, Iterations: 7, Converged: true,
		ActiveFraction: []float64{1, 0.5}, Raw: [4]float64{0.25, 1e-9, 2, 0.125}}
	base := counterDigest([]corpusRun{run})
	if base != counterDigest([]corpusRun{run}) {
		t.Fatal("digest is not stable")
	}
	work := run
	work.Raw[1] = 5e-9 // WORK is wall clock
	if counterDigest([]corpusRun{work}) != base {
		t.Error("digest depends on WORK")
	}
	for name, mutate := range map[string]func(*corpusRun){
		"UPDT":       func(r *corpusRun) { r.Raw[0] = 0.26 },
		"EREAD":      func(r *corpusRun) { r.Raw[2] = 2.5 },
		"MSG":        func(r *corpusRun) { r.Raw[3] = 0.25 },
		"iterations": func(r *corpusRun) { r.Iterations = 8 },
		"converged":  func(r *corpusRun) { r.Converged = false },
		"model":      func(r *corpusRun) { r.Model = "pregel" },
		"active":     func(r *corpusRun) { r.ActiveFraction = []float64{1, 0.25} },
	} {
		changed := run
		changed.ActiveFraction = append([]float64(nil), run.ActiveFraction...)
		mutate(&changed)
		if counterDigest([]corpusRun{changed}) == base {
			t.Errorf("digest does not depend on %s", name)
		}
	}
	if bodyDigest([][]byte{[]byte("ab"), []byte("c")}) == bodyDigest([][]byte{[]byte("a"), []byte("bc")}) {
		t.Error("probe digest does not separate the bodies")
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "throughput_ops_s", Better: "higher", Bound: 0.10}
	steady := func(m float64) []float64 { return []float64{m * 0.99, m, m * 1.01, m, m * 0.995, m * 1.005} }
	noisy := func(m float64) []float64 { return []float64{m * 0.8, m * 0.9, m, m * 1.1, m * 1.2, m * 1.3} }
	for _, c := range []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady(100), steady(100), verdictWithin},
		{"slower inside the bound", lower, steady(100), steady(108), verdictWithin},
		{"slower beyond the bound", lower, steady(100), steady(115), verdictRegressed},
		{"faster", lower, steady(100), steady(50), verdictWithin},
		{"throughput down beyond the bound", higher, steady(100), steady(85), verdictRegressed},
		{"throughput up", higher, steady(100), steady(130), verdictWithin},
		{"spread wider than the bound", lower, noisy(100), steady(100), verdictUnresolved},
		{"regressed although noisy", lower, noisy(100), noisy(150), verdictRegressed},
	} {
		if got, _ := verdict(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareSetsFlagsRegressionsAndCountMismatches(t *testing.T) {
	man := &manifest{
		Workloads: []workloadDef{{Name: "w"}},
		EndToEnd:  []metricDef{{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}},
	}
	set := func(ms, reads float64) *resultFile {
		f := &resultFile{}
		for seed := uint64(1); seed <= 4; seed++ {
			f.Runs = append(f.Runs, &result{Workload: "w", Seed: seed,
				EndToEnd: map[string]float64{"latency_p50_ms": ms + float64(seed)*0.01},
				PerLayer: map[string]float64{"engine.edge_reads": reads}})
		}
		return f
	}
	var out strings.Builder
	if code := compareSets(&out, man, set(10, 500), set(10.2, 500)); code != 0 {
		t.Errorf("agreeing sets exit %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := compareSets(&out, man, set(10, 500), set(12, 500)); code != 1 || !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("regressed set exit %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := compareSets(&out, man, set(10, 500), set(10, 501)); code != 1 || !strings.Contains(out.String(), "exact count") {
		t.Errorf("count mismatch exit %d:\n%s", code, out.String())
	}
}

func TestEmitRefusesUndeclaredAndMissingMetrics(t *testing.T) {
	defs := []metricDef{{Name: "a", Unit: "ms"}, {Name: "b", Unit: "s"}}
	got, err := emit(defs, map[string]float64{"a": 1}, false)
	if err != nil || got["a"] != (value{1, "ms"}) || got["b"] != (value{0, "s"}) {
		t.Errorf("emit = %v, %v", got, err)
	}
	if _, err := emit(defs, map[string]float64{"a": 1}, true); err == nil {
		t.Error("a missing end-to-end metric was accepted")
	}
	if _, err := emit(defs, map[string]float64{"a": 1, "b": 2, "typo": 3}, true); err == nil {
		t.Error("an undeclared metric was accepted")
	}
}

// The manifest and the code must name the same workloads, and the
// manifest must stay inside the driver's limits.
func TestManifestMatchesCode(t *testing.T) {
	man, err := loadManifest("../" + manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) < 2 || len(man.Workloads) > len(workloadNames()) {
		t.Errorf("manifest has %d workloads, the code implements %d", len(man.Workloads), len(workloadNames()))
	}
	for _, w := range man.Workloads {
		if workloadByName(w.Name) == nil {
			t.Errorf("workload %s of the manifest is not implemented", w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(man.PerLayer) > 128 || len(man.EndToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the limits", len(man.PerLayer), len(man.EndToEnd))
	}
	hasSetup := false
	for _, d := range man.EndToEnd {
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("the manifest has no setup_s in s, lower better")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), man.EndToEnd...), man.PerLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s is declared twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better is %q", d.Name, d.Better)
		}
	}
	for _, d := range man.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, name := range exactCounts {
		if !seen[name] {
			t.Errorf("exact count %s is not a declared metric", name)
		}
	}
}
