package main

import (
	"fmt"
	"math/rand/v2"
	"strings"
)

// request is one HTTP request of a schedule. route buckets its latency
// in the per-route rows.
type request struct {
	route  string
	method string
	path   string
	body   string
}

// schedule yields the i-th request of a stream. It must be a pure
// function of (seed, stream, i): two runs with one seed send the same
// requests in the same order, whatever the timing. The measured phase
// walks stream 0, the warm-up stream 1.
type schedule func(stream, i int) request

// drawFor returns the generator of one (seed, client, i) cell: a PCG
// stream of its own, so a request never depends on how many were drawn
// before it.
func drawFor(seed uint64, client, i int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(client)<<40|uint64(i)))
}

// The read mix, by weight: the serve API's traffic as the repository's
// own load profile describes it — predict-heavy reads, listings,
// single-record reads, one cached design and the canonical best ensemble.
var (
	predictPaths = []string{
		"/api/predict?algorithm=PR&edges=500000&alpha=2.1",
		"/api/predict?algorithm=PR&edges=1200000&alpha=1.9",
		"/api/predict?algorithm=CC&edges=800000&alpha=2.3",
		"/api/predict?algorithm=SSSP&edges=250000&alpha=2.0",
	}
	runsPaths = []string{
		"/api/runs?algorithm=PR",
		"/api/runs?algorithm=CC,KC&size=1e5",
		"/api/runs?status=ok",
	}
	readRoutes = []string{"predict", "runs", "behavior", "design", "best"}
)

const (
	weightPredict  = 5
	weightRuns     = 2
	weightBehavior = 2
	weightDesign   = 1
	weightBest     = 1
	weightTotal    = weightPredict + weightRuns + weightBehavior + weightDesign + weightBest
)

// readMix is the steady read schedule over the given behavior keys.
func readMix(seed uint64, behaviorKeys []string) schedule {
	return func(client, i int) request {
		r := drawFor(seed, client, i)
		switch w := r.IntN(weightTotal); {
		case w < weightPredict:
			return request{route: "predict", method: "GET", path: predictPaths[r.IntN(len(predictPaths))]}
		case w < weightPredict+weightRuns:
			return request{route: "runs", method: "GET", path: runsPaths[r.IntN(len(runsPaths))]}
		case w < weightPredict+weightRuns+weightBehavior:
			return request{route: "behavior", method: "GET", path: "/api/behavior/" + behaviorKeys[r.IntN(len(behaviorKeys))]}
		case w < weightTotal-weightBest:
			return request{route: "design", method: "POST", path: "/api/ensemble/design", body: `{"n":4}`}
		}
		return request{route: "best", method: "GET", path: "/api/ensemble/best?n=5"}
	}
}

// pickKeys draws n distinct behavior keys from the discovered key list,
// by seed.
func pickKeys(seed uint64, keys []string, n int) []string {
	r := rand.New(rand.NewPCG(seed, 0x6b657973)) // "keys"
	perm := r.Perm(len(keys))
	out := make([]string, 0, n)
	for _, j := range perm[:min(n, len(perm))] {
		out = append(out, keys[j])
	}
	return out
}

// Cold designs. Every request is a coverage search over its own pool
// restriction, so no cache can answer it. The restriction leaves out three
// of the eleven algorithms that have a full 4 sizes × 5 alphas grid in
// the standard corpus, and one of the five alphas: 165 × 5 pools, all of
// 128 of the 220 pool runs, so requests differ in content but not in cost
// class, and the seed only decides which pool meets which n, and in what
// order.
var (
	gridAlgorithms = []string{"CC", "KC", "TC", "SSSP", "PR", "AD", "KM", "ALS", "NMF", "SGD", "SVD"}
	gridAlphas     = []string{"2", "2.25", "2.5", "2.75", "3"}
	coldSizes      = []int{4, 5, 6, 7, 8}
)

// without returns list minus the elements at the given indices.
func without(list []string, drop ...int) []string {
	var keep []string
	for k, v := range list {
		dropped := false
		for _, d := range drop {
			dropped = dropped || k == d
		}
		if !dropped {
			keep = append(keep, v)
		}
	}
	return keep
}

// coldDesigns returns the full cold schedule of a seed: len(coldSizes)
// independent shufflings of the 825 pools, interleaved so that every run
// of five consecutive requests holds each n once. No two entries are
// equal, so nothing repeats within a run shorter than the list: 4125
// requests, where a 15 s phase sends about 350 — room for a search that
// gets ten times faster.
func coldDesigns(seed uint64) []request {
	var pools []string
	n := len(gridAlgorithms)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			for c := b + 1; c < n; c++ {
				for d := range gridAlphas {
					pools = append(pools, fmt.Sprintf(`{"algorithms":["%s"],"alphas":[%s]}`,
						strings.Join(without(gridAlgorithms, a, b, c), `","`),
						strings.Join(without(gridAlphas, d), ",")))
				}
			}
		}
	}
	r := rand.New(rand.NewPCG(seed, 0x636f6c64)) // "cold"
	orders := make([][]int, len(coldSizes))
	for k := range orders {
		orders[k] = r.Perm(len(pools))
	}
	out := make([]request, 0, len(pools)*len(coldSizes))
	for block := range pools {
		for _, k := range r.Perm(len(coldSizes)) {
			body := fmt.Sprintf(`{"n":%d,"metric":"coverage","method":"greedy","pool":%s}`,
				coldSizes[k], pools[orders[k][block]])
			out = append(out, request{route: "design", method: "POST", path: "/api/ensemble/design", body: body})
		}
	}
	return out
}

// coldSchedule walks the cold list in order; it has one stream only. A
// run that outlasts the list is an error (the caller checks the path),
// never a silent repeat that a cache could answer.
func coldSchedule(list []request) schedule {
	return func(_, i int) request {
		if i >= len(list) {
			return request{}
		}
		return list[i]
	}
}
