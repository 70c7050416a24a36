package model

import (
	"context"
	"fmt"
	"testing"

	"gcbench/internal/algorithms"
	"gcbench/internal/gen"
)

// BenchmarkModelScale runs PR, CC and SSSP under the three models that
// implement all three (GAS, Pregel, X-Stream) on one worker, at 1e4 and
// 1e5 edges, and reports ns per edge read: what one unit of the EREAD
// counter costs under each schedule. The counters are model-specific
// (EREAD is a gather read under GAS, an addressed send under Pregel and a
// streamed arc under X-Stream), so compare a row against itself across
// commits, not models against each other.
//
//	go test -run '^$' -bench ModelScale -benchtime 10x -cpu 1 ./internal/model/
func BenchmarkModelScale(b *testing.B) {
	for _, edges := range []int64{1e4, 1e5} {
		g, err := gen.PowerLaw(gen.PowerLawConfig{NumEdges: edges, Alpha: 2.5, Seed: 1, SortAdjacency: true})
		if err != nil {
			b.Fatal(err)
		}
		for _, alg := range []algorithms.Name{algorithms.PR, algorithms.CC, algorithms.SSSP} {
			for _, n := range []Name{GAS, Pregel, XStream} {
				m, err := ForName(n)
				if err != nil {
					b.Fatal(err)
				}
				b.Run(fmt.Sprintf("%s/%s/edges=%d", alg, n, edges), func(b *testing.B) {
					var reads int64
					for i := 0; i < b.N; i++ {
						res, err := m.Run(context.Background(), Workload{Graph: g}, alg, Options{Workers: 1})
						if err != nil {
							b.Fatal(err)
						}
						for _, it := range res.Trace.Iterations {
							reads += it.EdgeReads
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(reads), "ns/edge-read")
				})
			}
		}
	}
}
