package sweep

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"gcbench/internal/algorithms"
	"gcbench/internal/behavior"
	"gcbench/internal/gen"
)

// The shared GA graph carries K-Means features only once a KM spec has
// used it, and then exactly the points the eager path used to attach.
func TestGAFeaturesAttachOnFirstKMUse(t *testing.T) {
	cache := &graphCache{}
	cc := Spec{Algorithm: algorithms.CC, NumEdges: 400, Alpha: 2.5, SizeLabel: "400", Seed: 5}
	km := cc
	km.Algorithm = algorithms.KM

	w, err := specWorkload(cc, cache)
	if err != nil {
		t.Fatal(err)
	}
	g := w.Graph
	if g.FeatureDim() != 0 {
		t.Fatalf("graph fetched for CC carries %d-D features; only KM needs them", g.FeatureDim())
	}
	wk, err := specWorkload(km, cache)
	if err != nil {
		t.Fatal(err)
	}
	if wk.Graph != g {
		t.Fatal("KM spec did not share the cached graph")
	}
	want := gen.GaussianPoints2D(g.NumVertices(), 8, 15, km.Seed^0xfeed)
	for v := 0; v < g.NumVertices(); v++ {
		if got := g.Features(uint32(v)); !reflect.DeepEqual(got, want[2*v:2*v+2]) {
			t.Fatalf("vertex %d features %v, want %v", v, got, want[2*v:2*v+2])
		}
	}
}

// KM specs race each other, and specs of other algorithms, to one cache
// entry (run under -race). Every KM run must see the features, and behave
// as a KM run on a graph of its own does.
func TestGAFeaturesConcurrentFirstUse(t *testing.T) {
	base := Spec{NumEdges: 2000, Alpha: 2.25, SizeLabel: "2000", Seed: 9}
	var specs []Spec
	for i := 0; i < 3; i++ {
		for _, a := range []algorithms.Name{algorithms.KM, algorithms.CC, algorithms.PR, algorithms.TC} {
			s := base
			s.Algorithm = a
			specs = append(specs, s)
		}
	}
	ref := base
	ref.Algorithm = algorithms.KM
	want, err := RunSpec(ref, 1, nil)
	if err != nil {
		t.Fatal(err)
	}

	cache := &graphCache{}
	var wg sync.WaitGroup
	for _, s := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run, err := RunSpecContext(context.Background(), s, 1, cache)
			if err != nil {
				t.Errorf("%s: %v", s.ID(), err)
				return
			}
			if s.Algorithm != algorithms.KM {
				return
			}
			// WORK is wall-clock; the other three dimensions are exact counts.
			got, ref := run.Raw, want.Raw
			got[behavior.WORK], ref[behavior.WORK] = 0, 0
			if run.Iterations != want.Iterations || got != ref || !reflect.DeepEqual(run.ActiveFraction, want.ActiveFraction) {
				t.Errorf("KM over the shared graph: %d iterations, raw %v; on a graph of its own: %d iterations, raw %v",
					run.Iterations, got, want.Iterations, ref)
			}
		}()
	}
	wg.Wait()
	if cache.entries() != 1 {
		t.Fatalf("%d cache entries, want the one shared graph", cache.entries())
	}
}
