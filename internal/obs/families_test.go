package obs_test

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"gcbench/internal/jobs"
	"gcbench/internal/obs"
	"gcbench/internal/serve"
	"gcbench/internal/shard"
)

// TestMetricFamiliesGolden pins the name, type and label names of every
// gcbench_* metric family the product registers — the metric twin of
// serve's TestSpanKindsInTable. Dashboards, the CI smoke steps and the
// benchmark harness scrape these by name, so a rename or a type change
// must show up as a diff of testdata/metric_families.txt (and of the
// table in DESIGN.md §8), not as a silently empty panel. Registered
// here: a serve.Server with the jobs API over a 2 × 2 cluster, a
// supervisor and a remote shard in one registry, plus what the engine
// and the sweep (linked in through jobs) put in obs.Default() at init.
// Regenerate deliberately with:
//
//	go test ./internal/obs/ -run TestMetricFamiliesGolden -update
func TestMetricFamiliesGolden(t *testing.T) {
	reg := obs.NewRegistry()
	cluster, err := shard.New(shard.Options{Shards: 2, Replicas: 2, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	mgr := jobs.NewManager(jobs.Config{Registry: reg})
	if _, err := serve.New(serve.Config{Cluster: cluster, Jobs: mgr, Registry: reg}); err != nil {
		t.Fatal(err)
	}
	if _, err := shard.NewSupervisor([]shard.ProcSpec{{Addr: "127.0.0.1:1"}}, shard.SupervisorOptions{
		Spawn:    func(shard.ProcSpec) (func() error, func(), error) { return nil, nil, nil },
		Registry: reg,
	}); err != nil {
		t.Fatal(err)
	}
	shard.NewRemoteShard("127.0.0.1:1", shard.RemoteOptions{Registry: reg})

	lines := append(reg.FamilyLines(), obs.Default().FamilyLines()...)
	lines = slices.DeleteFunc(lines, func(l string) bool { return !strings.HasPrefix(l, "# TYPE gcbench_") })
	slices.Sort(lines)
	got := strings.Join(slices.Compact(lines), "\n") + "\n"

	golden := filepath.Join("testdata", "metric_families.txt")
	if *obs.Update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("metric families drifted from %s (regenerate with -update if intended, and update the DESIGN.md §8 table):\ngot:\n%s", golden, got)
	}
}
