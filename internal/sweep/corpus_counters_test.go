package sweep

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"gcbench/internal/behavior"
	"gcbench/internal/model"
)

// The frozen corpus oracle: one SHA-256 per run of the seed-42 campaign
// under all four execution models, over every exact field of the run —
// realized edges, iteration count, Converged, the active-fraction series
// and the raw UPDT, EREAD and MSG means (WORK is wall-clock and left
// out). Lines are "<sha256>  <run ID>"; each file's header states the
// commit and command that produced it. As for the model counter oracle,
// there is no -update path: a change that means to move a run replaces
// that line by hand, where review sees it.
var standardCorpus = flag.Bool("standardcorpus", false,
	"TestCorpusCountersFrozen also checks the standard profile's runs (≈ 2 min)")

// corpusCounterSum hashes a run's exact fields; floats are written in
// the shortest form that parses back to the same bits.
func corpusCounterSum(r *behavior.Run) string {
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	var sb strings.Builder
	fmt.Fprintf(&sb, "numEdges=%d iterations=%d converged=%t\n", r.NumEdges, r.Iterations, r.Converged)
	for _, a := range r.ActiveFraction {
		sb.WriteString(f(a) + "\n")
	}
	fmt.Fprintf(&sb, "UPDT=%s EREAD=%s MSG=%s\n", f(r.Raw[behavior.UPDT]), f(r.Raw[behavior.EREAD]), f(r.Raw[behavior.MSG]))
	return fmt.Sprintf("%x", sha256.Sum256([]byte(sb.String())))
}

// corpusCounterSums executes BuildPlanModels(p, 42, all four models) on
// one engine worker per run and returns each run's digest by ID, plus the
// IDs in plan order.
func corpusCounterSums(t testing.TB, p Profile) (map[string]string, []string) {
	t.Helper()
	specs, err := BuildPlanModels(p, 42, model.AllNames())
	if err != nil {
		t.Fatal(err)
	}
	runs, err := Execute(specs, Config{Workers: 1, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	sums := make(map[string]string, len(runs))
	ids := make([]string, len(runs))
	for i, r := range runs {
		ids[i] = specs[i].ID()
		sums[ids[i]] = corpusCounterSum(r)
	}
	return sums, ids
}

// TestCorpusCountersFrozen holds every run of the quick campaign (and,
// with -standardcorpus, the standard one) to the exact fields it had when
// its file was frozen: an engine or program rewrite may move WORK and
// nothing else.
func TestCorpusCountersFrozen(t *testing.T) {
	profiles := []Profile{ProfileQuick}
	if *standardCorpus {
		profiles = append(profiles, ProfileStandard)
	}
	for _, p := range profiles {
		t.Run(string(p), func(t *testing.T) {
			path := fmt.Sprintf("testdata/corpus_counters_%s.sha256", p)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			frozen := map[string]string{}
			for _, line := range strings.Split(string(raw), "\n") {
				if line == "" || strings.HasPrefix(line, "#") {
					continue
				}
				sum, id, ok := strings.Cut(line, "  ")
				if !ok {
					t.Fatalf("%s: malformed line %q", path, line)
				}
				frozen[id] = sum
			}
			sums, ids := corpusCounterSums(t, p)
			if len(sums) != len(frozen) {
				t.Errorf("%d runs, %s freezes %d", len(sums), path, len(frozen))
			}
			for _, id := range ids {
				if want, ok := frozen[id]; !ok {
					t.Errorf("%s: no frozen digest in %s", id, path)
				} else if sums[id] != want {
					t.Errorf("%s: exact fields diverge from the frozen run (sha256 %s, want %s)", id, sums[id], want)
				}
			}
		})
	}
}
