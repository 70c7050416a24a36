package sweep

import (
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gcbench/internal/algorithms"
	"gcbench/internal/behavior"
	"gcbench/internal/model"
)

// TestBuildPlanModelsGASIdentity: the single-GAS (and empty) model list
// must reproduce BuildPlan exactly — same specs, same JSON encoding — so
// every pre-model-axis caller is untouched by the new axis.
func TestBuildPlanModelsGASIdentity(t *testing.T) {
	base, err := BuildPlan(ProfileQuick, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, models := range [][]model.Name{nil, {model.GAS}} {
		got, err := BuildPlanModels(ProfileQuick, 42, models)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("BuildPlanModels(%v) differs from BuildPlan", models)
		}
	}
	// GAS specs must serialize without a model key at all.
	body, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(body), "model") {
		t.Fatalf("GAS plan JSON mentions model: %s", body)
	}
}

func TestBuildPlanModelsExpansion(t *testing.T) {
	all := model.AllNames()
	specs, err := BuildPlanModels(ProfileQuick, 42, all)
	if err != nil {
		t.Fatal(err)
	}
	base, err := BuildPlan(ProfileQuick, 42)
	if err != nil {
		t.Fatal(err)
	}
	// Each model contributes exactly the base specs whose algorithm it
	// implements.
	want := 0
	perModel := map[model.Name]int{}
	for _, n := range all {
		impl, err := model.ForName(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range base {
			if impl.Supports(s.Algorithm) {
				want++
				perModel[n]++
			}
		}
	}
	if len(specs) != want {
		t.Fatalf("plan has %d specs, want %d", len(specs), want)
	}
	got := map[model.Name]int{}
	ids := map[string]bool{}
	for _, s := range specs {
		got[s.EffectiveModel()]++
		if ids[s.ID()] {
			t.Fatalf("duplicate spec ID %s", s.ID())
		}
		ids[s.ID()] = true
		if s.EffectiveModel() == model.GAS && s.Model != "" {
			t.Fatalf("GAS spec %s carries explicit model tag %q", s.ID(), s.Model)
		}
	}
	for _, n := range all {
		if got[n] != perModel[n] {
			t.Errorf("%s: %d specs, want %d", n, got[n], perModel[n])
		}
	}
	// Expansion is deterministic regardless of the request order.
	reversed := []model.Name{model.GraphCentric, model.XStream, model.Pregel, model.GAS}
	again, err := BuildPlanModels(ProfileQuick, 42, reversed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, specs) {
		t.Fatal("model order in the request changed the plan")
	}
	if _, err := BuildPlanModels(ProfileQuick, 42, []model.Name{"giraph"}); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestSpecIDModelSuffix(t *testing.T) {
	s := Spec{Algorithm: algorithms.PR, NumEdges: 100000, Alpha: 2.5, SizeLabel: "1e5", Seed: 1}
	if got := s.ID(); got != "<PR, 1e5, 2.50>" {
		t.Errorf("GAS ID = %q", got)
	}
	s.Model = model.Pregel
	if got := s.ID(); got != "<PR, 1e5, 2.50, pregel>" {
		t.Errorf("pregel ID = %q", got)
	}
	j := Spec{Algorithm: algorithms.Jacobi, NumRows: 5000, SizeLabel: "5000", Model: "xstream"}
	if got := j.ID(); got != "<Jacobi, 5000, xstream>" {
		t.Errorf("no-alpha model ID = %q", got)
	}
}

// TestSpecJSONBackCompat: specs decoded from pre-model-axis journals
// carry no model and read as effective GAS.
func TestSpecJSONBackCompat(t *testing.T) {
	old := `{"algorithm":"PR","numEdges":100000,"alpha":2.5,"sizeLabel":"1e5","seed":42}`
	var s Spec
	if err := json.Unmarshal([]byte(old), &s); err != nil {
		t.Fatal(err)
	}
	if s.Model != "" || s.EffectiveModel() != model.GAS {
		t.Fatalf("pre-model spec decoded as model %q (effective %s)", s.Model, s.EffectiveModel())
	}
	if s.ID() != "<PR, 1e5, 2.50>" {
		t.Fatalf("pre-model spec ID = %q", s.ID())
	}
}

// TestMultiModelCampaignAndResume runs one computation under all four
// models through the resilient runner with a checkpoint journal, then
// resumes: the model rides the whole execution path — run tagging,
// journal keys, resume matching — without any model-specific branches in
// the runner.
func TestMultiModelCampaignAndResume(t *testing.T) {
	base := Spec{Algorithm: algorithms.CC, NumEdges: 400, Alpha: 2.2, SizeLabel: "m", Seed: 3}
	var specs []Spec
	for _, n := range model.AllNames() {
		s := base
		s.Model = model.Name(model.Tag(n))
		specs = append(specs, s)
	}
	jpath := filepath.Join(t.TempDir(), "models.journal")
	j, err := OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExecuteCampaign(context.Background(), specs, Config{Parallel: 2, Workers: 1, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(specs) || len(res.Runs) != len(specs) {
		t.Fatalf("completed %d runs of %d", res.Completed, len(specs))
	}
	for i, r := range res.Runs {
		want := model.Tag(specs[i].EffectiveModel())
		if r.Model != want {
			t.Errorf("run %d model = %q, want %q", i, r.Model, want)
		}
		if r.Raw[behavior.UPDT] <= 0 || r.Raw[behavior.EREAD] <= 0 {
			t.Errorf("run %d (%s): degenerate behavior %v", i, r.ID(), r.Raw)
		}
	}
	// All four runs are distinct journal entries; resume skips them all.
	j2, err := OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := ExecuteCampaign(context.Background(), specs, Config{
		Parallel: 2, Journal: j2,
		InjectFault: func(s Spec) error {
			t.Errorf("spec %s re-executed on resume", s.ID())
			return nil
		},
	})
	if err != nil || res2.Skipped != len(specs) {
		t.Fatalf("resume: err=%v skipped=%d, want %d", err, res2.Skipped, len(specs))
	}
	for i, r := range res2.Runs {
		if r.Model != model.Tag(specs[i].EffectiveModel()) {
			t.Errorf("resumed run %d model = %q, want %q", i, r.Model, model.Tag(specs[i].EffectiveModel()))
		}
	}
}

// TestModelBehaviorDiffersOnSharedGraph: the point of the axis — the
// same computation on the same graph occupies different behavior-space
// points under different engines.
func TestModelBehaviorDiffersOnSharedGraph(t *testing.T) {
	base := Spec{Algorithm: algorithms.CC, NumEdges: 400, Alpha: 2.2, SizeLabel: "m", Seed: 3}
	cache := &graphCache{}
	gas, _, err := runSpecTrace(context.Background(), base, 1, algorithms.FrontierAuto, cache)
	if err != nil {
		t.Fatal(err)
	}
	pre := base
	pre.Model = model.Pregel
	pregel, _, err := runSpecTrace(context.Background(), pre, 1, algorithms.FrontierAuto, cache)
	if err != nil {
		t.Fatal(err)
	}
	if gas.NumEdges != pregel.NumEdges {
		t.Fatalf("models saw different graphs: %d vs %d edges", gas.NumEdges, pregel.NumEdges)
	}
	if gas.Raw == pregel.Raw {
		t.Error("GAS and Pregel produced identical behavior vectors; the model axis measures nothing")
	}
}
