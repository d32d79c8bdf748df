package ichannels_test

import (
	"context"
	"os"
	"testing"

	"ichannels"
)

// paperFiguresSpec is the batch form of `ichannels exp all`: one
// experiment-role scenario per registered paper figure or table.
const paperFiguresSpec = "examples/scenarios/specs/paper_figures.json"

func loadPaperFigures(t *testing.T) []ichannels.Scenario {
	t.Helper()
	data, err := os.ReadFile(paperFiguresSpec)
	if err != nil {
		t.Fatal(err)
	}
	specs, _, err := ichannels.ParseScenarioSpecs(data)
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

// TestPaperFiguresSpecCoversRegistry: the spec names exactly the
// registered experiments, in registry order, each pinned to seed 1.
func TestPaperFiguresSpecCoversRegistry(t *testing.T) {
	specs := loadPaperFigures(t)
	reg := ichannels.Experiments()
	if len(specs) != len(reg) {
		t.Fatalf("%s has %d scenarios, registry has %d experiments", paperFiguresSpec, len(specs), len(reg))
	}
	for i, s := range specs {
		id := reg[i].ID
		if s.Role != "experiment" || s.Experiment != id || s.Name != id || s.Seed != 1 {
			t.Errorf("scenario %d = %+v, want {name:%s role:experiment experiment:%s seed:1}", i, s, id, id)
		}
	}
}

// TestPaperFiguresSpecMatchesExpAll: every report the spec's batch
// produces renders byte-identically to a direct run at seed 1 — what
// `ichannels exp all` prints.
func TestPaperFiguresSpecMatchesExpAll(t *testing.T) {
	batch, err := ichannels.RunScenarios(context.Background(), ichannels.ScenarioBatchOptions{
		Scenarios: loadPaperFigures(t), Parallel: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range batch.Results {
		if o.Err != nil {
			t.Errorf("%s: %v", o.Scenario.Experiment, o.Err)
			continue
		}
		want, err := ichannels.RunExperiment(o.Scenario.Experiment, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := o.Result.Report.String(); got != want.String() {
			t.Errorf("%s: batch report differs from exp.Run(%q, 1)", o.Scenario.Experiment, o.Scenario.Experiment)
		}
	}
}
