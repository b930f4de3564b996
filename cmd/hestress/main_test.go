package main

import (
	"testing"

	"repro/internal/bench"
)

// TestEveryStructureHasARunner keeps the stress matrix in step with the
// structure table: every structure bench.Structures lists has a driver.
func TestEveryStructureHasARunner(t *testing.T) {
	if len(stressRuns) != len(bench.Structures) {
		t.Errorf("%d stress runners for %d structures", len(stressRuns), len(bench.Structures))
	}
	for _, st := range bench.Structures {
		if stressRuns[st.Name] == nil {
			t.Errorf("structure %q has no stress runner", st.Name)
		}
	}
}
