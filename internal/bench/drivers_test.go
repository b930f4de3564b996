package bench

import (
	"strings"
	"testing"
)

// TestCanRunPairs pins the one rule that says which schemes may run which
// structures, over every roster scheme × structure pair. Only RC, the
// re-use-only scheme (paper §1 on [28]), is refused, and only on the
// structures whose frozen interior cells or descriptor helping a
// slot-level count cannot span. wfq must stay refused (FAULT-WFQ-RC-001,
// reproduced as a bounded schedule in internal/wfqueue); queue and stack
// stay admitted, so RC keeps a stressed and checked home.
func TestCanRunPairs(t *testing.T) {
	rcRefused := map[string]bool{
		"list":     true,
		"map":      true,
		"queue":    false,
		"stack":    false,
		"bst":      true,
		"wfq":      true,
		"skiplist": true,
	}
	if len(Structures) != len(rcRefused) {
		t.Fatalf("structure table has %d rows, want %d", len(Structures), len(rcRefused))
	}
	for _, s := range AllSchemes() {
		if s.ReuseOnly != (s.Name == "RC") {
			t.Errorf("scheme %s: ReuseOnly = %v", s.Name, s.ReuseOnly)
		}
		for _, st := range Structures {
			refused, ok := rcRefused[st.Name]
			if !ok {
				t.Fatalf("unexpected structure %q", st.Name)
			}
			want := !(s.Name == "RC" && refused)
			if got := CanRun(s, st.Name); got != want {
				t.Errorf("CanRun(%s, %s) = %v, want %v", s.Name, st.Name, got, want)
			}
		}
	}
	if CanRun(RC(), "wfq") {
		t.Fatal("wfq must stay refused to RC (FAULT-WFQ-RC-001)")
	}
	for _, s := range SchemesFor("list") {
		if s.Name == "RC" {
			t.Fatal("SchemesFor(list) admits RC")
		}
	}
	if got, want := len(SchemesFor("queue")), len(AllSchemes()); got != want {
		t.Fatalf("SchemesFor(queue) has %d schemes, want the whole roster (%d)", got, want)
	}
}

// TestPick covers the drivers' -scheme/-struct picker: "" and "all" take
// the whole roster, a selection keeps roster order, and an unknown name is
// an error that names it.
func TestPick(t *testing.T) {
	roster := []string{"list", "map", "queue"}
	id := func(s string) string { return s }
	for _, csv := range []string{"", "all"} {
		got, err := Pick(csv, roster, id)
		if err != nil || len(got) != len(roster) {
			t.Errorf("Pick(%q) = %v, %v; want the whole roster", csv, got, err)
		}
	}
	got, err := Pick("queue, list", roster, id)
	if err != nil || strings.Join(got, ",") != "list,queue" {
		t.Errorf("Pick(queue, list) = %v, %v; want [list queue]", got, err)
	}
	if _, err := Pick("list,bogus", roster, id); err == nil || !strings.Contains(err.Error(), `"bogus"`) {
		t.Errorf("Pick(list,bogus) error = %v; want one naming bogus", err)
	}
	schemes, err := PickSchemes("EBR,HE")
	if err != nil || len(schemes) != 2 || schemes[0].Name != "HE" || schemes[1].Name != "EBR" {
		t.Errorf("PickSchemes(EBR,HE) = %v, %v; want HE then EBR", schemes, err)
	}
}
