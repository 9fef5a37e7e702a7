package tables

import "testing"

// TestTableKindFor pins the load/mix crossover of the kind policy.
func TestTableKindFor(t *testing.T) {
	if !wantCompact(compactLoadPm, compactFindSharePm) {
		t.Error("at thresholds: flat, want compact")
	}
	if wantCompact(compactLoadPm-1, 1000) {
		t.Error("low load: compact, want flat")
	}
	if wantCompact(1000, compactFindSharePm-1) {
		t.Error("insert-heavy: compact, want flat")
	}
}

// TestAutoTraceFormat pins the decision-trace line format: one line
// per switch, with the integer inputs the policy saw.
func TestAutoTraceFormat(t *testing.T) {
	a := autoScript(1 << 12)
	elems := a.Elements()
	a.DeleteAll(elems)
	a.InsertAll([]uint64{7})
	want := "0 kind=compact (loadPm=799 findSharePm=666)\n" +
		"0 kind=flat (loadPm=0 findSharePm=666)\n"
	if got := a.TuneTrace(); got != want {
		t.Fatalf("TuneTrace:\n%q\nwant\n%q", got, want)
	}
}
