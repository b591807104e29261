package bench

import (
	"strings"
	"testing"
)

func sampleExport() Export {
	return Export{
		Name:   "demo",
		Header: []string{"key", "value", "note"},
		Rows: [][]string{
			{"a", "100", "x"},
			{"b", "200", "y"},
		},
	}
}

func TestCompareExportsIdentical(t *testing.T) {
	diffs, err := CompareExports(sampleExport(), sampleExport())
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 0 {
		t.Fatalf("identical exports diff: %v", diffs)
	}
	if out := RenderDiffs("demo", diffs); !strings.Contains(out, "no differences") {
		t.Fatalf("render: %s", out)
	}
}

// TestCompareExportsHostCells: a host wall-clock cell's difference is
// reported but not gated; any deterministic cell must match exactly, however
// small the change.
func TestCompareExportsHostCells(t *testing.T) {
	base := sampleExport()
	base.Header[1] = "host_ms"
	cur := sampleExport()
	cur.Header[1] = "host_ms"
	cur.Host = []string{"host_ms"}
	cur.Rows[0][1] = "160"
	diffs, err := CompareExports(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 1 || !diffs[0].Host || diffs[0].Column != "host_ms" || diffs[0].Row != 0 {
		t.Fatalf("expected one host diff, got %v", diffs)
	}
	if out := RenderDiffs("demo", diffs); !strings.Contains(out, "100 -> 160") || !strings.Contains(out, "not gated") {
		t.Fatalf("host diff not printed as ungated:\n%s", out)
	}

	cur = sampleExport()
	cur.Host = []string{"note"}
	cur.Rows[1][1] = "200.000001"
	diffs, err = CompareExports(sampleExport(), cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 1 || diffs[0].Host || diffs[0].Column != "value" || diffs[0].Row != 1 {
		t.Fatalf("expected one gated value diff, got %v", diffs)
	}
}

func TestCompareExportsNonNumeric(t *testing.T) {
	cur := sampleExport()
	cur.Rows[1][2] = "z"
	diffs, err := CompareExports(sampleExport(), cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 1 || diffs[0].Host || diffs[0].Old != "y" || diffs[0].New != "z" {
		t.Fatalf("non-numeric mismatch not flagged: %v", diffs)
	}
}

func TestCompareExportsRowChurn(t *testing.T) {
	cur := sampleExport()
	cur.Rows = [][]string{cur.Rows[0], {"c", "1", "new"}}
	diffs, err := CompareExports(sampleExport(), cur)
	if err != nil {
		t.Fatal(err)
	}
	// Rows are compared by position: b replaced by c differs in every cell.
	if len(diffs) != 3 {
		t.Fatalf("expected 3 diffs on the replaced row, got %v", diffs)
	}
	cur.Rows = append(sampleExport().Rows, []string{"c", "1", "new"})
	diffs, err = CompareExports(sampleExport(), cur)
	if err != nil {
		t.Fatal(err)
	}
	// An added row differs from "(absent)" in every cell.
	if len(diffs) != 3 || diffs[0].Row != 2 || diffs[0].Old != "(absent)" {
		t.Fatalf("expected the added row's 3 cells, got %v", diffs)
	}
}

// TestCompareExportsRepeatedKey: rows whose first column repeats (a
// trajectory's round, a strategy grid's tenure) are each compared. Keyed by
// the first column, only the last row per key used to be seen.
func TestCompareExportsRepeatedKey(t *testing.T) {
	traj := func() Export {
		return Export{
			Name:   "trajectories",
			Header: []string{"round", "algorithm", "value"},
			Rows: [][]string{
				{"1", "SEQ", "100"}, {"1", "CTS2", "120"},
				{"2", "SEQ", "110"}, {"2", "CTS2", "130"},
			},
		}
	}
	cur := traj()
	cur.Rows[0][2] = "90"
	cur.Rows[2][2] = "100"
	diffs, err := CompareExports(traj(), cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 2 || diffs[0].Row != 0 || diffs[1].Row != 2 {
		t.Fatalf("expected diffs on rows 0 and 2, got %v", diffs)
	}
}

func TestCompareExportsErrors(t *testing.T) {
	other := sampleExport()
	other.Name = "other"
	if _, err := CompareExports(sampleExport(), other); err == nil {
		t.Fatal("name mismatch accepted")
	}
	wide := sampleExport()
	wide.Header = append(wide.Header, "extra")
	if _, err := CompareExports(wide, sampleExport()); err == nil {
		t.Fatal("width mismatch accepted")
	}
	renamed := sampleExport()
	renamed.Header[2] = "different"
	if _, err := CompareExports(renamed, sampleExport()); err == nil {
		t.Fatal("renamed column accepted")
	}
}

func TestLoadExportRoundTripThroughJSON(t *testing.T) {
	orig := sampleExport()
	var sb strings.Builder
	if err := orig.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	all, err := LoadExports(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	loaded := all["demo"]
	if len(all) != 1 || loaded.Name != "demo" || len(loaded.Rows) != 2 {
		t.Fatalf("loaded exports: %+v", all)
	}
	// Column order is lost through JSON; comparison must still be clean.
	diffs, err := CompareExports(loaded, orig)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 0 {
		t.Fatalf("round-tripped baseline diffs: %v", diffs)
	}
}

func TestLoadExportRejectsGarbage(t *testing.T) {
	if _, err := LoadExports(strings.NewReader("{oops")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := LoadExports(strings.NewReader(`{"rows":[]}`)); err == nil {
		t.Fatal("nameless export accepted")
	}
	if _, err := LoadExports(strings.NewReader(`{"name":"a","rows":[]} {"name":"a","rows":[]}`)); err == nil {
		t.Fatal("repeated export name accepted")
	}
}

// TestLoadExportsStream: an -all run writes one JSON export after another;
// every one of them is loaded and matched by name, not just the first.
func TestLoadExportsStream(t *testing.T) {
	other := Export{Name: "other", Header: []string{"k", "v"}, Rows: [][]string{{"x", "1"}}}
	var sb strings.Builder
	for _, e := range []Export{sampleExport(), other} {
		if err := e.WriteJSON(&sb); err != nil {
			t.Fatal(err)
		}
	}
	all, err := LoadExports(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Fatalf("loaded %d exports, want 2", len(all))
	}
	for _, e := range []Export{sampleExport(), other} {
		diffs, err := CompareExports(all[e.Name], e)
		if err != nil || len(diffs) != 0 {
			t.Fatalf("%s: diffs %v, err %v", e.Name, diffs, err)
		}
	}
	changed := other
	changed.Rows = [][]string{{"x", "2"}}
	if diffs, err := CompareExports(all["other"], changed); err != nil || len(diffs) != 1 {
		t.Fatalf("second export's change: diffs %v, err %v", diffs, err)
	}
}
