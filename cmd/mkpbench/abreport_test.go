package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

const abTestSpec = `{"end_to_end": [
	{"name": "time_to_target_s", "unit": "s", "better": "lower", "bound": 0.25},
	{"name": "moves_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
]}`

// abRunLines renders perfbench's two output lines for one run.
func abRunLines(ttt, moves string, failed int) string {
	correct := "true"
	if failed > 0 {
		correct = "false"
	}
	return `{"header":{"workload":"farm"}}` + "\n" +
		`{"correct":` + correct + `,"attempted":4,"failed":` + strconv.Itoa(failed) +
		`,"metrics":{"time_to_target_s":{"value":` + ttt + `,"unit":"s"},"moves_per_s":{"value":` + moves + `,"unit":"1/s"}}}` + "\n"
}

func writeAB(t *testing.T, dir, name string, lines ...string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestABReport(t *testing.T) {
	dir := t.TempDir()
	spec := writeAB(t, dir, "BENCHMARK.json", abTestSpec)
	parent := writeAB(t, dir, "parent.jsonl",
		abRunLines("4", "100", 0), abRunLines("6", "90", 0), abRunLines("5", "110", 0))
	change := writeAB(t, dir, "change.jsonl",
		abRunLines("3", "100", 0), abRunLines("5", "95", 0), abRunLines("6", "120", 0))
	var out bytes.Buffer
	if err := abReport(&out, spec, parent, change); err != nil {
		t.Fatal(err)
	}
	// time_to_target_s: parent 4 6 5 (median 5, quartiles 4.5 and 5.5),
	// change 3 5 6 (median 5, quartiles 4 and 5.5); the change is lower in
	// pairs 1 and 2. moves_per_s: parent 100 90 110, change 100 95 120;
	// pair 1 ties, so the change wins 2.
	for _, want := range []string{
		"3 pairs",
		"time_to_target_s (s)  lower   5 [4.5, 5.5]",
		"5 [4, 5.5]",
		"1.000          2/3",
		"moves_per_s (1/s)",
		"100 [95, 105]",
		"2/3",
		"failed solves: parent 0 of 12, change 0 of 12",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}

	short := writeAB(t, dir, "short.jsonl", abRunLines("3", "100", 0))
	if err := abReport(&out, spec, parent, short); err == nil {
		t.Error("runs of unequal count were compared")
	}
	failed := writeAB(t, dir, "failed.jsonl",
		abRunLines("3", "100", 0), abRunLines("5", "95", 1), abRunLines("6", "120", 0))
	out.Reset()
	if err := abReport(&out, spec, parent, failed); err == nil || !strings.Contains(out.String(), "change 1 of 12") {
		t.Errorf("a failed solve passed: err %v\n%s", err, out.String())
	}
}
