package metrics

import (
	"strings"
	"testing"
)

func TestLabeledSnapshotInjectsAndPreservesLabels(t *testing.T) {
	r := NewRegistry()
	r.Counter("tabu_moves_total", "slave", "3").Add(7)
	r.Gauge("core_best_value").Set(123)
	r.Histogram("core_round_duration_seconds", []float64{1, 2}).Observe(1.5)

	s := r.LabeledSnapshot("job", "j1")
	if v := s.Counters[`tabu_moves_total{job="j1",slave="3"}`]; v != 7 {
		t.Fatalf("labeled counter missing, keys %v", s.Keys())
	}
	if v := s.Gauges[`core_best_value{job="j1"}`]; v != 123 {
		t.Fatalf("labeled gauge missing, keys %v", s.Keys())
	}
	if h, ok := s.Histograms[`core_round_duration_seconds{job="j1"}`]; !ok || h.Count != 1 {
		t.Fatalf("labeled histogram missing, keys %v", s.Keys())
	}
	// A series' own label wins over a colliding injected key.
	s2 := r.LabeledSnapshot("slave", "X")
	if _, ok := s2.Counters[`tabu_moves_total{slave="3"}`]; !ok {
		t.Fatalf("series-own label lost: %v", s2.Keys())
	}
}

// TestGathererKeepsConcurrentRunsDistinct pins the shared-registry bug: two
// engine runs writing the same family into ONE registry double-count; two
// runs with their own registries merged under a job label stay disjoint, and
// each run's numbers survive the merge unchanged.
func TestGathererKeepsConcurrentRunsDistinct(t *testing.T) {
	run1, run2 := NewRegistry(), NewRegistry()
	// The exact collision shape from the server: per-slave counters with the
	// same slave index, and a run-scoped gauge.
	run1.Counter("tabu_moves_total", "slave", "0").Add(100)
	run2.Counter("tabu_moves_total", "slave", "0").Add(42)
	run1.Gauge("core_best_value").Set(1000)
	run2.Gauge("core_best_value").Set(2000)

	g := NewGatherer()
	g.Attach(run1, "job", "a")
	g.Attach(run2, "job", "b")
	s := g.Snapshot()

	if v := s.Counters[`tabu_moves_total{job="a",slave="0"}`]; v != 100 {
		t.Fatalf("run a counter = %d, want 100 (keys %v)", v, s.Keys())
	}
	if v := s.Counters[`tabu_moves_total{job="b",slave="0"}`]; v != 42 {
		t.Fatalf("run b counter = %d, want 42", v)
	}
	if v := s.Gauges[`core_best_value{job="a"}`]; v != 1000 {
		t.Fatalf("run a gauge = %v, want 1000", v)
	}
	if v := s.Gauges[`core_best_value{job="b"}`]; v != 2000 {
		t.Fatalf("run b gauge = %v, want 2000", v)
	}
}

func TestGathererWriteProm(t *testing.T) {
	run1, run2 := NewRegistry(), NewRegistry()
	run1.SetHelp("core_rounds_total", "Rendezvous rounds completed by the master.")
	run1.Counter("core_rounds_total").Add(3)
	run2.Counter("core_rounds_total").Add(5)
	run1.Histogram("core_round_duration_seconds", []float64{0.1, 1}).Observe(0.05)
	run2.Histogram("core_round_duration_seconds", []float64{0.1, 1}).Observe(0.5)
	run1.Gauge("core_best_value").Set(7)

	g := NewGatherer()
	g.Attach(run1, "job", "a")
	g.Attach(run2, "job", "b")
	var sb strings.Builder
	if err := g.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP core_rounds_total Rendezvous rounds completed by the master.",
		"# TYPE core_rounds_total counter",
		`core_rounds_total{job="a"} 3`,
		`core_rounds_total{job="b"} 5`,
		`core_round_duration_seconds_bucket{job="a",le="0.1"} 1`,
		`core_round_duration_seconds_bucket{job="b",le="+Inf"} 1`,
		`core_round_duration_seconds_sum{job="b"} 0.5`,
		`core_round_duration_seconds_count{job="a"} 1`,
		`core_best_value{job="a"} 7`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// One TYPE line per family even though two registries carry it.
	if n := strings.Count(out, "# TYPE core_rounds_total counter"); n != 1 {
		t.Fatalf("family TYPE line appears %d times", n)
	}
}

// TestGathererWritePromSumsCollidedHistograms: two parts attached under one
// label set, each with one observation in the same histogram. The exposition
// sums them, as the merged snapshot does, instead of keeping the last part.
func TestGathererWritePromSumsCollidedHistograms(t *testing.T) {
	run1, run2 := NewRegistry(), NewRegistry()
	run1.Histogram("h_seconds", []float64{1}).Observe(0.5)
	run2.Histogram("h_seconds", []float64{1}).Observe(2)

	g := NewGatherer()
	g.Attach(run1, "job", "x")
	g.Attach(run2, "job", "x")
	if n := g.Snapshot().Histograms[`h_seconds{job="x"}`].Count; n != 2 {
		t.Fatalf("merged snapshot count = %d, want 2", n)
	}
	var sb strings.Builder
	if err := g.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`h_seconds_bucket{job="x",le="1"} 1`,
		`h_seconds_bucket{job="x",le="+Inf"} 2`,
		`h_seconds_sum{job="x"} 2.5`,
		`h_seconds_count{job="x"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}
