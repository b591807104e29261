package metrics

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestNilRegistryIsDisabledMode pins the zero-overhead contract: a nil
// registry hands out nil handles, every record call on them is a no-op, and
// snapshot/exposition are empty but safe. Instrumented code must never need
// an `if reg != nil` at the call site.
func TestNilRegistryIsDisabledMode(t *testing.T) {
	var r *Registry

	c := r.Counter("x_total", "slave", "0")
	g := r.Gauge("x_value")
	h := r.Histogram("x_len", []float64{1, 2})
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry handed out non-nil handles: %v %v %v", c, g, h)
	}
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(1)
	h.Observe(1.5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("nil handles accumulated state")
	}
	r.SetHelp("x_total", "ignored")

	s := r.Snapshot()
	if s == nil || s.Counters == nil || s.Gauges == nil || s.Histograms == nil {
		t.Fatalf("nil registry snapshot not empty-valued: %+v", s)
	}
	if len(s.Keys()) != 0 {
		t.Fatalf("nil registry snapshot has series: %v", s.Keys())
	}
	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil registry exposition: err=%v body=%q", err, sb.String())
	}
}

func TestCounterSemantics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total")
	c.Inc()
	c.Add(4)
	c.Add(-7) // negative deltas are dropped to keep the counter monotone
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("ops_total"); again != c {
		t.Fatalf("re-registration returned a different handle")
	}
}

func TestGaugeSemantics(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("level")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
	g.Set(-3)
	if got := g.Value(); got != -3 {
		t.Fatalf("gauge = %v, want -3", got)
	}
}

// TestHistogramBucketing pins the le (less-or-equal) bucket semantics: an
// observation equal to a bound lands in that bound's bucket, and anything
// above the last bound lands in the +Inf overflow.
func TestHistogramBucketing(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("scan_len", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 4, 100} {
		h.Observe(v)
	}
	s := r.Snapshot()
	hs, ok := s.Histograms["scan_len"]
	if !ok {
		t.Fatalf("histogram missing from snapshot: %v", s.Keys())
	}
	want := []int64{2, 2, 2, 1} // le=1: {0.5,1}; le=2: {1.5,2}; le=4: {3,4}; +Inf: {100}
	if len(hs.Counts) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(hs.Counts), len(want))
	}
	for i := range want {
		if hs.Counts[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, hs.Counts[i], want[i], hs.Counts)
		}
	}
	if hs.Count != 7 || hs.Sum != 0.5+1+1.5+2+3+4+100 {
		t.Fatalf("count/sum = %d/%v", hs.Count, hs.Sum)
	}
	if h.Count() != 7 {
		t.Fatalf("handle count = %d", h.Count())
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := ExpBuckets(1, 4, 3)
	if len(exp) != 3 || exp[0] != 1 || exp[1] != 4 || exp[2] != 16 {
		t.Fatalf("ExpBuckets = %v", exp)
	}
}

// TestSeriesIdentity pins the canonical identity: label order does not matter,
// label values do.
func TestSeriesIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("msgs_total", "node", "1", "kind", "start")
	b := r.Counter("msgs_total", "kind", "start", "node", "1")
	if a != b {
		t.Fatalf("label order created a second series")
	}
	c := r.Counter("msgs_total", "kind", "result", "node", "1")
	if c == a {
		t.Fatalf("different label values shared a series")
	}
	s := r.Snapshot()
	if _, ok := s.Counters[`msgs_total{kind="start",node="1"}`]; !ok {
		t.Fatalf("canonical key missing, have %v", s.Keys())
	}
}

func TestOddLabelsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("odd label list did not panic")
		}
	}()
	NewRegistry().Counter("x_total", "slave")
}

func TestBadBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-increasing bounds did not panic")
		}
	}()
	NewRegistry().Histogram("x_len", []float64{1, 1})
}

func TestSnapshotDiff(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("moves_total")
	g := r.Gauge("best_value")
	h := r.Histogram("lat", []float64{1, 10})

	c.Add(3)
	g.Set(100)
	h.Observe(0.5)
	base := r.Snapshot()

	c.Add(4)
	g.Set(250)
	h.Observe(5)
	h.Observe(50)
	d := r.Snapshot().Diff(base)

	if d.Counter("moves_total") != 4 {
		t.Fatalf("diffed counter = %d, want 4", d.Counter("moves_total"))
	}
	if d.Gauge("best_value") != 250 { // gauges keep the current value
		t.Fatalf("diffed gauge = %v, want 250", d.Gauge("best_value"))
	}
	hd := d.Histograms["lat"]
	if hd.Count != 2 || hd.Sum != 55 || hd.Counts[0] != 0 || hd.Counts[1] != 1 || hd.Counts[2] != 1 {
		t.Fatalf("diffed histogram = %+v", hd)
	}
}

func TestSnapshotFamilyHelpers(t *testing.T) {
	r := NewRegistry()
	r.Counter("tabu_moves_total", "slave", "0").Add(10)
	r.Counter("tabu_moves_total", "slave", "1").Add(7)
	r.Counter("core_rounds_total").Add(3)
	r.Histogram("tabu_add_scan_length", []float64{4}, "slave", "0").Observe(1)
	r.Histogram("tabu_add_scan_length", []float64{4}, "slave", "1").Observe(2)
	s := r.Snapshot()
	if got := s.SumCounters("tabu_moves_total"); got != 17 {
		t.Fatalf("SumCounters = %d, want 17", got)
	}
	if got := s.SumHistogramCounts("tabu_add_scan_length"); got != 2 {
		t.Fatalf("SumHistogramCounts = %d, want 2", got)
	}
	if Family(`tabu_moves_total{slave="0"}`) != "tabu_moves_total" || Family("core_rounds_total") != "core_rounds_total" {
		t.Fatalf("Family parsing broken")
	}
}

// TestDeterministicStripsTimingFamilies pins the naming convention the
// deterministic-replay tests rely on: `_seconds` and `_depth` families vary
// across same-seed runs and are stripped; everything else survives.
func TestDeterministicStripsTimingFamilies(t *testing.T) {
	r := NewRegistry()
	r.Counter("tabu_moves_total", "slave", "0").Inc()
	r.Gauge("core_time_to_best_seconds").Set(1.23)
	r.Gauge("farm_mailbox_depth", "node", "0").Set(4)
	r.Histogram("tabu_move_latency_seconds", []float64{1}, "slave", "0").Observe(0.1)
	r.Histogram("tabu_add_scan_length", []float64{4}, "slave", "0").Observe(2)

	d := r.Snapshot().Deterministic()
	if len(d.Gauges) != 0 {
		t.Fatalf("timing/depth gauges survived: %v", d.Gauges)
	}
	if len(d.Histograms) != 1 {
		t.Fatalf("latency histogram survived: %v", d.Keys())
	}
	if len(d.Counters) != 1 {
		t.Fatalf("counter stripped: %v", d.Keys())
	}
}

func TestSnapshotEqual(t *testing.T) {
	build := func(v int64) *Snapshot {
		r := NewRegistry()
		r.Counter("a_total").Add(v)
		r.Gauge("g").Set(2)
		r.Histogram("h", []float64{1}).Observe(0.5)
		return r.Snapshot()
	}
	if !build(3).Equal(build(3)) {
		t.Fatal("identical snapshots compare unequal")
	}
	if build(3).Equal(build(4)) {
		t.Fatal("different snapshots compare equal")
	}
	empty := NewRegistry().Snapshot()
	if empty.Equal(build(3)) {
		t.Fatal("empty snapshot equals populated one")
	}
}

// TestRegistryConcurrentHammer is the race test: 8 goroutines — the slave
// count of a default farm — hammer one registry concurrently, registering
// (same and distinct series), recording, and snapshotting, while a reader
// goroutine snapshots and writes the exposition. Run under -race (the
// `make metrics` target does) this pins the concurrency-safety of the whole
// surface; the final totals pin that no increment was lost.
func TestRegistryConcurrentHammer(t *testing.T) {
	const goroutines = 8
	const iters = 2000

	r := NewRegistry()
	var writers, reader sync.WaitGroup
	stop := make(chan struct{})

	// Concurrent reader: snapshots and expositions must be safe mid-write.
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = r.Snapshot().Diff(&Snapshot{Counters: map[string]int64{}})
			var sb strings.Builder
			_ = r.WriteProm(&sb)
		}
	}()

	for g := 0; g < goroutines; g++ {
		writers.Add(1)
		go func(slave int) {
			defer writers.Done()
			label := fmt.Sprintf("%d", slave)
			for i := 0; i < iters; i++ {
				// Re-resolve each iteration: registration races too.
				r.Counter("hammer_shared_total").Inc()
				r.Counter("hammer_moves_total", "slave", label).Inc()
				r.Gauge("hammer_depth", "slave", label).Add(1)
				r.Histogram("hammer_scan", []float64{8, 64, 512}, "slave", label).Observe(float64(i))
				r.SetHelp("hammer_moves_total", "per-slave hammer counter")
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	reader.Wait()

	s := r.Snapshot()
	if got := s.Counter("hammer_shared_total"); got != goroutines*iters {
		t.Fatalf("shared counter lost increments: %d, want %d", got, goroutines*iters)
	}
	if got := s.SumCounters("hammer_moves_total"); got != goroutines*iters {
		t.Fatalf("per-slave counters lost increments: %d, want %d", got, goroutines*iters)
	}
	if got := s.SumHistogramCounts("hammer_scan"); got != goroutines*iters {
		t.Fatalf("histograms lost observations: %d, want %d", got, goroutines*iters)
	}
	for g := 0; g < goroutines; g++ {
		key := fmt.Sprintf("hammer_depth{slave=%q}", fmt.Sprintf("%d", g))
		if got := s.Gauges[key]; got != iters {
			t.Fatalf("gauge %s lost CAS adds: %v, want %d", key, got, iters)
		}
	}
}
