package main

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"
	"time"
)

// TestQuickWorkloads runs every workload in quick mode, untraced and traced:
// every solve must verify and reach its pinned target in the pinned round,
// and each mode must report every metric it owes.
func TestQuickWorkloads(t *testing.T) {
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	e2e := []string{"setup_s", "time_to_target_s", "time_to_target_tail_s",
		"solves_per_s", "moves_per_s", "rounds_per_s", "alloc_mb"}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			w, traced := w, traced
			t.Run(w.name+"/trace="+strconv.FormatBool(traced), func(t *testing.T) {
				cfg := config{w: w, seed: pins.DefaultSeed, quick: true, trace: traced,
					dataDir: t.TempDir(), outDir: t.TempDir()}
				res, header, err := run(cfg, pins)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < w.suite {
					t.Fatalf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, header["failures"])
				}
				if traced {
					if len(res.Metrics) != 40 {
						t.Errorf("traced run reports %d per-layer metrics, want 40", len(res.Metrics))
					}
					for _, k := range []string{"mkp.fits_ns", "tabu.round_s", "reduce.relax_s", "proto.encode_us",
						"ckptstore.save_ms", "core.round_s", "core.rounds_per_op", "host.speed",
						"serve.run_s", "serve.events_per_job", "ckptstore.saves_per_job"} {
						if res.Metrics[k].Value <= 0 {
							t.Errorf("%s = %v, want > 0", k, res.Metrics[k].Value)
						}
					}
					return
				}
				for _, k := range e2e {
					if m, ok := res.Metrics[k]; !ok || m.Value <= 0 {
						t.Errorf("%s = %+v, want a positive value", k, m)
					}
				}
			})
		}
	}
}

// TestHeldOutPins derives every workload's suite for the held-out seed and
// compares it with pins.json; the default seed is checked inside run.
func TestHeldOutPins(t *testing.T) {
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := pins.Suites[strconv.FormatUint(pins.HeldOutSeed, 10)]; !ok {
		t.Fatalf("pins.json has no suites for held-out seed %d", pins.HeldOutSeed)
	}
	for _, w := range workloads {
		suite, err := deriveSuite(w, pins.HeldOutSeed)
		if err != nil {
			t.Fatal(err)
		}
		if err := pins.checkPins(w, pins.HeldOutSeed, suite); err != nil {
			t.Error(err)
		}
	}
}

func TestCalibrationPinnedAndAllocationFree(t *testing.T) {
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	c := newCalibLoop()
	for i := 0; i < 3; i++ {
		if got := c.rep(); got != pins.CalibChecksum {
			t.Fatalf("rep %d checksum %d, pinned %d", i, got, pins.CalibChecksum)
		}
	}
	if a := testing.AllocsPerRun(5, func() { c.rep() }); a != 0 {
		t.Errorf("calibration repetition allocates %v times", a)
	}
	p := newCalibPair()
	defer p.close()
	if _, sum := p.timedRep(); sum != pins.CalibChecksum {
		t.Errorf("paired checksum %d, pinned %d", sum, pins.CalibChecksum)
	}
	if a := testing.AllocsPerRun(5, func() { p.timedRep() }); a != 0 {
		t.Errorf("paired repetition allocates %v times", a)
	}
}

// TestTailTenBeyond checks the tail helper: the value it returns has exactly
// ten samples above it, so no higher order statistic has ten beyond it.
func TestTailTenBeyond(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for n := 1; n <= 120; n++ {
		xs := r.Perm(n)
		fs := make([]float64, n)
		for i, x := range xs {
			fs[i] = float64(x)
		}
		v, pct, ok := tail(fs)
		if n <= 10 {
			if ok || v != float64(n-1) || pct != 100 {
				t.Errorf("n=%d: tail %v at p%v ok=%v, want the maximum at p100 and ok=false", n, v, pct, ok)
			}
			continue
		}
		beyond := 0
		for _, x := range fs {
			if x > v {
				beyond++
			}
		}
		if !ok || beyond != 10 {
			t.Errorf("n=%d: %d samples beyond the tail, want 10", n, beyond)
		}
		if want := 100 * float64(n-10) / float64(n); pct != want {
			t.Errorf("n=%d: percentile %v, want %v", n, pct, want)
		}
	}
}

// TestStealAdjustment checks that the engine workloads take each pass's
// steal share out of its times and rates, and that serve does not.
func TestStealAdjustment(t *testing.T) {
	passes := []passRec{
		{setup: 0.2, ttt: 2, run: 8, moves: 800, rounds: 40, stolen: 0.5}, // half the wanted CPU time stolen
		{setup: 0.1, ttt: 1, run: 4, moves: 400, rounds: 20},
		{setup: 0.1, ttt: 1, run: 4, moves: 400, rounds: 20},
	}
	for _, name := range []string{"farm", "serve"} {
		w, _ := findWorkload(name)
		r := &runner{cfg: config{w: w}, suite: make([]solve, 4), passes: passes, wall: 8, wallGranted: 6}
		m, _ := r.endToEnd()
		want := map[string]float64{"time_to_target_s": 1, "setup_s": 0.1, "moves_per_s": 100, "rounds_per_s": 5, "solves_per_s": 2}
		if w.serve {
			want = map[string]float64{"time_to_target_s": 1, "setup_s": 0.1, "moves_per_s": 100, "rounds_per_s": 5, "solves_per_s": 1.5}
			want["time_to_target_tail_s"] = 2
		} else {
			want["time_to_target_tail_s"] = 1
		}
		for k, v := range want {
			if got := m[k].Value; math.Abs(got-v) > 1e-12 {
				t.Errorf("%s: %s = %v, want %v", name, k, got, v)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}

// TestSelfTime builds a span tree by hand: a root with overlapping children,
// one child sticking out of the root, and a grandchild.
func TestSelfTime(t *testing.T) {
	ms := func(x int) time.Duration { return time.Duration(x) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "op", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Name: "a", Start: ms(20), End: ms(50)},
		{ID: 4, Parent: 1, Name: "b", Start: ms(90), End: ms(120)}, // clipped to [90,100]
		{ID: 5, Parent: 3, Name: "c", Start: ms(25), End: ms(35)},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		"op": ms(100 - 40 - 10), // union of [10,50] and [90,100]
		"a":  ms(20 + 30 - 10),  // the second a loses its grandchild's 10 ms
		"b":  ms(30),
		"c":  ms(10),
	}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self(%s) = %v, want %v", name, self[name], d)
		}
	}
	if u := uncoveredShare(spans, "op"); u != 0.5 {
		t.Errorf("uncovered share of op = %v, want 0.5", u)
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) != 4 {
		t.Errorf("self times for %v", names)
	}
}
