package core

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/supervise"
	"repro/internal/transport/chaosnet"
	"repro/internal/transport/inproc"
)

// soloRun executes one seeded run alone and returns its result and the
// deterministic part of its metrics (timing series stripped).
func soloRun(t *testing.T, seed uint64, algo Algorithm) (*Result, *metrics.Snapshot) {
	t.Helper()
	ins := testInstance(40, 4, 90+seed)
	reg := metrics.NewRegistry()
	res, err := Solve(ins, algo, Options{P: 3, Seed: seed, Rounds: 4, RoundMoves: 250, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	return res, reg.Snapshot().Deterministic()
}

func sameResult(t *testing.T, label string, solo, conc *Result) {
	t.Helper()
	if solo.Best.Value != conc.Best.Value || !solo.Best.X.Equal(conc.Best.X) {
		t.Fatalf("%s: concurrent best differs from solo (%v vs %v)", label, conc.Best.Value, solo.Best.Value)
	}
	if solo.Stats.TotalMoves != conc.Stats.TotalMoves || solo.Stats.Rounds != conc.Stats.Rounds {
		t.Fatalf("%s: concurrent stats differ from solo", label)
	}
	if len(solo.Stats.BestByRound) != len(conc.Stats.BestByRound) {
		t.Fatalf("%s: trajectory lengths differ", label)
	}
	for i := range solo.Stats.BestByRound {
		if solo.Stats.BestByRound[i] != conc.Stats.BestByRound[i] {
			t.Fatalf("%s: trajectories diverge at round %d", label, i)
		}
	}
	for i := range solo.Strategies {
		if solo.Strategies[i] != conc.Strategies[i] {
			t.Fatalf("%s: strategies diverge at slot %d", label, i)
		}
	}
}

// TestConcurrentEnginesBitwiseEqualSolo is the instantiability contract: two
// engines with different seeds running at the same time in one process each
// produce bitwise the same result — and the same deterministic metric series —
// as the identical run executed alone. Run under -race this also proves the
// engines share no mutable state.
func TestConcurrentEnginesBitwiseEqualSolo(t *testing.T) {
	for _, algo := range []Algorithm{ITS, CTS2} {
		soloA, mxA := soloRun(t, 1, algo)
		soloB, mxB := soloRun(t, 2, algo)

		var wg sync.WaitGroup
		results := make([]*Result, 2)
		snaps := make([]*metrics.Snapshot, 2)
		errs := make([]error, 2)
		for i, seed := range []uint64{1, 2} {
			wg.Add(1)
			go func(i int, seed uint64) {
				defer wg.Done()
				ins := testInstance(40, 4, 90+seed)
				reg := metrics.NewRegistry()
				e, err := NewEngine(ins, algo, Options{P: 3, Seed: seed, Rounds: 4, RoundMoves: 250, Metrics: reg})
				if err != nil {
					errs[i] = err
					return
				}
				results[i], errs[i] = e.Run()
				// Close before the snapshot: the stop order rides the control
				// plane and counts in the transport series, exactly as it does
				// inside Solve.
				e.Close()
				snaps[i] = reg.Snapshot().Deterministic()
			}(i, seed)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("%v: concurrent engine %d: %v", algo, i, err)
			}
		}
		sameResult(t, algo.String()+"/A", soloA, results[0])
		sameResult(t, algo.String()+"/B", soloB, results[1])
		if !snaps[0].Equal(mxA) {
			t.Fatalf("%v: engine A metrics differ from solo run", algo)
		}
		if !snaps[1].Equal(mxB) {
			t.Fatalf("%v: engine B metrics differ from solo run", algo)
		}
	}
}

// TestEngineLifecycle pins the Engine contract: Run is once-only, Close is
// idempotent, and a closed engine refuses to run.
func TestEngineLifecycle(t *testing.T) {
	ins := testInstance(20, 3, 77)
	e, err := NewEngine(ins, CTS1, Options{P: 2, Seed: 5, Rounds: 2, RoundMoves: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err == nil {
		t.Fatal("second Run accepted")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal("second Close errored")
	}

	e2, err := NewEngine(ins, CTS1, Options{P: 2, Seed: 5, Rounds: 2, RoundMoves: 100})
	if err != nil {
		t.Fatal(err)
	}
	e2.Close()
	if _, err := e2.Run(); err == nil {
		t.Fatal("Run on closed engine accepted")
	}
}

// TestEngineRejectsBadInputAtBuild: admission errors surface at NewEngine,
// before anything is launched.
func TestEngineRejectsBadInputAtBuild(t *testing.T) {
	ins := testInstance(10, 2, 1)
	ins.Profit[0] = -1
	if _, err := NewEngine(ins, CTS2, Options{}); err == nil {
		t.Fatal("invalid instance accepted")
	}
	good := testInstance(10, 2, 1)
	if _, err := NewEngine(good, Algorithm(9), Options{}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

// TestOptionExclusions is the table of every option combination NewEngine
// rejects around the wire substrate: each exclusion on both wire admission
// paths (a dialed Workers roster and a listening Elastic fleet), each path's
// own rules, and the Chaos admission rules. Each row names a fragment of the
// expected error, so a row that slipped past validation and failed later, at
// the dial, reads as a failure rather than a pass.
func TestOptionExclusions(t *testing.T) {
	ins := testInstance(20, 2, 8)
	roster := []string{"127.0.0.1:1"}
	el := &ElasticConfig{Listen: "127.0.0.1:0"}
	faults := &inproc.FaultPlan{Seed: 1}
	sup := &supervise.Policy{MaxRestarts: 1}
	cases := []struct {
		name string
		opts Options
		want string
	}{
		{"workers+faults", Options{P: 1, Workers: roster, Faults: faults}, "Faults"},
		{"workers+supervise", Options{P: 1, Workers: roster, Supervise: sup}, "Supervise"},
		{"workers+guide", Options{Workers: []string{"127.0.0.1:1", "127.0.0.1:2"}, Guide: &GuideConfig{}}, "Guide"},
		{"workers p!=len", Options{P: 2, Workers: roster}, "worker addresses"},
		{"elastic+faults", Options{P: 1, Elastic: el, Faults: faults}, "Faults"},
		{"elastic+supervise", Options{P: 1, Elastic: el, Supervise: sup}, "Supervise"},
		{"elastic+guide", Options{P: 1, Elastic: el, Guide: &GuideConfig{}}, "Guide"},
		{"elastic+workers", Options{P: 1, Elastic: el, Workers: roster}, "Workers"},
		{"elastic+resume", Options{P: 1, Elastic: el, Resume: &Checkpoint{}}, "Resume"},
		{"elastic min>p", Options{P: 2, Elastic: &ElasticConfig{Listen: "127.0.0.1:0", Min: 3}}, "Min"},
		{"chaos without wire", Options{P: 2, Chaos: &chaosnet.Plan{Seed: 1}}, "Chaos"},
		{"malformed chaos plan", Options{P: 1, Workers: roster, Chaos: &chaosnet.Plan{CorruptRate: 2}}, "CorruptRate"},
	}
	for _, tc := range cases {
		tc.opts.Rounds = 1
		tc.opts.DialTimeout = 100 * time.Millisecond
		e, err := NewEngine(ins, CTS2, tc.opts)
		if err == nil {
			e.Close()
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: rejected for another reason than %q: %v", tc.name, tc.want, err)
		}
	}
}
