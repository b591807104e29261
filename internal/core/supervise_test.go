package core

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/mkp"
	"repro/internal/supervise"
	"repro/internal/tabu"
	"repro/internal/trace"
	"repro/internal/transport/inproc"
)

// fastPolicy keeps supervised tests quick: short backoff.
func fastPolicy() *supervise.Policy {
	return &supervise.Policy{
		MaxRestarts: 3,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  50 * time.Millisecond,
		Jitter:      0.2,
		StallChecks: 2,
	}
}

// TestSupervisedChaosResurrection is the acceptance run for the self-healing
// farm: 2 of 4 slaves go fail-silent after their first report, the watchdog
// must catch their frozen watermarks, and the supervisor must resurrect them
// so the run ends with a full farm — and a final objective no worse than the
// same seed left to degrade without supervision.
func TestSupervisedChaosResurrection(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run takes a few seconds of deadline waits")
	}
	ins := testInstance(150, 8, 91)
	base := Options{
		P: 4, Seed: 31, Rounds: 10, RoundMoves: 400,
		SlaveTimeout: 3 * time.Second,
		Faults: &inproc.FaultPlan{
			Seed: 7,
			// Both nodes deliver their round-0 report, then fall silent.
			CrashAt: map[int]int64{2: 1, 4: 1},
		},
	}

	degraded, err := Solve(ins, CTS2, base)
	if err != nil {
		t.Fatal(err)
	}
	if degraded.Stats.DeadSlaves < 2 || degraded.Stats.LiveSlaves > 2 {
		t.Fatalf("unsupervised run did not degrade as expected: %+v", degraded.Stats)
	}

	log := trace.NewLog(4096)
	supervised := base
	supervised.Supervise = fastPolicy()
	supervised.Tracer = log
	res, err := Solve(ins, CTS2, supervised)
	if err != nil {
		t.Fatal(err)
	}

	if res.Stats.SlaveRestarts < 2 {
		t.Fatalf("want >= 2 slave restarts, got %+v", res.Stats)
	}
	if res.Stats.WatchdogTrips < 1 {
		t.Fatalf("frozen watermarks never tripped the watchdog: %+v", res.Stats)
	}
	if res.Stats.LiveSlaves != 4 {
		t.Fatalf("run ended with %d live slaves, want the full 4", res.Stats.LiveSlaves)
	}
	if !mkp.IsFeasibleAssignment(ins, res.Best.X) || res.Best.Value != mkp.ValueOf(ins, res.Best.X) {
		t.Fatalf("supervised run produced an invalid best")
	}
	if res.Best.Value < degraded.Best.Value {
		t.Fatalf("supervised best %.0f below unsupervised degraded best %.0f",
			res.Best.Value, degraded.Best.Value)
	}
	if log.CountKind(trace.KindSlaveRestart) < 2 || log.CountKind(trace.KindWatchdogTrip) < 1 {
		t.Fatalf("trace missing supervision events: restarts=%d trips=%d",
			log.CountKind(trace.KindSlaveRestart), log.CountKind(trace.KindWatchdogTrip))
	}
}

// TestSupervisedFaultFreeKeepsOutcome: on a healthy farm the supervisor must
// be a pure observer — heartbeats and watchdog bookkeeping change
// nothing about the search trajectory, so the supervised result matches the
// unsupervised one exactly.
func TestSupervisedFaultFreeKeepsOutcome(t *testing.T) {
	ins := testInstance(60, 5, 92)
	base := Options{P: 3, Seed: 13, Rounds: 5, RoundMoves: 300}
	plain, err := Solve(ins, CTS2, base)
	if err != nil {
		t.Fatal(err)
	}
	armed := base
	armed.Supervise = fastPolicy()
	sup, err := Solve(ins, CTS2, armed)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Best.X.Equal(sup.Best.X) || plain.Best.Value != sup.Best.Value {
		t.Fatalf("best diverged: %.0f vs %.0f", plain.Best.Value, sup.Best.Value)
	}
	if plain.Stats.TotalMoves != sup.Stats.TotalMoves {
		t.Fatalf("move counts diverged: %d vs %d", plain.Stats.TotalMoves, sup.Stats.TotalMoves)
	}
	for r := range plain.Stats.BestByRound {
		if plain.Stats.BestByRound[r] != sup.Stats.BestByRound[r] {
			t.Fatalf("trajectory diverged at round %d", r)
		}
	}
	if sup.Stats.SlaveRestarts != 0 || sup.Stats.WatchdogTrips != 0 {
		t.Fatalf("healthy farm saw supervision activity: %+v", sup.Stats)
	}
	if sup.Stats.LiveSlaves != base.P {
		t.Fatalf("healthy farm ended with %d live slaves, want %d", sup.Stats.LiveSlaves, base.P)
	}
}

// TestUnsupervisedReplayUnchanged pins the bitwise replay contract for the
// default path: supervision off, no faults, same seed, identical run.
func TestUnsupervisedReplayUnchanged(t *testing.T) {
	ins := testInstance(50, 4, 93)
	opts := Options{P: 3, Seed: 17, Rounds: 4, RoundMoves: 250}
	a, err := Solve(ins, CTS2, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(ins, CTS2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Best.X.Equal(b.Best.X) || a.Best.Value != b.Best.Value ||
		a.Stats.TotalMoves != b.Stats.TotalMoves {
		t.Fatalf("seeded replay diverged: %.0f/%d vs %.0f/%d",
			a.Best.Value, a.Stats.TotalMoves, b.Best.Value, b.Stats.TotalMoves)
	}
	for i := range a.Strategies {
		if a.Strategies[i] != b.Strategies[i] {
			t.Fatalf("strategy %d diverged", i)
		}
	}
}

// TestSupervisedSlaveErrorRestart drives the error-death path: a slave whose
// strategy fails validation errors out, the supervisor resurrects it after
// backoff, and the run completes without leaking the replaced goroutines.
func TestSupervisedSlaveErrorRestart(t *testing.T) {
	ins := testInstance(30, 3, 94)
	before := runtime.NumGoroutine()

	opts := (Options{
		P: 3, Seed: 5, Rounds: 6, RoundMoves: 100,
		Supervise: fastPolicy(),
	}).withDefaults(ins.N)
	m, err := newMaster(ins, CTS1, opts)
	if err != nil {
		t.Fatal(err)
	}
	// NbLocal 0 fails Params.Validate inside the slave, so slot 0's rounds
	// come back as errors until its starts are substituted.
	m.strategies[0] = tabu.Strategy{LtLength: 5, NbDrop: 2, NbLocal: 0}

	res, err := m.run()
	m.shutdown()
	if err != nil {
		t.Fatalf("supervised degraded run errored: %v", err)
	}
	if res.Stats.SlaveRestarts < 1 {
		t.Fatalf("errored slave never restarted: %+v", res.Stats)
	}
	if res.Stats.Rounds != 6 {
		t.Fatalf("run ended after %d rounds, want 6", res.Stats.Rounds)
	}
	if !mkp.IsFeasibleAssignment(ins, res.Best.X) {
		t.Fatal("run produced infeasible best")
	}
	waitForGoroutines(t, before)
}

// TestStopChannelGracefulExit: a fired Stop channel ends the run after the
// round in progress, with the checkpoint for that round already delivered.
func TestStopChannelGracefulExit(t *testing.T) {
	ins := testInstance(40, 4, 95)
	stop := make(chan struct{})
	close(stop)
	checkpoints := 0
	res, err := Solve(ins, CTS2, Options{
		P: 2, Seed: 3, Rounds: 50, RoundMoves: 100,
		Stop:         stop,
		OnCheckpoint: func(*Checkpoint) { checkpoints++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rounds != 1 {
		t.Fatalf("pre-fired stop should end after round 1, ran %d", res.Stats.Rounds)
	}
	if checkpoints != 1 {
		t.Fatalf("want the finished round's checkpoint, got %d", checkpoints)
	}
	if !mkp.IsFeasibleAssignment(ins, res.Best.X) {
		t.Fatal("stopped run produced infeasible best")
	}
}

// TestSupervisePolicyRejected: Solve surfaces an invalid policy instead of
// running with it.
func TestSupervisePolicyRejected(t *testing.T) {
	ins := testInstance(20, 3, 96)
	_, err := Solve(ins, CTS2, Options{
		P: 2, Seed: 1, Rounds: 1, RoundMoves: 50,
		Supervise: &supervise.Policy{Jitter: 1.5},
	})
	if err == nil {
		t.Fatal("jitter 1.5 accepted")
	}
}

// TestSupervisedRestartsLeaveNoGoroutines: after a run with resurrections and
// shutdown, every incarnation must be gone.
func TestSupervisedRestartsLeaveNoGoroutines(t *testing.T) {
	if testing.Short() {
		t.Skip("resurrection run pays deadline waits")
	}
	ins := testInstance(60, 5, 97)
	before := runtime.NumGoroutine()
	res, err := Solve(ins, CTS2, Options{
		P: 3, Seed: 23, Rounds: 8, RoundMoves: 200,
		SlaveTimeout: 2 * time.Second,
		Supervise:    fastPolicy(),
		Faults:       &inproc.FaultPlan{Seed: 4, CrashAt: map[int]int64{2: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SlaveRestarts < 1 {
		t.Fatalf("crashed slave never restarted: %+v", res.Stats)
	}
	waitForGoroutines(t, before)
}
