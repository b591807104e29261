package core

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/mkp"
	"repro/internal/supervise"
	"repro/internal/tabu"
	"repro/internal/transport/inproc"
)

// TestFaultChaosCTS2 is the acceptance chaos run: CTS2 on a 25x500 GK
// instance with 20% message loss and one slave crashed from the start. The
// run must terminate (no deadlock), report the failures in Stats, degrade to
// P-1 slaves, and still land within 1% of the fault-free objective.
func TestFaultChaosCTS2(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run takes a few seconds of deadline waits")
	}
	ins := gen.GK("chaos_25x500", 500, 25, 0.25, 42)
	base := Options{P: 4, Seed: 9, Rounds: 5, RoundMoves: 600}

	clean, err := Solve(ins, CTS2, base)
	if err != nil {
		t.Fatal(err)
	}

	chaotic := base
	// Never reached: an in-process rendezvous ends once the farm has gone
	// quiet, not on a clock, so a healthy slave cannot miss and the crashed
	// slave's silence is seen at quiescence.
	chaotic.SlaveTimeout = 5 * time.Second
	chaotic.Faults = &inproc.FaultPlan{
		Seed:     7,
		DropRate: 0.20,
		CrashAt:  map[int]int64{3: 0}, // slave node 3 is fail-silent from its first send
	}
	res, err := Solve(ins, CTS2, chaotic)
	if err != nil {
		t.Fatal(err)
	}

	if res.Stats.DeadSlaves < 1 {
		t.Fatalf("crashed slave never declared dead: %+v", res.Stats)
	}
	if res.Stats.DroppedMessages == 0 {
		t.Fatalf("20%% drop rate dropped nothing: %+v", res.Stats)
	}
	if res.Stats.SlaveFailures == 0 && res.Stats.Redispatches == 0 {
		t.Fatalf("chaos run reported no recovery activity: %+v", res.Stats)
	}
	if res.Stats.Rounds != base.Rounds {
		t.Fatalf("run ended after %d rounds, want %d", res.Stats.Rounds, base.Rounds)
	}
	if !mkp.IsFeasibleAssignment(ins, res.Best.X) || res.Best.Value != mkp.ValueOf(ins, res.Best.X) {
		t.Fatalf("chaos run produced an invalid best")
	}
	if dev := (clean.Best.Value - res.Best.Value) / clean.Best.Value; dev > 0.01 {
		t.Fatalf("degraded objective %.0f is %.2f%% below fault-free %.0f (tolerance 1%%)",
			res.Best.Value, 100*dev, clean.Best.Value)
	}
}

// goldenStats is the part of a run's Stats a fault golden pins.
func goldenStats(s Stats) Stats {
	return Stats{
		TotalMoves: s.TotalMoves, Redispatches: s.Redispatches, DeadSlaves: s.DeadSlaves,
		SlaveFailures: s.SlaveFailures, DroppedMessages: s.DroppedMessages,
		SlaveRestarts: s.SlaveRestarts, WatchdogTrips: s.WatchdogTrips,
		LiveSlaves: s.LiveSlaves, BestByRound: s.BestByRound,
	}
}

// TestFaultGoldens pins faulty in-process runs exactly. A rendezvous ends when
// the farm has gone quiet and the supervisor reads the simulated clock, so
// message loss, crashed slaves and their resurrection replay bitwise. The two
// unsupervised runs are TestFaultChaosCTS2's chaotic configuration with and
// without its crash; the supervised run crashes two slaves under the default
// policy.
func TestFaultGoldens(t *testing.T) {
	chaos := gen.GK("chaos_25x500", 500, 25, 0.25, 42)
	chaosOpts := func(crashAt map[int]int64) Options {
		return Options{P: 4, Seed: 9, Rounds: 5, RoundMoves: 600,
			Faults: &inproc.FaultPlan{Seed: 7, DropRate: 0.20, CrashAt: crashAt}}
	}
	chaosByRound := []float64{113089, 113570, 113707, 113707, 113707}
	var supByRound []float64
	for _, run := range []struct {
		v      float64
		rounds int
	}{{4466, 1}, {4474, 14}, {4481, 11}, {4483, 4}} {
		for i := 0; i < run.rounds; i++ {
			supByRound = append(supByRound, run.v)
		}
	}
	for _, tc := range []struct {
		name string
		ins  *mkp.Instance
		opts Options
		best float64
		want Stats
	}{
		{"drop+crash", chaos, chaosOpts(map[int]int64{3: 0}), 113707, Stats{
			TotalMoves: 9000, Redispatches: 13, DeadSlaves: 1, SlaveFailures: 2,
			DroppedMessages: 15, LiveSlaves: 3, BestByRound: chaosByRound}},
		{"drop", chaos, chaosOpts(nil), 113707, Stats{
			TotalMoves: 10200, Redispatches: 13, DroppedMessages: 13, LiveSlaves: 4,
			BestByRound: chaosByRound}},
		{"supervised-crash", testInstance(150, 8, 91), Options{
			P: 4, Seed: 31, Rounds: 30, RoundMoves: 400, Supervise: &supervise.Policy{},
			Faults: &inproc.FaultPlan{Seed: 7, CrashAt: map[int]int64{2: 1, 4: 1}},
		}, 4483, Stats{
			TotalMoves: 21938, Redispatches: 6, DeadSlaves: 2, DroppedMessages: 6,
			SlaveRestarts: 2, WatchdogTrips: 2, LiveSlaves: 4, BestByRound: supByRound}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Solve(tc.ins, CTS2, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Best.Value != tc.best || !mkp.IsFeasibleAssignment(tc.ins, res.Best.X) {
				t.Fatalf("best %.0f (feasible %v), want %.0f", res.Best.Value,
					mkp.IsFeasibleAssignment(tc.ins, res.Best.X), tc.best)
			}
			if got := goldenStats(res.Stats); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("stats diverged from the golden:\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}

// TestFaultZeroPlanMatchesFaultFree pins the determinism contract: arming the
// injector with an all-zero plan must reproduce the fault-free run bit for
// bit.
func TestFaultZeroPlanMatchesFaultFree(t *testing.T) {
	ins := testInstance(60, 5, 77)
	base := Options{P: 3, Seed: 11, Rounds: 5, RoundMoves: 300}
	a, err := Solve(ins, CTS2, base)
	if err != nil {
		t.Fatal(err)
	}
	armed := base
	armed.Faults = &inproc.FaultPlan{Seed: 123} // armed, but injects nothing
	b, err := Solve(ins, CTS2, armed)
	if err != nil {
		t.Fatal(err)
	}

	if !a.Best.X.Equal(b.Best.X) || a.Best.Value != b.Best.Value {
		t.Fatalf("best diverged: %.0f vs %.0f", a.Best.Value, b.Best.Value)
	}
	if a.Stats.TotalMoves != b.Stats.TotalMoves {
		t.Fatalf("move counts diverged: %d vs %d", a.Stats.TotalMoves, b.Stats.TotalMoves)
	}
	if len(a.Stats.BestByRound) != len(b.Stats.BestByRound) {
		t.Fatalf("trajectory lengths diverged")
	}
	for r := range a.Stats.BestByRound {
		if a.Stats.BestByRound[r] != b.Stats.BestByRound[r] {
			t.Fatalf("trajectory diverged at round %d", r)
		}
	}
	for i := range a.Strategies {
		if a.Strategies[i] != b.Strategies[i] {
			t.Fatalf("strategy %d diverged", i)
		}
	}
	if b.Stats.SlaveFailures != 0 || b.Stats.Redispatches != 0 || b.Stats.DeadSlaves != 0 {
		t.Fatalf("zero plan produced failures: %+v", b.Stats)
	}
}

// waitForGoroutines polls until the process is back to at most limit
// goroutines, dumping all stacks on timeout.
func waitForGoroutines(t *testing.T, limit int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= limit {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: %d > %d\n%s", runtime.NumGoroutine(), limit, buf[:n])
}

// TestFaultSlaveErrorDegrades drives the mid-rendezvous error path: one slave
// whose parameters fail validation errors out on every round it is given. The
// master must declare it dead, finish with the remaining slaves, fire a
// checkpoint on the failure, and leave no goroutine behind after shutdown.
func TestFaultSlaveErrorDegrades(t *testing.T) {
	ins := testInstance(30, 3, 71)
	before := runtime.NumGoroutine()

	checkpoints := 0
	opts := (Options{
		P: 3, Seed: 2, Rounds: 4, RoundMoves: 100,
		OnCheckpoint: func(*Checkpoint) { checkpoints++ },
	}).withDefaults(ins.N)
	m, err := newMaster(ins, CTS2, opts)
	if err != nil {
		t.Fatal(err)
	}
	// NbLocal 0 fails Params.Validate inside the slave's searcher, so slot 0's
	// first round comes back as an error instead of a result.
	m.strategies[0] = tabu.Strategy{LtLength: 5, NbDrop: 2, NbLocal: 0}

	res, err := m.run()
	m.shutdown()
	if err != nil {
		t.Fatalf("degraded run errored: %v", err)
	}
	if res.Stats.DeadSlaves != 1 {
		t.Fatalf("want 1 dead slave, got %d", res.Stats.DeadSlaves)
	}
	if res.Stats.SlaveFailures == 0 {
		t.Fatalf("lost round not counted: %+v", res.Stats)
	}
	if res.Stats.Rounds != 4 {
		t.Fatalf("run ended after %d rounds, want 4", res.Stats.Rounds)
	}
	if checkpoints == 0 {
		t.Fatal("no checkpoint fired on failure")
	}
	if !mkp.IsFeasibleAssignment(ins, res.Best.X) {
		t.Fatal("degraded run produced infeasible best")
	}
	waitForGoroutines(t, before)
}

// TestFaultAllSlavesFailedErrors: when every slave is dead the master must
// return an error naming the cause instead of spinning or deadlocking.
func TestFaultAllSlavesFailedErrors(t *testing.T) {
	ins := testInstance(30, 3, 72)
	before := runtime.NumGoroutine()

	opts := (Options{P: 1, Seed: 2, Rounds: 3, RoundMoves: 100}).withDefaults(ins.N)
	m, err := newMaster(ins, CTS2, opts)
	if err != nil {
		t.Fatal(err)
	}
	m.strategies[0] = tabu.Strategy{LtLength: 4, NbDrop: 2, NbLocal: 0}

	_, err = m.run()
	m.shutdown()
	if err == nil || !strings.Contains(err.Error(), "slaves failed") {
		t.Fatalf("want all-slaves-failed error, got %v", err)
	}
	waitForGoroutines(t, before)
}

// TestFaultCrashAtNodeRange: a crash plan may name only a slave, nodes 1..P,
// with P taken after SEQ forces it to 1. The farm ignores any other key, so
// accepting one would run fault-free while claiming a crash.
func TestFaultCrashAtNodeRange(t *testing.T) {
	ins := testInstance(20, 2, 8)
	const p = 3
	for _, tc := range []struct {
		algo Algorithm
		node int
		ok   bool
	}{
		{CTS2, 0, false}, {CTS2, p + 1, false}, {CTS2, -1, false}, {CTS2, p, true},
		{SEQ, 2, false}, {SEQ, 1, true},
	} {
		e, err := NewEngine(ins, tc.algo, Options{P: p, Seed: 1, Rounds: 1, RoundMoves: 50,
			Faults: &inproc.FaultPlan{Seed: 1, CrashAt: map[int]int64{tc.node: 0}}})
		if err == nil {
			e.Close()
		}
		switch {
		case tc.ok && err != nil:
			t.Errorf("%v CrashAt{%d: 0}: refused: %v", tc.algo, tc.node, err)
		case !tc.ok && err == nil:
			t.Errorf("%v CrashAt{%d: 0}: accepted", tc.algo, tc.node)
		case !tc.ok && !strings.Contains(err.Error(), fmt.Sprintf("node %d", tc.node)):
			t.Errorf("%v CrashAt{%d: 0}: error does not name the node: %v", tc.algo, tc.node, err)
		}
	}
}

// TestFaultFreeAsyncAliasingRace is the -race regression for solution
// aliasing across peer messages: ring topology forces peers to adopt and
// re-publish received solutions while every peer's chunk runs on its own
// goroutine. Each recipient gets its own clone, so a peer that writes into a
// solution it adopted cannot race the sender or another recipient.
func TestFaultFreeAsyncAliasingRace(t *testing.T) {
	ins := testInstance(50, 4, 73)
	res, err := SolveAsync(ins, AsyncOptions{
		P: 6, Seed: 3, TotalMoves: 6000, ChunkMoves: 150, Ring: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !mkp.IsFeasibleAssignment(ins, res.Best.X) || res.Best.Value != mkp.ValueOf(ins, res.Best.X) {
		t.Fatalf("async best is inconsistent: %+v", res.Best)
	}
}
