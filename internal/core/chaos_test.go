// Chaos battery: the wire fleet under injected network faults (partitions,
// resets, corruption) and hostile workers (forged results). Pins the three
// acceptance criteria of the hardening layer: an inert chaos plan leaves a
// wire run bitwise equal to an unwrapped one, a faulted fleet still finishes
// with a feasible verified best, and a forger is quarantined after
// quarantineStrikes rejected results without ever poisoning the incumbent.
package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/metrics"
	"repro/internal/mkp"
	"repro/internal/tabu"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/transport/chaosnet"
	"repro/internal/transport/proto"
	"repro/internal/transport/wire"
)

// TestChaosZeroPlanEquivalence: wrapping every worker connection in a chaos
// injector whose plan is inert must not change the result — same best value,
// same assignment — compared to both the unwrapped wire run and the
// in-process run at the same seed. This is the guarantee that makes chaos
// runs meaningful: any divergence under a real plan is the plan's doing.
func TestChaosZeroPlanEquivalence(t *testing.T) {
	ins := testInstance(60, 5, 404)
	base := Options{P: 4, Seed: 21, Rounds: 4, RoundMoves: 250}

	local, err := Solve(ins, CTS2, base)
	if err != nil {
		t.Fatal(err)
	}

	plain := base
	plain.Workers = startStaticWorkers(t, 4)
	plain.SlaveTimeout = 20 * time.Second
	pres, err := Solve(ins, CTS2, plain)
	if err != nil {
		t.Fatal(err)
	}

	wrapped := base
	wrapped.Workers = startStaticWorkers(t, 4)
	wrapped.SlaveTimeout = 20 * time.Second
	wrapped.Chaos = &chaosnet.Plan{Seed: 99} // inert: no rates, no partitions
	wres, err := Solve(ins, CTS2, wrapped)
	if err != nil {
		t.Fatal(err)
	}

	if pres.Best.Value != local.Best.Value || !pres.Best.X.Equal(local.Best.X) {
		t.Fatalf("plain wire run found %.0f, in-process run found %.0f", pres.Best.Value, local.Best.Value)
	}
	if wres.Best.Value != pres.Best.Value {
		t.Fatalf("inert chaos run found %.0f, plain wire run found %.0f", wres.Best.Value, pres.Best.Value)
	}
	if !wres.Best.X.Equal(pres.Best.X) {
		t.Fatal("inert chaos run found a different best assignment")
	}
	if wres.Stats.ResultRejects != 0 || wres.Stats.Quarantines != 0 {
		t.Fatalf("honest fleet was struck: rejects=%d quarantines=%d",
			wres.Stats.ResultRejects, wres.Stats.Quarantines)
	}
}

// rejoiningWorker serves the elastic slave loop in a join-serve-rejoin cycle,
// the mkpworker -rejoin behavior: a connection killed by injected corruption
// or reset is mourned for a beat and then replaced by a fresh join under a
// fresh node id. It gives up when stop closes or joins keep failing past the
// deadline.
func rejoiningWorker(t *testing.T, addr, name string, stop <-chan struct{}) {
	deadline := time.Now().Add(60 * time.Second)
	for attempt := 0; time.Now().Before(deadline); attempt++ {
		select {
		case <-stop:
			return
		default:
		}
		s, hello, err := wire.JoinFleet(addr, fmt.Sprintf("%s-%d", name, attempt), nil,
			wire.WithDialTimeout(2*time.Second))
		if err != nil {
			// The handshake itself may have been corrupted; retry until the
			// master is gone for good (stop closes) or the deadline passes.
			time.Sleep(150 * time.Millisecond)
			continue
		}
		ElasticSlave(s, hello.Node, hello.Ins, hello.Seed, ElasticOptions{})
		s.Close()
		time.Sleep(50 * time.Millisecond)
	}
}

// TestChaosBatteryRecovery runs an elastic fleet of rejoining workers under a
// seeded schedule of byte corruption, connection resets and a both-direction
// partition window. The run must complete with a feasible, self-consistent
// best; every surviving connection byte stream stayed trustworthy because
// corruption surfaces only as CRC hard-errors that kill the link.
func TestChaosBatteryRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run pays rendezvous deadline waits")
	}
	ins := testInstance(50, 5, 505)
	reg := metrics.NewRegistry()
	opts := Options{
		P: 4, Seed: 33, Rounds: 5, RoundMoves: 2000,
		SlaveTimeout: time.Second,
		Metrics:      reg,
		Elastic:      &ElasticConfig{Listen: "127.0.0.1:0", Min: 2, JoinGrace: 30 * time.Second},
		Chaos: &chaosnet.Plan{
			Seed:        7,
			CorruptRate: 0.25,
			ResetRate:   0.05,
			Partitions: map[int][]chaosnet.Window{
				0: {{After: 100 * time.Millisecond, Heal: 500 * time.Millisecond}},
			},
		},
	}
	e, err := NewEngine(ins, CTS2, opts)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("w%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rejoiningWorker(t, e.FleetAddr(), name, stop)
		}()
	}
	res, err := e.Run()
	close(stop)
	if err != nil {
		t.Fatalf("chaos run failed outright: %v", err)
	}
	e.Close()
	wg.Wait()

	if !mkp.IsFeasibleAssignment(ins, res.Best.X) {
		t.Fatal("chaos run accepted an infeasible best")
	}
	if got := mkp.ValueOf(ins, res.Best.X); got != res.Best.Value {
		t.Fatalf("chaos best reports %.0f but evaluates to %.0f", res.Best.Value, got)
	}
	if res.Stats.Rounds != opts.Rounds {
		t.Fatalf("chaos run ended after %d rounds, want %d", res.Stats.Rounds, opts.Rounds)
	}
	// The injected corruption must have surfaced as frame-integrity errors —
	// never as silently delivered garbage (which vetResult would flag as
	// rejects; an honest-but-corrupted fleet strikes nobody).
	if got := reg.Counter("wire_frame_errors_total").Value(); got == 0 {
		t.Error("no frame errors counted under a corrupting plan")
	}
	if res.Stats.ResultRejects != 0 {
		t.Errorf("corruption leaked past the CRC into %d vet rejects", res.Stats.ResultRejects)
	}
}

// forgeWorker joins the fleet and answers every round order instantly with a
// forged result: a trivially feasible empty assignment claiming an enormous
// value. The master must reject every one (recomputing the value from the
// bits), never fold the claimed value into the incumbent, and quarantine the
// worker after quarantineStrikes.
func forgeWorker(t *testing.T, addr string) {
	s, hello, err := wire.JoinFleet(addr, "forger", nil, wire.WithDialTimeout(5*time.Second))
	if err != nil {
		return
	}
	defer s.Close()
	forge(s, hello)
}

// forge serves a forger's session until its connection ends.
func forge(s *wire.Session, hello proto.Hello) {
	for {
		msg := s.Recv(hello.Node)
		if msg.Tag == proto.TagStop {
			return
		}
		if start, ok := msg.Payload.(proto.Start); ok {
			forged := &tabu.Result{
				Best:  mkp.Solution{X: bitset.New(hello.Ins.N), Value: 1e12},
				Moves: 1,
			}
			s.Send(hello.Node, 0, proto.TagResult,
				proto.Result{Slot: start.Slot, Node: hello.Node, Round: start.Round, Res: forged},
				proto.SolutionSize(hello.Ins.N))
		}
	}
}

// TestChaosForgedResultQuarantine: an elastic fleet of three honest workers
// and one forger. Every forged result is rejected by revalidation and routed
// through redispatch (so no round is lost to the forger), the forger crosses
// the default strike threshold and is quarantined through the leave ledger,
// and the final best is honest: feasible, self-consistent, never the claimed
// 1e12.
func TestChaosForgedResultQuarantine(t *testing.T) {
	if testing.Short() {
		t.Skip("forger run pays redispatch waits")
	}
	ins := testInstance(50, 5, 606)
	reg := metrics.NewRegistry()
	log := trace.NewLog(4096)
	opts := Options{
		P: 4, Seed: 44, Rounds: 5, RoundMoves: 300,
		SlaveTimeout: 2 * time.Second,
		Metrics:      reg,
		Tracer:       log,
		Elastic:      &ElasticConfig{Listen: "127.0.0.1:0", Min: 4, JoinGrace: 20 * time.Second},
	}
	e, err := NewEngine(ins, CTS2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 3; i++ {
		joinElasticWorker(t, e.FleetAddr(), fmt.Sprintf("honest%d", i), ElasticOptions{})
	}
	go forgeWorker(t, e.FleetAddr())

	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}

	if !mkp.IsFeasibleAssignment(ins, res.Best.X) {
		t.Fatal("forger run accepted an infeasible best")
	}
	if got := mkp.ValueOf(ins, res.Best.X); got != res.Best.Value {
		t.Fatalf("best reports %.0f but evaluates to %.0f — a forged value was folded in", res.Best.Value, got)
	}
	if res.Best.Value >= 1e12 {
		t.Fatal("the forged value became the incumbent")
	}
	if res.Stats.Quarantines != 1 {
		t.Fatalf("Quarantines = %d, want 1 (the forger)", res.Stats.Quarantines)
	}
	if res.Stats.ResultRejects < 3 {
		t.Fatalf("ResultRejects = %d, want >= 3 (the default strike threshold)", res.Stats.ResultRejects)
	}
	// The quarantine is a master decision, not a crash: exactly-one-ledger.
	if res.Stats.DeadSlaves != 0 {
		t.Fatalf("quarantined forger also counted dead: DeadSlaves=%d", res.Stats.DeadSlaves)
	}
	if res.Stats.Leaves != 0 {
		t.Fatalf("quarantined forger also counted as graceful leave: Leaves=%d", res.Stats.Leaves)
	}
	if got := reg.Counter("core_result_rejects_total").Value(); got == 0 {
		t.Error("core_result_rejects_total stayed zero")
	}
	if got := reg.Counter("core_quarantines_total").Value(); got != 1 {
		t.Errorf("core_quarantines_total = %d, want 1", got)
	}
	if log.CountKind(trace.KindResultReject) == 0 {
		t.Error("no result-reject trace events")
	}
	if log.CountKind(trace.KindQuarantine) != 1 {
		t.Errorf("quarantine trace events = %d, want 1", log.CountKind(trace.KindQuarantine))
	}
}

// TestChaosForgedIdentity: a joiner whose payload names an honest peer is
// judged as itself. The master attributes traffic to the connection the
// fleet stamped (Message.From), so the forged claim strikes the forger and
// frames nobody: node 1 keeps its slot whatever the joiner says about it.
func TestChaosForgedIdentity(t *testing.T) {
	for _, tc := range []struct {
		name  string
		reply func(s *wire.Session, node int, start proto.Start)
		check func(m *master, st Stats) string
	}{
		{"result-error", func(s *wire.Session, node int, start proto.Start) {
			s.Send(node, 0, proto.TagResult,
				proto.Result{Slot: start.Slot, Node: 1, Round: start.Round, Err: "forged"}, 0)
		}, func(m *master, st Stats) string {
			if !m.alive[0] || m.alive[3] || st.DeadSlaves != 1 {
				return fmt.Sprintf("alive=%v DeadSlaves=%d, want only the forger (node 4) dead", m.alive, st.DeadSlaves)
			}
			return ""
		}},
		{"leave", func(s *wire.Session, node int, start proto.Start) {
			s.SendControl(node, 0, proto.TagLeave, proto.Leave{Node: 1, Reason: "forged"}, 0)
		}, func(m *master, st Stats) string {
			if m.departed[0] || !m.alive[0] || !m.departed[3] || st.Leaves != 1 {
				return fmt.Sprintf("departed=%v alive=%v Leaves=%d, want only the forger (node 4) retired",
					m.departed, m.alive, st.Leaves)
			}
			return ""
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ins := testInstance(40, 4, 607)
			e, err := NewEngine(ins, CTS2, Options{
				P: 4, Seed: 45, Rounds: 3, RoundMoves: 300,
				SlaveTimeout: 2 * time.Second,
				Elastic:      &ElasticConfig{Listen: "127.0.0.1:0", Min: 4, JoinGrace: 20 * time.Second},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			for i := 0; i < 3; i++ {
				joinElasticWorker(t, e.FleetAddr(), fmt.Sprintf("honest%d", i), ElasticOptions{})
			}
			s, hello, err := wire.JoinFleet(e.FleetAddr(), "forger", nil)
			if err != nil {
				t.Fatal(err)
			}
			if hello.Node != 4 {
				t.Fatalf("forger joined as node %d, want 4", hello.Node)
			}
			go func() {
				defer s.Close()
				for {
					msg := s.Recv(hello.Node)
					if msg.Tag == proto.TagStop {
						return
					}
					if start, ok := msg.Payload.(proto.Start); ok {
						tc.reply(s, hello.Node, start)
					}
				}
			}()

			res, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			if msg := tc.check(e.m, res.Stats); msg != "" {
				t.Fatal(msg)
			}
			if res.Stats.ResultRejects < 1 {
				t.Fatalf("ResultRejects = %d, want the forged identity struck", res.Stats.ResultRejects)
			}
			if res.Stats.Rounds != 3 || !mkp.IsFeasibleAssignment(ins, res.Best.X) {
				t.Fatalf("run ended after %d rounds with feasible=%v", res.Stats.Rounds, mkp.IsFeasibleAssignment(ins, res.Best.X))
			}
		})
	}
}

// TestChaosOptionValidation pins the Chaos admission rules: a plan needs a
// wire substrate to wrap, and a malformed plan is rejected at NewEngine.
func TestChaosOptionValidation(t *testing.T) {
	ins := testInstance(20, 2, 8)
	if _, err := NewEngine(ins, CTS2, Options{
		P: 2, Rounds: 1, Chaos: &chaosnet.Plan{Seed: 1},
	}); err == nil {
		t.Error("Chaos without Workers or Elastic accepted")
	}
	if _, err := NewEngine(ins, CTS2, Options{
		P: 1, Rounds: 1, Workers: []string{"127.0.0.1:1"},
		Chaos: &chaosnet.Plan{CorruptRate: 2},
	}); err == nil {
		t.Error("malformed chaos plan accepted")
	}
}

// TestChaosRosterQuarantineEvicts: quarantine evicts a forging worker of a
// dialed Workers roster as it does an elastic member. The slot lands in the
// leave ledger, and the worker's connection is closed as soon as it is
// quarantined, not left open until the run's shutdown.
func TestChaosRosterQuarantineEvicts(t *testing.T) {
	if testing.Short() {
		t.Skip("forger run pays redispatch waits")
	}
	evicted := make(chan struct{})
	forger := listenWorker(t, func(s *wire.Session, hello proto.Hello) {
		forge(s, hello)
		close(evicted)
	})

	ins := testInstance(50, 5, 606)
	e, err := NewEngine(ins, CTS2, Options{
		P: 4, Seed: 44, Rounds: 5, RoundMoves: 300,
		SlaveTimeout: 2 * time.Second,
		Workers:      append(startStaticWorkers(t, 3), forger),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Quarantines != 1 || res.Stats.DeadSlaves != 0 || res.Stats.Leaves != 0 {
		t.Fatalf("quarantines=%d dead=%d leaves=%d, want 1/0/0",
			res.Stats.Quarantines, res.Stats.DeadSlaves, res.Stats.Leaves)
	}
	if res.Best.Value >= 1e12 || mkp.ValueOf(ins, res.Best.X) != res.Best.Value {
		t.Fatal("a forged value was folded into the best")
	}
	// The run is over but the engine is not closed: only the eviction can
	// have ended the forger's session.
	select {
	case <-evicted:
	case <-time.After(5 * time.Second):
		t.Fatal("quarantined roster worker still connected")
	}
}

// stallRound holds up every order of one round for delay: a host stall on a
// healthy member whose connection stays up throughout.
type stallRound struct {
	*wire.Session
	round int
	delay time.Duration
}

func (s stallRound) Recv(node int) transport.Message {
	msg := s.Session.Recv(node)
	if start, ok := msg.Payload.(proto.Start); ok && start.Round == s.round {
		time.Sleep(s.delay)
	}
	return msg
}

// TestChaosLiveMemberWaitedOn: on a wire fleet a member whose connection is
// up is waited on for SlaveTimeout, not missed at the calibrated deadline.
// stall: one worker's host stalls 300 ms before one round order, far past
// the ~100 ms deadline; the run re-sends nothing, declares nobody dead and
// equals the in-process run. hung: a worker that handshakes and then never
// answers is still missed, once SlaveTimeout has passed, and declared dead;
// each miss is re-sent straight to the live worker, never back to the silent
// one, so the run spends 3 re-sends: one per round until the third miss
// declares the worker dead.
func TestChaosLiveMemberWaitedOn(t *testing.T) {
	ins := testInstance(60, 5, 404)
	t.Run("stall", func(t *testing.T) {
		base := Options{P: 2, Seed: 21, Rounds: 6, RoundMoves: 10}
		local, err := Solve(ins, CTS2, base)
		if err != nil {
			t.Fatal(err)
		}
		opts := base
		opts.SlaveTimeout = 3 * time.Second
		opts.Workers = []string{
			startStaticWorkers(t, 1)[0],
			listenWorker(t, func(s *wire.Session, hello proto.Hello) {
				Slave(stallRound{Session: s, round: 3, delay: 300 * time.Millisecond},
					hello.Node, hello.Ins, hello.Seed)
			}),
		}
		res, err := Solve(ins, CTS2, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Redispatches != 0 || res.Stats.DeadSlaves != 0 {
			t.Fatalf("redispatches=%d dead=%d, want 0/0: a live member was missed",
				res.Stats.Redispatches, res.Stats.DeadSlaves)
		}
		if res.Best.Value != local.Best.Value || !res.Best.X.Equal(local.Best.X) ||
			!slices.Equal(res.Stats.BestByRound, local.Stats.BestByRound) {
			t.Fatalf("stalled wire run found %.0f %v, in-process run %.0f %v",
				res.Best.Value, res.Stats.BestByRound, local.Best.Value, local.Stats.BestByRound)
		}
	})
	t.Run("hung", func(t *testing.T) {
		opts := Options{P: 2, Seed: 21, Rounds: 4, RoundMoves: 10, SlaveTimeout: 300 * time.Millisecond}
		opts.Workers = []string{
			startStaticWorkers(t, 1)[0],
			listenWorker(t, func(s *wire.Session, hello proto.Hello) {
				for s.Recv(hello.Node).Tag != proto.TagStop { // take every order, answer none
				}
			}),
		}
		began := time.Now()
		res, err := Solve(ins, CTS2, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("redispatches=%d in %s", res.Stats.Redispatches, time.Since(began))
		if res.Stats.Redispatches != 3 {
			t.Errorf("redispatches=%d, want 3: a miss went back to the silent worker", res.Stats.Redispatches)
		}
		if res.Stats.Rounds != opts.Rounds || res.Stats.DeadSlaves != 1 {
			t.Fatalf("rounds=%d dead=%d, want %d rounds and the hung worker dead",
				res.Stats.Rounds, res.Stats.DeadSlaves, opts.Rounds)
		}
		if !mkp.IsFeasibleAssignment(ins, res.Best.X) || mkp.ValueOf(ins, res.Best.X) != res.Best.Value {
			t.Fatal("hung-worker run produced an inconsistent best")
		}
	})
}
