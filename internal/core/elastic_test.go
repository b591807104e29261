// Elastic-farm test battery: the no-churn equivalence guarantee, the churn
// chaos schedule (joins, graceful leaves, an abrupt kill), and the unit pins
// for the epoch/gossip and single-ledger invariants.
package core

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/mkp"
	"repro/internal/rng"
	"repro/internal/transport"
	"repro/internal/transport/inproc"
	"repro/internal/transport/proto"
	"repro/internal/transport/wire"
)

func protoGossip(epoch uint64, best mkp.Solution) proto.Gossip {
	return proto.Gossip{Epoch: epoch, Best: best}
}

// startStaticWorkers brings up p fixed-list worker listeners, each running
// what cmd/mkpworker runs in -connect mode: wire.Accept then Slave.
func startStaticWorkers(t *testing.T, p int) []string {
	t.Helper()
	addrs := make([]string, p)
	for i := 0; i < p; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		addrs[i] = ln.Addr().String()
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			sess, hello, err := wire.Accept(conn, nil)
			if err != nil {
				return
			}
			Slave(sess, hello.Node, hello.Ins, hello.Seed)
		}()
	}
	return addrs
}

// joinElasticWorker dials the fleet and serves ElasticSlave on a goroutine,
// returning the session so a test can kill the connection abruptly.
func joinElasticWorker(t *testing.T, addr, name string, eopts ElasticOptions) *wire.Session {
	t.Helper()
	s, hello, err := wire.JoinFleet(addr, name, nil)
	if err != nil {
		t.Fatalf("%s: join: %v", name, err)
	}
	go func() {
		defer s.Close()
		ElasticSlave(s, hello.Node, hello.Ins, hello.Seed, eopts)
	}()
	return s
}

// TestElasticEquivalence extends TestCrossTransportEquivalence with the third
// substrate: a fleet that never churns, run on the elastic transport, must
// reach exactly the same best as the fixed-list wire run and the in-process
// run at the same seed. This is the acceptance criterion that gossip, steal
// and membership machinery are inert on a quiescent fleet.
func TestElasticEquivalence(t *testing.T) {
	ins := testInstance(60, 5, 404)
	base := Options{P: 4, Seed: 21, Rounds: 4, RoundMoves: 250}

	local, err := Solve(ins, CTS2, base)
	if err != nil {
		t.Fatal(err)
	}

	static := base
	static.Workers = startStaticWorkers(t, 4)
	static.SlaveTimeout = 20 * time.Second
	sres, err := Solve(ins, CTS2, static)
	if err != nil {
		t.Fatal(err)
	}

	elastic := base
	elastic.SlaveTimeout = 20 * time.Second
	elastic.Elastic = &ElasticConfig{Listen: "127.0.0.1:0", Min: 4, JoinGrace: 20 * time.Second}
	e, err := NewEngine(ins, CTS2, elastic)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 4; i++ {
		joinElasticWorker(t, e.FleetAddr(), fmt.Sprintf("w%d", i), ElasticOptions{})
	}
	eres, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}

	if sres.Best.Value != local.Best.Value || !sres.Best.X.Equal(local.Best.X) {
		t.Fatalf("static wire run found %.0f, in-process run found %.0f", sres.Best.Value, local.Best.Value)
	}
	if eres.Best.Value != local.Best.Value {
		t.Fatalf("elastic run found %.0f, in-process run found %.0f", eres.Best.Value, local.Best.Value)
	}
	if !eres.Best.X.Equal(local.Best.X) {
		t.Fatal("elastic and in-process runs found different best assignments")
	}
	if !mkp.IsFeasibleAssignment(ins, eres.Best.X) {
		t.Fatal("elastic run produced infeasible best")
	}
	if eres.Stats.Rounds != base.Rounds {
		t.Fatalf("elastic run ended after %d rounds, want %d", eres.Stats.Rounds, base.Rounds)
	}
	// A quiescent fleet has no membership churn: both churn ledgers stay zero.
	if eres.Stats.Joins != 0 || eres.Stats.Leaves != 0 || eres.Stats.DeadSlaves != 0 {
		t.Fatalf("quiescent fleet shows churn: joins=%d leaves=%d dead=%d",
			eres.Stats.Joins, eres.Stats.Leaves, eres.Stats.DeadSlaves)
	}
	if eres.Stats.Messages == 0 || eres.Stats.BytesSent == 0 {
		t.Fatalf("elastic run accounted no traffic: %+v", eres.Stats)
	}
}

// TestElasticChurn runs the deterministic chaos schedule of the satellite
// task: a fleet assembled below desired size, two late joiners backfilling, a
// graceful leaver on a round budget, and one member kill-9'd at the TCP level
// mid-run. The run must end with a verified solution no worse than the
// static-fleet run at the same seed, each departure in exactly one ledger,
// and no leaked goroutines or fds.
func TestElasticChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("churn run pays rendezvous deadline waits")
	}
	if runtime.GOOS != "linux" {
		t.Skip("fd accounting reads /proc")
	}
	goroutinesBefore := runtime.NumGoroutine()
	fdsBefore := countFDs(t)

	ins := testInstance(50, 5, 505)

	// The static-fleet baseline the elastic run must not fall below.
	static, err := Solve(ins, CTS2, Options{P: 4, Seed: 33, Rounds: 5, RoundMoves: 5000})
	if err != nil {
		t.Fatal(err)
	}

	// 5000 moves paces rounds at tens of milliseconds on one core, so the
	// wall-clock churn events below land a few rounds into the run.
	opts := Options{
		P: 4, Seed: 33, Rounds: 25, RoundMoves: 5000,
		SlaveTimeout: 2 * time.Second,
		Elastic:      &ElasticConfig{Listen: "127.0.0.1:0", Min: 2, JoinGrace: 20 * time.Second},
	}
	e, err := NewEngine(ins, CTS2, opts)
	if err != nil {
		t.Fatal(err)
	}
	addr := e.FleetAddr()

	// Initial cohort: two members. One serves throughout; one is killed at
	// the TCP level mid-run (a kill -9 as the master sees it).
	joinElasticWorker(t, addr, "steady", ElasticOptions{})
	victim := joinElasticWorker(t, addr, "victim", ElasticOptions{})
	// A graceful leaver: serves exactly 3 rounds, donates its best, leaves.
	joinElasticWorker(t, addr, "leaver", ElasticOptions{LeaveAfter: 3})
	// Two late joiners backfill toward the desired size while the run is on.
	for i, delay := range []time.Duration{60 * time.Millisecond, 160 * time.Millisecond} {
		name := fmt.Sprintf("late%d", i)
		go func() {
			time.Sleep(delay)
			s, hello, err := wire.JoinFleet(addr, name, nil)
			if err != nil {
				return // master may already be done; the run does not need us
			}
			defer s.Close()
			ElasticSlave(s, hello.Node, hello.Ins, hello.Seed, ElasticOptions{})
		}()
	}
	// The kill, mid-round.
	go func() {
		time.Sleep(120 * time.Millisecond)
		victim.Close()
	}()

	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	e.Close()

	// mkpverify's checks: feasibility and a self-consistent objective.
	if !mkp.IsFeasibleAssignment(ins, res.Best.X) {
		t.Fatal("churn run produced infeasible best")
	}
	if got := mkp.ValueOf(ins, res.Best.X); got != res.Best.Value {
		t.Fatalf("churn best reports %.0f but evaluates to %.0f", res.Best.Value, got)
	}
	if res.Best.Value < static.Best.Value {
		t.Fatalf("churn run found %.0f, static-fleet run found %.0f", res.Best.Value, static.Best.Value)
	}

	// Each departure lands in exactly one ledger: the leaver in Leaves, the
	// killed member in DeadSlaves — never both, never double.
	if res.Stats.Leaves != 1 {
		t.Fatalf("Leaves = %d, want 1 (the graceful leaver)", res.Stats.Leaves)
	}
	if res.Stats.DeadSlaves != 1 {
		t.Fatalf("DeadSlaves = %d, want 1 (the killed member)", res.Stats.DeadSlaves)
	}
	if res.Stats.Joins < 1 {
		t.Fatal("no late joiner was ever admitted")
	}
	// Every membership change bumped the fleet epoch at least once.
	if res.Stats.Epoch < uint64(res.Stats.Joins+res.Stats.Leaves) {
		t.Fatalf("epoch %d below churn count %d", res.Stats.Epoch, res.Stats.Joins+res.Stats.Leaves)
	}

	// Leak hygiene: all worker goroutines, reader goroutines and sockets gone.
	if !waitUntil(5*time.Second, func() bool { return runtime.NumGoroutine() <= goroutinesBefore }) {
		buf := make([]byte, 1<<16)
		n := runtime.Stack(buf, true)
		t.Fatalf("churn leaked goroutines: %d > %d\n%s", runtime.NumGoroutine(), goroutinesBefore, buf[:n])
	}
	if !waitUntil(5*time.Second, func() bool { return countFDs(t) <= fdsBefore }) {
		t.Fatalf("churn leaked fds: %d open, started with %d", countFDs(t), fdsBefore)
	}
}

// slowOrders holds up every round order from round `from` on: a member whose
// host has fallen behind, which the master sees as a slot that stays
// outstanding long after its peers have reported.
type slowOrders struct {
	*wire.Session
	from  int
	delay time.Duration
}

func (s slowOrders) Recv(node int) transport.Message {
	msg := s.Session.Recv(node)
	if start, ok := msg.Payload.(proto.Start); ok && start.Round >= s.from {
		time.Sleep(s.delay)
	}
	return msg
}

// TestElasticStealStraggler: on an elastic fleet of two, one member's orders
// are held up 600 ms from round 2 on. The other member, idle once its own
// round is in, is handed the straggler's slot after it has been outstanding
// for half the rendezvous deadline, so every round completes before the
// deadline and nobody is declared dead.
func TestElasticStealStraggler(t *testing.T) {
	ins := testInstance(60, 5, 404)
	opts := Options{
		P: 2, Seed: 21, Rounds: 6, RoundMoves: 200,
		SlaveTimeout: 3 * time.Second,
		Elastic:      &ElasticConfig{Listen: "127.0.0.1:0", Min: 2, JoinGrace: 20 * time.Second},
	}
	e, err := NewEngine(ins, CTS2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	joinElasticWorker(t, e.FleetAddr(), "honest", ElasticOptions{})
	s, hello, err := wire.JoinFleet(e.FleetAddr(), "straggler", nil)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		defer s.Close()
		ElasticSlave(slowOrders{Session: s, from: 2, delay: 600 * time.Millisecond},
			hello.Node, hello.Ins, hello.Seed, ElasticOptions{})
	}()

	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("steals=%d messages=%d", res.Stats.Steals, res.Stats.Messages)
	if res.Stats.Steals < 1 {
		t.Fatal("no straggler slot was stolen")
	}
	if res.Stats.Rounds != opts.Rounds {
		t.Fatalf("run ended after %d rounds, want %d", res.Stats.Rounds, opts.Rounds)
	}
	if res.Stats.DeadSlaves != 0 {
		t.Fatalf("DeadSlaves = %d, want 0: the thief should have beaten every deadline", res.Stats.DeadSlaves)
	}
	if !mkp.IsFeasibleAssignment(ins, res.Best.X) {
		t.Fatal("steal run produced infeasible best")
	}
	if got := mkp.ValueOf(ins, res.Best.X); got != res.Best.Value {
		t.Fatalf("steal run best reports %.0f but evaluates to %.0f", res.Best.Value, got)
	}
}

func countFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot enumerate fds: %v", err)
	}
	return len(ents)
}

func waitUntil(timeout time.Duration, ok func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if ok() {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return ok()
}

// TestAbsorbGossipEpochRegression pins the worker-side epoch rule: gossip
// stamped with an epoch below the highest already seen is stale — from before
// a membership change — and must be dropped, while equal or newer epochs
// advance the watermark and fold monotonically.
func TestAbsorbGossipEpochRegression(t *testing.T) {
	ins := testInstance(20, 3, 7)
	r := rng.New(1)
	low := mkp.RandomFeasible(ins, r)
	high := mkp.RandomFeasible(ins, r)
	if high.Value < low.Value {
		low, high = high, low
	}

	var epoch uint64
	var best mkp.Solution
	if !absorbGossip(&epoch, &best, protoGossip(3, low)) {
		t.Fatal("first gossip rejected")
	}
	if epoch != 3 || best.Value != low.Value {
		t.Fatalf("after first gossip: epoch=%d best=%.0f", epoch, best.Value)
	}
	// Regression: a higher-valued solution under an older epoch is stale.
	if absorbGossip(&epoch, &best, protoGossip(2, high)) {
		t.Fatal("epoch regression absorbed")
	}
	if epoch != 3 || best.Value != low.Value {
		t.Fatal("rejected gossip still mutated local state")
	}
	// Same epoch re-delivery is fine; the fold is monotone.
	if !absorbGossip(&epoch, &best, protoGossip(3, high)) {
		t.Fatal("same-epoch gossip rejected")
	}
	if best.Value != high.Value {
		t.Fatal("monotone fold failed")
	}
	// A WORSE solution under a newer epoch advances the watermark but never
	// degrades the incumbent.
	if !absorbGossip(&epoch, &best, protoGossip(9, low)) {
		t.Fatal("newer gossip rejected")
	}
	if epoch != 9 || best.Value != high.Value {
		t.Fatalf("after newer gossip: epoch=%d best=%.0f, want 9/%.0f", epoch, best.Value, high.Value)
	}
}

// TestElasticSeedPure: admission seeds are a pure function of (run seed,
// node id) so a replayed admission hands the same node the same stream.
func TestElasticSeedPure(t *testing.T) {
	if elasticSeed(42, 7) != elasticSeed(42, 7) {
		t.Fatal("elasticSeed not deterministic")
	}
	if elasticSeed(42, 7) == elasticSeed(42, 8) {
		t.Fatal("adjacent nodes share a seed")
	}
	if elasticSeed(42, 7) == elasticSeed(43, 7) {
		t.Fatal("different run seeds collide")
	}
}

// TestElasticOptionValidation pins the mutual exclusions of elastic mode at
// the NewEngine boundary.
func TestElasticOptionValidation(t *testing.T) {
	ins := testInstance(20, 2, 8)
	el := &ElasticConfig{Listen: "127.0.0.1:0"}
	cases := []struct {
		name string
		opts Options
	}{
		{"workers", Options{P: 1, Rounds: 1, Elastic: el, Workers: []string{"127.0.0.1:1"}}},
		{"faults", Options{P: 1, Rounds: 1, Elastic: el, Faults: &inproc.FaultPlan{Seed: 1}}},
		{"min>p", Options{P: 2, Rounds: 1, Elastic: &ElasticConfig{Listen: "127.0.0.1:0", Min: 3}}},
	}
	for _, tc := range cases {
		if _, err := NewEngine(ins, CTS2, tc.opts); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestElasticAssembleTimesOut: a fleet nobody joins fails the run with a
// named error instead of hanging forever.
func TestElasticAssembleTimesOut(t *testing.T) {
	ins := testInstance(20, 2, 9)
	e, err := NewEngine(ins, CTS2, Options{
		P: 2, Seed: 1, Rounds: 1, RoundMoves: 50,
		Elastic: &ElasticConfig{Listen: "127.0.0.1:0", Min: 2, JoinGrace: 200 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Run(); err == nil {
		t.Fatal("run succeeded with zero joined workers")
	}
}
