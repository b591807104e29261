// Cross-transport acceptance tests: the same seeded search must reach the
// same answer whether the slaves are goroutines on the in-process substrate
// or separate sessions over real TCP sockets. These live in an external test
// package because they drive the full core engine, which itself links the
// wire transport.
package wire_test

import (
	"net"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mkp"
	"repro/internal/rng"
	"repro/internal/tabu"
	"repro/internal/transport/wire"
)

func wireInstance(n, m int, seed uint64) *mkp.Instance {
	r := rng.New(seed)
	ins := &mkp.Instance{
		Name:     "wire",
		N:        n,
		M:        m,
		Profit:   make([]float64, n),
		Weight:   make([][]float64, m),
		Capacity: make([]float64, m),
	}
	for j := 0; j < n; j++ {
		ins.Profit[j] = float64(r.IntRange(1, 100))
	}
	for i := 0; i < m; i++ {
		ins.Weight[i] = make([]float64, n)
		total := 0.0
		for j := 0; j < n; j++ {
			ins.Weight[i][j] = float64(r.IntRange(1, 50))
			total += ins.Weight[i][j]
		}
		ins.Capacity[i] = 0.35 * total
		if ins.Capacity[i] < 1 {
			ins.Capacity[i] = 1
		}
	}
	return ins
}

// startWorkers brings up p in-process worker listeners on ephemeral localhost
// ports, each running exactly what cmd/mkpworker runs per connection:
// wire.Accept then core.Slave. Returns their addresses; cleanup closes the
// listeners (serving goroutines exit when the master's shutdown stops the
// slave loops and the connections drop).
func startWorkers(t *testing.T, p int) []string {
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
			core.Slave(sess, hello.Node, hello.Ins, hello.Seed)
		}()
	}
	return addrs
}

// TestCrossTransportEquivalence is the acceptance criterion for the wire
// transport: a seeded P=4 CTS2 run over TCP worker sessions must reach
// exactly the in-process run's final best. The master's decisions are a pure
// function of the per-slot results, so moving the slaves across a process
// boundary may change timing but never the answer.
func TestCrossTransportEquivalence(t *testing.T) {
	ins := wireInstance(60, 5, 404)
	base := core.Options{P: 4, Seed: 21, Rounds: 4, RoundMoves: 250}

	local, err := core.Solve(ins, core.CTS2, base)
	if err != nil {
		t.Fatal(err)
	}

	remote := base
	remote.Workers = startWorkers(t, 4)
	remote.SlaveTimeout = 20 * time.Second // generous: a healthy fleet never hits it
	res, err := core.Solve(ins, core.CTS2, remote)
	if err != nil {
		t.Fatal(err)
	}

	if res.Best.Value != local.Best.Value {
		t.Fatalf("wire run found %.0f, in-process run found %.0f", res.Best.Value, local.Best.Value)
	}
	if !res.Best.X.Equal(local.Best.X) {
		t.Fatal("wire and in-process runs found different best assignments")
	}
	if !mkp.IsFeasibleAssignment(ins, res.Best.X) {
		t.Fatal("wire run produced infeasible best")
	}
	if res.Stats.Rounds != base.Rounds {
		t.Fatalf("wire run ended after %d rounds, want %d", res.Stats.Rounds, base.Rounds)
	}
	if res.Stats.Messages == 0 || res.Stats.BytesSent == 0 {
		t.Fatalf("wire run accounted no traffic: %+v", res.Stats)
	}
	// Exact traffic of this seeded run: 4 opening heartbeats, 16 starts and
	// 16 results, counted once each at the master's send or read.
	if res.Stats.Messages != 36 || res.Stats.BytesSent != 5984 {
		t.Fatalf("wire run accounted %d messages / %d payload bytes, want 36 / 5984",
			res.Stats.Messages, res.Stats.BytesSent)
	}
}

// TestCrossTransportPortfolioEquivalence extends the equivalence contract to
// the hyper-heuristic portfolio: the per-round algorithm id travels inside
// the strategy frame (wire version 3), so a mixed-portfolio run over TCP
// must replay the in-process run bitwise — and an all-tabu portfolio over
// the wire must replay the no-portfolio wire run bitwise (the inert
// contract, across the process boundary).
func TestCrossTransportPortfolioEquivalence(t *testing.T) {
	ins := wireInstance(60, 5, 404)
	base := core.Options{P: 4, Seed: 21, Rounds: 4, RoundMoves: 250}

	plain, err := core.Solve(ins, core.CTS2, base)
	if err != nil {
		t.Fatal(err)
	}

	inert := base
	inert.Portfolio = []tabu.AlgoID{tabu.AlgoTabu}
	inert.Workers = startWorkers(t, 4)
	inert.SlaveTimeout = 20 * time.Second
	res, err := core.Solve(ins, core.CTS2, inert)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Value != plain.Best.Value || !res.Best.X.Equal(plain.Best.X) {
		t.Fatalf("all-tabu wire run found %.0f, plain in-process run found %.0f", res.Best.Value, plain.Best.Value)
	}
	if res.Stats.TotalMoves != plain.Stats.TotalMoves {
		t.Fatalf("all-tabu wire run moves %d, plain %d", res.Stats.TotalMoves, plain.Stats.TotalMoves)
	}

	mixed := base
	mixed.Portfolio = []tabu.AlgoID{tabu.AlgoTabu, tabu.AlgoRepair, tabu.AlgoAssim}
	local, err := core.Solve(ins, core.CTS2, mixed)
	if err != nil {
		t.Fatal(err)
	}
	remote := mixed
	remote.Workers = startWorkers(t, 4)
	remote.SlaveTimeout = 20 * time.Second
	wres, err := core.Solve(ins, core.CTS2, remote)
	if err != nil {
		t.Fatal(err)
	}
	if wres.Best.Value != local.Best.Value || !wres.Best.X.Equal(local.Best.X) {
		t.Fatalf("mixed wire run found %.0f, in-process found %.0f", wres.Best.Value, local.Best.Value)
	}
	if wres.Stats.TotalMoves != local.Stats.TotalMoves {
		t.Fatalf("mixed wire run moves %d, in-process %d", wres.Stats.TotalMoves, local.Stats.TotalMoves)
	}
	for _, name := range []string{"tabu", "repair", "assim"} {
		if wres.Stats.AlgoRounds[name] != local.Stats.AlgoRounds[name] {
			t.Fatalf("%s accounted %d rounds over the wire, %d in-process",
				name, wres.Stats.AlgoRounds[name], local.Stats.AlgoRounds[name])
		}
	}
	if !mkp.IsFeasibleAssignment(ins, wres.Best.X) {
		t.Fatal("mixed wire run produced infeasible best")
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

// waitFor polls until ok() holds or the deadline passes.
func waitFor(timeout time.Duration, ok func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if ok() {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return ok()
}

// TestWireLeakHygiene pins the resource contract of connect/run/shutdown:
// after a wire-mode run completes, every reader goroutine and every socket fd
// must be gone.
func TestWireLeakHygiene(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("fd accounting reads /proc")
	}
	goroutinesBefore := runtime.NumGoroutine()
	fdsBefore := countFDs(t)

	ins := wireInstance(40, 4, 405)
	opts := core.Options{P: 2, Seed: 3, Rounds: 2, RoundMoves: 150}
	opts.Workers = startWorkers(t, 2)
	if _, err := core.Solve(ins, core.CTS2, opts); err != nil {
		t.Fatal(err)
	}

	if !waitFor(3*time.Second, func() bool { return runtime.NumGoroutine() <= goroutinesBefore }) {
		buf := make([]byte, 1<<16)
		n := runtime.Stack(buf, true)
		t.Fatalf("goroutines leaked: %d > %d\n%s", runtime.NumGoroutine(), goroutinesBefore, buf[:n])
	}
	// The listeners closed by t.Cleanup are still open here; allow for them.
	if !waitFor(3*time.Second, func() bool { return countFDs(t) <= fdsBefore+2 }) {
		t.Fatalf("fds leaked: %d open, started with %d (+2 live listeners allowed)", countFDs(t), fdsBefore)
	}
}

// TestDialFailsCleanly: dialing a vanished worker must fail with a named
// address and leak nothing, not hang for the whole run.
func TestDialFailsCleanly(t *testing.T) {
	// Grab a port and close it so nothing listens there.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	before := runtime.NumGoroutine()
	ins := wireInstance(30, 3, 406)
	opts := core.Options{P: 1, Seed: 1, Rounds: 1, RoundMoves: 50, Workers: []string{addr}}
	if _, err := core.Solve(ins, core.CTS2, opts); err == nil {
		t.Fatal("solve succeeded with no worker listening")
	}
	if !waitFor(3*time.Second, func() bool { return runtime.NumGoroutine() <= before }) {
		t.Fatalf("failed dial leaked goroutines: %d > %d", runtime.NumGoroutine(), before)
	}
}

// TestDeadWorkerRedispatch kills one of four workers at the TCP level right
// after the handshake — exactly what a kill -9 looks like from the master's
// side (the kernel resets the connection; the master sees silence, then
// dropped sends). The rendezvous must not wedge: the dead slot's rounds are
// redispatched to live workers, the node is eventually declared dead, and
// the run completes with a valid best.
func TestDeadWorkerRedispatch(t *testing.T) {
	if testing.Short() {
		t.Skip("dead-worker run pays rendezvous deadline waits")
	}
	const p = 4
	addrs := startWorkers(t, p-1)

	// The fourth "worker" completes the handshake and drops dead.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		if _, _, err := wire.Accept(conn, nil); err == nil {
			conn.Close() // dies before serving a single round
		}
	}()
	addrs = append(addrs, ln.Addr().String())

	ins := wireInstance(50, 4, 407)
	res, err := core.Solve(ins, core.CTS2, core.Options{
		P: p, Seed: 13, Rounds: 5, RoundMoves: 200,
		Workers:      addrs,
		SlaveTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DeadSlaves < 1 {
		t.Fatalf("killed worker never declared dead: %+v", res.Stats)
	}
	if res.Stats.Redispatches == 0 && res.Stats.SlaveFailures == 0 {
		t.Fatalf("no recovery activity despite a dead worker: %+v", res.Stats)
	}
	if res.Stats.Rounds != 5 {
		t.Fatalf("run wedged: ended after %d rounds, want 5", res.Stats.Rounds)
	}
	if !mkp.IsFeasibleAssignment(ins, res.Best.X) || res.Best.Value != mkp.ValueOf(ins, res.Best.X) {
		t.Fatal("degraded wire run produced an invalid best")
	}
}

// TestWorkersOptionValidation pins the arity check of wire mode at the Solve
// boundary.
func TestWorkersOptionValidation(t *testing.T) {
	ins := wireInstance(20, 2, 408)
	if _, err := core.Solve(ins, core.CTS2, core.Options{
		P: 2, Seed: 1, Rounds: 1, Workers: []string{"127.0.0.1:1"},
	}); err == nil {
		t.Fatal("P != len(Workers) accepted")
	}
}

// TestSessionStopOnMasterVanish: a worker whose master disappears mid-wait
// must observe the synthetic silent stop and exit its slave loop instead of
// blocking forever.
func TestSessionStopOnMasterVanish(t *testing.T) {
	ins := wireInstance(20, 2, 409)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	exited := make(chan struct{})
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
		core.Slave(sess, hello.Node, hello.Ins, hello.Seed)
		close(exited)
	}()

	cfg := wire.FleetConfig{SeedFor: func(int) uint64 { return 7 }}
	nw, err := wire.Dial([]string{ln.Addr().String()}, ins, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	nw.Close() // master vanishes without sending a stop

	select {
	case <-exited:
	case <-time.After(5 * time.Second):
		t.Fatal("slave loop did not exit after the master vanished")
	}
}
