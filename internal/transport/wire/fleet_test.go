// Fleet membership tests: the elastic join handshake, the Leave-vs-crash
// classification the engine's ledgers depend on, and the resource hygiene of
// a fleet that churns. These sit in the internal package so they can pin the
// classification at the fleetConn level.
package wire

import (
	"net"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/mkp"
	"repro/internal/rng"
	"repro/internal/transport"
	"repro/internal/transport/proto"
)

func fleetInstance(n, m int, seed uint64) *mkp.Instance {
	r := rng.New(seed)
	ins := &mkp.Instance{
		Name:     "fleet",
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
		ins.Capacity[i] = 0.5 * total
	}
	return ins
}

func listenFleet(t *testing.T, ins *mkp.Instance, cfg FleetConfig) *Fleet {
	t.Helper()
	if cfg.SeedFor == nil {
		cfg.SeedFor = func(node int) uint64 { return uint64(node) * 1000 }
	}
	f, err := ListenFleet("127.0.0.1:0", ins, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func waitState(t *testing.T, f *Fleet, node int, want MemberState) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if f.MemberState(node) == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("node %d stuck in state %v, want %v", node, f.MemberState(node), want)
}

// TestFleetJoinHandshake: joiners get sequential node ids, their pure-function
// seeds, the instance, the current epoch and the live-membership view; the
// fleet queues them for the engine to claim in deterministic order.
func TestFleetJoinHandshake(t *testing.T) {
	ins := fleetInstance(20, 3, 1)
	f := listenFleet(t, ins, FleetConfig{})
	f.SetEpoch(7)

	s1, h1, err := JoinFleet(f.Addr(), "alpha", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	if h1.Node != 1 || h1.Seed != 1000 || h1.Epoch != 7 {
		t.Fatalf("first hello = node %d seed %d epoch %d, want 1/1000/7", h1.Node, h1.Seed, h1.Epoch)
	}
	if len(h1.Members) != 0 {
		t.Fatalf("first joiner saw members %v, want none", h1.Members)
	}
	if h1.Ins.N != ins.N || h1.Ins.M != ins.M {
		t.Fatalf("hello instance is %dx%d, want %dx%d", h1.Ins.N, h1.Ins.M, ins.N, ins.M)
	}
	// Registration completes when the fleet reads the Ready frame, which races
	// the joiner's return; the membership view is a snapshot of *registered*
	// members, so settle node 1 before asserting on node 2's view.
	waitState(t, f, 1, MemberLive)

	s2, h2, err := JoinFleet(f.Addr(), "beta", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if h2.Node != 2 || h2.Seed != 2000 {
		t.Fatalf("second hello = node %d seed %d, want 2/2000", h2.Node, h2.Seed)
	}
	if len(h2.Members) != 1 || h2.Members[0] != 1 {
		t.Fatalf("second joiner saw members %v, want [1]", h2.Members)
	}

	if !f.WaitJoins(nil, 2, time.Second) {
		t.Fatal("WaitJoins never saw 2 live members")
	}
	joins := f.TakeJoins()
	if len(joins) != 2 || joins[0] != 1 || joins[1] != 2 {
		t.Fatalf("TakeJoins = %v, want [1 2]", joins)
	}
	if again := f.TakeJoins(); len(again) != 0 {
		t.Fatalf("second TakeJoins = %v, want empty", again)
	}
	if f.MemberName(1) != "alpha" || f.MemberName(2) != "beta" {
		t.Fatalf("member names = %q, %q", f.MemberName(1), f.MemberName(2))
	}
}

// TestFleetLeaveVsCrashClassification is the satellite fix pinned as a test:
// a member that announces a Leave before its connection drops is MemberLeft
// (never MemberDead), while an unannounced disconnect is MemberDead.
// This is what keeps one departure out of two ledgers.
func TestFleetLeaveVsCrashClassification(t *testing.T) {
	ins := fleetInstance(20, 3, 2)
	f := listenFleet(t, ins, FleetConfig{})

	leaver, _, err := JoinFleet(f.Addr(), "leaver", nil)
	if err != nil {
		t.Fatal(err)
	}
	crasher, _, err := JoinFleet(f.Addr(), "crasher", nil)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, f, 1, MemberLive)
	waitState(t, f, 2, MemberLive)

	// Graceful departure: Leave frame, then teardown.
	if err := leaver.SendControl(1, 0, proto.TagLeave, proto.Leave{Node: 1, Reason: "test"}, 0); err != nil {
		t.Fatal(err)
	}
	leaver.Close()
	waitState(t, f, 1, MemberLeft)
	if f.MemberState(1) == MemberDead {
		t.Fatal("graceful leaver reported as crashed")
	}

	// Crash: the connection just dies.
	crasher.Close()
	waitState(t, f, 2, MemberDead)
	if f.MemberState(2) != MemberDead {
		t.Fatal("unannounced disconnect not reported as crashed")
	}

	if live := f.LiveNodes(); len(live) != 0 {
		t.Fatalf("live nodes after both departures: %v", live)
	}

	// A send to either departed member is swallowed and counted dropped.
	before := f.Stats().Dropped
	f.Send(0, 1, proto.TagStop, nil, 0)
	f.Send(0, 2, proto.TagStop, nil, 0)
	if got := f.Stats().Dropped; got != before+2 {
		t.Fatalf("sends to departed members dropped %d, want %d", got-before, 2)
	}
}

// TestFleetLeaveArrivesInInbox: the Leave frame is classified AND forwarded,
// so the collector can retire the member mid-rendezvous.
func TestFleetLeaveArrivesInInbox(t *testing.T) {
	ins := fleetInstance(20, 3, 3)
	f := listenFleet(t, ins, FleetConfig{})
	s, h, err := JoinFleet(f.Addr(), "w", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Drain the initial heartbeat, then the Leave must come through typed.
	if err := s.SendControl(h.Node, 0, proto.TagLeave, proto.Leave{Node: h.Node, Reason: "budget"}, 0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		msg, ok := f.RecvTimeout(0, time.Until(deadline))
		if !ok {
			t.Fatal("leave frame never reached the inbox")
		}
		if msg.Tag != proto.TagLeave {
			continue
		}
		leave := msg.Payload.(proto.Leave)
		if leave.Node != h.Node || leave.Reason != "budget" {
			t.Fatalf("leave = %+v", leave)
		}
		return
	}
}

// TestFleetMaxNodesCap: a fleet never assigns ids past its cap; the excess
// joiner's handshake fails instead of wedging.
func TestFleetMaxNodesCap(t *testing.T) {
	ins := fleetInstance(20, 3, 4)
	f := listenFleet(t, ins, FleetConfig{MaxNodes: 1})

	s1, _, err := JoinFleet(f.Addr(), "only", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	if _, _, err := JoinFleet(f.Addr(), "excess", nil, WithDialTimeout(time.Second)); err == nil {
		t.Fatal("joiner beyond MaxNodes admitted")
	}
	if got := f.MemberState(2); got != MemberUnknown { // only node 1 was assigned
		t.Fatalf("node 2 is %v, want unknown", got)
	}
}

// TestFleetGossipBroadcastFanout: Broadcast reaches every live member and
// skips departed ones.
func TestFleetGossipBroadcastFanout(t *testing.T) {
	ins := fleetInstance(16, 2, 5)
	f := listenFleet(t, ins, FleetConfig{})
	s1, _, err := JoinFleet(f.Addr(), "a", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	s2, _, err := JoinFleet(f.Addr(), "b", nil)
	if err != nil {
		t.Fatal(err)
	}
	s2.Close()
	waitState(t, f, 2, MemberDead)

	x := mkp.RandomFeasible(ins, rng.New(9))
	g := proto.Gossip{Epoch: 3, Best: x}
	if sent := f.Broadcast(proto.TagGossip, g, proto.SolutionSize(ins.N)); sent != 1 {
		t.Fatalf("broadcast fanout %d, want 1 (one live member)", sent)
	}
	got1 := make(chan transport.Message, 1)
	go func() { got1 <- s1.Recv(1) }()
	var msg transport.Message
	select {
	case msg = <-got1:
	case <-time.After(5 * time.Second):
		t.Fatal("live member never received the gossip")
	}
	if msg.Tag != proto.TagGossip {
		t.Fatalf("member received %q, want gossip", msg.Tag)
	}
	got := msg.Payload.(proto.Gossip)
	if got.Epoch != 3 || got.Best.Value != x.Value || !got.Best.X.Equal(x.X) {
		t.Fatalf("gossip mutated in flight: %+v", got)
	}
}

// TestFleetCloseHygiene: Close returns promptly and, after it, every reader
// goroutine and socket is gone, even with members still connected and one
// dialer connected but silent (a port scan, a stalled link), whose handshake
// Close must cut short instead of waiting out joinHandshakeTimeout.
func TestFleetCloseHygiene(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("fd accounting reads /proc")
	}
	goroutinesBefore := runtime.NumGoroutine()
	fdsBefore := countFleetFDs(t)

	ins := fleetInstance(16, 2, 6)
	f, err := ListenFleet("127.0.0.1:0", ins, FleetConfig{SeedFor: func(int) uint64 { return 1 }}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The silent dialer connects first; the accept loop takes connections in
	// order, so once the joiners below are members its handshake is running.
	silent, err := net.Dial("tcp", f.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	var sessions []*Session
	for i := 0; i < 3; i++ {
		s, h, err := JoinFleet(f.Addr(), "w", nil)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, f, h.Node, MemberLive)
		sessions = append(sessions, s)
	}
	began := time.Now()
	f.Close()
	if took := time.Since(began); took > time.Second {
		t.Fatalf("Close took %v with a silent dialer connected", took)
	}
	silent.Close()
	for _, s := range sessions {
		s.Close()
	}

	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > goroutinesBefore {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > goroutinesBefore {
		buf := make([]byte, 1<<16)
		n := runtime.Stack(buf, true)
		t.Fatalf("fleet leaked goroutines: %d > %d\n%s", got, goroutinesBefore, buf[:n])
	}
	for time.Now().Before(deadline) && countFleetFDs(t) > fdsBefore {
		time.Sleep(10 * time.Millisecond)
	}
	if got := countFleetFDs(t); got > fdsBefore {
		t.Fatalf("fleet leaked fds: %d open, started with %d", got, fdsBefore)
	}
}

func countFleetFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot enumerate fds: %v", err)
	}
	return len(ents)
}
