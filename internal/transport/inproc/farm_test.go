package inproc

import (
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
)

func TestSendRecv(t *testing.T) {
	f := New(3)
	if err := f.Send(0, 2, "hello", 42, 8); err != nil {
		t.Fatal(err)
	}
	m := f.Recv(2)
	if m.From != 0 || m.To != 2 || m.Tag != "hello" || m.Payload.(int) != 42 || m.Size != 8 {
		t.Fatalf("got %+v", m)
	}
}

func TestSendBadEndpoints(t *testing.T) {
	f := New(2)
	for _, pair := range [][2]int{{-1, 0}, {0, -1}, {2, 0}, {0, 2}} {
		if err := f.Send(pair[0], pair[1], "x", nil, 0); err == nil {
			t.Fatalf("Send(%d,%d) accepted", pair[0], pair[1])
		}
	}
}

func TestNewPanicsOnZeroNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

func TestDrain(t *testing.T) {
	f := New(2)
	for i := 0; i < 5; i++ {
		if err := f.Send(0, 1, "d", i, 1); err != nil {
			t.Fatal(err)
		}
	}
	if n := f.drain(1); n != 5 {
		t.Fatalf("drain = %d, want 5", n)
	}
	if _, ok := f.boxes[1].pop(); ok {
		t.Fatal("mailbox not empty after drain")
	}
}

func TestFIFOPerLink(t *testing.T) {
	f := New(2)
	for i := 0; i < 10; i++ {
		if err := f.Send(0, 1, "seq", i, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if got := f.Recv(1).Payload.(int); got != i {
			t.Fatalf("message %d arrived as %d", i, got)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	f := New(3)
	f.Send(0, 1, "a", nil, 10)
	f.Send(0, 1, "b", nil, 20)
	f.Send(2, 1, "c", nil, 5)
	f.Send(1, 0, "d", nil, 1)
	s := f.Stats()
	if s.Messages != 4 {
		t.Fatalf("Messages = %d, want 4", s.Messages)
	}
	if s.Bytes != 36 {
		t.Fatalf("Bytes = %d, want 36", s.Bytes)
	}
}

func TestConcurrentSendersAllDelivered(t *testing.T) {
	f := New(5)
	const perSender = 200
	var wg sync.WaitGroup
	for from := 1; from < 5; from++ {
		wg.Add(1)
		go func(from int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if err := f.Send(from, 0, "w", i, 4); err != nil {
					t.Error(err)
					return
				}
			}
		}(from)
	}
	received := 0
	for received < 4*perSender {
		f.Recv(0)
		received++
	}
	wg.Wait()
	if s := f.Stats(); s.Messages != 4*perSender {
		t.Fatalf("Messages = %d, want %d", s.Messages, 4*perSender)
	}
}

func TestFaultDropRateDeterministic(t *testing.T) {
	const sends = 500
	deliver := func() (int64, int64) {
		f := New(2, WithFaults(&FaultPlan{Seed: 7, DropRate: 0.3}))
		for i := 0; i < sends; i++ {
			if err := f.Send(0, 1, "d", i, 1); err != nil {
				t.Fatal(err)
			}
		}
		s := f.Stats()
		return s.Messages, s.Dropped
	}
	m1, d1 := deliver()
	m2, d2 := deliver()
	if m1 != m2 || d1 != d2 {
		t.Fatalf("same plan diverged: %d/%d vs %d/%d", m1, d1, m2, d2)
	}
	if d1 == 0 || m1 == 0 || m1+d1 != sends {
		t.Fatalf("implausible drop split: delivered=%d dropped=%d", m1, d1)
	}
	// 30% of 500 with a healthy stream: nowhere near all-or-nothing.
	if d1 < 100 || d1 > 220 {
		t.Fatalf("drop count %d far from 30%% of %d", d1, sends)
	}
}

func TestFaultDuplication(t *testing.T) {
	f := New(2, WithFaults(&FaultPlan{Seed: 3, DupRate: 0.5}))
	const sends = 200
	for i := 0; i < sends; i++ {
		if err := f.Send(0, 1, "d", i, 1); err != nil {
			t.Fatal(err)
		}
	}
	s := f.Stats()
	if s.Messages <= sends {
		t.Fatalf("Messages %d, want more than the %d sends at a 50%% duplication rate", s.Messages, sends)
	}
	if got := int64(f.drain(1)); got != s.Messages {
		t.Fatalf("drained %d, accounted %d", got, s.Messages)
	}
}

func TestFaultCrashAfterK(t *testing.T) {
	f := New(2, WithFaults(&FaultPlan{Seed: 1, CrashAt: map[int]int64{0: 3}}))
	for i := 0; i < 10; i++ {
		if err := f.Send(0, 1, "c", i, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.drain(1); got != 3 {
		t.Fatalf("crashed node delivered %d messages, want 3", got)
	}
	if s := f.Stats(); s.Dropped != 7 {
		t.Fatalf("Dropped = %d, want 7", s.Dropped)
	}
	// The healthy node is unaffected.
	if err := f.Send(1, 0, "ok", nil, 1); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.boxes[0].pop(); !ok {
		t.Fatal("healthy node's send swallowed")
	}
}

func TestSendControlBypassesFaults(t *testing.T) {
	f := New(2, WithFaults(&FaultPlan{Seed: 1, DropRate: 1, CrashAt: map[int]int64{0: 0}}))
	if err := f.Send(0, 1, "doomed", nil, 1); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.boxes[1].pop(); ok {
		t.Fatal("DropRate 1 delivered a data message")
	}
	if err := f.SendControl(0, 1, "stop", nil, 0); err != nil {
		t.Fatal(err)
	}
	if m, ok := f.boxes[1].pop(); !ok || m.Tag != "stop" {
		t.Fatal("control message swallowed by the injector")
	}
}

func TestWithFaultsPanicsOnBadPlan(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid plan accepted")
		}
	}()
	New(2, WithFaults(&FaultPlan{DropRate: 1.5}))
}

func TestMailboxBound(t *testing.T) {
	b := newMailbox(1)
	b.put(transport.Message{Tag: "a"})
	done := make(chan struct{})
	go func() {
		b.put(transport.Message{Tag: "b"}) // blocks until the first is consumed
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("second put did not block on a full size-1 mailbox")
	case <-time.After(20 * time.Millisecond):
	}
	if m, ok := b.pop(); !ok || m.Tag != "a" {
		t.Fatalf("pop = %+v, %v", m, ok)
	}
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("put never unblocked")
	}
}

func TestCrashedReflectsSendBudget(t *testing.T) {
	f := New(3, WithFaults(&FaultPlan{Seed: 1, CrashAt: map[int]int64{1: 2}}))
	if f.Crashed(1) {
		t.Fatal("node crashed before spending its budget")
	}
	for i := 0; i < 2; i++ {
		if err := f.Send(1, 0, "x", nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	if !f.Crashed(1) {
		t.Fatal("node not crashed after spending its budget")
	}
	if f.Crashed(0) || f.Crashed(2) || f.Crashed(-1) || f.Crashed(99) {
		t.Fatal("crash state leaked to other or out-of-range nodes")
	}
	// Without a fault plan nothing ever crashes.
	if New(2).Crashed(0) {
		t.Fatal("fault-free farm reports a crash")
	}
}

func TestReviveClearsCrashAndDrainsMailbox(t *testing.T) {
	f := New(3, WithFaults(&FaultPlan{Seed: 1, CrashAt: map[int]int64{1: 0}}))
	// Node 1 is fail-silent from its first send.
	if err := f.Send(1, 0, "lost", nil, 0); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.boxes[0].pop(); ok {
		t.Fatal("crashed node's send was delivered")
	}
	// Two stale orders queue at the dead node.
	_ = f.Send(0, 1, "stale", nil, 0)
	_ = f.Send(0, 1, "stale", nil, 0)

	if n := f.Revive(1); n != 2 {
		t.Fatalf("Revive drained %d messages, want 2", n)
	}
	if f.Crashed(1) {
		t.Fatal("node still crashed after Revive")
	}
	// The revived node's sends flow again, and the caller's plan is intact.
	if err := f.Send(1, 0, "alive", nil, 0); err != nil {
		t.Fatal(err)
	}
	if m, ok := f.boxes[0].pop(); !ok || m.Tag != "alive" {
		t.Fatalf("revived node's send not delivered: %+v ok=%v", m, ok)
	}
	if f.faults.CrashAt[1] != 0 {
		t.Fatal("Revive mutated the caller's FaultPlan")
	}
}

func TestRevivePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Revive(-1) did not panic")
		}
	}()
	New(2).Revive(-1)
}

// masterWait starts node 0's RecvTimeout with d = 1 h, so within a test only
// the quiescence rule can end it empty-handed: a return because d elapsed
// would hang the test instead of passing it.
func masterWait(f *Farm) <-chan bool {
	ch := make(chan bool, 1)
	go func() {
		_, ok := f.RecvTimeout(time.Hour)
		ch <- ok
	}()
	return ch
}

func mustBlock(t *testing.T, ch <-chan bool, what string) {
	t.Helper()
	select {
	case ok := <-ch:
		t.Fatalf("%s: RecvTimeout(0) returned ok=%v", what, ok)
	case <-time.After(50 * time.Millisecond):
	}
}

func mustReturn(t *testing.T, ch <-chan bool, want bool, what string) {
	t.Helper()
	select {
	case ok := <-ch:
		if ok != want {
			t.Fatalf("%s: RecvTimeout(0) ok=%v, want %v", what, ok, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: RecvTimeout(0) still blocked", what)
	}
}

// slaveRecv runs one Recv for node on a goroutine and hands back the message.
func slaveRecv(f *Farm, node int) <-chan transport.Message {
	ch := make(chan transport.Message, 1)
	go func() { ch <- f.Recv(node) }()
	return ch
}

func TestQuiescenceIdleFarm(t *testing.T) {
	mustReturn(t, masterWait(New(3)), false, "idle farm")
}

// TestQuiescenceHeldAndQueued: the master's wait outlasts a queued order and
// a slave working on one, delivers the reply, and ends once the slave is
// back in Recv.
func TestQuiescenceHeldAndQueued(t *testing.T) {
	f := New(2)
	defer f.SendControl(0, 1, "stop", nil, 0)
	f.Send(0, 1, "order", nil, 1)
	wait := masterWait(f)
	mustBlock(t, wait, "order queued for a slave")
	if m := <-slaveRecv(f, 1); m.Tag != "order" {
		t.Fatalf("slave took %+v", m)
	}
	mustBlock(t, wait, "slave holds the order")
	f.Send(1, 0, "reply", nil, 1)
	mustReturn(t, wait, true, "reply sent")
	wait = masterWait(f)
	mustBlock(t, wait, "slave still holds the order after replying")
	slaveRecv(f, 1)
	mustReturn(t, wait, false, "slave back in Recv")
}

// TestQuiescenceDrainedOrder: an order queued for a slave that never takes it
// keeps the master waiting, however long that takes, until drain discards it.
func TestQuiescenceDrainedOrder(t *testing.T) {
	f := New(2)
	f.Send(0, 1, "order", nil, 1)
	wait := masterWait(f)
	mustBlock(t, wait, "order queued, never taken")
	if n := f.drain(1); n != 1 {
		t.Fatalf("drain = %d, want 1", n)
	}
	mustReturn(t, wait, false, "order drained")
}

// TestQuiescenceSwallowedReply: a reply lost to a drop or a crashed sender
// never arrives, and the wait ends as soon as the slave is back in Recv.
func TestQuiescenceSwallowedReply(t *testing.T) {
	for name, plan := range map[string]*FaultPlan{
		"dropped": {Seed: 1, DropRate: 1},
		"crashed": {Seed: 1, CrashAt: map[int]int64{1: 0}},
	} {
		t.Run(name, func(t *testing.T) {
			f := New(2, WithFaults(plan))
			defer f.SendControl(0, 1, "stop", nil, 0)
			f.SendControl(0, 1, "order", nil, 1) // the order itself must get through
			<-slaveRecv(f, 1)
			wait := masterWait(f)
			mustBlock(t, wait, "slave holds the order")
			f.Send(1, 0, "reply", nil, 1)
			mustBlock(t, wait, "reply swallowed, slave not yet back")
			slaveRecv(f, 1)
			mustReturn(t, wait, false, "slave back in Recv")
			if s := f.Stats(); s.Dropped != 1 {
				t.Fatalf("Dropped = %d, want 1", s.Dropped)
			}
		})
	}
}

// TestQuiescenceStoppedUntilRevive: a slave that took a stop order and exited
// never returns to Recv, so it counts as busy until Revive replaces it.
func TestQuiescenceStoppedUntilRevive(t *testing.T) {
	f := New(3)
	f.SendControl(0, 2, "stop", nil, 0)
	<-slaveRecv(f, 2) // the incarnation exits without receiving again
	wait := masterWait(f)
	mustBlock(t, wait, "stopped node not revived")
	f.Revive(2)
	mustReturn(t, wait, false, "stopped node revived")
}
