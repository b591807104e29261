// Hardening pins: injected corruption classifies as a frame-integrity error
// (never silent data), quarantine eviction tears a member down through the
// leave ledger, and a join canceled mid-handshake releases its socket.
package wire

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/transport/chaosnet"
	"repro/internal/transport/proto"
)

func hardeningPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			accepted <- nil
			return
		}
		accepted <- c
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	s := <-accepted
	ln.Close()
	if s == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { c.Close(); s.Close() })
	return c, s
}

// TestCorruptedFrameIsHardError: a frame crossing a corrupting chaos link must
// be rejected by the codec as a frame-integrity error — the class counted on
// wire_frame_errors_total — never delivered as silently corrupted data. The
// payload dwarfs the header so the seeded single-byte flip lands under the
// CRC, making the classification deterministic.
func TestCorruptedFrameIsHardError(t *testing.T) {
	ch, err := chaosnet.New(chaosnet.Plan{Seed: 3, CorruptRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, b := hardeningPair(t)
	wa := ch.Wrap(a)
	payload := bytes.Repeat([]byte{0x5A}, 4096)
	if err := writeFrame(wa, kindResult, 1, 0, payload); err != nil {
		t.Fatalf("write through chaos: %v", err)
	}
	b.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, _, _, got, err := readFrame(bufio.NewReader(b))
	if err == nil {
		t.Fatalf("corrupted frame decoded cleanly (payload equal: %v)", bytes.Equal(got, payload))
	}
	if !isFrameError(err) {
		t.Fatalf("corruption surfaced as %v, want a frame-integrity error", err)
	}
	if c := ch.Counters(); c.Corrupts != 1 {
		t.Fatalf("corrupts counter = %d, want 1", c.Corrupts)
	}
}

// TestFleetEvict: eviction moves a live member to MemberLeft — the leave
// ledger, so the engine never also counts the teardown as a crash — and kills
// the connection, which the worker sees as the synthetic stop. A second evict
// of the same node reports false.
func TestFleetEvict(t *testing.T) {
	ins := fleetInstance(20, 3, 5)
	f := listenFleet(t, ins, FleetConfig{})

	s, h, err := JoinFleet(f.Addr(), "offender", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	waitState(t, f, h.Node, MemberLive)

	if !f.Evict(h.Node) {
		t.Fatal("evicting a live member reported false")
	}
	if got := f.MemberState(h.Node); got != MemberLeft {
		t.Fatalf("evicted member state = %v, want MemberLeft", got)
	}
	if f.Evict(h.Node) {
		t.Fatal("second evict of the same node reported true")
	}
	if f.Evict(99) {
		t.Fatal("evicting an unknown node reported true")
	}
	msg := s.Recv(h.Node)
	if msg.Tag != proto.TagStop {
		t.Fatalf("evicted worker received %q, want the synthetic stop", msg.Tag)
	}
	// The session is dead: a second receive returns the stop at once
	// instead of blocking on the closed socket.
	again := make(chan string, 1)
	go func() { again <- s.Recv(h.Node).Tag }()
	select {
	case tag := <-again:
		if tag != proto.TagStop {
			t.Fatalf("second receive on the evicted session returned %q, want the synthetic stop", tag)
		}
	case <-time.After(time.Second):
		t.Fatal("evicted worker session not marked dead")
	}
}

// TestFleetCorruptFrameHangsUp: a member whose frame fails the integrity
// checks is dead to the fleet, which then closes its connection, so the
// worker's next receive returns the synthetic stop instead of waiting forever
// for orders the fleet will never send it.
func TestFleetCorruptFrameHangsUp(t *testing.T) {
	ins := fleetInstance(20, 3, 6)
	f := listenFleet(t, ins, FleetConfig{})

	s, h, err := JoinFleet(f.Addr(), "garbled", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	waitState(t, f, h.Node, MemberLive)

	if _, err := s.c.Write(bytes.Repeat([]byte{0xA5}, headerLen)); err != nil {
		t.Fatal(err)
	}
	waitState(t, f, h.Node, MemberDead)
	got := make(chan string, 1)
	go func() { got <- s.Recv(h.Node).Tag }()
	select {
	case tag := <-got:
		if tag != proto.TagStop {
			t.Fatalf("worker received %q after its bad frame, want the synthetic stop", tag)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker still waiting on a fleet that stopped reading it")
	}
}

// TestJoinFleetCancelMidHandshake: a join whose master accepts the TCP
// connection but never answers the hello must be cancellable by its dial
// context — promptly, with a named error, and without leaking the socket.
func TestJoinFleetCancelMidHandshake(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// The silent master: accept, read forever, answer nothing.
	held := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		held <- c
	}()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(150 * time.Millisecond)
		cancel()
	}()
	began := time.Now()
	_, _, err = JoinFleet(ln.Addr().String(), "w", nil, WithContext(ctx))
	if err == nil {
		t.Fatal("join against a silent master succeeded")
	}
	if waited := time.Since(began); waited > 3*time.Second {
		t.Fatalf("canceled join took %v to return", waited)
	}
	if !strings.Contains(err.Error(), "canceled") {
		t.Fatalf("join error %q does not name the cancellation", err)
	}
	// The worker side of the socket is closed: the held master-side conn
	// drains the join frame and then hits EOF instead of blocking.
	select {
	case c := <-held:
		defer c.Close()
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.Copy(io.Discard, c); err != nil {
			t.Fatalf("worker socket still open after canceled join: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("master never saw the join connection")
	}
}
