package wire

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/internal/transport/proto"
)

// Session is the worker side of the wire transport: the single connection
// back to the master, exposed as the slave's transport.Transport. The slave
// loop is strictly synchronous (receive an order, run it, send the report),
// so the Session reads frames inline — no reader goroutine, nothing to leak
// when the process exits. Its traffic is counted on the wire_* metric
// families only; the master's Fleet keeps the run's accounting.
//
// When the connection dies, Recv returns a synthetic silent stop
// (proto.TagStop with a nil payload), which is exactly the shutdown order the
// master sends on a graceful exit: the slave loop cannot tell a vanished
// master from a finished one, and exits cleanly either way.
type Session struct {
	c    net.Conn
	br   *bufio.Reader
	node int
	n    int // instance size from the Hello; payload codecs need it
	mu   sync.Mutex
	dead atomic.Bool

	mx wireMetrics
}

// Accept performs the worker side of the roster handshake on an accepted
// connection: read the master's Hello (node number, seed, instance), answer
// Ready, and publish an initial zero-moves heartbeat so the master's reader
// sees a live frame before the first round. reg may be nil. The caller runs
// the slave loop with the returned session, node, instance and seed, e.g.
// core.Slave(sess, hello.Node, hello.Ins, hello.Seed).
func Accept(c net.Conn, reg *metrics.Registry) (*Session, proto.Hello, error) {
	return greet(c, bufio.NewReader(c), newWireMetrics(reg))
}

// JoinFleet is the worker side of the elastic handshake: dial the fleet
// master (with the same retry/backoff and DialOptions as Dial), send a Join
// carrying a free-form name, then finish as Accept does — the Hello assigns
// this worker its node id, seed, instance, epoch and membership view. The
// returned Session is the worker's transport, same as Accept's.
//
// WithContext cancels the whole join — backoff sleeps *and* the handshake
// itself: a cancellation mid-handshake closes the connection so the
// blocking frame reads unwind promptly, leaking neither the FD nor this
// goroutine.
func JoinFleet(addr, name string, reg *metrics.Registry, opts ...DialOption) (*Session, proto.Hello, error) {
	cfg := newDialConfig(opts)
	mx := newWireMetrics(reg)
	c, err := dialRetry(cfg, addr, mx)
	if err != nil {
		return nil, proto.Hello{}, fmt.Errorf("wire: joining fleet at %s: %w", addr, err)
	}
	// From here the context cancels the handshake by closing the conn; the
	// hook is released on every exit path, so a completed join's session is
	// no longer tied to the join context.
	stop := context.AfterFunc(cfg.ctx, func() { c.Close() })
	defer stop()
	c.SetDeadline(time.Now().Add(cfg.timeout))
	join, err := proto.EncodePayload(proto.TagJoin, proto.Join{Name: name}, 0)
	if err == nil {
		err = writeFrame(c, kindJoin, 0, 0, join)
	}
	var s *Session
	var hello proto.Hello
	if err == nil {
		s, hello, err = greet(c, bufio.NewReader(c), mx)
	}
	if err != nil {
		c.Close()
		if cerr := cfg.ctx.Err(); cerr != nil {
			return nil, proto.Hello{}, fmt.Errorf("wire: join with %s canceled: %w", addr, cerr)
		}
		return nil, proto.Hello{}, fmt.Errorf("wire: joining fleet at %s: %w", addr, err)
	}
	c.SetDeadline(time.Time{})
	return s, hello, nil
}

// greet is the worker's half of the Hello→Ready exchange both handshakes end
// with: read the Hello, answer Ready, publish the zero-moves heartbeat.
func greet(c net.Conn, br *bufio.Reader, mx wireMetrics) (*Session, proto.Hello, error) {
	kind, _, _, payload, err := readFrame(br)
	if err == nil && kind != kindHello {
		err = fmt.Errorf("expected hello frame, got kind %d", kind)
	}
	if err != nil {
		return nil, proto.Hello{}, fmt.Errorf("wire: reading hello: %w", err)
	}
	hello, err := proto.DecodeHello(payload)
	if err != nil {
		return nil, proto.Hello{}, err
	}
	s := &Session{c: c, br: br, node: hello.Node, n: hello.Ins.N, mx: mx}
	if err := writeFrame(c, kindReady, byte(hello.Node), 0, nil); err != nil {
		return nil, proto.Hello{}, fmt.Errorf("wire: sending ready: %w", err)
	}
	s.account(headerLen)
	if err := s.Send(hello.Node, 0, proto.TagHeartbeat, proto.Heartbeat{Node: hello.Node, Moves: 0}, 0); err != nil {
		return nil, proto.Hello{}, err
	}
	return s, hello, nil
}

func (s *Session) account(frameBytes int) {
	s.mx.frames.Inc()
	s.mx.bytes.Add(int64(frameBytes))
}

// Send encodes the payload and writes one frame to the master. A send on a
// dead connection is swallowed: the next Recv will deliver the synthetic
// stop and the slave loop exits.
func (s *Session) Send(from, to int, tag string, payload any, size int) error {
	if s.dead.Load() {
		return nil
	}
	frame, err := encodeMessage(from, to, tag, payload, s.n, s.mx)
	if err != nil {
		return err
	}
	s.mu.Lock()
	_, err = s.c.Write(frame)
	s.mu.Unlock()
	if err != nil {
		s.dead.Store(true)
		return nil
	}
	s.account(len(frame))
	return nil
}

// SendControl is Send: a real wire has no fault injector to bypass.
func (s *Session) SendControl(from, to int, tag string, payload any, size int) error {
	return s.Send(from, to, tag, payload, size)
}

// Recv blocks until the master's next frame. A read or decode failure —
// including the master closing the connection — returns the synthetic silent
// stop described on Session.
func (s *Session) Recv(node int) transport.Message {
	stop := transport.Message{From: 0, To: s.node, Tag: proto.TagStop}
	if s.dead.Load() {
		return stop
	}
	msg, err := readMessage(s.br, s.n, s.mx)
	if err != nil {
		s.dead.Store(true)
		return stop
	}
	s.account(headerLen + msg.Size)
	msg.To = s.node
	return msg
}

// Close closes the connection to the master.
func (s *Session) Close() error {
	s.dead.Store(true)
	return s.c.Close()
}

var _ transport.Transport = (*Session)(nil)
