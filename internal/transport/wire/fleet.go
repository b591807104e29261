package wire

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/mkp"
	"repro/internal/transport"
	"repro/internal/transport/proto"
)

// MemberState classifies one fleet member's connection.
type MemberState int32

const (
	// MemberUnknown: the fleet has never handshaked this node.
	MemberUnknown MemberState = iota
	// MemberLive: connected, handshaked, not departed.
	MemberLive
	// MemberLeft: the worker announced a graceful Leave; the subsequent
	// connection teardown is expected and must not be counted as a crash.
	MemberLeft
	// MemberDead: the connection died without a Leave — a real crash.
	MemberDead
)

func (s MemberState) String() string {
	switch s {
	case MemberLive:
		return "live"
	case MemberLeft:
		return "left"
	case MemberDead:
		return "dead"
	}
	return "unknown"
}

// maxFleetNodes caps how many node ids a fleet will ever assign. Frame
// headers carry node numbers as a single byte, so ids stop at 250 (leaving
// headroom under 255); a run that churns through more members than that needs
// a wider header, not a bigger cap.
const maxFleetNodes = 250

// joinHandshakeTimeout bounds one joiner's Join/Hello/Ready exchange so a
// stalled or hostile dialer cannot wedge the accept path.
const joinHandshakeTimeout = 5 * time.Second

// FleetConfig configures a fleet master, dialed or listening.
type FleetConfig struct {
	// SeedFor returns the searcher seed for a node id. It must be a pure
	// function of the node id so an admission replays deterministically.
	SeedFor func(node int) uint64
	// MaxNodes caps assigned node ids (default maxFleetNodes, which is also
	// the hard ceiling imposed by the one-byte frame address).
	MaxNodes int
	// ConnWrap, when set, interposes on every member connection before its
	// handshake, beneath the frame codec — the hook the chaosnet fault
	// injector uses. Connections are wrapped in admission order: dial order
	// for a roster (worker 0 first), accept order for joiners.
	ConnWrap func(net.Conn) net.Conn
}

// fleetConn is one member connection. Writes are serialized by mu; the
// reader goroutine owns all reads. state moves Live -> Left on a Leave frame
// or an eviction and Live -> Dead on an unannounced read/write failure — the
// classification the engine's membership bookkeeping relies on to never
// double-count a graceful departure as a crash. Nothing revives a member:
// the engine's redispatch/degrade path owns recovery, the transport only
// reports silence.
type fleetConn struct {
	mu    sync.Mutex
	c     net.Conn
	br    *bufio.Reader
	node  int
	name  string
	state atomic.Int32
}

func (fc *fleetConn) setState(s MemberState) { fc.state.Store(int32(s)) }
func (fc *fleetConn) getState() MemberState  { return MemberState(fc.state.Load()) }
func (fc *fleetConn) casState(o, n MemberState) bool {
	return fc.state.CompareAndSwap(int32(o), int32(n))
}

// Fleet is the master side of the wire transport: one TCP connection per
// member, each drained by a reader goroutine into a shared node-0 mailbox.
// Members are admitted two ways, both through one Hello→Ready handshake that
// assigns the next node id and ships the member its seed, the instance, the
// current epoch and the live membership view:
//
//   - Dial connects to a fixed worker roster, whose workers are members
//     1..P by the time it returns;
//   - ListenFleet accepts joiners whenever they dial in; each opens with a
//     Join frame, and joined-but-unclaimed nodes queue until the engine
//     admits them with TakeJoins.
//
// Departures are classified (Leave vs crash) per connection. Fleet is the
// engine's transport.Hub: it receives for node 0 only, since the members'
// mailboxes live in their own processes.
type Fleet struct {
	ln  net.Listener // nil for a dialed roster
	ins *mkp.Instance
	n   int // instance size; payload codecs need it
	cfg FleetConfig

	inbox chan transport.Message
	// life ends at Close: it cuts joiners' handshakes short and unblocks
	// readers stuck on a full inbox.
	life context.Context
	end  context.CancelFunc
	wg   sync.WaitGroup

	epoch atomic.Uint64

	mu       sync.Mutex
	closed   bool
	conns    map[int]*fleetConn
	nextNode int
	pending  []int         // joined nodes not yet claimed via TakeJoins
	joined   chan struct{} // poked (non-blocking) on every successful join

	msgs    atomic.Int64
	bytes   atomic.Int64
	dropped atomic.Int64

	mx wireMetrics
}

// newFleet validates cfg and builds a fleet with no members.
func newFleet(ins *mkp.Instance, cfg FleetConfig, reg *metrics.Registry) (*Fleet, error) {
	if ins == nil {
		return nil, fmt.Errorf("wire: fleet without instance")
	}
	if cfg.SeedFor == nil {
		return nil, fmt.Errorf("wire: fleet config needs SeedFor")
	}
	if cfg.MaxNodes <= 0 || cfg.MaxNodes > maxFleetNodes {
		cfg.MaxNodes = maxFleetNodes
	}
	life, end := context.WithCancel(context.Background())
	return &Fleet{
		ins:      ins,
		n:        ins.N,
		cfg:      cfg,
		inbox:    make(chan transport.Message, 1024),
		life:     life,
		end:      end,
		conns:    make(map[int]*fleetConn),
		nextNode: 1,
		joined:   make(chan struct{}, 1),
		mx:       newWireMetrics(reg),
	}, nil
}

// Dial connects to each worker address in turn and admits it as the next
// member, so worker i (0-based) becomes node i+1. Each address is retried
// with exponential backoff for up to the dial timeout — extra attempts are
// counted on wire_reconnects_total — so "start the workers, then the master"
// does not have to race; the handshake that follows is bounded by the same
// timeout and by the dial context. Every worker is a live member when Dial
// returns; the fleet has no listener (Addr is "") and queues nothing for
// TakeJoins. A failure partway down the list closes the half-built fleet,
// leaking no goroutines or FDs.
func Dial(addrs []string, ins *mkp.Instance, cfg FleetConfig, reg *metrics.Registry, opts ...DialOption) (*Fleet, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("wire: no worker addresses")
	}
	dc := newDialConfig(opts)
	f, err := newFleet(ins, cfg, reg)
	if err != nil {
		return nil, err
	}
	members := make([]*fleetConn, 0, len(addrs))
	for i, addr := range addrs {
		c, err := dialRetry(dc, addr, f.mx)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("wire: worker %d at %s: %w", i+1, addr, err)
		}
		fc, err := f.admit(dc.ctx, c, false, dc.timeout)
		if cerr := dc.ctx.Err(); cerr != nil {
			err = fmt.Errorf("canceled: %w", cerr)
		}
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("wire: handshake with worker %d at %s: %w", i+1, addr, err)
		}
		members = append(members, fc)
	}
	// Readers start once every handshake is done, so none of them competes
	// for a CPU with the handshakes still to come.
	for _, fc := range members {
		f.wg.Add(1)
		go func() { defer f.wg.Done(); f.reader(fc) }()
	}
	return f, nil
}

// ListenFleet opens a fleet listener on addr ("host:port", port 0 for
// ephemeral) and starts accepting joiners immediately. reg may be nil.
func ListenFleet(addr string, ins *mkp.Instance, cfg FleetConfig, reg *metrics.Registry) (*Fleet, error) {
	f, err := newFleet(ins, cfg, reg)
	if err != nil {
		return nil, err
	}
	if f.ln, err = net.Listen("tcp", addr); err != nil {
		return nil, fmt.Errorf("wire: fleet listen on %s: %w", addr, err)
	}
	f.wg.Add(1)
	go f.acceptLoop()
	return f, nil
}

// Addr returns the listener's address, for workers to dial ("" for a dialed
// roster).
func (f *Fleet) Addr() string {
	if f.ln == nil {
		return ""
	}
	return f.ln.Addr().String()
}

func (f *Fleet) acceptLoop() {
	defer f.wg.Done()
	for {
		c, err := f.ln.Accept()
		if err != nil {
			return // listener closed
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			if fc, err := f.admit(f.life, c, true, joinHandshakeTimeout); err == nil {
				f.reader(fc)
			}
		}()
	}
}

// admit makes c a member: it wraps the connection, runs the handshake under
// a deadline of timeout, and registers the member live — queued for
// TakeJoins when it joined. ctx cuts the handshake short by closing the
// connection: the dial context for a roster worker, the fleet's own life for
// a joiner. Any failure closes the connection: a peer that never answered
// Ready was never a member.
func (f *Fleet) admit(ctx context.Context, c net.Conn, joiner bool, timeout time.Duration) (*fleetConn, error) {
	if f.cfg.ConnWrap != nil {
		c = f.cfg.ConnWrap(c)
	}
	stop := context.AfterFunc(ctx, func() { c.Close() })
	fc, err := f.handshake(c, joiner, timeout)
	stop()
	f.mu.Lock()
	if err == nil && f.closed {
		err = fmt.Errorf("wire: fleet closed")
	}
	if err == nil {
		f.conns[fc.node] = fc
		if joiner {
			f.pending = append(f.pending, fc.node)
		}
	}
	f.mu.Unlock()
	if err != nil {
		c.Close()
		return nil, err
	}
	if joiner {
		select {
		case f.joined <- struct{}{}:
		default:
		}
	}
	return fc, nil
}

// handshake reads a joiner's Join (naming it), assigns the next node id,
// sends the Hello and waits for the worker's Ready.
func (f *Fleet) handshake(c net.Conn, joiner bool, timeout time.Duration) (*fleetConn, error) {
	c.SetDeadline(time.Now().Add(timeout))
	fc := &fleetConn{c: c, br: bufio.NewReader(c)}
	if joiner {
		kind, _, _, payload, err := readFrame(fc.br)
		if err == nil && kind != kindJoin {
			err = fmt.Errorf("wire: expected join frame, got kind %d", kind)
		}
		if err != nil {
			return nil, err
		}
		join, err := proto.DecodePayload(proto.TagJoin, payload, f.n)
		if err != nil {
			return nil, err
		}
		fc.name = join.(proto.Join).Name
	}

	f.mu.Lock()
	if f.nextNode > f.cfg.MaxNodes {
		f.mu.Unlock()
		return nil, fmt.Errorf("wire: all %d node ids are assigned", f.cfg.MaxNodes)
	}
	fc.node = f.nextNode
	f.nextNode++
	members := f.liveLocked()
	f.mu.Unlock()

	hello, err := proto.EncodeHello(proto.Hello{
		Node:    fc.node,
		Seed:    f.cfg.SeedFor(fc.node),
		Ins:     f.ins,
		Epoch:   f.epoch.Load(),
		Members: members,
	})
	if err != nil {
		return nil, err
	}
	if err := writeFrame(c, kindHello, 0, byte(fc.node), hello); err != nil {
		return nil, err
	}
	f.account(headerLen + len(hello))
	kind, _, _, _, err := readFrame(fc.br)
	if err == nil && kind != kindReady {
		err = fmt.Errorf("wire: expected ready frame, got kind %d", kind)
	}
	if err != nil {
		return nil, err
	}
	f.account(headerLen)
	c.SetDeadline(time.Time{})
	fc.setState(MemberLive)
	return fc, nil
}

// reader drains one member's connection into the node-0 mailbox until the
// connection ends. A Leave frame flips the member to MemberLeft before being
// forwarded, so the EOF that follows is classified as an announced departure;
// any other read error on a live member is a crash (MemberDead). This is the
// classification that keeps a graceful Leave out of the DeadSlaves ledger.
// Messages are attributed to the connection's node, never to the sender the
// frame header claims. On any read error the fleet hangs up: after a bad
// frame the worker is still connected, and only a closed connection tells it
// (its Recv returns the synthetic stop) that no order will ever come.
func (f *Fleet) reader(fc *fleetConn) {
	for {
		msg, err := readMessage(fc.br, f.n, f.mx)
		if err != nil {
			fc.casState(MemberLive, MemberDead)
			fc.c.Close()
			return
		}
		if msg.Tag == proto.TagLeave {
			fc.setState(MemberLeft)
		}
		msg.From, msg.To = fc.node, 0
		f.count(msg.Size)
		select {
		case f.inbox <- msg:
		case <-f.life.Done():
			return
		}
	}
}

func (f *Fleet) account(frameBytes int) {
	f.mx.frames.Inc()
	f.mx.bytes.Add(int64(frameBytes))
}

// count records one message of the given payload size.
func (f *Fleet) count(payloadBytes int) {
	f.account(headerLen + payloadBytes)
	f.msgs.Add(1)
	f.bytes.Add(int64(payloadBytes))
}

// liveLocked returns the sorted live membership; caller holds f.mu.
func (f *Fleet) liveLocked() []int {
	var live []int
	for node, fc := range f.conns {
		if fc.getState() == MemberLive {
			live = append(live, node)
		}
	}
	sort.Ints(live)
	return live
}

// LiveNodes returns the sorted node ids of all live members.
func (f *Fleet) LiveNodes() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.liveLocked()
}

// MemberState reports a node's membership state.
func (f *Fleet) MemberState(node int) MemberState {
	f.mu.Lock()
	fc := f.conns[node]
	f.mu.Unlock()
	if fc == nil {
		return MemberUnknown
	}
	return fc.getState()
}

// MemberName returns the joiner-supplied label for a node ("" if unknown).
func (f *Fleet) MemberName(node int) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	if fc := f.conns[node]; fc != nil {
		return fc.name
	}
	return ""
}

// TakeJoins drains the queue of handshaked-but-unclaimed nodes, sorted by
// node id so admission order is deterministic regardless of handshake races.
func (f *Fleet) TakeJoins() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	nodes := f.pending
	f.pending = nil
	sort.Ints(nodes)
	return nodes
}

// WaitJoins blocks until at least min members are live (true) or the timeout
// or ctx expires (false). ctx may be nil.
func (f *Fleet) WaitJoins(ctx context.Context, min int, timeout time.Duration) bool {
	if ctx == nil {
		ctx = context.Background()
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		f.mu.Lock()
		live := len(f.liveLocked())
		f.mu.Unlock()
		if live >= min {
			return true
		}
		select {
		case <-f.joined:
		case <-deadline.C:
			return false
		case <-ctx.Done():
			return false
		case <-f.life.Done():
			return false
		}
	}
}

// SetEpoch publishes the engine's current fleet epoch; it is stamped into
// every subsequent joiner's Hello.
func (f *Fleet) SetEpoch(e uint64) { f.epoch.Store(e) }

// Epoch returns the last published fleet epoch.
func (f *Fleet) Epoch() uint64 { return f.epoch.Load() }

// Send encodes the payload and writes one frame to member `to`. A send to an
// unknown, left or dead member is swallowed and counted as dropped — exactly
// what the sender of a datagram to a dead host observes; the engine's
// rendezvous deadline, not the transport, detects the loss. size is ignored
// for byte accounting (the real encoded length is known here), kept for
// interface parity with the in-process substrate.
func (f *Fleet) Send(from, to int, tag string, payload any, size int) error {
	f.mu.Lock()
	fc := f.conns[to]
	f.mu.Unlock()
	if fc == nil || fc.getState() != MemberLive {
		f.dropped.Add(1)
		f.mx.dropped.Inc()
		return nil
	}
	frame, err := encodeMessage(from, to, tag, payload, f.n, f.mx)
	if err != nil {
		return err
	}
	fc.mu.Lock()
	_, err = fc.c.Write(frame)
	fc.mu.Unlock()
	if err != nil {
		fc.casState(MemberLive, MemberDead)
		f.dropped.Add(1)
		f.mx.dropped.Inc()
		return nil
	}
	f.count(len(frame) - headerLen)
	return nil
}

// SendControl is Send: a real wire has no fault injector to bypass.
func (f *Fleet) SendControl(from, to int, tag string, payload any, size int) error {
	return f.Send(from, to, tag, payload, size)
}

// Broadcast sends one message to every live member and returns how many
// sends were attempted — the gossip fan-out primitive.
func (f *Fleet) Broadcast(tag string, payload any, size int) int {
	nodes := f.LiveNodes()
	for _, node := range nodes {
		f.Send(0, node, tag, payload, size)
	}
	return len(nodes)
}

// RecvTimeout waits up to d for a message for node 0.
func (f *Fleet) RecvTimeout(node int, d time.Duration) (transport.Message, bool) {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case m := <-f.inbox:
		return m, true
	case <-timer.C:
		return transport.Message{}, false
	}
}

// Evict force-disconnects a live member and classifies the teardown as an
// expected departure (MemberLeft, the leave ledger), not a crash — the
// transport half of quarantining a worker whose results failed validation.
// Evicting an unknown or already-departed node is a no-op; the return value
// reports whether this call did the eviction.
func (f *Fleet) Evict(node int) bool {
	f.mu.Lock()
	fc := f.conns[node]
	f.mu.Unlock()
	if fc == nil || !fc.casState(MemberLive, MemberLeft) {
		return false
	}
	fc.c.Close()
	return true
}

// Stats returns a snapshot of the traffic counters. Bytes counts encoded
// payload bytes in both directions (frame headers are only in
// wire_bytes_total).
func (f *Fleet) Stats() transport.Stats {
	return transport.Stats{Messages: f.msgs.Load(), Bytes: f.bytes.Load(), Dropped: f.dropped.Load()}
}

// Close stops admitting, cuts short every handshake in progress, tears down
// every member connection and waits for the readers to exit. Safe to call on
// a half-built fleet (failed Dial) and more than once.
func (f *Fleet) Close() error {
	f.mu.Lock()
	f.closed = true
	conns := make([]*fleetConn, 0, len(f.conns))
	for _, fc := range f.conns {
		conns = append(conns, fc)
	}
	f.mu.Unlock()
	f.end()
	if f.ln != nil {
		f.ln.Close()
	}
	for _, fc := range conns {
		fc.c.Close()
	}
	f.wg.Wait()
	return nil
}

var _ transport.Hub = (*Fleet)(nil)
