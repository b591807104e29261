// Package inproc is the in-process transport: the stand-in for the paper's
// execution environment of 16 Alpha processors exchanging PVM messages over a
// 16×16 crossbar (§5). Nodes are goroutines, links are FIFO mailboxes, and
// every send is accounted (message and byte counters) so the experiment
// harness can report the communication volume the master–slave scheme
// generates.
//
// The farm is purely logical. Nothing injects latency, and the farm reads no
// clock: a message is deliverable as soon as it is queued. The 1997 link cost
// is simulated time, which internal/vtime derives from move counts and
// message sizes; a wall-clock delay here could only slow a run, never change
// one of its decisions.
//
// A deterministic fault injector (FaultPlan) models lossy links and dead
// nodes: seeded per-link message drop and duplication, and per-node
// crash-after-k-sends (the node goes fail-silent: later sends are swallowed).
// Every decision is drawn from a per-link stream derived from the plan's seed,
// so a fault schedule replays identically for a fixed plan regardless of
// goroutine interleaving across links.
//
// The farm carries one scheme, the paper's synchronous, centralized
// master–slave rendezvous: RecvTimeout tells the master when nothing more can
// arrive, so a rendezvous survives lost replies without waiting on a clock.
// Metric families keep the historical `farm_` prefix: the package moved under
// internal/transport, but recorded telemetry is an external contract.
package inproc

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/transport"
)

// FaultPlan configures deterministic fault injection. The zero plan injects
// nothing; rates are probabilities in [0, 1]. All decisions are drawn from
// per-directed-link streams seeded from Seed, so two farms with the same plan
// see the same drops and duplications on each link in the same order.
type FaultPlan struct {
	// Seed derives every per-link decision stream.
	Seed uint64
	// DropRate is the probability that a message is silently discarded.
	DropRate float64
	// DupRate is the probability that a message is delivered twice.
	DupRate float64
	// CrashAt maps a node to the number of messages it may send before going
	// fail-silent: sends beyond the budget are swallowed (the node keeps
	// receiving and computing, but the rest of the farm never hears from it
	// again — how a partitioned or dead PVM task appears to its peers).
	// A budget of 0 crashes the node before its first send.
	CrashAt map[int]int64
}

// Validate rejects out-of-range rates and negative crash budgets.
func (p *FaultPlan) Validate() error {
	if p.DropRate < 0 || p.DropRate > 1 {
		return fmt.Errorf("inproc: DropRate %v outside [0,1]", p.DropRate)
	}
	if p.DupRate < 0 || p.DupRate > 1 {
		return fmt.Errorf("inproc: DupRate %v outside [0,1]", p.DupRate)
	}
	for node, k := range p.CrashAt {
		if k < 0 {
			return fmt.Errorf("inproc: CrashAt[%d] = %d < 0", node, k)
		}
	}
	return nil
}

// mailboxSize is each node's mailbox capacity.
const mailboxSize = 1024

// mailbox is one node's FIFO delivery queue. Senders block while the queue
// is at capacity; receivers wait on an arrival token. Waiters always re-check
// the queue after waking, so a coalesced token can never strand a message.
type mailbox struct {
	mu      sync.Mutex
	notFull *sync.Cond
	queue   []transport.Message
	cap     int
	arrival chan struct{}  // 1-token wakeup for receivers
	depth   *metrics.Gauge // queue length after each put/pop; nil when disabled
}

func newMailbox(capacity int) *mailbox {
	b := &mailbox{cap: capacity, arrival: make(chan struct{}, 1)}
	b.notFull = sync.NewCond(&b.mu)
	return b
}

func (b *mailbox) put(m transport.Message) {
	b.mu.Lock()
	for len(b.queue) >= b.cap {
		b.notFull.Wait()
	}
	b.queue = append(b.queue, m)
	b.depth.Set(float64(len(b.queue)))
	b.mu.Unlock()
	b.signal()
}

func (b *mailbox) signal() {
	select {
	case b.arrival <- struct{}{}:
	default:
	}
}

// pop removes the head message, if there is one.
func (b *mailbox) pop() (transport.Message, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.queue) == 0 {
		return transport.Message{}, false
	}
	m := b.queue[0]
	copy(b.queue, b.queue[1:])
	b.queue = b.queue[:len(b.queue)-1]
	b.depth.Set(float64(len(b.queue)))
	b.notFull.Broadcast()
	if len(b.queue) > 0 {
		b.signal() // keep the token alive for coalesced arrivals
	}
	return m, true
}

// Farm connects n nodes (0..n-1) with a full crossbar of FIFO mailboxes. It
// is both sides of the seam: the master's transport.Hub and every slave's
// transport.Transport. Crashed and Revive are the in-process extras the
// supervisor uses.
type Farm struct {
	n      int
	boxes  []*mailbox
	faults *FaultPlan

	msgs    atomic.Int64
	bytes   atomic.Int64
	dropped atomic.Int64

	mu      sync.Mutex
	linkRng map[[2]int]*rng.Rand
	sent    []int64 // per-node send count, for CrashAt accounting
	crashAt []int64 // per-node send budget copied from the plan; -1 = none (cleared by Revive)

	// busy counts the messages queued for slaves plus the slaves holding one
	// (see mark); quiescence is busy == 0.
	busy    int
	holding []bool

	// Metric handles, all nil unless WithMetrics installed a registry. The
	// counters mirror the atomic Stats counters exactly; the per-node
	// mailbox depth gauges are delivery-side telemetry that a Stats snapshot
	// cannot give (they are observed as messages move, not at the end of the
	// run).
	reg      *metrics.Registry
	mMsgs    *metrics.Counter
	mBytes   *metrics.Counter
	mDropped *metrics.Counter
	mDups    *metrics.Counter
}

// Option configures a Farm.
type Option func(*Farm)

// WithFaults installs a deterministic fault plan. New panics if the plan is
// invalid (a configuration error, like a non-positive node count).
func WithFaults(p *FaultPlan) Option {
	return func(f *Farm) { f.faults = p }
}

// WithMetrics installs a metrics registry: message/byte/drop/duplicate
// counters (mirroring Stats) and per-node `farm_mailbox_depth` gauges. A nil
// registry leaves the farm uninstrumented (one nil-check per record).
func WithMetrics(r *metrics.Registry) Option {
	return func(f *Farm) { f.reg = r }
}

// New creates a farm of n nodes. It panics if n < 1 or if a configured fault
// plan is invalid.
func New(n int, opts ...Option) *Farm {
	if n < 1 {
		panic(fmt.Sprintf("inproc: need at least one node, got %d", n))
	}
	f := &Farm{
		n:       n,
		sent:    make([]int64, n),
		holding: make([]bool, n),
	}
	for _, o := range opts {
		o(f)
	}
	if f.faults != nil {
		if err := f.faults.Validate(); err != nil {
			panic(err.Error())
		}
		f.linkRng = make(map[[2]int]*rng.Rand)
		// Copy the crash budgets out of the plan: Revive clears a node's
		// budget without mutating the caller's (possibly shared) FaultPlan.
		f.crashAt = make([]int64, n)
		for i := range f.crashAt {
			f.crashAt[i] = -1
		}
		for node, k := range f.faults.CrashAt {
			if node >= 0 && node < n {
				f.crashAt[node] = k
			}
		}
	}
	f.boxes = make([]*mailbox, n)
	for i := range f.boxes {
		f.boxes[i] = newMailbox(mailboxSize)
	}
	if f.reg != nil {
		f.reg.SetHelp("farm_messages_total", "Messages enqueued for delivery (duplicates included).")
		f.reg.SetHelp("farm_bytes_total", "Payload bytes enqueued for delivery.")
		f.reg.SetHelp("farm_dropped_total", "Messages swallowed by drop faults or crashed senders.")
		f.reg.SetHelp("farm_duplicated_total", "Messages the fault injector delivered twice.")
		f.reg.SetHelp("farm_mailbox_depth", "Current queue length of each node's mailbox.")
		f.mMsgs = f.reg.Counter("farm_messages_total")
		f.mBytes = f.reg.Counter("farm_bytes_total")
		f.mDropped = f.reg.Counter("farm_dropped_total")
		f.mDups = f.reg.Counter("farm_duplicated_total")
		for i := range f.boxes {
			f.boxes[i].depth = f.reg.Gauge("farm_mailbox_depth", "node", strconv.Itoa(i))
		}
	}
	return f
}

// Send delivers a message from node `from` to node `to`, subject to the
// configured fault plan. size is the accounted payload size in bytes (use
// proto.SolutionSize and friends). Send blocks only when the destination
// mailbox is full. A dropped or crashed-sender message returns nil — exactly
// what the sender of a lost datagram observes.
func (f *Farm) Send(from, to int, tag string, payload any, size int) error {
	return f.send(from, to, tag, payload, size, false)
}

// SendControl is Send minus the fault injector: an out-of-band control-plane
// message (PVM host operations, in-process teardown) that lossy links and
// crashed nodes cannot swallow. Use it for shutdown so chaos runs always
// terminate.
func (f *Farm) SendControl(from, to int, tag string, payload any, size int) error {
	return f.send(from, to, tag, payload, size, true)
}

func (f *Farm) send(from, to int, tag string, payload any, size int, control bool) error {
	if from < 0 || from >= f.n || to < 0 || to >= f.n {
		return fmt.Errorf("inproc: bad endpoints %d -> %d (n=%d)", from, to, f.n)
	}
	copies := 1
	if f.faults != nil && !control {
		f.mu.Lock()
		f.sent[from]++
		if k := f.crashAt[from]; k >= 0 && f.sent[from] > k {
			f.mu.Unlock()
			f.dropped.Add(1)
			f.mDropped.Inc()
			return nil
		}
		r := f.linkStream(from, to)
		if f.faults.DropRate > 0 && r.Float64() < f.faults.DropRate {
			f.mu.Unlock()
			f.dropped.Add(1)
			f.mDropped.Inc()
			return nil
		}
		if f.faults.DupRate > 0 && r.Float64() < f.faults.DupRate {
			copies = 2
			f.mDups.Inc()
		}
		f.mu.Unlock()
	}
	m := transport.Message{From: from, To: to, Tag: tag, Payload: payload, Size: size}
	for c := 0; c < copies; c++ {
		f.msgs.Add(1)
		f.bytes.Add(int64(size))
		f.mMsgs.Inc()
		f.mBytes.Add(int64(size))
		if to != 0 {
			f.mu.Lock()
			f.busy++ // counted before a receiver can take it
			f.mu.Unlock()
		}
		f.boxes[to].put(m)
	}
	return nil
}

// linkStream returns the decision stream for one directed link, creating it
// on first use. Callers hold f.mu.
func (f *Farm) linkStream(from, to int) *rng.Rand {
	key := [2]int{from, to}
	r, ok := f.linkRng[key]
	if !ok {
		r = rng.New(f.faults.Seed + uint64(from)*1_000_003 + uint64(to) + 1)
		f.linkRng[key] = r
	}
	return r
}

// Recv blocks until a message for node arrives.
func (f *Farm) Recv(node int) transport.Message {
	m, _ := f.recv(node, false)
	return m
}

// RecvTimeout is the master's wait: it returns the next message for node 0,
// or ok=false exactly when nothing more can arrive — no message is queued for
// a slave, no slave holds one and node 0's mailbox is empty. d is unused: the
// farm ends a wait at quiescence, never on a clock. It is in the signature
// for a wire fleet, which cannot see remote work.
func (f *Farm) RecvTimeout(d time.Duration) (transport.Message, bool) {
	return f.recv(0, true)
}

// recv waits for node's next message. With untilQuiet it gives up once the
// farm has gone quiet.
func (f *Farm) recv(node int, untilQuiet bool) (transport.Message, bool) {
	f.mark(node, false)
	box := f.boxes[node]
	for {
		// Read the count before the mailbox: a slave queues its reply before
		// it receives again, so at zero every reply is already in the box.
		f.mu.Lock()
		quiet := untilQuiet && f.busy == 0
		f.mu.Unlock()
		if m, ok := box.pop(); ok {
			f.mark(node, true)
			return m, true
		}
		if quiet {
			return transport.Message{}, false
		}
		<-box.arrival
	}
}

// mark records whether slave node holds a message: it takes one off its queue
// (still counted, now as held) and lets it go when it next calls a receive,
// or when Revive replaces it — a node that exited on a stop order stays busy
// until then. Node 0, the master, is never counted.
func (f *Farm) mark(node int, holds bool) {
	if node == 0 {
		return
	}
	f.mu.Lock()
	if f.holding[node] && !holds {
		f.settle(1)
	}
	f.holding[node] = holds
	f.mu.Unlock()
}

// settle uncounts k messages and wakes node 0 when the farm falls quiet.
// Callers hold f.mu.
func (f *Farm) settle(k int) {
	f.busy -= k
	if f.busy == 0 {
		f.boxes[0].signal()
	}
}

// drain discards all pending messages for node and returns how many there
// were.
func (f *Farm) drain(node int) int {
	count := 0
	for {
		if _, ok := f.boxes[node].pop(); !ok {
			break
		}
		count++
	}
	if node != 0 {
		f.mu.Lock()
		f.settle(count)
		f.mu.Unlock()
	}
	return count
}

// Crashed reports whether node's sends are currently being swallowed by a
// crash-after-k fault — i.e. the rest of the farm can no longer hear it,
// however hard it keeps computing. The supervision layer gates the in-process
// heartbeat watermark on this, so a fail-silent node looks hung to the
// watchdog exactly as a real partitioned process would.
func (f *Farm) Crashed(node int) bool {
	if f.faults == nil || node < 0 || node >= f.n {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	k := f.crashAt[node]
	return k >= 0 && f.sent[node] >= k
}

// Revive re-registers a node whose process was replaced by the supervisor:
// the mailbox is drained of stale orders (returned as the count), the
// previous incarnation's hold on its last message ends, the send counter
// restarts, and the node's crash-after-k fault is cleared — the replacement
// process gets a working link, while drop/dup faults on its links keep
// applying from the plan. The caller must ensure the previous incarnation has
// stopped receiving on the node before calling Revive, or the drain races
// with it.
func (f *Farm) Revive(node int) int {
	if node < 0 || node >= f.n {
		panic(fmt.Sprintf("inproc: Revive of node %d (n=%d)", node, f.n))
	}
	f.mu.Lock()
	f.sent[node] = 0
	if f.crashAt != nil {
		f.crashAt[node] = -1
	}
	f.mu.Unlock()
	f.mark(node, false)
	return f.drain(node)
}

// Stats returns a snapshot of the traffic counters.
func (f *Farm) Stats() transport.Stats {
	return transport.Stats{
		Messages: f.msgs.Load(),
		Bytes:    f.bytes.Load(),
		Dropped:  f.dropped.Load(),
	}
}
