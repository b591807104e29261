// Package chaosnet injects deterministic network faults beneath the wire
// frame codec. A Chaos wraps net.Conn (and optionally net.Listener) with a
// per-link fault schedule — partitions that black-hole both directions
// until they heal, connection resets, read/write stalls, bandwidth
// throttling, and byte corruption — mirroring the in-process FaultPlan
// semantics so the same chaos schedule is expressible on both substrates.
//
// Corruption deliberately flips bytes *below* the codec: every corrupted
// frame must surface as a CRC/framing hard error on the receiving side,
// never as silently wrong data. That is the property the wire chaos
// battery pins.
//
// All probabilistic decisions are drawn from per-link streams seeded from
// Plan.Seed (the inproc farm's per-link idiom), so a given plan replays the
// same faults on each link in the same order. Links are numbered in wrap
// order: dial order on a static Net, accept order on a listening Fleet.
// The zero plan is inert — a wrapped connection makes no RNG draws, takes
// no sleeps, and copies no buffers, so a zero-plan run stays bitwise equal
// to an unwrapped one.
package chaosnet

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rng"
)

// ErrInjectedReset is the error a write observes when the plan resets the
// connection — the chaos equivalent of a peer's RST.
var ErrInjectedReset = errors.New("chaosnet: injected connection reset")

// defaultStall is used when StallRate is set but Stall is not.
const defaultStall = 50 * time.Millisecond

// Window is one partition interval on a link: the link black-holes from
// After (measured from New) until After+Heal, then heals.
type Window struct {
	After time.Duration
	Heal  time.Duration
}

// Plan is a per-link chaos schedule. The zero plan injects nothing. Rates
// are probabilities in [0,1], drawn once per write (and once per read for
// stall/corrupt) from per-link streams seeded from Seed.
type Plan struct {
	// Seed derives every per-link decision stream.
	Seed uint64
	// CorruptRate is the probability that a write (or read) has one byte
	// flipped. Corruption happens beneath the codec, so it must surface as
	// a CRC or framing hard error, never as silent data.
	CorruptRate float64
	// ResetRate is the probability that a write closes the connection
	// instead — an injected RST. The writer sees ErrInjectedReset.
	ResetRate float64
	// StallRate is the probability that a read or write pauses for Stall
	// before proceeding (a congested or GC-pausing peer).
	StallRate float64
	// Stall is the injected pause duration (default 50ms when StallRate is
	// set).
	Stall time.Duration
	// BytesPerSec throttles each link's bandwidth per direction; 0 means
	// unlimited.
	BytesPerSec int64
	// Partitions maps a link id to its black-hole windows. While a window
	// is open, writes are swallowed (reported as successful, like datagrams
	// into a dead route) and reads block until the window heals — both
	// directions go dark, and late frames surface only after the heal.
	Partitions map[int][]Window
}

// Validate rejects out-of-range rates, negative durations, and malformed
// partition windows.
func (p *Plan) Validate() error {
	check := func(name string, r float64) error {
		if r < 0 || r > 1 {
			return fmt.Errorf("chaosnet: %s %v outside [0,1]", name, r)
		}
		return nil
	}
	if err := check("CorruptRate", p.CorruptRate); err != nil {
		return err
	}
	if err := check("ResetRate", p.ResetRate); err != nil {
		return err
	}
	if err := check("StallRate", p.StallRate); err != nil {
		return err
	}
	if p.Stall < 0 {
		return fmt.Errorf("chaosnet: Stall %v < 0", p.Stall)
	}
	if p.BytesPerSec < 0 {
		return fmt.Errorf("chaosnet: BytesPerSec %d < 0", p.BytesPerSec)
	}
	for link, ws := range p.Partitions {
		if link < 0 {
			return fmt.Errorf("chaosnet: partition on negative link %d", link)
		}
		for _, w := range ws {
			if w.After < 0 {
				return fmt.Errorf("chaosnet: partition After %v < 0 on link %d", w.After, link)
			}
			if w.Heal <= 0 {
				return fmt.Errorf("chaosnet: partition Heal %v <= 0 on link %d", w.Heal, link)
			}
		}
	}
	return nil
}

// Inert reports whether the plan injects nothing.
func (p Plan) Inert() bool {
	return p.CorruptRate == 0 && p.ResetRate == 0 && p.StallRate == 0 &&
		p.BytesPerSec == 0 && len(p.Partitions) == 0
}

// Counters is a snapshot of the faults a Chaos has injected so far.
type Counters struct {
	Blackholed int64 // writes swallowed by an open partition
	Resets     int64 // injected connection resets
	Stalls     int64 // injected read/write pauses
	Corrupts   int64 // byte flips
	Throttled  time.Duration
}

// Chaos executes a Plan across the connections it wraps. One Chaos serves
// a whole transport; each wrapped connection becomes the next link in its
// schedule. Partition windows are measured from New.
type Chaos struct {
	plan  Plan
	start time.Time

	mu   sync.Mutex
	next int

	blackholed atomic.Int64
	resets     atomic.Int64
	stalls     atomic.Int64
	corrupts   atomic.Int64
	throttled  atomic.Int64 // nanoseconds
}

// New validates the plan and starts its clock.
func New(plan Plan) (*Chaos, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if plan.StallRate > 0 && plan.Stall == 0 {
		plan.Stall = defaultStall
	}
	return &Chaos{plan: plan, start: time.Now()}, nil
}

// Plan returns a copy of the (normalized) plan the Chaos executes.
func (ch *Chaos) Plan() Plan { return ch.plan }

// Links returns how many connections have been wrapped so far.
func (ch *Chaos) Links() int {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return ch.next
}

// Counters snapshots the injected-fault totals.
func (ch *Chaos) Counters() Counters {
	return Counters{
		Blackholed: ch.blackholed.Load(),
		Resets:     ch.resets.Load(),
		Stalls:     ch.stalls.Load(),
		Corrupts:   ch.corrupts.Load(),
		Throttled:  time.Duration(ch.throttled.Load()),
	}
}

// Wrap wraps nc as the next link in wrap order. The signature matches the
// wire transport's connection-wrapper hooks.
func (ch *Chaos) Wrap(nc net.Conn) net.Conn {
	ch.mu.Lock()
	link := ch.next
	ch.next++
	ch.mu.Unlock()
	return ch.WrapLink(link, nc)
}

// WrapLink wraps nc under an explicit link id, for callers that own their
// own link numbering.
func (ch *Chaos) WrapLink(link int, nc net.Conn) net.Conn {
	c := &conn{Conn: nc, ch: ch, link: link, done: make(chan struct{})}
	p := &ch.plan
	if p.CorruptRate > 0 || p.ResetRate > 0 || p.StallRate > 0 {
		// Same per-link stream derivation as the inproc farm, with distinct
		// write (+1) and read (+2) streams since the two sides draw
		// independently.
		c.wrng = rng.New(p.Seed + uint64(link)*1_000_003 + 1)
		c.rrng = rng.New(p.Seed + uint64(link)*1_000_003 + 2)
	}
	return c
}

// Listener wraps ln so every accepted connection is chaos-wrapped in
// accept order.
func (ch *Chaos) Listener(ln net.Listener) net.Listener {
	return &listener{Listener: ln, ch: ch}
}

type listener struct {
	net.Listener
	ch *Chaos
}

func (l *listener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.ch.Wrap(nc), nil
}

// partitionRemaining returns how long link's current partition window has
// left, or 0 when the link is clear.
func (ch *Chaos) partitionRemaining(link int) time.Duration {
	ws := ch.plan.Partitions[link]
	if len(ws) == 0 {
		return 0
	}
	elapsed := time.Since(ch.start)
	for _, w := range ws {
		if elapsed >= w.After && elapsed < w.After+w.Heal {
			return w.After + w.Heal - elapsed
		}
	}
	return 0
}

// conn is one chaos-wrapped connection. Writes are already serialized by
// the transport (each wire fleetConn holds a write mutex) and reads
// come from a single reader goroutine, but wmu keeps the write-side
// decision stream consistent even for unserialized callers.
type conn struct {
	net.Conn
	ch   *Chaos
	link int

	closeOnce sync.Once
	done      chan struct{}

	wmu   sync.Mutex
	wrng  *rng.Rand
	wNext time.Time // write-side pacing horizon

	rrng  *rng.Rand
	rNext time.Time // read-side pacing horizon
}

func (c *conn) Write(b []byte) (int, error) {
	p := &c.ch.plan
	if c.ch.partitionRemaining(c.link) > 0 {
		// Black hole: the frame enters the network and never arrives. The
		// writer sees success — exactly what a sender into a partitioned
		// route observes — and the receiver's rendezvous deadline, not the
		// transport, detects the loss.
		c.ch.blackholed.Add(1)
		return len(b), nil
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if p.ResetRate > 0 && c.wrng.Float64() < p.ResetRate {
		c.ch.resets.Add(1)
		c.Close()
		return 0, ErrInjectedReset
	}
	if p.StallRate > 0 && c.wrng.Float64() < p.StallRate {
		c.ch.stalls.Add(1)
		c.pause(p.Stall)
	}
	c.throttle(&c.wNext, len(b))
	if p.CorruptRate > 0 && c.wrng.Float64() < p.CorruptRate {
		// Corrupt a copy: the caller's buffer is not ours to damage.
		cp := make([]byte, len(b))
		copy(cp, b)
		c.ch.corrupt(c.wrng, cp)
		b = cp
	}
	return c.Conn.Write(b)
}

func (c *conn) Read(b []byte) (int, error) {
	p := &c.ch.plan
	if wait := c.ch.partitionRemaining(c.link); wait > 0 {
		// Reads block until the partition heals; whatever the peer sent in
		// the meantime sits in the kernel buffer and arrives late — the
		// stale-round filtering upstream is what absorbs it.
		c.pause(wait)
	}
	if p.StallRate > 0 && c.rrng.Float64() < p.StallRate {
		c.ch.stalls.Add(1)
		c.pause(p.Stall)
	}
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.throttle(&c.rNext, n)
		if p.CorruptRate > 0 && c.rrng.Float64() < p.CorruptRate {
			c.ch.corrupt(c.rrng, b[:n])
		}
	}
	return n, err
}

func (c *conn) Close() error {
	c.closeOnce.Do(func() { close(c.done) })
	return c.Conn.Close()
}

// pause sleeps d, aborting early if the connection closes so a partition
// window never pins a reader past teardown.
func (c *conn) pause(d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-c.done:
	}
}

// throttle paces n bytes against the plan's bandwidth, tracking a virtual
// transmission horizon per direction.
func (c *conn) throttle(next *time.Time, n int) {
	rate := c.ch.plan.BytesPerSec
	if rate <= 0 || n <= 0 {
		return
	}
	d := time.Duration(int64(n) * int64(time.Second) / rate)
	now := time.Now()
	if next.Before(now) {
		*next = now
	}
	wait := next.Sub(now)
	*next = next.Add(d)
	if wait > 0 {
		c.ch.throttled.Add(int64(wait))
		c.pause(wait)
	}
}

// corrupt flips one byte of b to a guaranteed-different value.
func (ch *Chaos) corrupt(r *rng.Rand, b []byte) {
	if len(b) == 0 {
		return
	}
	i := r.Intn(len(b))
	b[i] ^= byte(1 + r.Intn(255))
	ch.corrupts.Add(1)
}

// ParsePartitions parses a comma-separated partition schedule of the form
// "LINK@AFTER+HEAL", e.g. "0@500ms+1s,2@1s+750ms" — the mkpsolve flag
// syntax. Multiple windows may target the same link.
func ParsePartitions(s string) (map[int][]Window, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	out := make(map[int][]Window)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		link, w, err := parsePartition(part)
		if err != nil {
			return nil, err
		}
		out[link] = append(out[link], w)
	}
	for _, ws := range out {
		sort.Slice(ws, func(i, j int) bool { return ws[i].After < ws[j].After })
	}
	return out, nil
}

func parsePartition(s string) (int, Window, error) {
	at := strings.IndexByte(s, '@')
	if at < 0 {
		return 0, Window{}, fmt.Errorf("chaosnet: partition %q: want LINK@AFTER+HEAL", s)
	}
	link, err := strconv.Atoi(s[:at])
	if err != nil || link < 0 {
		return 0, Window{}, fmt.Errorf("chaosnet: partition %q: bad link %q", s, s[:at])
	}
	rest := s[at+1:]
	plus := strings.IndexByte(rest, '+')
	if plus < 0 {
		return 0, Window{}, fmt.Errorf("chaosnet: partition %q: want LINK@AFTER+HEAL", s)
	}
	after, err := time.ParseDuration(rest[:plus])
	if err != nil {
		return 0, Window{}, fmt.Errorf("chaosnet: partition %q: bad after: %v", s, err)
	}
	heal, err := time.ParseDuration(rest[plus+1:])
	if err != nil {
		return 0, Window{}, fmt.Errorf("chaosnet: partition %q: bad heal: %v", s, err)
	}
	w := Window{After: after, Heal: heal}
	if after < 0 || heal <= 0 {
		return 0, Window{}, fmt.Errorf("chaosnet: partition %q: negative after or non-positive heal", s)
	}
	return link, w, nil
}
