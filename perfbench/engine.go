package main

import (
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mkp"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/transport/proto"
	"repro/internal/transport/wire"
)

// roundClock is the Options.Tracer of a traced engine solve: it stamps the
// master's RoundStart events, which arrive on the goroutine that called
// Run, and ignores the kernel events the slaves emit.
type roundClock struct {
	stamps []time.Time
}

func (c *roundClock) Record(e trace.Event) {
	if e.Kind == trace.KindRoundStart {
		c.stamps = append(c.stamps, time.Now())
	}
}

// slotTrace collects what the wire host's seams see during one traced
// solve: per-round slot compute intervals, handshakes and socket writes.
type slotTrace struct {
	mu        sync.Mutex
	compute   map[int][][2]time.Time // round -> [received Start, sent Result]
	handshake []float64
	writeDur  time.Duration
	writes    int
}

func newSlotTrace() *slotTrace { return &slotTrace{compute: make(map[int][][2]time.Time)} }

func (t *slotTrace) addCompute(round int, a, b time.Time) {
	t.mu.Lock()
	t.compute[round] = append(t.compute[round], [2]time.Time{a, b})
	t.mu.Unlock()
}

func (t *slotTrace) addHandshake(d time.Duration) {
	t.mu.Lock()
	t.handshake = append(t.handshake, d.Seconds())
	t.mu.Unlock()
}

func (t *slotTrace) addWrite(d time.Duration) {
	t.mu.Lock()
	t.writeDur += d
	t.writes++
	t.mu.Unlock()
}

// timedConn is the worker-side net.Conn seam: it times every socket write.
type timedConn struct {
	net.Conn
	st *slotTrace
}

func (c timedConn) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Write(p)
	c.st.addWrite(time.Since(t0))
	return n, err
}

// timedSession is the worker-side transport seam: the slave's compute span
// runs from receiving a Start order to sending its Result.
type timedSession struct {
	*wire.Session
	st      *slotTrace
	started time.Time
	round   int
}

func (s *timedSession) Recv(node int) transport.Message {
	msg := s.Session.Recv(node)
	if st, ok := msg.Payload.(proto.Start); ok && msg.Tag == proto.TagStart {
		s.started, s.round = time.Now(), st.Round
	}
	return msg
}

func (s *timedSession) Send(from, to int, tag string, payload any, size int) error {
	if tag == proto.TagResult {
		s.st.addCompute(s.round, s.started, time.Now())
	}
	return s.Session.Send(from, to, tag, payload, size)
}

// wireHost runs the worker side of the wire workload inside the benchmark
// process: two loopback listeners, each serving every accepted master
// connection with wire.Accept + core.Slave, which is what mkpworker does.
type wireHost struct {
	lns      []net.Listener
	loops    sync.WaitGroup // accept loops
	sessions sync.WaitGroup // one per accepted connection

	mu       sync.Mutex
	trace    *slotTrace // sink of the current solve; nil when untraced
	failures int        // handshakes that failed
}

func newWireHost(n int) (*wireHost, error) {
	h := &wireHost{}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			h.close()
			return nil, err
		}
		h.lns = append(h.lns, ln)
		h.loops.Add(1)
		go h.acceptLoop(ln)
	}
	return h, nil
}

func (h *wireHost) addrs() []string {
	out := make([]string, len(h.lns))
	for i, ln := range h.lns {
		out[i] = ln.Addr().String()
	}
	return out
}

func (h *wireHost) setTrace(st *slotTrace) {
	h.mu.Lock()
	h.trace = st
	h.mu.Unlock()
}

func (h *wireHost) acceptLoop(ln net.Listener) {
	defer h.loops.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		h.mu.Lock()
		st := h.trace
		h.mu.Unlock()
		h.sessions.Add(1)
		go h.serveConn(c, st)
	}
}

func (h *wireHost) serveConn(c net.Conn, st *slotTrace) {
	defer h.sessions.Done()
	defer c.Close()
	var conn net.Conn = c
	if st != nil {
		conn = timedConn{Conn: c, st: st}
	}
	t0 := time.Now()
	sess, hello, err := wire.Accept(conn, nil)
	if err != nil {
		h.mu.Lock()
		h.failures++
		h.mu.Unlock()
		return
	}
	var tr transport.Transport = sess
	if st != nil {
		st.addHandshake(time.Since(t0))
		tr = &timedSession{Session: sess, st: st}
	}
	core.Slave(tr, hello.Node, hello.Ins, hello.Seed)
}

func (h *wireHost) handshakeFailures() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.failures
}

func (h *wireHost) close() {
	for _, ln := range h.lns {
		ln.Close()
	}
	h.loops.Wait()
	h.sessions.Wait()
}

// solveRec is what one engine solve measured.
type solveRec struct {
	setup, run float64 // NewEngine and Run, seconds
	moves      int64
	rounds     int
	retries    int
	bytes      int64
	fixed      int   // items the final LP fixing proved at 0 or 1
	err        error // verification failure; nil when the solve passed
	// traced solves only
	roundDur, master, straggler []float64
	handshake                   []float64
	writeDur                    time.Duration
	writes                      int
}

// settle waits for the goroutine count to fall back to want.
func settle(want int) bool {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}

// verify checks a finished engine solve: a feasible solution whose claimed
// value is the recomputed one, the target reached in the pinned round, and
// no retry of any kind on the healthy fleet.
func verify(w workload, s solve, res *core.Result) error {
	if err := mkp.CheckSolution(s.ins, res.Best); err != nil {
		return err
	}
	if v := mkp.ValueOf(s.ins, res.Best.X); math.Abs(v-res.Best.Value) > 1e-6 {
		return fmt.Errorf("claimed value %v, recomputed %v", res.Best.Value, v)
	}
	if res.Best.Value < s.Target-1e-9 {
		return fmt.Errorf("best %v below target %v after %d rounds (cap %d)", res.Best.Value, s.Target, res.Stats.Rounds, w.roundCap())
	}
	if res.Stats.Rounds != w.round {
		return fmt.Errorf("target reached in round %d, trajectory reached it in round %d", res.Stats.Rounds, w.round)
	}
	if n := retries(res.Stats); n > 0 {
		return fmt.Errorf("%d redispatches, slot failures or result rejects", n)
	}
	return nil
}

func retries(st core.Stats) int { return st.Redispatches + st.SlaveFailures + st.ResultRejects }

// runSolve executes one engine solve: NewEngine, Run, Close, verify, and the
// goroutine check. With a span log it records the solve's spans under
// parent.
func runSolve(w workload, s solve, host *wireHost, spans *spanLog, parent int, op string) solveRec {
	traced := spans != nil
	clock := &roundClock{}
	var st *slotTrace
	if host != nil && traced {
		st = newSlotTrace()
	}
	if host != nil {
		host.setTrace(st)
	}
	opts := w.options(s.Target)
	if traced {
		opts.Tracer = clock
	}
	if host != nil {
		opts.Workers = host.addrs()
	}
	pre := runtime.NumGoroutine()

	t0 := time.Now()
	e, err := core.NewEngine(s.ins, core.CTS2, opts)
	t1 := time.Now()
	if err != nil {
		return solveRec{err: fmt.Errorf("NewEngine: %w", err)}
	}
	res, err := e.Run()
	t2 := time.Now()
	e.Close()
	if host != nil {
		host.sessions.Wait()
	}
	t3 := time.Now()
	rec := solveRec{setup: t1.Sub(t0).Seconds(), run: t2.Sub(t1).Seconds()}
	if err != nil {
		rec.err = fmt.Errorf("Run: %w", err)
	} else {
		rec.err = verify(w, s, res)
		rec.moves, rec.rounds = res.Stats.TotalMoves, res.Stats.Rounds
		rec.retries, rec.bytes = retries(res.Stats), res.Stats.BytesSent
		rec.fixed = res.Stats.CoreFixedIn + res.Stats.CoreFixedOut
	}
	if rec.err == nil && !settle(pre) {
		rec.err = fmt.Errorf("%d goroutines after Close, %d before NewEngine", runtime.NumGoroutine(), pre)
	}
	t4 := time.Now()
	if !traced {
		return rec
	}

	id := spans.reserve(parent, op, "solve", t0)
	spans.add(id, op, "core.setup", t0, t1)
	runID := spans.add(id, op, "core.run", t1, t2)
	for i, a := range clock.stamps {
		b := t2
		if i+1 < len(clock.stamps) {
			b = clock.stamps[i+1]
		}
		rid := spans.add(runID, op, "core.round", a, b)
		rec.roundDur = append(rec.roundDur, b.Sub(a).Seconds())
		if st == nil {
			continue
		}
		st.mu.Lock()
		slots := st.compute[i]
		st.mu.Unlock()
		if len(slots) == 0 {
			continue
		}
		lo, hi := math.Inf(1), 0.0
		for _, c := range slots {
			spans.add(rid, op, "slave.compute", c[0], c[1])
			d := c[1].Sub(c[0]).Seconds()
			lo, hi = math.Min(lo, d), math.Max(hi, d)
		}
		rec.master = append(rec.master, b.Sub(a).Seconds()-hi)
		rec.straggler = append(rec.straggler, hi-lo)
	}
	spans.add(id, op, "core.close", t2, t3)
	spans.add(id, op, "bench.verify", t3, t4)
	spans.finish(id, t4)
	if st != nil {
		rec.handshake, rec.writeDur, rec.writes = st.handshake, st.writeDur, st.writes
	}
	return rec
}
