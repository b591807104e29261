package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"repro/internal/serve"
)

// config is one invocation of the benchmark.
type config struct {
	w       workload
	seed    uint64
	seconds float64
	trace   bool
	quick   bool   // no warm-up and one pass per client, plus a traced one when tracing (tests)
	dataDir string // serve's data directory and the probes' scratch
	outDir  string // where the traced run writes its spans
}

// passRec is one pass over the suite. Timings are per-solve means.
type passRec struct {
	setup, ttt    float64
	moves, rounds int64
	run           float64 // summed run time, the base of the rates
	traced        bool
	stolen        float64 // share of the CPU time the VM wanted while the pass ran that steal took
}

// runner holds one invocation's measurements.
type runner struct {
	cfg   config
	pins  pinsFile
	suite []solve
	spans *spanLog // nil in the untraced run

	calib  *calibPair
	calibS []float64
	probe  bool // the traced run's serve probe: op ids and pass spans say so

	mu        sync.Mutex // guards the fields below (serve clients record concurrently)
	passes    []passRec
	attempted int
	failed    int
	failures  []string

	wall        float64  // wall time of the recorded ops, summed
	wallGranted float64  // the same with each op's stolen share taken out
	used        counters // process and host counters the recorded ops moved, summed

	// per-layer inputs, from traced passes
	roundDur, master, straggler []float64
	handshake                   []float64
	writeDur                    time.Duration
	writes                      int
	retries                     int
	tracedBytes                 int64
	tracedRounds                int64
	tracedFixed                 int // items fixed by the LP guide, summed over traced solves
	tracedItems                 int // n summed over the same solves
	// serve only
	queue, runS, finish []float64
	events              int
	tracedJobs          int
	httpErrors          int
	ckptWrites          int64
	jobs                int
}

func (r *runner) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, err.Error())
	}
}

// counters snapshots the process-wide counters a run reports per op.
type counters struct {
	alloc, mallocs             uint64
	cpu                        float64
	gcCPU, totalCPU            float64
	hostTot, hostIdle, hostStl uint64
}

func readCounters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	c := counters{alloc: ms.TotalAlloc, mallocs: ms.Mallocs, cpu: processCPU()}
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU, c.totalCPU = s[0].Value.Float64(), s[1].Value.Float64()
	}
	c.hostTot, c.hostIdle, c.hostStl, _ = cpuTimes()
	return c
}

// account adds the counters that moved between a and b to the run's totals.
func (r *runner) account(a, b counters) {
	u := &r.used
	u.alloc += b.alloc - a.alloc
	u.mallocs += b.mallocs - a.mallocs
	u.cpu += b.cpu - a.cpu
	u.gcCPU += b.gcCPU - a.gcCPU
	u.totalCPU += b.totalCPU - a.totalCPU
	u.hostTot += b.hostTot - a.hostTot
	u.hostIdle += b.hostIdle - a.hostIdle
	u.hostStl += b.hostStl - a.hostStl
}

// gcShare is the share of the process's CPU time the collector used during
// the recorded ops.
func (r *runner) gcShare() float64 {
	if r.used.totalCPU <= 0 {
		return 0
	}
	return r.used.gcCPU / r.used.totalCPU
}

// steal is the share of the host's CPU time the hypervisor took during the
// recorded ops.
func (r *runner) steal() float64 {
	if r.used.hostTot == 0 {
		return 0
	}
	return float64(r.used.hostStl) / float64(r.used.hostTot)
}

// measure runs one recorded op and adds its wall time and counters to the
// run's totals.
func (r *runner) measure(op func()) {
	n := len(r.passes)
	c0 := readCounters()
	t0 := time.Now()
	op()
	r.record(n, time.Since(t0).Seconds(), c0, readCounters())
}

// record adds one op's wall time and the counters that moved between a and
// b to the run's totals, and stamps the passes the op appended (from index
// n on) with the share of the CPU time the VM wanted that steal took: steal
// over the ticks that were not idle. An idle vCPU accrues no steal, and
// while one vCPU waits on the other, steal on the other delays the op in
// full, so the steal share of all ticks would understate the delay.
func (r *runner) record(n int, wall float64, a, b counters) {
	r.account(a, b)
	stolen := 0.0
	if d := (b.hostTot - a.hostTot) - (b.hostIdle - a.hostIdle); d > 0 {
		stolen = float64(b.hostStl-a.hostStl) / float64(d)
	}
	r.wall += wall
	r.wallGranted += wall * (1 - stolen)
	for i := n; i < len(r.passes); i++ {
		r.passes[i].stolen = stolen
	}
}

// calibrate runs between two ops, outside any timing: a forced collection,
// so that no collector work from the op overlaps the calibration and every
// op starts on a collected heap, then one paired calibration repetition.
func (r *runner) calibrate() {
	runtime.GC()
	d, sum := r.calib.timedRep()
	r.calibS = append(r.calibS, d)
	if sum != r.pins.CalibChecksum {
		r.fail(fmt.Errorf("calibration checksum %d, pinned %d", sum, r.pins.CalibChecksum))
	}
}

// enough reports whether the measure loop may stop after pass k. A quick
// run stops after its first pass, or once it has made the first traced pass
// (pass firstTraced) when tracing.
func (r *runner) enough(k, firstTraced int, start time.Time) bool {
	if r.cfg.quick {
		return r.spans == nil || k >= firstTraced
	}
	return time.Since(start).Seconds() >= r.cfg.seconds
}

// runEngine measures the farm, guided and wire workloads: closed-loop
// passes over the suite with a calibration between two passes.
func (r *runner) runEngine() error {
	var host *wireHost
	if r.cfg.w.wire {
		var err error
		if host, err = newWireHost(r.cfg.w.p); err != nil {
			return err
		}
		defer host.close()
	}
	if !r.cfg.quick {
		r.enginePass(host, -1) // warm-up: caches and lazy set-up, not recorded
	}
	start := time.Now()
	for k := 0; ; k++ {
		r.measure(func() { r.enginePass(host, k) })
		r.calibrate()
		if r.enough(k, 1, start) {
			break
		}
	}
	if host != nil {
		if n := host.handshakeFailures(); n > 0 {
			r.fail(fmt.Errorf("%d worker handshakes failed", n))
		}
	}
	return nil
}

// enginePass runs the suite once. In the traced run every other pass is
// traced, so the untraced passes between them give the tracing overhead.
// k < 0 is the warm-up pass.
func (r *runner) enginePass(host *wireHost, k int) {
	traced := r.spans != nil && k%2 == 1
	var spans *spanLog
	op, passID := "", 0
	t0 := time.Now()
	if traced {
		spans, op = r.spans, fmt.Sprintf("op%d", k)
		passID = spans.reserve(0, op, "op", t0)
	}
	p := passRec{traced: traced}
	ok := true
	for _, s := range r.suite {
		rec := runSolve(r.cfg.w, s, host, spans, passID, op)
		r.attempted++
		if rec.err != nil {
			r.fail(fmt.Errorf("%s instance %d: %w", r.cfg.w.name, s.InsSeed, rec.err))
			ok = false
			continue
		}
		p.setup += rec.setup
		p.ttt += rec.run
		p.run += rec.run
		p.moves += rec.moves
		p.rounds += int64(rec.rounds)
		r.retries += rec.retries
		if traced {
			r.roundDur = append(r.roundDur, rec.roundDur...)
			r.master = append(r.master, rec.master...)
			r.straggler = append(r.straggler, rec.straggler...)
			r.handshake = append(r.handshake, rec.handshake...)
			r.writeDur += rec.writeDur
			r.writes += rec.writes
			r.tracedBytes += rec.bytes
			r.tracedRounds += int64(rec.rounds)
			r.tracedFixed += rec.fixed
			r.tracedItems += s.ins.N
		}
	}
	spans.finish(passID, time.Now())
	if !ok || k < 0 {
		return
	}
	n := float64(len(r.suite))
	p.setup, p.ttt = p.setup/n, p.ttt/n
	r.passes = append(r.passes, p)
}

// runServe measures the serve workload: a durable server with two
// in-process slots, driven over loopback HTTP by a closed loop of two
// clients. The run is a sequence of cycles with a calibration between two
// cycles.
func (r *runner) runServe() error {
	// Flush the writeback earlier runs left behind, such as the removal of
	// their data directories, so this run's first fsyncs do not pay for it.
	syscall.Sync()
	if !r.cfg.quick {
		if _, err := r.serveCycle(-1); err != nil { // warm-up, not recorded
			return err
		}
	}
	start := time.Now()
	for k := 0; ; k++ {
		n := len(r.passes)
		c0 := readCounters()
		d, err := r.serveCycle(k)
		if err != nil {
			return err
		}
		r.record(n, d, c0, readCounters())
		r.calibrate()
		if r.enough(k, 1, start) {
			break
		}
	}
	return nil
}

// serveCycle starts a server on an empty data directory, lets each client
// make one pass over the suite's jobs, then closes the server and removes
// the directory. It returns the seconds the clients ran. A server's per-job
// cost grows with the jobs it has served (every checkpoint save lists the
// shared checkpoint directory), so one server for a whole run would make a
// fast run's jobs dearer than a slow run's.
func (r *runner) serveCycle(k int) (float64, error) {
	dir := filepath.Join(r.cfg.dataDir, fmt.Sprintf("serve-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	pre := runtime.NumGoroutine()

	srv, err := serve.New(serve.Config{Dir: dir, Slots: 2})
	if err != nil {
		return 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return 0, err
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	ht := &http.Transport{MaxIdleConnsPerHost: 4}
	c := &serveClient{base: "http://" + ln.Addr().String(), hc: &http.Client{Transport: ht, Timeout: 120 * time.Second}, w: r.cfg.w}

	start := time.Now()
	var wg sync.WaitGroup
	for client := 0; client < 2; client++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			r.servePass(c, 2*k+client)
		}(client)
	}
	wg.Wait()
	d := time.Since(start).Seconds()
	if snap, err := c.scrape(); err != nil {
		r.fail(fmt.Errorf("scraping /metrics.json: %w", err))
	} else {
		r.ckptWrites += snap.SumCounters("ckpt_writes_total")
		r.retries += int(snap.SumCounters("core_redispatches_total") + snap.SumCounters("core_slot_failures_total") +
			snap.SumCounters("core_result_rejects_total"))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		r.fail(fmt.Errorf("http shutdown: %w", err))
		hs.Close()
	}
	<-served
	ht.CloseIdleConnections()
	if err := srv.Close(); err != nil {
		r.fail(fmt.Errorf("server close: %w", err))
	}
	if !settle(pre) {
		r.fail(fmt.Errorf("%d goroutines after the server closed, %d before it started", runtime.NumGoroutine(), pre))
	}
	return d, nil
}

// servePass submits the suite's jobs one after another: one client's pass.
// Pass k belongs to cycle k/2, and in the traced run every other cycle is
// traced. k < 0 is the warm-up cycle.
func (r *runner) servePass(c *serveClient, k int) {
	traced := r.spans != nil && (k/2)%2 == 1
	op, passID := "", 0
	if traced {
		op, name := fmt.Sprintf("op%d", k), "op"
		if r.probe {
			op, name = fmt.Sprintf("probe.serve%d", k), "probe.serve"
		}
		passID = r.spans.reserve(0, op, name, now())
	}
	p := passRec{traced: traced}
	ok := true
	var recs []jobRec
	for _, s := range r.suite {
		rec := c.job(s)
		r.mu.Lock()
		r.attempted++
		r.jobs++
		r.httpErrors += rec.httpErrors
		r.mu.Unlock()
		if rec.err != nil {
			r.fail(fmt.Errorf("serve instance %d: %w", s.InsSeed, rec.err))
			ok = false
			continue
		}
		recs = append(recs, rec)
		st := rec.status
		p.setup += rec.accepted.Sub(rec.submit).Seconds()
		p.ttt += rec.done.Sub(rec.accepted).Seconds()
		p.run += st.FinishedAt.Sub(st.StartedAt).Seconds()
		p.moves += st.TotalMoves
		p.rounds += int64(st.Round)
	}
	if traced {
		for _, rec := range recs {
			st := rec.status
			id := r.spans.reserve(passID, op, "job", rec.submit)
			r.spans.add(id, op, "serve.submit", rec.submit, rec.accepted)
			r.spans.add(id, op, "serve.queue", st.SubmittedAt, st.StartedAt)
			r.spans.add(id, op, "serve.run", st.StartedAt, st.FinishedAt)
			r.spans.add(id, op, "serve.finish", st.FinishedAt, rec.done)
			r.spans.add(id, op, "bench.verify", rec.done, rec.end)
			r.spans.finish(id, rec.end)
		}
		r.spans.finish(passID, now())
	}
	if !ok || k < 0 {
		return
	}
	n := float64(len(r.suite))
	p.setup, p.ttt = p.setup/n, p.ttt/n
	r.mu.Lock()
	defer r.mu.Unlock()
	r.passes = append(r.passes, p)
	if traced {
		for _, rec := range recs {
			st := rec.status
			r.queue = append(r.queue, st.StartedAt.Sub(st.SubmittedAt).Seconds())
			r.runS = append(r.runS, st.FinishedAt.Sub(st.StartedAt).Seconds())
			r.finish = append(r.finish, rec.done.Sub(st.FinishedAt).Seconds())
			r.roundDur = append(r.roundDur, rec.eventGaps...)
			r.events += rec.events
			r.tracedJobs++
			r.tracedBytes += rec.bytes
			r.tracedRounds += int64(st.Round)
		}
	}
}

// serveProbe measures the serve and ckptstore layers in the traced run of
// an engine workload: one untraced and one traced cycle of the serve
// workload on the run's seed, every job verified as the serve workload
// verifies it.
func (r *runner) serveProbe() error {
	w, _ := findWorkload("serve")
	suite, err := deriveSuite(w, r.cfg.seed)
	if err != nil {
		return err
	}
	sr := &runner{cfg: r.cfg, pins: r.pins, suite: suite, spans: r.spans, calib: r.calib, probe: true}
	sr.cfg.w, sr.cfg.quick = w, true
	if err := r.pins.checkPins(w, r.cfg.seed, suite); err != nil {
		sr.fail(err)
	}
	if err := sr.runServe(); err != nil {
		return err
	}
	r.attempted += sr.attempted
	r.failed += sr.failed
	r.failures = append(r.failures, sr.failures...)
	r.retries += sr.retries
	r.queue, r.runS, r.finish = sr.queue, sr.runS, sr.finish
	r.events, r.tracedJobs, r.httpErrors = sr.events, sr.tracedJobs, sr.httpErrors
	r.ckptWrites, r.jobs = sr.ckptWrites, sr.jobs
	return nil
}
