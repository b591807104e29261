package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/ckptstore"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/mkp"
	"repro/internal/obs"
	"repro/internal/tabu"
	"repro/internal/trace"
)

// Config sizes the server.
type Config struct {
	// Dir is the persistence root. Empty disables durability: jobs live only
	// in memory and a restart forgets them.
	Dir string
	// Workers lists mkpworker addresses (fleet mode). Empty means in-process
	// mode: each job's slaves run as goroutines against the Slots budget.
	Workers []string
	// Slots is the in-process slave budget shared by all concurrent jobs
	// (ignored in fleet mode). Default: GOMAXPROCS.
	Slots int
	// MaxP caps one job's worker budget. Default: the pool capacity.
	MaxP int
	// MaxQueue bounds admitted-but-unfinished jobs; submissions beyond it
	// are refused with 503 (admission control). Default 64.
	MaxQueue int
	// DialTimeout bounds each worker dial in fleet mode. Default 5s.
	DialTimeout time.Duration
	// StreamWriteTimeout bounds each write on an /events NDJSON stream. A
	// subscriber that stops reading blocks the handler in the kernel's send
	// buffer — without a deadline that goroutine (and its hub subscription)
	// lives as long as the TCP connection, which a silent peer can hold open
	// for hours. Default 10s.
	StreamWriteTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if len(c.Workers) == 0 && c.Slots <= 0 {
		c.Slots = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.StreamWriteTimeout <= 0 {
		c.StreamWriteTimeout = 10 * time.Second
	}
	return c
}

// Server multiplexes solve jobs over one shared slave pool. See the package
// comment for the design; New starts the scheduler, Handler exposes the API,
// Close stops everything (running jobs checkpoint and resume on restart).
type Server struct {
	cfg      Config
	pool     *pool
	userMaxP int // configured MaxP (0 = track pool capacity as the fleet resizes)

	// own is the server's registry (queue/job counters, checkpoint-store
	// metrics); gather merges it with every job's registry, each under its
	// job label, into the /metrics exposition.
	own    *metrics.Registry
	gather *metrics.Gatherer
	mx     serverMetrics

	// dialCtx cancels in-flight worker dials on shutdown — a slow worker
	// must not hold the process open (fleet mode).
	dialCtx    context.Context
	dialCancel context.CancelFunc

	mu      sync.Mutex
	jobs    map[string]*Job
	order   []string // submission order, for listing
	seq     int
	active  int // admitted and not yet terminal (admission control)
	closing bool
	queue   chan *Job
	quit    chan struct{}
	wg      sync.WaitGroup
}

type serverMetrics struct {
	submitted *metrics.Counter
	done      *metrics.Counter
	failed    *metrics.Counter
	resumed   *metrics.Counter
	queued    *metrics.Gauge
	running   *metrics.Gauge
}

// New builds the server, recovers any persisted jobs, and starts the
// scheduler. The caller owns the HTTP listener (see Handler) and must Close.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:  cfg,
		own:  metrics.NewRegistry(),
		jobs: make(map[string]*Job),
		quit: make(chan struct{}),
	}
	if len(cfg.Workers) > 0 {
		s.pool = newFleetPool(cfg.Workers)
	} else {
		s.pool = newSlotPool(cfg.Slots)
	}
	s.userMaxP = cfg.MaxP
	s.queue = make(chan *Job, cfg.MaxQueue)
	s.gather = metrics.NewGatherer()
	s.gather.Attach(s.own)
	s.own.SetHelp("serve_jobs_submitted_total", "Jobs admitted (recovered jobs included).")
	s.own.SetHelp("serve_jobs_done_total", "Jobs that reached done.")
	s.own.SetHelp("serve_jobs_failed_total", "Jobs that reached failed.")
	s.own.SetHelp("serve_jobs_resumed_total", "Recovered jobs restarted from a checkpoint.")
	s.own.SetHelp("serve_jobs_queued", "Jobs admitted and waiting for capacity.")
	s.own.SetHelp("serve_jobs_running", "Jobs currently holding pool capacity.")
	s.mx = serverMetrics{
		submitted: s.own.Counter("serve_jobs_submitted_total"),
		done:      s.own.Counter("serve_jobs_done_total"),
		failed:    s.own.Counter("serve_jobs_failed_total"),
		resumed:   s.own.Counter("serve_jobs_resumed_total"),
		queued:    s.own.Gauge("serve_jobs_queued"),
		running:   s.own.Gauge("serve_jobs_running"),
	}
	s.dialCtx, s.dialCancel = context.WithCancel(context.Background())
	if err := s.recover(); err != nil {
		return nil, err
	}
	s.wg.Add(1)
	go s.schedule()
	return s, nil
}

// Capacity reports the pool size (slots or fleet width). In fleet mode it
// moves as workers are added and removed.
func (s *Server) Capacity() int { return s.pool.capacity() }

// maxP is the per-job worker budget: the configured MaxP clamped to the
// pool's current capacity. With no configured cap it simply tracks capacity,
// so growing the fleet raises the widest admissible job.
func (s *Server) maxP() int {
	c := s.pool.capacity()
	if s.userMaxP > 0 && s.userMaxP < c {
		return s.userMaxP
	}
	return c
}

// admit validates a spec, fills defaults, builds the instance and the job's
// private observability (registry, trace hub). It does not register or
// enqueue — recovery and submit share it.
func (s *Server) admit(spec Spec) (*Job, error) {
	if spec.Algorithm == "" {
		spec.Algorithm = "CTS2"
	}
	algo, err := core.ParseAlgorithm(spec.Algorithm)
	if err != nil {
		return nil, err
	}
	var port []tabu.AlgoID
	if spec.Portfolio != "" {
		if algo == core.SEQ {
			return nil, fmt.Errorf("portfolio %q: SEQ runs one tabu slave, submit a parallel algorithm", spec.Portfolio)
		}
		if port, err = tabu.ParsePortfolio(spec.Portfolio); err != nil {
			return nil, err
		}
	}
	if spec.P <= 0 {
		spec.P = min(2, s.maxP())
	}
	if algo == core.SEQ {
		spec.P = 1
	}
	if spec.P > s.maxP() {
		return nil, fmt.Errorf("p=%d exceeds the per-job worker budget %d", spec.P, s.maxP())
	}
	if spec.Rounds <= 0 {
		spec.Rounds = 20
	}
	if spec.Rounds > 1_000_000 {
		return nil, fmt.Errorf("rounds=%d exceeds the served cap", spec.Rounds)
	}
	if spec.Moves <= 0 {
		spec.Moves = 2000
	}
	if spec.ID != "" && !ckptstore.ValidJobID(spec.ID) {
		return nil, fmt.Errorf("job id %q: want [A-Za-z0-9_-], at most 128 bytes", spec.ID)
	}
	ins, err := spec.buildInstance()
	if err != nil {
		return nil, err
	}
	j := &Job{
		spec:        spec,
		algo:        algo,
		port:        port,
		ins:         ins,
		reg:         metrics.NewRegistry(),
		hub:         newHub(),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
		state:       StateQueued,
		resumedFrom: -1,
		submitted:   time.Now(),
	}
	return j, nil
}

// register adds the job to the server's tables and attaches its registry to
// the merged exposition under its job label. The caller has set spec.ID.
func (s *Server) register(j *Job) {
	s.mu.Lock()
	s.jobs[j.spec.ID] = j
	s.order = append(s.order, j.spec.ID)
	s.mu.Unlock()
	s.gather.Attach(j.reg, "job", j.spec.ID)
	s.mx.submitted.Inc()
}

func (s *Server) enqueue(j *Job) {
	s.mx.queued.Add(1)
	s.queue <- j
}

// Submit admits a job through the same path the HTTP handler uses. It
// persists the spec before returning, so an accepted submission survives an
// immediate crash.
func (s *Server) Submit(spec Spec) (*Job, error) {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return nil, fmt.Errorf("server is shutting down")
	}
	if s.active >= s.cfg.MaxQueue {
		s.mu.Unlock()
		return nil, errBusy
	}
	s.active++
	s.mu.Unlock()

	j, err := s.admit(spec)
	if err != nil {
		s.mu.Lock()
		s.active--
		s.mu.Unlock()
		return nil, err
	}
	s.mu.Lock()
	if j.spec.ID == "" {
		s.seq++
		j.spec.ID = fmt.Sprintf("j%04d", s.seq)
	} else if _, dup := s.jobs[j.spec.ID]; dup {
		s.active--
		s.mu.Unlock()
		return nil, fmt.Errorf("job id %q already exists", j.spec.ID)
	}
	s.mu.Unlock()
	if err := s.saveSpec(j); err != nil {
		s.mu.Lock()
		s.active--
		s.mu.Unlock()
		return nil, err
	}
	s.register(j)
	s.enqueue(j)
	return j, nil
}

// errBusy marks admission-control refusals so the handler maps them to 503.
var errBusy = fmt.Errorf("job queue is full, retry later")

// schedule is the single consumer of the queue: strict FIFO, blocking on the
// pool until the head job's full worker budget is free (no overtaking).
func (s *Server) schedule() {
	defer s.wg.Done()
	for {
		select {
		case <-s.quit:
			return
		case j := <-s.queue:
			s.mx.queued.Add(-1)
			if j.isCanceled() {
				s.finish(j, nil, fmt.Errorf("canceled before start"))
				continue
			}
			lease, ok := s.pool.acquire(j.spec.P)
			if !ok {
				// Pool closed: shutdown. The job stays unfinished on disk and
				// resumes on restart.
				s.interrupt(j)
				continue
			}
			if j.isCanceled() {
				s.pool.release(lease, j.spec.P)
				s.finish(j, nil, fmt.Errorf("canceled before start"))
				continue
			}
			s.wg.Add(1)
			go func(j *Job, lease []string) {
				defer s.wg.Done()
				defer s.pool.release(lease, j.spec.P)
				s.runJob(j, lease)
			}(j, lease)
		}
	}
}

// runJob drives one job through its own engine.
func (s *Server) runJob(j *Job, lease []string) {
	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	resume := j.resume
	j.mu.Unlock()
	s.mx.running.Add(1)
	defer s.mx.running.Add(-1)
	if resume != nil {
		s.mx.resumed.Inc()
	}

	opts := core.Options{
		P:          j.spec.P,
		Seed:       j.spec.Seed,
		Rounds:     j.spec.Rounds,
		RoundMoves: j.spec.Moves,
		Alpha:      j.spec.Alpha,
		Target:     j.spec.Target,
		Portfolio:  j.port,
		Metrics:    j.reg,
		Tracer:     trace.Multi{jobTracer{j}, metrics.NewBridge(j.reg)},
		Stop:       j.stop,
		Resume:     resume,
	}
	if len(lease) > 0 {
		opts.Workers = lease
		opts.DialTimeout = s.cfg.DialTimeout
		opts.DialContext = s.dialCtx
	}
	if s.cfg.Dir != "" {
		store, err := s.openStore(j.spec.ID)
		if err != nil {
			s.finish(j, nil, err)
			return
		}
		opts.OnCheckpoint = func(c *core.Checkpoint) {
			var buf bytes.Buffer
			if err := core.SaveCheckpoint(&buf, c); err != nil {
				return
			}
			_ = store.Save(buf.Bytes())
		}
	}

	eng, err := core.NewEngine(j.ins, j.algo, opts)
	if err != nil {
		s.finish(j, nil, err)
		return
	}
	res, err := eng.Run()
	eng.Close()
	if err != nil {
		s.finish(j, nil, err)
		return
	}
	// A stop that came from shutdown (not from the client) leaves the job
	// unfinished so the restart resumes it from its checkpoint.
	if s.isClosing() && !j.isCanceled() && !jobComplete(j, res) {
		s.interrupt(j)
		return
	}
	s.finish(j, res, nil)
}

// jobComplete reports whether res represents a natural end of the job (all
// rounds run, or the target reached) rather than a stop-induced early exit.
func jobComplete(j *Job, res *core.Result) bool {
	if res.Stats.Rounds >= j.spec.Rounds {
		return true
	}
	return j.spec.Target > 0 && res.Best.Value >= j.spec.Target-1e-9
}

// finish moves a job to its terminal state, persists the outcome, publishes
// the terminal event and closes the stream.
func (s *Server) finish(j *Job, res *core.Result, err error) {
	j.mu.Lock()
	j.finished = time.Now()
	j.result = res
	kind := "done"
	if err != nil {
		j.state = StateFailed
		j.err = err.Error()
		kind = "failed"
	} else {
		j.state = StateDone
		j.round = res.Stats.Rounds
		j.best = res.Best.Value
	}
	round, best := j.round, j.best
	detail := j.err
	j.mu.Unlock()

	if kind == "done" {
		s.mx.done.Inc()
	} else {
		s.mx.failed.Inc()
	}
	if perr := s.persistResult(j); perr != nil && err == nil {
		// The run succeeded but the durable record did not: surface it.
		j.mu.Lock()
		j.state = StateFailed
		j.err = fmt.Sprintf("persist result: %v", perr)
		detail, kind = j.err, "failed"
		j.mu.Unlock()
	}
	ev := j.progressEvent(kind, round, best)
	ev.Detail = detail
	j.hub.publish(ev)
	j.hub.close()
	s.mu.Lock()
	s.active--
	s.mu.Unlock()
	close(j.done)
}

// interrupt marks a job cut short by shutdown. Nothing terminal is persisted:
// on disk the job is still "spec without result", so restart re-admits it.
func (s *Server) interrupt(j *Job) {
	j.mu.Lock()
	j.state = StateInterrupted
	round, best := j.round, j.best
	j.mu.Unlock()
	ev := j.progressEvent("interrupted", round, best)
	j.hub.publish(ev)
	j.hub.close()
	close(j.done)
}

func (s *Server) isClosing() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closing
}

// Job returns a job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs lists all jobs in submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Close stops the server: no new submissions, queued jobs are parked,
// running jobs finish their round in progress (their checkpoint is already
// durable) and are left unfinished on disk for the next incarnation to
// resume. In-flight worker dials are canceled.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return nil
	}
	s.closing = true
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()

	s.dialCancel()
	for _, j := range jobs {
		j.stopOnce.Do(func() { close(j.stop) })
	}
	close(s.quit)
	s.pool.close()
	s.wg.Wait()
	// Park whatever is still queued so their streams end cleanly.
	for {
		select {
		case j := <-s.queue:
			s.mx.queued.Add(-1)
			s.interrupt(j)
		default:
			return nil
		}
	}
}

// Handler returns the HTTP API:
//
//	POST   /jobs              submit a Spec, returns the job status (202)
//	GET    /jobs              list job statuses
//	GET    /jobs/{id}         one job's status
//	DELETE /jobs/{id}         cancel (graceful: the round in progress finishes)
//	GET    /jobs/{id}/events  NDJSON progress stream (backlog + live)
//	GET    /jobs/{id}/solution  best solution, mkpverify-compatible text
//	GET    /jobs/{id}/result  terminal summary JSON
//	GET    /fleet             fleet membership: free/leased/retiring workers
//	POST   /fleet             add/remove worker addresses mid-flight
//	GET    /healthz           liveness + capacity
//	GET    /metrics           merged Prometheus exposition, one label per job
//	GET    /metrics.json      merged snapshot
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	obsMux := obs.Handler(s.gather)
	mux.Handle("/metrics", obsMux)
	mux.Handle("/metrics.json", obsMux)
	mux.Handle("/debug/", obsMux)

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		s.mu.Lock()
		active := s.active
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, map[string]any{
			"ok": true, "capacity": s.pool.capacity(), "active": active,
			"fleet": s.pool.isFleet,
		})
	})
	mux.HandleFunc("GET /fleet", s.handleFleetGet)
	mux.HandleFunc("POST /fleet", s.handleFleetPost)
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, _ *http.Request) {
		jobs := s.Jobs()
		out := make([]Status, 0, len(jobs))
		for _, j := range jobs {
			out = append(out, j.status())
		}
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if j, ok := s.Job(r.PathValue("id")); ok {
			writeJSON(w, http.StatusOK, j.status())
			return
		}
		http.Error(w, "no such job", http.StatusNotFound)
	})
	mux.HandleFunc("DELETE /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, ok := s.Job(r.PathValue("id"))
		if !ok {
			http.Error(w, "no such job", http.StatusNotFound)
			return
		}
		j.cancel()
		writeJSON(w, http.StatusAccepted, map[string]string{"id": j.spec.ID, "state": "canceling"})
	})
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /jobs/{id}/solution", s.handleSolution)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	return mux
}

// handleFleetGet reports the fleet membership: free workers, workers leased
// to running jobs, and leased workers already marked for removal.
func (s *Server) handleFleetGet(w http.ResponseWriter, _ *http.Request) {
	if !s.pool.isFleet {
		http.Error(w, "server runs in-process slots, not a worker fleet", http.StatusConflict)
		return
	}
	free, leased, retiring := s.pool.fleetView()
	writeJSON(w, http.StatusOK, map[string]any{
		"capacity": s.pool.capacity(), "max_p": s.maxP(),
		"free": free, "leased": leased, "retiring": retiring,
	})
}

// handleFleetPost mutates the fleet membership:
//
//	POST /fleet {"add": ["host:port", ...], "remove": ["host:port", ...]}
//
// Adds take effect immediately (a job blocked on capacity wakes up); removes
// of leased workers defer until their job releases them.
func (s *Server) handleFleetPost(w http.ResponseWriter, r *http.Request) {
	if !s.pool.isFleet {
		http.Error(w, "server runs in-process slots, not a worker fleet", http.StatusConflict)
		return
	}
	var req struct {
		Add    []string `json:"add"`
		Remove []string `json:"remove"`
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		http.Error(w, "bad fleet request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Add) == 0 && len(req.Remove) == 0 {
		http.Error(w, "fleet request needs add or remove", http.StatusBadRequest)
		return
	}
	added := s.pool.addFleet(req.Add)
	dropped, retiring := s.pool.removeFleet(req.Remove)
	writeJSON(w, http.StatusOK, map[string]any{
		"added": added, "removed": dropped, "retiring": retiring,
		"capacity": s.pool.capacity(), "max_p": s.maxP(),
	})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		http.Error(w, "bad spec: "+err.Error(), http.StatusBadRequest)
		return
	}
	j, err := s.Submit(spec)
	if err != nil {
		code := http.StatusBadRequest
		if err == errBusy {
			code = http.StatusServiceUnavailable
			w.Header().Set("Retry-After", "1")
		}
		http.Error(w, err.Error(), code)
		return
	}
	writeJSON(w, http.StatusAccepted, j.status())
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	// Every write gets a fresh deadline: a subscriber that stops draining its
	// socket turns the next Encode into an i/o timeout instead of parking this
	// goroutine in the kernel send buffer for the life of the connection. The
	// deadline is cleared on exit so a keep-alive connection is reusable.
	rc := http.NewResponseController(w)
	deadline := func() { _ = rc.SetWriteDeadline(time.Now().Add(s.cfg.StreamWriteTimeout)) }
	defer func() { _ = rc.SetWriteDeadline(time.Time{}) }()
	backlog, ch, cancelSub := j.hub.subscribe()
	defer cancelSub()
	for _, e := range backlog {
		deadline()
		if enc.Encode(e) != nil {
			return
		}
	}
	if flusher != nil {
		flusher.Flush()
	}
	for {
		select {
		case e, open := <-ch:
			if !open {
				return
			}
			deadline()
			if enc.Encode(e) != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleSolution(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	j.mu.Lock()
	res, state, name := j.result, j.state, j.ins.Name
	j.mu.Unlock()
	if res != nil {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		var buf bytes.Buffer
		if err := mkp.WriteSolution(&buf, name, res.Best); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		_, _ = w.Write(buf.Bytes())
		return
	}
	// Recovered terminal job: the solution lives on disk.
	if state == StateDone && s.cfg.Dir != "" {
		http.ServeFile(w, r, s.jobDir(j.spec.ID)+"/solution.txt")
		return
	}
	http.Error(w, "job has no solution (state "+state+")", http.StatusConflict)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	st := j.status()
	if st.State != StateDone && st.State != StateFailed {
		http.Error(w, "job not finished (state "+st.State+")", http.StatusConflict)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
