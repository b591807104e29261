package core

import (
	"fmt"
	"io"
	"time"

	"repro/internal/mkp"
	"repro/internal/rng"
	"repro/internal/supervise"
	"repro/internal/tabu"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/transport/chaosnet"
	"repro/internal/transport/inproc"
	"repro/internal/transport/proto"
	"repro/internal/transport/wire"
	"repro/internal/vtime"
)

// Solve runs the selected algorithm on the instance. The run is
// deterministic for a fixed (algorithm, Options.Seed, Options.P): slave
// streams are split from the seed and the master's decisions depend only on
// per-slave results, never on message arrival order. That holds for faulty
// and supervised in-process runs too: the fault schedule is fixed by the
// plan, a rendezvous ends when the farm has gone quiet rather than on a wall
// clock, and the supervisor reads the simulated clock, so every in-process
// run is a pure function of (seed, fault plan, policy) and replays bitwise
// (Options.TimeLimit, a wall-clock stop, is the one exception).
// With Options.Workers set the slaves are separate OS processes reached over
// TCP; such a run waits on deadlines (a remote death only ever manifests as
// silence), so it is not bitwise comparable to an in-process run, but on a
// healthy fleet it reaches the identical final best for a fixed seed — the
// master's decisions are a pure function of the per-slot results.
//
// Solve is the one-shot convenience over Engine: hosts that need to separate
// admission from execution, or run many solves concurrently in one process,
// build engines directly.
func Solve(ins *mkp.Instance, algo Algorithm, opts Options) (*Result, error) {
	e, err := NewEngine(ins, algo, opts)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	return e.Run()
}

// master owns the rendezvous loop of Fig. 2 and the engine components it
// drives: the dispatcher (sends round orders), the collector (runs the
// rendezvous), the tuner (ISP, SGP, adaptive alpha) and — when supervision is
// armed — the healer (stop/ack handshake, warm respawn). All components share
// the per-slave bookkeeping table by pointer and speak to the slaves only
// through the transport.Hub seam, so the same engine drives in-process
// goroutines and remote worker processes unchanged.
type master struct {
	ins  *mkp.Instance
	algo Algorithm
	opts Options
	net  transport.Hub
	*slaveTable

	disp  *dispatcher
	coll  *collector
	tune  *tuner
	heal  *healer     // nil unless opts.Supervise is set
	guide *guide      // nil unless opts.Guide is set
	rec   *reconciler // nil unless opts.Elastic is set
	fleet *wire.Fleet // nil unless the slaves are remote (Workers or Elastic)

	lastErr error

	best  mkp.Solution
	stats Stats

	// Observability. mx holds the master's metric handles (all nil without a
	// registry); startedAt anchors the time-to-best gauge; droppedBase is the
	// checkpoint-restored fault-counter baseline added to the transport's
	// count (the substrate of a resumed run starts from zero).
	mx          masterMetrics
	startedAt   time.Time
	droppedBase int64
}

// newEngine wires a master and its components around an existing transport
// and master random stream. It performs no random initialization and launches
// no slaves — newMaster does that; tests use newEngine directly to build a
// bare engine with hand-picked state.
func newEngine(ins *mkp.Instance, algo Algorithm, opts Options, net transport.Hub, r *rng.Rand) *master {
	// Elastic runs start with an EMPTY slot table: slots exist only once a
	// joined worker is admitted into them, and the table grows append-only
	// toward (and past, under churn) the desired size.
	tableP := opts.P
	if opts.Elastic != nil {
		tableP = 0
	}
	m := &master{
		ins:        ins,
		algo:       algo,
		opts:       opts,
		net:        net,
		slaveTable: newSlaveTable(tableP),
	}
	m.stats.Algorithm = algo
	m.stats.P = opts.P
	m.mx = newMasterMetrics(opts.Metrics)
	m.startedAt = time.Now()
	m.disp = &dispatcher{
		slaveTable:   m.slaveTable,
		net:          net,
		ins:          ins,
		opts:         &m.opts,
		mx:           &m.mx,
		dispatchedAt: make([]time.Time, tableP),
	}
	m.tune = &tuner{
		slaveTable: m.slaveTable,
		ins:        ins,
		opts:       &m.opts,
		r:          r,
		stats:      &m.stats,
		mx:         &m.mx,
		best:       &m.best,
		alpha:      opts.Alpha,
	}
	if len(opts.Portfolio) > 0 {
		m.tune.port = newPortfolio(opts.Portfolio, &m.stats, opts.Metrics)
	}
	m.coll = &collector{
		slaveTable: m.slaveTable,
		net:        net,
		ins:        ins,
		opts:       &m.opts,
		stats:      &m.stats,
		mx:         &m.mx,
		disp:       m.disp,
		life:       m,
		best:       &m.best,
	}
	return m
}

// newMaster builds the full engine: transport (in-process farm, or TCP
// connections to the configured workers), random initial strategies and
// starting solutions, slave processes, and — when armed — the supervision
// layer. The root RNG draw order is part of the determinism contract: one
// split for the master's private stream, one split per slave seed in launch
// order, then one draw for the supervisor seed only when supervision is
// armed, so arming a layer never shifts another consumer's stream.
func newMaster(ins *mkp.Instance, algo Algorithm, opts Options) (*master, error) {
	root := rng.New(opts.Seed)
	r := root.Split()
	seeds := make([]uint64, opts.P)
	for i := range seeds {
		seeds[i] = root.Split().Uint64()
	}

	var net transport.Hub
	var fleet *wire.Fleet
	var farm *inproc.Farm
	if len(opts.Workers) > 0 || opts.Elastic != nil {
		// A wire fleet: dialed from the Workers roster, or listening for
		// joiners. Either way the handshake ships each worker its node id,
		// seed and the full instance, so the processes need no problem file
		// of their own. Seeds for node ids 1..P are the pre-split block
		// above, so a never-churning elastic fleet is value-equivalent to
		// the roster run; ids beyond P (late joiners after churn) get
		// pure-function seeds that never touch the root stream.
		fcfg := wire.FleetConfig{SeedFor: func(node int) uint64 {
			if node >= 1 && node <= opts.P {
				return seeds[node-1]
			}
			return elasticSeed(opts.Seed, node)
		}}
		// The chaos injector wraps every member connection beneath the frame
		// codec, so injected partitions, resets, stalls and corruption
		// exercise exactly the recovery machinery a flaky real network
		// would. An inert plan wraps too, but draws nothing and sleeps
		// nowhere.
		if opts.Chaos != nil {
			chaos, err := chaosnet.New(*opts.Chaos)
			if err != nil {
				return nil, err
			}
			fcfg.ConnWrap = chaos.Wrap
		}
		var err error
		if opts.Elastic != nil {
			fcfg.MaxNodes = opts.Elastic.MaxNodes
			fleet, err = wire.ListenFleet(opts.Elastic.Listen, ins, fcfg, opts.Metrics)
		} else {
			fleet, err = wire.Dial(opts.Workers, ins, fcfg, opts.Metrics,
				wire.WithDialTimeout(opts.DialTimeout), wire.WithContext(opts.DialContext))
		}
		if err != nil {
			return nil, err
		}
		net = fleet
	} else {
		var farmOpts []inproc.Option
		if opts.Faults != nil {
			farmOpts = append(farmOpts, inproc.WithFaults(opts.Faults))
		}
		if opts.Metrics != nil {
			farmOpts = append(farmOpts, inproc.WithMetrics(opts.Metrics))
		}
		farm = inproc.New(opts.P+1, farmOpts...)
		net = farm
	}

	m := newEngine(ins, algo, opts, net, r)
	m.fleet = fleet
	m.coll.timed = fleet != nil
	if opts.Elastic != nil {
		// The elastic stream is split from the root AFTER the slave-seed
		// block, and only when elastic is armed, so arming it never shifts
		// any other consumer's stream. Mid-run joiners draw from it;
		// the initial cohort draws from the master stream (in assemble) in
		// exactly the static order.
		m.rec = &reconciler{
			slaveTable: m.slaveTable,
			fleet:      fleet,
			ins:        ins,
			opts:       &m.opts,
			stats:      &m.stats,
			mx:         &m.mx,
			disp:       m.disp,
			life:       m,
			best:       &m.best,
			masterR:    r,
			elasticR:   root.Split(),
		}
		m.coll.rec = m.rec
	}

	// LP guidance is armed before the starts are drawn: the epoch-0 fixing
	// thresholds against the deterministic greedy incumbent (no randomness,
	// so the guide never shifts the RNG stream), and guided runs then draw
	// their starting solutions inside the core.
	var inc mkp.Solution
	if opts.Guide != nil {
		inc = mkp.Greedy(ins)
		g, err := newGuide(ins, inc.Value, opts.Guide.Gap, &m.stats, opts.Metrics)
		if err != nil {
			return nil, err
		}
		m.guide = g
		m.disp.guide = g
		m.tune.guide = g
	}

	// Initial strategies and starting solutions: "chosen randomly" for every
	// variant (§5), so SEQ really is the paper's baseline of one random
	// sequential search and the parallel variants win by breadth, exchange
	// and tuning rather than by a seeded constructive start. An elastic run
	// defers this to reconciler.assemble (same draws, same order, made
	// against the cohort that actually joined).
	if opts.Elastic == nil {
		for i := 0; i < opts.P; i++ {
			strategy := tabu.RandomStrategy(ins.N, r)
			if m.guide != nil && m.guide.active() {
				m.seat(i, strategy, m.guide.start(r, 4), &m.opts)
			} else {
				m.seat(i, strategy, mkp.RandomFeasible(ins, r), &m.opts)
			}
		}
		m.best = m.starts[0].Clone()
		for i := 1; i < opts.P; i++ {
			if m.starts[i].Value > m.best.Value {
				m.best = m.starts[i].Clone()
			}
		}
		// The guided incumbent is a solution in hand: once the fixing actually
		// bites (or proves optimality outright) the run must never report worse
		// than the value it was derived against. While the epoch-0 fixing is
		// trivial the incumbent stays the guide's private threshold, so an
		// ineffective guide leaves the run bitwise identical to the unguided one.
		if m.guide != nil && (m.guide.active() || m.guide.optimal) && inc.Value > m.best.Value {
			m.best = inc.Clone()
		}
		m.mx.bestValue.Set(m.best.Value)
		m.tune.publishAlgoSlots()
	}

	// Launch the slaves ("Read and send to slaves problem data", Fig. 2 —
	// the instance pointer is shared read-only here). Roster workers were
	// already handed their seed and the instance during the dial handshake;
	// elastic workers receive theirs whenever they join.
	if farm != nil {
		for i := 0; i < opts.P; i++ {
			go slaveLoop(farm, i+1, ins, seeds[i], 0, nil, 0)
		}
	}
	// Supervision state is built only when armed, and its seed is drawn from
	// the root AFTER the slave splits, so an unsupervised run consumes
	// exactly the same stream positions as before supervision existed.
	if opts.Supervise != nil {
		h := newHealer(supervise.New(*opts.Supervise, opts.P, root.Uint64()), opts.P)
		h.slaveTable = m.slaveTable
		h.farm = farm
		h.ins = ins
		h.opts = &m.opts
		h.stats = &m.stats
		h.mx = &m.mx
		h.best = &m.best
		m.heal = h
		m.coll.heal = h
		m.disp.heartbeat = h.heartbeatFor
	}
	return m, nil
}

// run executes the master's iterative program (Fig. 2), resuming at the
// checkpointed round when one was restored.
func (m *master) run() (*Result, error) {
	// An elastic run assembles its initial cohort first: wait for Min
	// joiners, admit up to P in node order with state drawn exactly as a
	// static run draws it, and seed the global best from their starts.
	if m.rec != nil {
		if err := m.rec.assemble(); err != nil {
			return nil, err
		}
		m.tune.publishAlgoSlots()
	}
	deadline := time.Time{}
	if m.opts.TimeLimit > 0 {
		deadline = time.Now().Add(m.opts.TimeLimit)
	}
	clock := vtime.Alpha()
	budgets := make([]int64, m.size())

	results := make([]*tabu.Result, m.size())
	for round := m.stats.Rounds; round < m.opts.Rounds; round++ {
		// A proven-optimal incumbent ends the run at the round boundary:
		// every remaining move could only rediscover it.
		if m.guide != nil && m.guide.optimal {
			break
		}
		var roundBegan time.Time
		if m.mx.roundDur != nil {
			roundBegan = time.Now()
		}
		if m.opts.Tracer != nil {
			m.opts.Tracer.Record(trace.Event{
				Kind: trace.KindRoundStart, Actor: -1, Round: round, Value: m.best.Value,
			})
		}
		// Resurrection window: dead slaves whose backoff has elapsed are
		// respawned before the round's dispatch, so the fresh incarnations
		// take part immediately.
		if m.heal != nil {
			m.heal.superviseRound(round)
		}
		// Elastic reconciliation window: retire leavers, declare crashed
		// members dead, and admit queued joiners toward the desired size
		// before the round's dispatch so fresh capacity takes part
		// immediately.
		if m.rec != nil {
			m.rec.reconcile(round)
		}

		// Dispatch: every live slave gets its start, strategy and budget.
		// With supervision armed, an all-dead farm waits for the next
		// resurrection to come due instead of giving up outright; an elastic
		// farm likewise waits out JoinGrace for fresh capacity to dial in.
		dispatched := 0
		for attempt := 0; ; attempt++ {
			// The slot table grows under elastic churn (awaitJoin admits
			// mid-attempt); keep the round-scoped columns in step.
			for len(budgets) < m.size() {
				budgets = append(budgets, 0)
				results = append(results, nil)
			}
			dispatched = 0
			for i := 0; i < m.size(); i++ {
				results[i] = nil
				budgets[i] = 0
				if !m.alive[i] {
					continue
				}
				budgets[i] = m.disp.budgetFor(m.strategies[i])
				if err := m.disp.dispatch(i, i+1, round, budgets[i]); err != nil {
					return nil, err
				}
				dispatched++
			}
			if dispatched > 0 || (m.heal == nil && m.rec == nil) || attempt >= 4 {
				break
			}
			if m.heal != nil {
				if !m.heal.awaitRevival(round) {
					break
				}
			} else if !m.rec.awaitJoin(round) {
				break
			}
		}
		if dispatched == 0 {
			if m.lastErr != nil {
				return nil, fmt.Errorf("core: all %d slaves failed: %w", m.size(), m.lastErr)
			}
			return nil, fmt.Errorf("core: all %d slaves failed", m.size())
		}

		// Rendezvous: wait for the dispatched results (synchronous
		// centralized scheme, §4.2), re-dispatching what was lost.
		hadFailure := m.coll.collect(round, budgets, results)
		if hadFailure && m.opts.OnCheckpoint != nil {
			// Resumable at the last good rendezvous even if the run dies
			// before this round's bookkeeping completes.
			m.opts.OnCheckpoint(m.checkpoint())
		}

		// Bookkeeping. A slot without a result this round keeps its previous
		// start and strategy untouched.
		prevBest := m.best.Value
		live := budgets[:0:0]
		for i, res := range results {
			if res == nil {
				continue
			}
			live = append(live, budgets[i])
			m.stats.TotalMoves += res.Moves
			if m.tune.port != nil {
				// Credit the algorithm that was actually dispatched: SGP has
				// not run yet, so strategies[i].Algo is still this round's.
				m.tune.port.account(m.strategies[i].Algo, res.Improved)
			}
			if res.Best.Value > m.best.Value {
				m.best = res.Best.Clone()
			}
		}
		// Donated solutions (a leaver's parting rescue) fold in after the
		// results: monotone, and inert on a quiescent fleet.
		if m.rec != nil {
			m.rec.foldGossip()
		}
		m.stats.Rounds = round + 1
		m.mx.rounds.Inc()
		if m.best.Value > prevBest {
			m.mx.bestValue.Set(m.best.Value)
			m.mx.timeToBest.Set(time.Since(m.startedAt).Seconds())
			// An improved incumbent gossips out immediately under a fresh
			// epoch instead of waiting for each member's next round order.
			if m.rec != nil {
				m.rec.broadcastBest(round)
			}
		}
		m.stats.BestByRound = append(m.stats.BestByRound, m.best.Value)
		m.stats.SimElapsed += clock.RoundDuration(m.ins.N, m.ins.M, live,
			proto.SolutionSize(m.ins.N), proto.StrategySize())
		if m.opts.AdaptiveAlpha {
			m.tune.adaptAlpha(m.best.Value > prevBest)
		}
		// Guidance refresh: an incumbent that improved past the fixing gap
		// gives the reduced-cost rule new leverage, so the guide re-thresholds
		// the cached relaxation and the next dispatch ships a tighter core.
		if m.guide != nil && m.best.Value > prevBest {
			refreshed, err := m.guide.maybeRefresh(m.best.Value)
			if err != nil {
				return nil, err
			}
			if refreshed && m.opts.Tracer != nil {
				detail := fmt.Sprintf("epoch=%d size=%d in=%d out=%d",
					m.stats.CoreRefreshes, m.stats.CoreSize, m.stats.CoreFixedIn, m.stats.CoreFixedOut)
				if m.guide.optimal {
					detail = "incumbent proven optimal"
				}
				m.opts.Tracer.Record(trace.Event{
					Kind: trace.KindCoreRefresh, Actor: -1, Round: round, Value: m.best.Value, Detail: detail,
				})
			}
		}
		// Supervised runs keep a merged cooperative pool so a respawned slave
		// can be warm-started with the farm's collective memory.
		if m.heal != nil {
			m.heal.mergePool(results)
		}

		// Next-round starting solutions.
		switch m.algo {
		case SEQ, ITS:
			// Independent threads simply continue from their own best.
			// Clone at the store boundary: res.Best crossed goroutines and a
			// later re-dispatch may ship starts[i] while it is still held.
			for i, res := range results {
				if res != nil {
					m.starts[i] = res.Best.Clone()
				}
			}
		case CTS1, CTS2:
			m.tune.isp(results)
		}
		// Dynamic strategy setting (CTS2 only).
		if m.algo == CTS2 {
			m.tune.sgp(results)
		}
		// Hyper-heuristic slot reallocation (portfolio runs only), after SGP
		// so a redrawn strategy cannot clobber a fresh assignment.
		m.tune.reallocPortfolio(round)
		// The snapshot is taken after ISP/SGP so a resumed run starts the
		// next round with exactly the state this run would have used.
		if m.opts.OnCheckpoint != nil {
			m.opts.OnCheckpoint(m.checkpoint())
		}
		if m.mx.roundDur != nil {
			m.mx.roundDur.Observe(time.Since(roundBegan).Seconds())
		}

		if m.opts.Target > 0 && m.best.Value >= m.opts.Target-1e-9 {
			break
		}
		if m.opts.SimBudget > 0 && m.stats.SimElapsed >= m.opts.SimBudget {
			break
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			break
		}
		if m.stopRequested() {
			break
		}
	}

	ts := m.net.Stats()
	m.stats.Messages = ts.Messages
	m.stats.BytesSent = ts.Bytes
	// The substrate of a resumed run starts from zero; droppedBase carries
	// the checkpointed count so the reported total stays cumulative.
	m.stats.DroppedMessages = m.droppedBase + ts.Dropped
	m.stats.FinalAlpha = m.tune.alpha
	m.tune.snapshotAlgoStats()
	for _, ok := range m.alive {
		if ok {
			m.stats.LiveSlaves++
		}
	}
	return &Result{
		Best:       m.best,
		Stats:      m.stats,
		Strategies: append([]tabu.Strategy(nil), m.strategies...),
	}, nil
}

// slaveDied marks a node dead (err non-nil when the slave itself reported
// one) and degrades the farm to the remaining live slaves. Together with
// slotFailed it implements the lifecycle interface the collector reports
// failures through.
func (m *master) slaveDied(node, round int, err error) {
	if node < 0 || node >= m.size() || !m.alive[node] {
		return
	}
	m.alive[node] = false
	m.stats.DeadSlaves++
	m.mx.deadSlaves.Inc()
	if m.heal != nil {
		m.heal.sv.OnDeath(node, m.heal.now())
	}
	if err != nil {
		m.lastErr = fmt.Errorf("core: slave %d: %w", node, err)
	}
	if m.opts.Tracer != nil {
		detail := fmt.Sprintf("node=%d missed %d deadlines", node+1, m.nodeFail[node])
		if err != nil {
			detail = fmt.Sprintf("node=%d error: %v", node+1, err)
		}
		m.opts.Tracer.Record(trace.Event{
			Kind: trace.KindSlaveDead, Actor: -1, Round: round, Value: m.best.Value, Detail: detail,
		})
	}
}

// resultRejected records a worker payload that failed the master's
// revalidation and, once Options.QuarantineStrikes of them have accumulated,
// quarantines the offender. Strikes are attributed by the transport's own
// connection identity (Message.From), never by the payload's claimed node, so
// a forger cannot frame a peer.
func (m *master) resultRejected(node, round int, reason string) {
	m.stats.ResultRejects++
	m.mx.resultRejects.Inc()
	if m.opts.Tracer != nil {
		m.opts.Tracer.Record(trace.Event{
			Kind: trace.KindResultReject, Actor: -1, Round: round, Value: m.best.Value,
			Detail: fmt.Sprintf("node=%d %s", node+1, reason),
		})
	}
	if node < 0 || node >= m.size() {
		return
	}
	m.strikes[node]++
	if m.strikes[node] >= m.opts.QuarantineStrikes && m.alive[node] && !m.departed[node] {
		m.quarantine(node, round)
	}
}

// quarantine evicts a worker whose payloads keep failing revalidation. The
// slot lands in the leave ledger (departed=true), never in DeadSlaves: the
// departure is the master's own decision, not a crash — slaveDied's
// alive-check and the reconciler's departed-skip keep it out of every other
// ledger, and the supervisor never respawns a departed slot. On a wire fleet,
// roster or elastic, the connection is torn down as a Left member so the
// wire-side membership state agrees with the slot table.
func (m *master) quarantine(node, round int) {
	m.alive[node] = false
	m.departed[node] = true
	m.stats.Quarantines++
	m.mx.quarantines.Inc()
	if m.fleet != nil {
		m.fleet.Evict(node + 1)
	}
	if m.opts.Tracer != nil {
		m.opts.Tracer.Record(trace.Event{
			Kind: trace.KindQuarantine, Actor: -1, Round: round, Value: m.best.Value,
			Detail: fmt.Sprintf("node=%d strikes=%d", node+1, m.strikes[node]),
		})
	}
}

// slotFailed records that a slot finished a round without a usable result.
func (m *master) slotFailed(slot, round int) {
	m.stats.SlaveFailures++
	m.mx.slotFailures.Inc()
	if m.opts.Tracer != nil {
		m.opts.Tracer.Record(trace.Event{
			Kind: trace.KindSlaveTimeout, Actor: -1, Round: round, Value: m.best.Value,
			Detail: fmt.Sprintf("slot=%d abandoned for this round", slot),
		})
	}
}

// stopRequested reports whether the graceful-stop channel has fired.
func (m *master) stopRequested() bool {
	if m.opts.Stop == nil {
		return false
	}
	select {
	case <-m.opts.Stop:
		return true
	default:
		return false
	}
}

// shutdown stops all slaves. The stop order rides the control plane so a
// lossy or crashed link cannot leak a slave goroutine; a transport that holds
// real resources (sockets, reader goroutines) is then closed.
func (m *master) shutdown() {
	if m.fleet != nil {
		// A wire fleet stops whoever is live now (on an elastic fleet that
		// includes connected members never admitted to a slot).
		for _, node := range m.fleet.LiveNodes() {
			m.net.SendControl(0, node, proto.TagStop, nil, 0)
		}
	} else {
		for i := 0; i < m.opts.P; i++ {
			m.net.SendControl(0, i+1, proto.TagStop, nil, 0)
		}
	}
	if c, ok := m.net.(io.Closer); ok {
		c.Close()
	}
}
