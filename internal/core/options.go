// Package core implements the paper's contribution: the parallel cooperative
// tabu search for the 0-1 MKP (Niar & Fréville, IPPS 1997, §4). One master
// process drives P slave searchers through synchronous rendezvous rounds,
// regenerating their starting solutions (ISP) and — in the full variant —
// dynamically retuning their strategy parameters (SGP) from the information
// the cooperative threads report back.
//
// The four algorithms of Table 2 are provided: SEQ (one sequential tabu
// search), ITS (independent parallel threads), CTS1 (cooperation on
// solutions, fixed strategies) and CTS2 (cooperation + dynamic strategy
// setting). The decentralized asynchronous scheme announced as future work in
// §6 is implemented in async.go.
package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/mkp"
	"repro/internal/supervise"
	"repro/internal/tabu"
	"repro/internal/trace"
	"repro/internal/transport/chaosnet"
	"repro/internal/transport/inproc"
)

// Algorithm selects one of the four search organizations compared in the
// paper's Table 2.
type Algorithm int

const (
	// SEQ is a single sequential tabu search with randomly chosen strategy
	// and starting solution.
	SEQ Algorithm = iota
	// ITS runs P independent parallel threads: no communication, no strategy
	// modification.
	ITS
	// CTS1 runs P cooperative threads exchanging solutions through the
	// master (ISP) but with fixed strategies.
	CTS1
	// CTS2 is the paper's full proposal: cooperation plus dynamic strategy
	// parameter setting (ISP + SGP).
	CTS2
)

func (a Algorithm) String() string {
	switch a {
	case SEQ:
		return "SEQ"
	case ITS:
		return "ITS"
	case CTS1:
		return "CTS1"
	case CTS2:
		return "CTS2"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ParseAlgorithm converts a Table 2 label to an Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "SEQ", "seq":
		return SEQ, nil
	case "ITS", "its":
		return ITS, nil
	case "CTS1", "cts1":
		return CTS1, nil
	case "CTS2", "cts2":
		return CTS2, nil
	}
	return 0, fmt.Errorf("core: unknown algorithm %q (want SEQ, ITS, CTS1 or CTS2)", s)
}

// Options configures a parallel solve.
type Options struct {
	// P is the number of slave search threads. SEQ forces 1. Default 8.
	P int
	// Seed drives every random choice; a (Seed, P, Rounds) triple fully
	// determines the run.
	Seed uint64
	// Rounds is the number of master iterations (Nb_search_it, Fig. 2).
	// Default 20.
	Rounds int
	// RoundMoves is the per-slave move budget per round at the reference
	// NbDrop (load balancing scales it down for deeper drops, §4.2).
	// Default 2000.
	RoundMoves int64
	// RefDrop is the NbDrop value at which a slave receives exactly
	// RoundMoves moves. Default 2.
	RefDrop int
	// Alpha is the ISP replacement threshold: a slave whose best is below
	// Alpha times the global best restarts from the global best. Default 0.99.
	Alpha float64
	// AdaptiveAlpha enables §4.2's dynamic control of Alpha by the master:
	// while the global best keeps improving, Alpha creeps up (macro
	// intensification — threads are pulled toward the leading region);
	// after stagnant rounds it backs off (macro diversification — threads
	// are left to roam, and random injections scatter them). Alpha stays in
	// [0.85, 0.995].
	AdaptiveAlpha bool
	// StagnationLimit is the number of rounds a slave's starting solution
	// may stay identical before ISP substitutes a random solution. Default 5.
	StagnationLimit int
	// InitialScore is each strategy's starting credit (the paper uses 4).
	InitialScore int
	// ExtendedTuning widens what SGP retunes beyond the paper's three
	// numeric parameters: on a strategy reset the slave also gets a fresh
	// intensification mode and add-phase noise level. §4.2 notes that a
	// strategy may include "the move realized at each iteration, ...etc";
	// this is that extension, off by default to keep CTS2 exactly the
	// paper's algorithm.
	ExtendedTuning bool
	// Base supplies the structural tabu parameters (NbInt, NbDiv, BBest,
	// intensification, diversification thresholds); the per-slave Strategy
	// field is overridden. Zero value means tabu.DefaultParams(n).
	Base tabu.Params
	// Portfolio, when non-empty, arms the hyper-heuristic portfolio: slot i
	// initially runs algorithm Portfolio[i mod len(Portfolio)] — a pure
	// function of the slot index, so elastic joiners and static slots get the
	// same assignment, and repetition in the list weights the initial split.
	// With more than one distinct member the tuner tracks per-algorithm
	// win rates across rendezvous and periodically reallocates slots toward
	// the winner, with a floor of one slot per member so no algorithm
	// starves. Nil (and any all-tabu list) leaves the run bitwise identical
	// to the paper's homogeneous tabu farm: no extra RNG draws, no new
	// metric families, no reallocation.
	Portfolio []tabu.AlgoID
	// Target stops the search as soon as the global best reaches it
	// (0 = disabled).
	Target float64
	// TimeLimit stops the search after the first round that ends beyond the
	// limit (0 = disabled). Experiments prefer move budgets; the CLI exposes
	// this to mimic the paper's fixed-execution-time protocol.
	TimeLimit time.Duration
	// SimBudget stops the search once the SIMULATED execution time on the
	// paper's hardware model (vtime.Alpha: 500-MIPS processors, 200 Mb/s
	// links) exceeds the budget. This is the paper's fixed-execution-time
	// protocol made deterministic: simulated time depends only on move
	// counts and message sizes, never on the host. When set and Rounds is
	// unset, rounds are unlimited. Stats.SimElapsed reports the simulated
	// clock either way.
	SimBudget time.Duration
	// Workers, when non-empty, lists the TCP addresses of mkpworker processes
	// to run the slaves on instead of in-process goroutines. The master dials
	// the roster into a wire fleet (internal/transport/wire), shipping each
	// worker the instance and its seed during the handshake, and drives the
	// run over the wire protocol. P defaults to len(Workers) and must equal it
	// when both are set. Workers is mutually exclusive with Faults and
	// Supervise — those belong to the in-process substrate — and with Guide,
	// whose core the wire codec does not ship. A wire rendezvous waits on
	// deadlines and member liveness (a remote death only ever manifests as
	// silence or a lost connection), so wire runs are not bitwise comparable
	// to in-process runs; on a healthy fleet a fixed seed still reaches the
	// identical final best value.
	Workers []string
	// DialTimeout bounds the per-address connect retry loop when Workers is
	// set, and then that worker's handshake (0 = the wire default, 10s each).
	// A job server multiplexing many runs sets this low so a vanished or
	// mute worker fails the lease fast.
	DialTimeout time.Duration
	// DialContext, when non-nil, cancels in-flight worker dials (including
	// their backoff sleeps and handshakes) when done — the seam a shutting-down server uses
	// so connecting to a slow worker never outlives the process. It does not
	// govern the run itself; use Stop for that.
	DialContext context.Context
	// Elastic, when non-nil, runs the slaves on an elastic wire fleet: the
	// master LISTENS (instead of dialing a Workers roster) and workers
	// join and leave mid-run. P becomes the desired fleet size — the master
	// admits joiners into fresh slots while live membership is below it, and
	// never shrinks its own ambition when workers depart. Elastic runs wait
	// on deadlines and liveness like Workers runs, with membership traffic
	// on top: epoch-stamped global-best gossip, graceful Leave
	// classification (a leaver is retired, never counted dead) and work
	// stealing (the master lends a straggler's slot to a worker that has
	// already reported this round). A never-churning elastic fleet reaches
	// the same final best as the Workers roster run and the in-process run
	// at the same seed. Mutually exclusive with Workers, Faults, Supervise,
	// Guide and Resume.
	Elastic *ElasticConfig
	// Guide, when non-nil, arms LP-guided core search: the master solves the
	// LP relaxation once at startup, fixes variables by reduced cost against
	// the best known solution (internal/reduce), and ships every slave a
	// tabu.Core restricting its scans to the free items. Whenever the global
	// best improves past the fixing gap the master re-thresholds the cached
	// relaxation and publishes a tighter core under the next epoch; when the
	// fixing proves the incumbent optimal the run stops early with
	// Stats.ProvenOptimal set. Guide is mutually exclusive with Workers and
	// Elastic: a Core is process-local guidance the wire codec does not
	// serialize.
	// A nil Guide reproduces the unguided search bit for bit.
	Guide *GuideConfig
	// Chaos, when non-nil, installs a deterministic network fault injector
	// beneath the wire frame codec: every TCP connection to a worker is
	// wrapped by a chaosnet.Chaos executing the plan's per-link schedule of
	// partitions, connection resets, read/write stalls, bandwidth throttling
	// and byte corruption. It is the wire-substrate mirror of Faults —
	// requires Workers or Elastic, and an inert (all-zero) plan leaves the
	// run equivalent to an unwrapped one. Corrupted frames surface as CRC
	// hard-errors that kill the connection (never as silent data), so chaos
	// runs exercise exactly the recovery paths a flaky real network would:
	// redispatch, crash detection, rejoin.
	Chaos *chaosnet.Plan
	// Faults, when non-nil, installs a deterministic fault injector in the
	// farm substrate: seeded per-link message drop/duplication and per-node
	// crash-after-k-sends, where CrashAt may name only slaves, nodes 1..P.
	// Every rendezvous already tolerates loss — a wait ends once the farm has
	// gone quiet, lost rounds are re-dispatched to live slaves, and the run
	// degrades to P−k slaves — so the plan changes only what is lost, and a
	// faulty run replays bitwise like a fault-free one (an all-zero plan
	// reproduces the fault-free run). Failures are counted in Stats
	// (SlaveFailures, Redispatches, DroppedMessages) and emitted as trace
	// events; OnCheckpoint fires as soon as a failure is detected so a
	// degraded run is resumable at the last good rendezvous.
	Faults *inproc.FaultPlan
	// SlaveTimeout is how long the master waits at a rendezvous on a wire
	// fleet (Workers or Elastic) for a live member's missing result before
	// re-dispatching or degrading: TCP loses nothing on a live connection,
	// but a hung worker is only ever silence. A member whose connection is
	// gone is missed sooner, at the round's deadline: SlaveTimeout until a
	// round has completed, then the measured per-move cost scaled by the
	// round's move budget, capped by SlaveTimeout. In-process it is unused:
	// the farm reports when nothing more can arrive. Default 5s.
	SlaveTimeout time.Duration
	// Supervise, when non-nil, arms the self-healing layer on top of the
	// rendezvous: slaves declared dead are respawned at round boundaries
	// after a capped exponential backoff (per-node restart budget, seeded
	// jitter), warm-started from the master's merged B-best pool; a hung-slave
	// watchdog reads per-slave progress watermarks at every missed rendezvous,
	// so a slow slave is forgiven and a stalled one is declared dead without
	// waiting out the silent-miss count. The supervisor's clock is simulated
	// (Stats.SimElapsed plus simulated idle time), so backoff is measured in
	// rounds played and a supervised run replays bitwise; on a healthy farm
	// it matches the unsupervised run. Restarts are counted in Stats
	// (SlaveRestarts, WatchdogTrips) and emitted as trace events.
	Supervise *supervise.Policy
	// Stop, when non-nil, requests a graceful stop: when a receive on the
	// channel proceeds (close it or send once), the master finishes the round
	// in progress — whose checkpoint has already been delivered to
	// OnCheckpoint — and returns the best found so far. The CLI wires SIGINT
	// to this.
	Stop <-chan struct{}
	// EqualWork divides each slave's budget by P so every algorithm consumes
	// the same *total* number of moves. The default (false) is the paper's
	// fixed-wall-clock protocol, where P processors do P times the work of
	// SEQ in the same time.
	EqualWork bool
	// Tracer, when non-nil, receives search events from the master (rounds,
	// ISP replacements/restarts, SGP resets) and from every slave kernel
	// (improvements, intensifications, diversifications). The recorder must
	// be safe for concurrent use; trace.NewLog and trace.NewWriter are.
	Tracer trace.Recorder
	// Metrics, when non-nil, receives run telemetry at every layer: master
	// counters (rounds, dispatches, ISP/SGP actions, failures), per-slave
	// kernel counters and histograms (via tabu.Params.Metrics), and farm
	// traffic (via farm.WithMetrics). The registry is concurrency-safe and
	// shared by the master and every slave goroutine. When nil every record
	// site costs one predictable branch and the run replays bitwise
	// identically; when set, all families without a `_seconds`/`_depth`
	// suffix are still deterministic for a fixed (algorithm, Seed, P).
	Metrics *metrics.Registry
	// OnCheckpoint, when non-nil, is called after every round with a
	// snapshot of the cooperative state; the caller persists it (see
	// SaveCheckpoint). The callback runs on the master goroutine.
	OnCheckpoint func(*Checkpoint)
	// Resume, when non-nil, restores the cooperative state (global best,
	// per-slave starts, strategies, scores, stagnation counters, alpha)
	// from a checkpoint before the first round. Slave long-term memory is
	// not restored. The checkpoint must match the algorithm, n and P.
	Resume *Checkpoint
}

// ElasticConfig configures an elastic wire fleet (Options.Elastic).
type ElasticConfig struct {
	// Listen is the TCP address the fleet master listens on for joining
	// workers ("host:port"; port 0 picks an ephemeral port, exposed via
	// Engine.FleetAddr).
	Listen string
	// Min is how many workers must have joined before the first round
	// dispatches (default 1). Set it to P to reproduce a static fleet.
	Min int
	// JoinGrace bounds the wait for the initial Min members, and the wait
	// for a fresh joiner when every admitted worker has died (default 30s).
	JoinGrace time.Duration
	// MaxNodes caps how many node ids the fleet will ever assign across the
	// run's lifetime, churn included (default 250 — the frame header
	// addresses nodes with one byte).
	MaxNodes int
}

// GuideConfig configures LP-guided core search (Options.Guide).
type GuideConfig struct {
	// Gap is the minimum improvement a strictly better solution must achieve
	// over the incumbent the fixing is derived against — the reduce.Fix gap.
	// Use 1 for integral profits (the generators all produce them); the zero
	// value defaults to 1.
	Gap float64
}

// withDefaults fills unset fields.
func (o Options) withDefaults(n int) Options {
	if o.P <= 0 {
		if len(o.Workers) > 0 {
			o.P = len(o.Workers)
		} else {
			o.P = 8
		}
	}
	if o.Rounds <= 0 {
		if o.SimBudget > 0 {
			o.Rounds = 1 << 30 // the simulated clock is the stop condition
		} else {
			o.Rounds = 20
		}
	}
	if o.RoundMoves <= 0 {
		o.RoundMoves = 2000
	}
	if o.RefDrop <= 0 {
		o.RefDrop = 2
	}
	if o.Alpha <= 0 || o.Alpha >= 1 {
		o.Alpha = 0.99
	}
	if o.StagnationLimit <= 0 {
		o.StagnationLimit = 5
	}
	if o.InitialScore <= 0 {
		o.InitialScore = 4
	}
	if o.Base.BBest == 0 { // zero value => defaults
		o.Base = tabu.DefaultParams(n)
	}
	if o.SlaveTimeout <= 0 {
		o.SlaveTimeout = 5 * time.Second
	}
	if o.Supervise != nil {
		pol := o.Supervise.WithDefaults()
		o.Supervise = &pol
	}
	if o.Guide != nil && o.Guide.Gap <= 0 {
		g := *o.Guide // copy so the caller's struct is never mutated
		g.Gap = 1
		o.Guide = &g
	}
	if o.Elastic != nil {
		e := *o.Elastic // copy so the caller's struct is never mutated
		if e.Min <= 0 {
			e.Min = 1
		}
		if e.JoinGrace <= 0 {
			e.JoinGrace = 30 * time.Second
		}
		o.Elastic = &e
	}
	return o
}

// Stats aggregates what a run did, for the experiment tables and ablations.
type Stats struct {
	Algorithm       Algorithm
	P               int
	Rounds          int       // rounds actually executed
	TotalMoves      int64     // compound moves summed over all slaves
	Messages        int64     // farm messages
	BytesSent       int64     // farm bytes
	Replacements    int       // ISP global-best substitutions
	RandomRestarts  int       // ISP random-solution substitutions
	StrategyResets  int       // SGP strategy regenerations
	SlaveFailures   int       // rounds a slot ended without a usable result (timeout exhausted or slave error)
	Redispatches    int       // start messages re-sent after a missed deadline
	DroppedMessages int64     // farm messages swallowed by the fault injector
	DeadSlaves      int       // slaves declared dead (the run degraded to P − DeadSlaves)
	SlaveRestarts   int       // dead slaves respawned by the supervisor
	WatchdogTrips   int       // slaves declared hung by the progress watchdog
	LiveSlaves      int       // slaves alive when the run ended (== P unless degraded)
	Joins           int       // workers admitted into the fleet mid-run (elastic only)
	Leaves          int       // workers that departed gracefully (elastic only)
	ResultRejects   int       // worker results (or gossip) that failed the master's revalidation
	Quarantines     int       // workers evicted after quarantineStrikes (3) rejected results
	Steals          int       // straggler slots handed to idle thieves (elastic only)
	SlotReallocs    int       // portfolio slot reassignments between algorithms
	Epoch           uint64    // final fleet epoch (elastic only; bumps on membership change and best broadcast)
	BestByRound     []float64 // global best after each round (the quality trajectory)
	FinalAlpha      float64   // Alpha at the end of the run (moves only under AdaptiveAlpha)
	// LP-guidance fields, populated only when Options.Guide is set.
	LPBound       float64 // LP relaxation optimum the fixing derives from
	CoreRefreshes int     // fixing re-thresholds after incumbent improvements
	CoreSize      int     // free items in the final core
	CoreFixedIn   int     // items the final fixing proved at 1
	CoreFixedOut  int     // items the final fixing proved at 0
	ProvenOptimal bool    // the fixing proved the final best optimal
	Elapsed       time.Duration
	// Assembled is how long the elastic master waited for its initial
	// cohort before the first round (zero for non-elastic runs); subtract it
	// from Elapsed to get the round-loop rate.
	Assembled time.Duration
	// SimElapsed is the deterministic simulated execution time on the
	// paper's hardware model (see Options.SimBudget).
	SimElapsed time.Duration
	// Portfolio accounting, nil unless Options.Portfolio is set: rounds and
	// improving rounds credited to each algorithm, and the final slot split,
	// keyed by algorithm name.
	AlgoRounds map[string]int
	AlgoWins   map[string]int
	AlgoSlots  map[string]int
}

// Result is the outcome of a parallel solve.
type Result struct {
	Best  mkp.Solution
	Stats Stats
	// Strategies holds each slave's final strategy, exposing what the
	// dynamic tuning converged to.
	Strategies []tabu.Strategy
}
