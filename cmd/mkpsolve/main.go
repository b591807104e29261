// Command mkpsolve runs the parallel cooperative tabu search on an instance
// file in the OR-Library layout (or on a freshly generated instance).
//
//	mkpsolve -algo CTS2 -p 8 -rounds 20 -moves 2000 instance.txt
//	mkpsolve -gen 250x15 -algo CTS2            # generate instead of reading
//	mkpsolve -async -p 8 -total 100000 instance.txt
//	mkpsolve -elastic 127.0.0.1:0 -p 8 -minworkers 4 instance.txt  # mkpworker -join fleet
//
// It prints the best value, the deviation from the LP bound, the quality
// trajectory and the cooperation statistics.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/bound"
	"repro/internal/ckptstore"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/mkp"
	"repro/internal/obs"
	"repro/internal/supervise"
	"repro/internal/tabu"
	"repro/internal/trace"
	"repro/internal/transport/chaosnet"
	"repro/internal/transport/inproc"
)

// main delegates to run so deferred cleanup (the observability listener, the
// signal handler) executes before the process picks its exit code.
func main() {
	os.Exit(run())
}

func run() int {
	var (
		algoName  = flag.String("algo", "CTS2", "algorithm: SEQ, ITS, CTS1, CTS2")
		portfolio = flag.String("portfolio", "", "comma-separated hyper-heuristic portfolio (tabu,repair,assim); slot i starts on entry i mod len, and with mixed members the tuner reallocates slots toward the winner")
		p         = flag.Int("p", 8, "number of slave threads")
		rounds    = flag.Int("rounds", 20, "master iterations")
		moves     = flag.Int64("moves", 2000, "per-slave per-round move budget")
		seed      = flag.Uint64("seed", 1, "random seed")
		alpha     = flag.Float64("alpha", 0.99, "ISP replacement threshold")
		timeLim   = flag.Duration("time", 0, "wall-clock limit (0 = none)")
		simLim    = flag.Duration("simtime", 0, "SIMULATED execution-time budget on the paper's Alpha-farm model (deterministic; 0 = none)")
		genSize   = flag.String("gen", "", "generate a GK instance NxM (e.g. 250x15) instead of reading a file")
		index     = flag.Int("index", 0, "1-based problem index inside an OR-Library multi-problem file (0 = first)")
		async     = flag.Bool("async", false, "use the decentralized asynchronous scheme")
		total     = flag.Int64("total", 40000, "async: per-peer total move budget")
		chunk     = flag.Int64("chunk", 1000, "async: moves between communication points")
		ring      = flag.Bool("ring", false, "async: ring topology instead of full broadcast")
		useCore   = flag.Bool("core", false, "arm the LP-guided core search: reduced-cost fixing restricts the tabu scans to a core set, re-thresholded as the incumbent improves")
		fixGap    = flag.Float64("gap", 0, "-core: fixing gap for the reduced-cost rule (0 = default 1, which keeps every strictly better solution when profits are integral)")

		quiet    = flag.Bool("q", false, "print only the best value")
		doTrace  = flag.Bool("trace", false, "stream search events (improvements, tuning actions) to stderr")
		listen   = flag.String("listen", "", "serve /metrics, /metrics.json, /debug/pprof and expvar on this address for the duration of the run (e.g. :6060)")
		showMet  = flag.Bool("metrics", false, "print an end-of-run metrics report")
		solOut   = flag.String("sol", "", "write the best solution to this file (verify with mkpverify)")
		ckptOut  = flag.String("checkpoint", "", "durable checkpoint base path: every round is written crash-safely as BASE.<generation> (atomic rename, checksummed, last -ckpt-keep kept)")
		ckptKeep = flag.Int("ckpt-keep", 3, "checkpoint generations to retain at the -checkpoint base path")
		resume   = flag.String("resume", "", "resume from a -checkpoint base path (newest uncorrupted generation wins)")

		maxRestarts = flag.Int("maxrestarts", 0, "arm the self-healing supervisor: per-slave restart budget (0 = supervision off)")
		backoff     = flag.Duration("backoff", 0, "supervisor: base restart backoff on the simulated clock (so a number of rounds, not host time), doubled per death and capped at 5s (0 = default 100ms)")

		workers = flag.String("workers", "", "comma-separated mkpworker addresses; run the slaves as separate processes over TCP (P defaults to the worker count)")

		elastic    = flag.String("elastic", "", "listen on this address for mkpworker -join processes; workers may come and go mid-run (e.g. 127.0.0.1:0)")
		minWorkers = flag.Int("minworkers", 0, "-elastic: workers that must join before the first round dispatches (default 1; set to -p for a static-equivalent start)")
		joinGrace  = flag.Duration("joingrace", 0, "-elastic: how long to wait for the initial -minworkers members, and for a fresh joiner when the fleet empties (default 30s)")
		equalWork  = flag.Bool("equalwork", false, "divide the per-round move budget by P so total work is constant across fleet sizes (scaling benchmarks)")
		benchJSON  = flag.String("benchjson", "", "write a machine-readable run summary (p, rounds, timings, traffic, churn counters) to this JSON file")

		faultSeed = flag.Uint64("faults", 0, "seed for deterministic fault injection (synchronous solver; armed when any fault flag is set)")
		dropRate  = flag.Float64("droprate", 0, "fault injection: probability a message is silently dropped")
		dupRate   = flag.Float64("duprate", 0, "fault injection: probability a message is delivered twice")
		crash     = flag.String("crash", "", "fault injection: comma-separated NODE@K specs; node goes fail-silent after K sends (slaves are nodes 1..P)")
		slaveTO   = flag.Duration("slavetimeout", 0, "-workers/-elastic: how long a round order to a still-connected worker is waited on before it is re-dispatched; a worker whose connection is gone is missed at the per-round deadline (0 = default 5s; in-process runs need none)")

		chaosSeed     = flag.Uint64("chaos", 0, "seed for the deterministic network chaos injector on wire connections (-workers/-elastic; armed when any chaos flag is set)")
		chaosCorrupt  = flag.Float64("chaos-corrupt", 0, "chaos: probability a write has one byte flipped (surfaces as CRC hard-errors, never silent data)")
		chaosReset    = flag.Float64("chaos-reset", 0, "chaos: probability an I/O op tears the connection down mid-flight")
		chaosStall    = flag.Float64("chaos-stall", 0, "chaos: probability an I/O op pauses for -chaos-stallfor")
		chaosStallFor = flag.Duration("chaos-stallfor", 0, "chaos: injected pause duration (default 50ms when -chaos-stall is set)")
		chaosBW       = flag.Int64("chaos-bw", 0, "chaos: per-link per-direction bandwidth cap in bytes/sec (0 = unlimited)")
		chaosPart     = flag.String("chaos-partition", "", "chaos: partition windows LINK@AFTER+HEAL, e.g. 0@500ms+1s,2@1s+750ms (writes black-hole, reads block until heal)")
	)
	flag.Parse()

	ins, err := loadInstance(*genSize, *seed, *index, flag.Args())
	if err != nil {
		return fail(err)
	}

	// Observability: one registry per run, optionally served live. The
	// listener stays up for the whole solve so `curl /metrics` and
	// `go tool pprof http://...:6060/debug/pprof/profile` watch it work.
	var reg *metrics.Registry
	if *listen != "" || *showMet {
		reg = metrics.NewRegistry()
	}
	if *listen != "" {
		srv, err := obs.Serve(*listen, reg)
		if err != nil {
			return fail(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "mkpsolve: observability on http://%s (/metrics, /debug/pprof)\n", srv.Addr())
	}

	if *elastic != "" && *async {
		return fail(errors.New("-elastic needs the synchronous solver (drop -async)"))
	}
	if *elastic == "" && (*minWorkers != 0 || *joinGrace != 0) {
		return fail(errors.New("-minworkers and -joingrace need an elastic fleet armed via -elastic"))
	}
	if *useCore && *async {
		return fail(errors.New("-core needs the synchronous solver (guidance lives in the master; drop -async)"))
	}
	if *portfolio != "" && *async {
		return fail(errors.New("-portfolio needs the synchronous solver (the master's tuner owns the allocation; drop -async)"))
	}
	if *fixGap != 0 && !*useCore {
		return fail(errors.New("-gap needs the guided search armed via -core"))
	}

	if *async {
		res, err := core.SolveAsync(ins, core.AsyncOptions{
			P: *p, Seed: *seed, TotalMoves: *total, ChunkMoves: *chunk, Alpha: *alpha, Ring: *ring,
		})
		if err != nil {
			return fail(err)
		}
		report(ins, "ASYNC", res, *quiet)
		if err := writeSolution(*solOut, ins, res.Best); err != nil {
			return fail(err)
		}
		if err := writeBenchJSON(*benchJSON, res); err != nil {
			return fail(err)
		}
		return 0
	}

	algo, err := core.ParseAlgorithm(*algoName)
	if err != nil {
		return fail(err)
	}
	opts := core.Options{
		P: *p, Seed: *seed, Rounds: *rounds, RoundMoves: *moves,
		Alpha: *alpha, TimeLimit: *timeLim, SimBudget: *simLim,
		EqualWork: *equalWork,
	}
	if *portfolio != "" {
		members, err := tabu.ParsePortfolio(*portfolio)
		if err != nil {
			return fail(err)
		}
		opts.Portfolio = members
	}
	if *elastic != "" {
		opts.Elastic = &core.ElasticConfig{Listen: *elastic, Min: *minWorkers, JoinGrace: *joinGrace}
	}
	if *useCore {
		opts.Guide = &core.GuideConfig{Gap: *fixGap}
	}
	if *simLim > 0 {
		opts.Rounds = 0 // let the simulated clock govern
	}
	if *workers != "" {
		for _, addr := range strings.Split(*workers, ",") {
			if addr = strings.TrimSpace(addr); addr != "" {
				opts.Workers = append(opts.Workers, addr)
			}
		}
		// -p keeps its meaning when given explicitly (it must then match the
		// worker count); otherwise the fleet size decides.
		pSet := false
		flag.Visit(func(f *flag.Flag) { pSet = pSet || f.Name == "p" })
		if !pSet {
			opts.P = len(opts.Workers)
		}
	}
	if plan, err := faultPlan(*faultSeed, *dropRate, *dupRate, *crash); err != nil {
		return fail(err)
	} else {
		opts.Faults = plan
	}
	if plan, err := chaosPlan(*chaosSeed, *chaosCorrupt, *chaosReset, *chaosStall,
		*chaosStallFor, *chaosBW, *chaosPart); err != nil {
		return fail(err)
	} else {
		opts.Chaos = plan
	}
	opts.SlaveTimeout = *slaveTO
	opts.Metrics = reg
	if *maxRestarts > 0 {
		opts.Supervise = &supervise.Policy{MaxRestarts: *maxRestarts, BaseBackoff: *backoff}
	} else if *backoff != 0 {
		return fail(errors.New("-backoff needs the supervisor armed via -maxrestarts"))
	}
	// The trace->metrics bridge folds every trace kind into
	// trace_events_total{kind=...} without a second instrumentation pass.
	var recorders trace.Multi
	if *doTrace {
		recorders = append(recorders, trace.NewWriter(os.Stderr))
	}
	if reg != nil {
		recorders = append(recorders, metrics.NewBridge(reg))
	}
	if len(recorders) > 0 {
		opts.Tracer = recorders
	}
	// Checkpoints go through the durable store: atomic rename, checksummed
	// header, rotated generations. A crash mid-write can at worst lose the
	// newest generation; the resume path falls back to the previous one.
	if *ckptOut != "" {
		store, err := ckptstore.Open(*ckptOut, ckptstore.WithKeep(*ckptKeep), ckptstore.WithMetrics(reg))
		if err != nil {
			return fail(err)
		}
		opts.OnCheckpoint = func(c *core.Checkpoint) {
			var buf bytes.Buffer
			if err := core.SaveCheckpoint(&buf, c); err != nil {
				fmt.Fprintln(os.Stderr, "mkpsolve: checkpoint:", err)
				return
			}
			if err := store.Save(buf.Bytes()); err != nil {
				fmt.Fprintln(os.Stderr, "mkpsolve: checkpoint:", err)
			}
		}
	}
	if *resume != "" {
		cp, gen, err := loadResume(*resume)
		if err != nil {
			return fail(err)
		}
		opts.Resume = cp
		// The crash-resume harness parses this line; keep its shape stable.
		fmt.Fprintf(os.Stderr, "mkpsolve: resuming at round %d (best %.0f, generation %s)\n",
			cp.Round, cp.Best.Value, gen)
	}

	// Graceful shutdown: the first SIGINT/SIGTERM lets the round in progress
	// finish (its checkpoint is already on disk when the master returns); a
	// second one aborts immediately.
	stop := make(chan struct{})
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	interrupted := make(chan os.Signal, 1)
	go func() {
		sig, ok := <-sigc
		if !ok {
			return
		}
		interrupted <- sig
		close(stop)
		fmt.Fprintf(os.Stderr, "mkpsolve: %v: finishing the round in progress (repeat to abort)\n", sig)
		if again, ok := <-sigc; ok {
			fmt.Fprintf(os.Stderr, "mkpsolve: %v again: aborting\n", again)
			os.Exit(128 + int(again.(syscall.Signal)))
		}
	}()
	opts.Stop = stop

	eng, err := core.NewEngine(ins, algo, opts)
	if err != nil {
		return fail(err)
	}
	defer eng.Close()
	// The elastic and chaos smoke harnesses parse this line to discover the
	// ephemeral fleet port; keep its shape stable.
	if addr := eng.FleetAddr(); addr != "" {
		fmt.Fprintf(os.Stderr, "mkpsolve: fleet listening on %s\n", addr)
	}
	res, err := eng.Run()
	if err != nil {
		return fail(err)
	}
	report(ins, algo.String(), res, *quiet)
	if err := writeBenchJSON(*benchJSON, res); err != nil {
		return fail(err)
	}
	if *showMet {
		reportMetrics(reg)
	}
	if err := writeSolution(*solOut, ins, res.Best); err != nil {
		return fail(err)
	}
	select {
	case sig := <-interrupted:
		fmt.Fprintf(os.Stderr, "mkpsolve: interrupted by %v after round %d; state saved, resume with -resume\n",
			sig, res.Stats.Rounds)
		return 128 + int(sig.(syscall.Signal))
	default:
	}
	return 0
}

// loadResume restores a checkpoint from a durable store base path: the
// newest uncorrupted generation wins, corrupt ones are quarantined.
func loadResume(path string) (*core.Checkpoint, string, error) {
	store, err := ckptstore.Open(path)
	if err != nil {
		return nil, "", err
	}
	payload, seq, err := store.Load()
	if err != nil {
		return nil, "", err
	}
	cp, err := core.LoadCheckpoint(bytes.NewReader(payload))
	if err != nil {
		return nil, "", err
	}
	return cp, fmt.Sprintf("%d", seq), nil
}

// reportMetrics prints the end-of-run telemetry summary: the per-slave
// kernel families summed farm-wide, plus the master and farm counters.
func reportMetrics(reg *metrics.Registry) {
	s := reg.Snapshot()
	offers := s.SumCounters("tabu_pool_offers_total")
	accepts := s.SumCounters("tabu_pool_accepts_total")
	rate := 0.0
	if offers > 0 {
		rate = 100 * float64(accepts) / float64(offers)
	}
	fmt.Printf("metrics    moves=%d drops=%d adds=%d tabu_hits=%d aspirations=%d improvements=%d pool_hit=%.1f%%\n",
		s.SumCounters("tabu_moves_total"), s.SumCounters("tabu_drops_total"),
		s.SumCounters("tabu_adds_total"), s.SumCounters("tabu_tabu_hits_total"),
		s.SumCounters("tabu_aspirations_total"), s.SumCounters("tabu_improvements_total"), rate)
	fmt.Printf("metrics    rounds=%d dispatches=%d results=%d isp_repl=%d isp_restart=%d sgp_resets=%d farm_msgs=%d dropped=%d\n",
		s.Counter("core_rounds_total"), s.Counter("core_dispatches_total"),
		s.Counter("core_results_total"), s.Counter("core_isp_replacements_total"),
		s.Counter("core_isp_restarts_total"), s.Counter("core_sgp_resets_total"),
		s.Counter("farm_messages_total"), s.Counter("farm_dropped_total"))
}

// faultPlan assembles an inproc.FaultPlan from the fault flags, or nil when
// none is set (keeping the fault-free solver bitwise reproducible).
func faultPlan(seed uint64, dropRate, dupRate float64, crash string) (*inproc.FaultPlan, error) {
	if seed == 0 && dropRate == 0 && dupRate == 0 && crash == "" {
		return nil, nil
	}
	plan := &inproc.FaultPlan{Seed: seed, DropRate: dropRate, DupRate: dupRate}
	if crash != "" {
		plan.CrashAt = make(map[int]int64)
		for _, spec := range strings.Split(crash, ",") {
			var node int
			var k int64
			if _, err := fmt.Sscanf(strings.TrimSpace(spec), "%d@%d", &node, &k); err != nil {
				return nil, fmt.Errorf("bad -crash spec %q, want NODE@K (e.g. 3@0)", spec)
			}
			plan.CrashAt[node] = k
		}
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return plan, nil
}

// chaosPlan assembles the wire-substrate chaos plan from the -chaos-* flags,
// the network mirror of faultPlan's in-process injection. Validation happens
// in the engine (which also rejects a plan with no wire substrate to wrap).
func chaosPlan(seed uint64, corrupt, reset, stall float64, stallFor time.Duration,
	bw int64, partitions string) (*chaosnet.Plan, error) {
	parts, err := chaosnet.ParsePartitions(partitions)
	if err != nil {
		return nil, err
	}
	if seed == 0 && corrupt == 0 && reset == 0 && stall == 0 && stallFor == 0 &&
		bw == 0 && len(parts) == 0 {
		return nil, nil
	}
	return &chaosnet.Plan{
		Seed:        seed,
		CorruptRate: corrupt,
		ResetRate:   reset,
		StallRate:   stall,
		Stall:       stallFor,
		BytesPerSec: bw,
		Partitions:  parts,
	}, nil
}

func loadInstance(genSize string, seed uint64, index int, args []string) (*mkp.Instance, error) {
	if genSize != "" {
		var n, m int
		if _, err := fmt.Sscanf(genSize, "%dx%d", &n, &m); err != nil || n < 1 || m < 1 {
			return nil, fmt.Errorf("bad -gen size %q, want NxM like 250x15", genSize)
		}
		return gen.GK(fmt.Sprintf("gen_%dx%d", m, n), n, m, 0.25, seed), nil
	}
	if len(args) != 1 {
		return nil, fmt.Errorf("expected exactly one instance file (or -gen NxM)")
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		return nil, err
	}
	// Chu–Beasley benchmark files ship with a .dat extension; everything else
	// goes through the OR-Library readers.
	if strings.HasSuffix(args[0], ".dat") {
		instances, err := mkp.ReadChuBeasley(bytes.NewReader(data), args[0])
		if err != nil {
			return nil, err
		}
		k := index
		if k <= 0 {
			k = 1
		}
		if k > len(instances) {
			return nil, fmt.Errorf("file has %d problems, -index %d out of range", len(instances), k)
		}
		return instances[k-1], nil
	}
	// Try the official multi-problem layout first, then the single layout.
	if instances, err := mkp.ReadORLibMulti(bytes.NewReader(data), args[0]); err == nil {
		k := index
		if k <= 0 {
			k = 1
		}
		if k > len(instances) {
			return nil, fmt.Errorf("file has %d problems, -index %d out of range", len(instances), k)
		}
		return instances[k-1], nil
	}
	return mkp.ReadORLib(bytes.NewReader(data), args[0])
}

func report(ins *mkp.Instance, algo string, res *core.Result, quiet bool) {
	if quiet {
		fmt.Printf("%.0f\n", res.Best.Value)
		return
	}
	fmt.Printf("instance   %s (%s)\n", ins.Name, ins.Size())
	fmt.Printf("algorithm  %s with P=%d\n", algo, res.Stats.P)
	fmt.Printf("best value %.0f\n", res.Best.Value)
	if ub, err := bound.LP(ins); err == nil && ub > 0 {
		fmt.Printf("LP bound   %.1f (deviation %.3f%%)\n", ub, 100*(ub-res.Best.Value)/ub)
	}
	if res.Stats.LPBound > 0 {
		// The guided run's own relaxation: its reduction-rate arithmetic is the
		// one reduce.Fixing.ReductionRate computes (fixed / n).
		st := res.Stats
		rate := float64(st.CoreFixedIn+st.CoreFixedOut) / float64(ins.N)
		gap := 100 * (st.LPBound - res.Best.Value) / st.LPBound
		if st.ProvenOptimal {
			fmt.Printf("guidance   LP bound %.1f (gap %.3f%%), incumbent proven optimal by reduced-cost fixing, %d refreshes\n",
				st.LPBound, gap, st.CoreRefreshes)
		} else {
			fmt.Printf("guidance   LP bound %.1f (gap %.3f%%), core %d of %d free (%d fixed in, %d out, reduction %.1f%%), %d refreshes\n",
				st.LPBound, gap, st.CoreSize, ins.N, st.CoreFixedIn, st.CoreFixedOut, 100*rate, st.CoreRefreshes)
		}
	}
	fmt.Printf("items      %d of %d packed\n", res.Best.X.Count(), ins.N)
	fmt.Printf("moves      %d over %d rounds in %v\n",
		res.Stats.TotalMoves, res.Stats.Rounds, res.Stats.Elapsed.Round(time.Millisecond))
	if res.Stats.SimElapsed > 0 {
		fmt.Printf("sim time   %v on the paper's 500-MIPS Alpha farm model\n",
			res.Stats.SimElapsed.Round(time.Millisecond))
	}
	fmt.Printf("comm       %d messages, %d bytes\n", res.Stats.Messages, res.Stats.BytesSent)
	if res.Stats.DroppedMessages > 0 || res.Stats.SlaveFailures > 0 || res.Stats.DeadSlaves > 0 {
		fmt.Printf("faults     %d dropped msgs, %d lost rounds, %d redispatches, %d dead slaves\n",
			res.Stats.DroppedMessages, res.Stats.SlaveFailures, res.Stats.Redispatches, res.Stats.DeadSlaves)
	}
	if res.Stats.ResultRejects > 0 || res.Stats.Quarantines > 0 {
		fmt.Printf("hardening  %d results rejected by revalidation, %d workers quarantined\n",
			res.Stats.ResultRejects, res.Stats.Quarantines)
	}
	if res.Stats.Joins > 0 || res.Stats.Leaves > 0 || res.Stats.Steals > 0 || res.Stats.Assembled > 0 {
		fmt.Printf("elastic    %d joins, %d leaves, %d steals, epoch %d, assembled in %v\n",
			res.Stats.Joins, res.Stats.Leaves, res.Stats.Steals, res.Stats.Epoch,
			res.Stats.Assembled.Round(time.Millisecond))
	}
	if res.Stats.SlaveRestarts > 0 || res.Stats.WatchdogTrips > 0 {
		fmt.Printf("healing    %d slave restarts, %d watchdog trips, %d/%d slaves alive at end\n",
			res.Stats.SlaveRestarts, res.Stats.WatchdogTrips, res.Stats.LiveSlaves, res.Stats.P)
	}
	fmt.Printf("tuning     %d replacements, %d restarts, %d strategy resets\n",
		res.Stats.Replacements, res.Stats.RandomRestarts, res.Stats.StrategyResets)
	if len(res.Stats.AlgoSlots) > 0 {
		fmt.Printf("portfolio ")
		for a := tabu.AlgoID(0); int(a) < tabu.NumAlgos; a++ {
			name := a.String()
			if _, ok := res.Stats.AlgoSlots[name]; !ok {
				continue
			}
			fmt.Printf(" %s=%d(wins %d/%d)", name, res.Stats.AlgoSlots[name],
				res.Stats.AlgoWins[name], res.Stats.AlgoRounds[name])
		}
		fmt.Printf(" reallocs=%d\n", res.Stats.SlotReallocs)
	}
	if len(res.Stats.BestByRound) > 1 {
		fmt.Printf("trajectory")
		for _, v := range res.Stats.BestByRound {
			fmt.Printf(" %.0f", v)
		}
		fmt.Println()
	}
	for i, st := range res.Strategies {
		if len(res.Stats.AlgoSlots) > 0 {
			fmt.Printf("slave %-2d   %s Lt=%d NbDrop=%d NbLocal=%d\n", i, st.Algo, st.LtLength, st.NbDrop, st.NbLocal)
		} else {
			fmt.Printf("slave %-2d   Lt=%d NbDrop=%d NbLocal=%d\n", i, st.LtLength, st.NbDrop, st.NbLocal)
		}
	}
}

// writeBenchJSON dumps the machine-readable run summary the scaling harness
// consumes (scripts/elastic_smoke.sh): fleet size, round count, wall-clock
// split into assembly wait and search, the traffic totals and the churn
// counters. One JSON object, trailing newline.
func writeBenchJSON(path string, res *core.Result) error {
	if path == "" {
		return nil
	}
	summary := struct {
		P                int     `json:"p"`
		Rounds           int     `json:"rounds"`
		Best             float64 `json:"best"`
		ElapsedSeconds   float64 `json:"elapsed_seconds"`
		AssembledSeconds float64 `json:"assembled_seconds"`
		Messages         int64   `json:"messages"`
		Bytes            int64   `json:"bytes"`
		Joins            int     `json:"joins"`
		Leaves           int     `json:"leaves"`
		Steals           int     `json:"steals"`
		Epoch            uint64  `json:"epoch"`
	}{
		P:                res.Stats.P,
		Rounds:           res.Stats.Rounds,
		Best:             res.Best.Value,
		ElapsedSeconds:   res.Stats.Elapsed.Seconds(),
		AssembledSeconds: res.Stats.Assembled.Seconds(),
		Messages:         res.Stats.Messages,
		Bytes:            res.Stats.BytesSent,
		Joins:            res.Stats.Joins,
		Leaves:           res.Stats.Leaves,
		Steals:           res.Stats.Steals,
		Epoch:            res.Stats.Epoch,
	}
	data, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func writeSolution(path string, ins *mkp.Instance, sol mkp.Solution) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return mkp.WriteSolution(f, ins.Name, sol)
}

// fail reports the error and returns the process exit code for it.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "mkpsolve:", err)
	return 1
}
