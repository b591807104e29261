package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name      = flag.String("workload", "farm", "workload: farm, guided, wire or serve")
		seed      = flag.Uint64("seed", 1, "workload seed; the suite's instances are drawn from it")
		seconds   = flag.Float64("seconds", 10, "how long to measure")
		traceFlag = flag.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
		dataDir   = flag.String("data", ".bench_build/data", "data directory for the serve workload and the disk probes")
		outDir    = flag.String("out", ".bench_build/trace", "directory the traced run writes its spans to")
		pin       = flag.Bool("pin", false, "print pins.json for the default and held-out seeds, then exit")
	)
	flag.Parse()
	pins, err := loadPins()
	if err != nil {
		fatal(err)
	}
	if *pin {
		if err := printPins(pins); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fatal(fmt.Errorf("--trace takes 0 or 1, got %d", *traceFlag))
	}
	if err := os.MkdirAll(*dataDir, 0o755); err != nil {
		fatal(err)
	}
	cfg := config{w: w, seed: *seed, seconds: *seconds, trace: *traceFlag == 1, dataDir: *dataDir, outDir: *outDir}
	res, header, err := run(cfg, pins)
	if err != nil {
		fatal(err)
	}
	hb, err := json.Marshal(map[string]any{"header": header})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(hb))
	b, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// run derives the suite, measures it and assembles the result.
func run(cfg config, pins pinsFile) (*result, map[string]any, error) {
	suite, err := deriveSuite(cfg.w, cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	r := &runner{cfg: cfg, pins: pins, suite: suite, calib: newCalibPair()}
	defer r.calib.close()
	if err := pins.checkPins(cfg.w, cfg.seed, suite); err != nil {
		r.fail(err)
	}
	origin := time.Now()
	if cfg.trace {
		r.spans = newSpanLog(origin)
	}
	if cfg.w.serve {
		err = r.runServe()
	} else {
		err = r.runEngine()
	}
	if err != nil {
		return nil, nil, err
	}
	speed := pins.CalibRefS / median(r.calibS)
	header := map[string]any{
		"workload": cfg.w.name, "seed": cfg.seed, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "data_fs": fsType(cfg.dataDir), "steal_share": r.steal(), "host_speed": speed,
		"steal_adjusted": !cfg.w.serve, "passes": len(r.passes), "solves_per_pass": len(suite), "wall_s": r.wall,
		"wall_granted_s": r.wallGranted,
	}
	res := &result{}
	if cfg.trace {
		probes, err := runProbes(cfg.w, suite[0], r.spans, cfg.dataDir)
		if err != nil {
			return nil, nil, err
		}
		if !cfg.w.serve {
			if err := r.serveProbe(); err != nil {
				return nil, nil, err
			}
		}
		res.Metrics = r.perLayer(probes, speed)
		path := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.w.name, cfg.seed))
		if err := r.spans.write(path); err != nil {
			return nil, nil, err
		}
		header["trace_file"] = path
		header["op_uncovered_share"] = uncoveredShare(r.spans.spans, "op")
	} else {
		var pct float64
		res.Metrics, pct = r.endToEnd()
		header["tail_percentile"] = pct
		header["time_to_target_raw_s"] = median(column(r.untracedPasses(), func(p passRec) float64 { return p.ttt }))
		header["calib_median_s"] = median(r.calibS)
	}
	if len(r.failures) > 0 {
		header["failures"] = r.failures
	}
	res.Correct, res.Attempted, res.Failed = r.failed == 0, r.attempted, r.failed
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.Correct = false
			header["bad_metric"] = k
			m.Value = 0
			res.Metrics[k] = m
		}
	}
	return res, header, nil
}

func (r *runner) untracedPasses() []passRec {
	var out []passRec
	for _, p := range r.passes {
		if !p.traced {
			out = append(out, p)
		}
	}
	return out
}

func column(ps []passRec, f func(passRec) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}

// measuredSolves is the number of solves the recorded passes ran.
func (r *runner) measuredSolves() float64 { return float64(len(r.passes) * len(r.suite)) }

// granted is the share of a pass's wall time that counts: for the
// CPU-bound workloads, the share of the CPU time the VM wanted that the
// hypervisor granted while the pass ran; for serve, all of it.
func (r *runner) granted(p passRec) float64 {
	if r.cfg.w.serve {
		return 1
	}
	return 1 - p.stolen
}

// endToEnd assembles the untraced run's metrics. Each pass's times are
// multiplied, and its rates divided, by its granted share.
func (r *runner) endToEnd() (map[string]metric, float64) {
	ps := r.untracedPasses()
	ttt := column(ps, func(p passRec) float64 { return p.ttt * r.granted(p) })
	tl, pct, _ := tail(ttt)
	solves := r.measuredSolves()
	wall := r.wallGranted
	if r.cfg.w.serve {
		wall = r.wall
	}
	return map[string]metric{
		"setup_s":               {median(column(ps, func(p passRec) float64 { return p.setup * r.granted(p) })), "s"},
		"time_to_target_s":      {median(ttt), "s"},
		"time_to_target_tail_s": {tl, "s"},
		"solves_per_s":          {solves / wall, "1/s"},
		"moves_per_s":           {median(column(ps, func(p passRec) float64 { return float64(p.moves) / (p.run * r.granted(p)) })), "1/s"},
		"rounds_per_s":          {median(column(ps, func(p passRec) float64 { return float64(p.rounds) / (p.run * r.granted(p)) })), "1/s"},
		"alloc_mb":              {float64(r.used.alloc) / solves / 1e6, "MB"},
	}, pct
}

// perLayer assembles the traced run's metrics. Metrics of a layer the
// workload's ops do not pass through read 0.
func (r *runner) perLayer(probes map[string]float64, speed float64) map[string]metric {
	solves := r.measuredSolves()
	var moves, rounds int64
	for _, p := range r.passes {
		moves += p.moves
		rounds += p.rounds
	}
	var traced, untraced []float64
	for _, p := range r.passes {
		if p.traced {
			traced = append(traced, p.ttt*r.granted(p))
		} else {
			untraced = append(untraced, p.ttt*r.granted(p))
		}
	}
	orZero := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return median(xs)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m := map[string]metric{
		"tabu.moves_per_op":       {ratio(float64(moves), solves), "count"},
		"core.rounds_per_op":      {ratio(float64(rounds), solves), "count"},
		"core.round_s":            {orZero(r.roundDur), "s"},
		"core.master_s":           {orZero(r.master), "s"},
		"core.straggler_s":        {orZero(r.straggler), "s"},
		"core.retries":            {float64(r.retries), "count"},
		"reduce.fixed_share":      {ratio(float64(r.tracedFixed), float64(r.tracedItems)), "share"},
		"wire.bytes_per_round":    {ratio(float64(r.tracedBytes), float64(r.tracedRounds)), "bytes"},
		"wire.write_us":           {1e6 * ratio(r.writeDur.Seconds(), float64(r.writes)), "us"},
		"wire.handshake_s":        {orZero(r.handshake), "s"},
		"serve.queue_s":           {orZero(r.queue), "s"},
		"serve.run_s":             {orZero(r.runS), "s"},
		"serve.finish_s":          {orZero(r.finish), "s"},
		"serve.events_per_job":    {ratio(float64(r.events), float64(r.tracedJobs)), "count"},
		"serve.http_errors":       {float64(r.httpErrors), "count"},
		"ckptstore.saves_per_job": {ratio(float64(r.ckptWrites), float64(r.jobs)), "count"},
		"runtime.mallocs_per_op":  {ratio(float64(r.used.mallocs), solves), "count"},
		"runtime.gc_cpu_share":    {r.gcShare(), "share"},
		"host.cpu_per_op_s":       {ratio(r.used.cpu, solves), "s"},
		"host.speed":              {speed, "ratio"},
		"host.steal_share":        {r.steal(), "share"},
		"trace.overhead_share":    {orZero(traced)/orZero(untraced) - 1, "share"},
	}
	units := map[string]string{
		"mkp.fits_ns": "ns", "mkp.add_ns": "ns", "mkp.drop_ns": "ns", "mkp.random_feasible_us": "us",
		"tabu.round_s": "s", "tabu.move_us": "us", "tabu.allocs_per_round": "count",
		"tabu.add_scan_per_move": "count", "tabu.pool_accept_ratio": "ratio",
		"core.vet_us": "us", "core.checkpoint_encode_us": "us",
		"reduce.relax_s": "s", "reduce.fix_us": "us",
		"proto.encode_us": "us", "proto.decode_us": "us", "proto.result_bytes": "bytes",
		"ckptstore.save_ms": "ms", "ckptstore.bytes_per_save": "bytes",
	}
	for k, u := range units {
		m[k] = metric{probes[k], u}
	}
	return m
}

// printPins derives every workload's suite for the default and the held-out
// seed and prints pins.json with the calibration fields kept.
func printPins(p pinsFile) error {
	p.Suites = make(map[string]map[string]pinnedSuite)
	for _, seed := range []uint64{p.DefaultSeed, p.HeldOutSeed} {
		key := strconv.FormatUint(seed, 10)
		p.Suites[key] = make(map[string]pinnedSuite)
		for _, w := range workloads {
			suite, err := deriveSuite(w, seed)
			if err != nil {
				return err
			}
			p.Suites[key][w.name] = pinnedSuite{Round: w.round, RoundCap: w.roundCap(), Solves: suite}
		}
	}
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
