// Command perfbench is the repository's benchmark: wall-clock time-to-target
// of the cooperative tabu search, measured end to end and layer by layer,
// with every answer verified. BENCHMARK.json lists three workloads (farm,
// guided, wire); a fourth, serve, drives the HTTP job API and is measured
// inside every traced run.
//
// # Running
//
// From the repository root:
//
//	bash perfbench/run.sh --workload farm --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh --workload farm --seed 1 --seconds 25 --trace 1
//
// run.sh builds the benchmark from source with its Go build cache, binary
// and data under .bench_build/. The benchmark prints a header line (nproc,
// GOMAXPROCS, Go version, the data directory's filesystem type, the steal
// share, the host-speed factor, pass counts) and then, as its last line, one
// JSON object:
//
//	{"correct": true, "attempted": 160, "failed": 0, "metrics": {"time_to_target_s": {"value": 0.153, "unit": "s"}, ...}}
//
// --trace 0 reports the end-to-end metrics and --trace 1 the per-layer
// metrics. End-to-end numbers always come from the untraced run. The traced
// run also writes its spans to .bench_build/trace/<workload>-seed<n>.jsonl
// at exit. --workload serve runs the serve workload on its own with the
// same output. Tests: cd perfbench && go test ./...
//
// # Workloads
//
// A solve is one seeded CTS2 run: core.NewEngine, Engine.Run until it
// reaches its target, Engine.Close, verification. A suite is a fixed list of
// solves, and an op is one pass over the suite. Every pass of a run repeats
// the same suite, so pass-to-pass variation comes from the host. Timings are
// per-solve means within a pass. The reported value is the median over
// passes. Passes run in a closed loop.
//
//   - farm: in-process CTS2, P=2, GK n=500 m=30 tightness 0.25, 300 moves per
//     round, 4 solves per pass. Nearly all CPU goes to tabu.Searcher.Run and
//     mkp.State. The 120 KB weight matrix spills L1d into L2. The transport
//     carries a few dozen messages per solve. Kernel work shows here; master
//     and transport work do not.
//   - guided: in-process CTS2 with Options.Guide, P=2, GK n=500 m=5
//     tightness 0.75, 60 moves per round, 24 solves per pass. This is the same
//     kernel at the other end of the tightness axis: 5-row Fits and far more
//     items packed. It is the only workload whose set-up includes
//     reduce.Relax (about 9 ms). A kernel change tuned for many rows that
//     costs few rows shows here. At the incumbents these solves reach, the
//     reduced-cost fixing fixes no item, even at 2000 moves a round, so the
//     engine ships no LP core and the search replays the unguided one;
//     reduce.fixed_share reads 0. A change that makes the fixing bite moves
//     it. Its cost per move differs from instance to instance: with 12
//     solves per pass the same seed read 0.0267 s and 0.0261 s on two runs
//     and another seed 0.0305 s and 0.0306 s, and ten seeds spread 8.4%, so
//     a pass averages over 24 instances.
//   - wire: the same search over TCP with Options.Workers, P=2, GK n=250
//     m=10, 10 moves per slave per round, 64 solves per pass. The benchmark
//     hosts two loopback listeners that serve each connection with
//     wire.Accept and core.Slave, which is what mkpworker runs. Dispatch, the
//     proto codec, frames and CRC, syscalls, the deadline-driven collector
//     and result vetting are a large share of its wall time. Its set-up
//     includes dialing and shipping the instance in the handshake. A pass
//     holds 64 solves so that a 25 s run makes about 50 passes: with 32 the
//     tail sat at the 87th percentile of about 80 passes and spread 10.7%
//     over six runs, against 5.1% over five runs with 64.
//   - serve: serve.New with a durable data directory on the checkout's disk
//     and 2 in-process slots, driven over loopback HTTP by a closed loop of 2
//     clients. Each client submits the suite's 16 jobs in turn: a
//     server-generated GK n=200 m=10 CTS2 job with P=1, 200 moves per round,
//     a pinned target and a round cap. It follows /jobs/{id}/events to done,
//     then verifies /jobs/{id}/solution. Every round writes an fsync'd
//     ckptstore generation. It is the only workload with admission, FIFO
//     scheduling, NDJSON streams and concurrent engines. A cycle starts a
//     server on an empty data directory, runs one pass per client and
//     closes the server: a server's per-job cost and allocation grow with
//     the jobs it has served, because every checkpoint save lists the
//     shared checkpoint directory (0.90 MB a job after 272 jobs, 1.59 MB
//     after 656), so one server per run made a fast run's jobs dearer.
//
// serve is not in BENCHMARK.json. Its time_to_target_s spread 25% to 37%
// over five or six runs, also in runs where the hypervisor stole nothing;
// within one run the mean of a 16-job pass ranged from 3 ms to 20 ms. With
// one client it still spread 10.9% over five runs. It runs instead as the
// serve probe of every traced run (see Traced run), which reports the serve
// and ckptstore layers.
//
// Hardness shifts sharply with tightness, which is why the kernel runs at
// two tightness and row-count regimes (farm and guided). The guided
// workload's set-up and round loop exercise the LP relaxation and
// reduced-cost fixing.
//
// # Seeds, targets and suites
//
// --seed draws the suite's GK instance seeds. The engine seed of every
// solve is fixed per workload. It draws the slaves' strategies, and on the
// 2-vCPU VM this benchmark was built on one strategy draw cost up to three
// times another on the same instance: the time of a single round varied
// with a coefficient of variation of about 1.0 across engine seeds, against
// 0.16 across instances at a fixed engine seed.
//
// Round-level improvements of the global best are sparse, often ten rounds
// apart. A target read off the trajectory at a fixed round would therefore
// be reached anywhere from round 1 on. The suite keeps, in order, the first
// instances of the seed's stream whose seeded in-process trajectory improves
// in the workload's target round. Each solve's target is the best value
// after that round, and its round cap is twice that round. Every solve then
// reaches its target in exactly that round, and the work of a pass hardly
// moves with the seed: farm's solves all run 1620 moves.
//
// pins.json pins, for the default seed 1 and the held-out seed 97, each
// workload's solves (instance seed and target), the trajectory round and
// the round cap. A run at a pinned seed fails if its derived suite differs.
// A program change that moves these values has broken bitwise replay.
// perfbench -pin regenerates the file.
//
// # Verification
//
// A solve fails on any error; on a mkp.CheckSolution failure or a claimed
// value that differs from the recomputed one; on a target missed by the
// round cap or reached in another round than the trajectory's; on any
// redispatch, slot failure or result reject; and when the goroutine count
// is not back to its pre-solve value after Close. A served job also fails
// on a non-2xx response, a failed job, or /solution text that fails
// mkp.ReadSolution plus CheckSolution against the regenerated instance.
// The result line counts attempted and failed solves, the serve probe's
// jobs included. A pass with a failed solve is left out of the timings.
//
// # End-to-end metrics
//
//	name                   unit  definition
//	setup_s                s     core.NewEngine: validation, transport, dials and handshakes,
//	                             slave launch, LP relaxation. serve: the POST /jobs round trip
//	time_to_target_s       s     Engine.Run start until it returns at the target.
//	                             serve: 202 received until the done event
//	time_to_target_tail_s  s     the same at the highest percentile of passes with at least
//	                             ten passes beyond it (the header records the percentile)
//	solves_per_s           1/s   verified solves per second of the passes' wall time
//	moves_per_s            1/s   Stats.TotalMoves / Run time (serve: total_moves / run time)
//	rounds_per_s           1/s   Stats.Rounds / Run time (serve: rounds / run time)
//	alloc_mb               MB    Go heap allocated per solve (MemStats.TotalAlloc delta)
//
// Every time above is steal-adjusted on farm, guided and wire (see Host
// speed). first_result_s (submit until the first completed round) was
// defined for serve only and left the metric set with it; measured on the
// engine workloads it spread 16% on guided over six runs.
//
// # Host speed
//
// The benchmark runs on a VM whose hypervisor takes CPU time away at will:
// the steal column of /proc/stat reached 41% of a run, and across the
// passes of one farm run it ranged from 11% to 30%. farm, guided and wire
// are CPU-bound, so every pass of these workloads is stamped with the share
// s of the CPU time the VM wanted while it ran that steal took: steal ticks
// over all ticks that were not idle or iowait. Its times are multiplied,
// and its rates divided, by 1-s, and solves_per_s divides by the passes'
// wall times so adjusted (the header's wall_granted_s). serve reports raw
// wall time: its jobs also wait on fsync and on each other, which steal
// does not describe. Every run reports its steal share of all ticks.
//
// An idle vCPU accrues no steal. On a fully busy VM the two shares agree,
// and a pass that lost a share s of its CPU time took 1/(1-s) times as
// long. When one vCPU waits on the other, as a P=2 round's master and
// slaves do, steal on the busy vCPU delays the pass in full while the idle
// one adds ticks but no steal, so the share of all ticks understates the
// delay. Adjusted by that share, ten guided runs whose steal share rose
// from 1% to 29% still spread 14.7% (raw time 0.0289 s at 1% steal, 0.0582 s
// at 29%, adjusted 0.0417 s), and ten wire runs at 4% to 34% spread 20%.
// Adjusted by the share of non-idle ticks, ten 25 s runs of each workload
// with steal shares from 0.4% to 26% spread 3.6% (farm), 4.8% (guided, then
// at 12 solves per pass) and 2.2% (wire) in time_to_target_s, and at most
// 6.0% in any end-to-end metric. farm's raw time at 26% steal was 0.243 s and adjusted 0.160 s,
// against 0.155 s to 0.166 s for the runs at 1% to 2% steal.
//
// Between two passes, once the engine is closed and its goroutines are
// gone, the benchmark forces a garbage collection, so every pass starts on
// a collected heap, and runs one repetition of a frozen, allocation-free
// calibration loop on both vCPUs at once (calib.go). The traced run reports
// calib_ref / median(calibration) as host.speed, with calib_ref_s pinned in
// pins.json, and the untraced run's header records it. It explains drift;
// no metric is scaled by it. On the build VM the loop reads bimodally: one
// repetition alone takes 4.3 ms and a pair 7.2 ms, and in about one run in
// five every pair ran in about 5 ms while farm's time did not move. In
// those batches farm's time_to_target_s spread 29% to 32% scaled by the
// loop against 5% to 10% raw.
//
// Over six seeds with 20 s runs and steal between 0.4% and 22%, farm's
// time_to_target_s spread 21.4% raw, 19.3% scaled by the calibration loop
// and 4.3% adjusted by the steal share of all ticks, and its tail 19.5%,
// 17.1% and 3.9%. guided's time_to_target_s spread 6.8%, 5.9% and 5.3%,
// wire's 9.8%, 5.1% and 6.2%. Spreads here are the interquartile range
// over the median of per-run values.
//
// An earlier prototype on a 2-vCPU VM (L1d 48 KiB per core, no PMU) scaled
// by a calibration loop: farm time-to-target fell from 20.5% raw to 7.9%
// scaled over 24 runs, farm set-up from 26.6% to 5.6%, and wire from 11.0%
// to 8.3%, while scaling raised serve's spread from 10.6% to 17.6%. Steal
// reached 1.4 s in one 6 s prototype run and slowed it by about 20%, but
// drift also occurred with zero steal.
//
// Earlier benchmark attempts failed on noise, and these rules answer them.
// A serve set-up metric timed a 30 µs interval, so no metric here times an
// interval under about 1 ms. A farm workload mixed ops of unequal work and
// its tail was 2.8 times its median, so no workload here mixes ops of
// unequal work. Slaves, clients and connections are each at most the
// number of vCPUs (2).
//
// # Per-layer metrics
//
// The traced run measures each layer from outside the program: a span
// around a public call, a seam the benchmark owns, or a count the program
// already exports. Exact counts (*_per_op, *_bytes) move only when the work
// done changes. A metric of a layer that the workload's ops do not pass
// through reads 0: the wire seams exist only on wire, and the per-slot
// compute split needs the wire worker seam. The serve and ckptstore.saves
// metrics come from the serve probe.
//
//	layer      metric                      unit   source
//	mkp        mkp.fits_ns, add_ns, drop_ns ns    State ops on the suite's first instance
//	           mkp.random_feasible_us      us     mkp.RandomFeasible
//	tabu       tabu.round_s                s      Searcher.Run at the workload's round budget
//	           tabu.move_us                us     the same, per move
//	           tabu.allocs_per_round       count  MemStats.Mallocs around Searcher.Run
//	           tabu.add_scan_per_move      count  tabu_add_scan_length (Params.Metrics)
//	           tabu.pool_accept_ratio      ratio  tabu_pool_accepts / tabu_pool_offers
//	           tabu.moves_per_op           count  Stats.TotalMoves per solve
//	core       core.rounds_per_op          count  Stats.Rounds per solve
//	           core.round_s                s      RoundStart stamps via Options.Tracer;
//	                                              serve: gaps between round events
//	           core.master_s               s      round wall minus the slowest slot compute (wire)
//	           core.straggler_s            s      slowest minus fastest slot compute (wire)
//	           core.vet_us                 us     IsFeasibleAssignment + ValueOf on a result
//	           core.checkpoint_encode_us   us     SaveCheckpoint on a real checkpoint
//	           core.retries                count  redispatches + slot failures + rejects
//	reduce/lp  reduce.relax_s              s      reduce.Relax
//	           reduce.fix_us               us     Relaxation.FixAgainst at the target
//	           reduce.fixed_share          share  (CoreFixedIn + CoreFixedOut) / n of the solves
//	proto      proto.encode_us, decode_us  us     EncodePayload/DecodePayload of a Start + Result
//	           proto.result_bytes          bytes  encoded Result
//	wire       wire.bytes_per_round        bytes  Stats.BytesSent / Stats.Rounds (serve: the done
//	                                              event's bytes / rounds)
//	           wire.write_us               us     worker-side net.Conn Write (wire)
//	           wire.handshake_s            s      accept until wire.Accept returns (wire)
//	serve      serve.queue_s               s      StartedAt - SubmittedAt
//	           serve.run_s                 s      FinishedAt - StartedAt
//	           serve.finish_s              s      FinishedAt until the done event
//	           serve.events_per_job        count  NDJSON events read per job
//	           serve.http_errors           count  non-2xx responses
//	ckptstore  ckptstore.save_ms           ms     Open + Save of a real checkpoint on the data disk
//	           ckptstore.bytes_per_save    bytes  that checkpoint's payload
//	           ckptstore.saves_per_job     count  ckpt_writes_total per served job
//	runtime    runtime.mallocs_per_op      count  MemStats.Mallocs per solve
//	           runtime.gc_cpu_share        share  GC CPU / total CPU during the passes (runtime/metrics)
//	host       host.cpu_per_op_s           s      process CPU per solve (getrusage)
//	           host.speed                  ratio  calib_ref / median(calibration)
//	           host.steal_share            share  steal / total ticks in /proc/stat
//	trace      trace.overhead_share        share  traced / untraced time_to_target - 1
//
// Which end-to-end metric each layer should move, and where it should not:
// mkp and tabu move moves_per_s and time_to_target_s on farm and guided,
// and random_feasible also moves setup_s. core moves rounds_per_s and
// time_to_target_s on wire but not farm. reduce moves guided's setup_s and
// moves_per_s but no other workload's. proto and wire move wire's
// rounds_per_s and setup_s but not farm or guided. serve and ckptstore move
// no end-to-end metric of the three workloads; their own times show in the
// serve probe and in the serve workload run on its own. runtime allocation
// moves alloc_mb. host.* explain drift and should move nothing.
// trace.overhead_share should move nothing.
//
// # Traced run
//
// The traced run is a separate invocation. Every other pass is traced, and
// the untraced passes between them are the base of trace.overhead_share.
// Spans are kept in memory with a name, start, end, parent span and op id.
// An engine pass records op, then solve, with core.setup, core.run, then
// core.round, then slave.compute per slot (wire only), then core.close and
// bench.verify. A serve pass records op, then job, with serve.submit,
// serve.queue, serve.run, serve.finish and bench.verify. The layer probes
// run after the passes under the op id "probe". The serve probe then runs
// two cycles of the serve workload on the run's seed, the second traced;
// its passes are "probe.serve" spans under op ids "probe.serve<k>". At exit
// the spans are written once, one JSON object a line, followed by each span
// name's self time: its duration minus the union of its children. The
// header reports the median share of an op that its child spans do not
// cover. Splitting core.master_s into vet, ISP/SGP and dispatch needs spans
// inside core.
package main
