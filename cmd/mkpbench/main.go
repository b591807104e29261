// Command mkpbench regenerates the paper's evaluation tables and the
// DESIGN.md ablations on the generated benchmark suites.
//
//	mkpbench -table 1            # Table 1: GK size ladder, deviation & time
//	mkpbench -table 2            # Table 2: SEQ vs ITS vs CTS1 vs CTS2
//	mkpbench -table fp           # §5 claim: optimum on all 57 FP problems
//	mkpbench -table traj         # convergence curves behind Table 2
//	mkpbench -compare file.txt   # the four algorithms on YOUR instance file
//	mkpbench -ablation alpha     # ISP threshold sweep
//	mkpbench -ablation tuning    # CTS1 vs CTS2 across seeds
//	mkpbench -ablation scaling   # P in {1,2,4,8,16}
//	mkpbench -ablation strategy  # tenure x NbDrop grid
//	mkpbench -ablation policies  # static vs reactive vs REM tabu lists
//	mkpbench -ablation grain     # coarse-grained vs low-level parallelism
//	mkpbench -ablation speedup   # time to SEQ-quality target vs P
//	mkpbench -ablation kernel    # paper kernel vs critical-event TS
//	mkpbench -ablation reduction # LP variable fixing by instance family
//	mkpbench -ablation async     # sync master-slave vs decentralized async
//	mkpbench -all                # everything, paper-scale
//	mkpbench -quick -all         # everything, minutes-scale
//	mkpbench -abreport parent.jsonl change.jsonl  # paired perfbench A/B (scripts/ab.sh)
//
// Output goes to stdout in the papers' table layouts; add -v for per-problem
// progress on stderr.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/bench"
	"repro/internal/mkp"
)

func main() {
	var (
		table    = flag.String("table", "", "table to regenerate: 1, 2, fp, traj")
		ablation = flag.String("ablation", "", "ablation to run: alpha, tuning, scaling, strategy")
		all      = flag.Bool("all", false, "run every table and ablation")
		quick    = flag.Bool("quick", false, "use reduced budgets (finishes in ~2-3 minutes)")
		seed     = flag.Uint64("seed", 42, "suite and search seed")
		p        = flag.Int("p", 0, "override slave count (0 = per-experiment default)")
		verbose  = flag.Bool("v", false, "per-problem progress on stderr")
		format   = flag.String("format", "text", "output format: text, csv, json")
		compare  = flag.String("compare", "", "run the four-algorithm comparison on an instance file (single or OR-Library multi-problem)")
		check    = flag.String("check", "", "compare each experiment against its export in a JSON baseline (written with -format json, -all included); print every difference and exit 1 if any cell other than a host wall-clock cell differs")

		kernelOut  = flag.String("kernelbench", "", "run the kernel microbenchmark suite (optimized vs naive evaluator) and write the JSON report to this path (\"-\" for stdout only)")
		solverOut  = flag.String("solverbench", "", "run the end-to-end solver benchmark (SEQ/ITS/CTS1/CTS2 time-to-target trajectories, guided vs unguided CTS2) and write the JSON report to this path (\"-\" for stdout only)")
		checkKern  = flag.String("checkkernel", "", "regenerate the kernel suite and compare against the given BENCH_kernel.json baseline; exit 1 if any op regresses more than -kerneltol")
		kernelTol  = flag.Float64("kerneltol", 0.15, "relative ns/op tolerance for -checkkernel")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
		abParent   = flag.String("abreport", "", "compare paired perfbench runs: -abreport PARENT.jsonl CHANGE.jsonl prints, per end-to-end metric of ./BENCHMARK.json, each side's median and quartiles, the median ratio, the change's wins and a Mann-Whitney U p-value")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		exitOn(err)
		exitOn(pprof.StartCPUProfile(f))
		atExit = append(atExit, func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}
	if *memprofile != "" {
		path := *memprofile
		atExit = append(atExit, func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "mkpbench:", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "mkpbench:", err)
			}
			f.Close()
		})
	}
	defer runAtExit()

	var progress io.Writer
	if *verbose {
		progress = os.Stderr
	}
	if *format != "text" && *format != "csv" && *format != "json" {
		fmt.Fprintf(os.Stderr, "mkpbench: unknown format %q\n", *format)
		os.Exit(2)
	}
	r := runner{seed: *seed, p: *p, quick: *quick, progress: progress, format: *format, check: *check}
	if r.check != "" {
		f, err := os.Open(r.check)
		exitOn(err)
		r.baseline, err = bench.LoadExports(f)
		f.Close()
		exitOn(err)
		r.regressed = new(bool)
	}

	ran := false
	if *abParent != "" {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "mkpbench: -abreport takes the parent's and the change's result files")
			os.Exit(2)
		}
		exitOn(abReport(os.Stdout, "BENCHMARK.json", *abParent, flag.Arg(0)))
		ran = true
	}
	if *kernelOut != "" {
		r.kernelBench(*kernelOut)
		ran = true
	}
	if *solverOut != "" {
		r.solverBench(*solverOut)
		ran = true
	}
	if *checkKern != "" {
		r.checkKernel(*checkKern, *kernelTol)
		ran = true
	}
	if *compare != "" {
		r.compareFile(*compare)
		ran = true
	}
	if *all || *table == "1" {
		r.table1()
		ran = true
	}
	if *all || *table == "2" {
		r.table2()
		ran = true
	}
	if *all || *table == "fp" {
		r.fp()
		ran = true
	}
	if *all || *table == "traj" {
		r.trajectories()
		ran = true
	}
	if *all || *ablation == "alpha" {
		r.alpha()
		ran = true
	}
	if *all || *ablation == "tuning" {
		r.tuning()
		ran = true
	}
	if *all || *ablation == "scaling" {
		r.scaling()
		ran = true
	}
	if *all || *ablation == "strategy" {
		r.strategy()
		ran = true
	}
	if *all || *ablation == "policies" {
		r.policies()
		ran = true
	}
	if *all || *ablation == "grain" {
		r.grain()
		ran = true
	}
	if *all || *ablation == "speedup" {
		r.speedup()
		ran = true
	}
	if *all || *ablation == "kernel" {
		r.kernel()
		ran = true
	}
	if *all || *ablation == "reduction" {
		r.reduction()
		ran = true
	}
	if *all || *ablation == "async" {
		r.async()
		ran = true
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
	if r.check != "" && *r.regressed {
		runAtExit()
		os.Exit(1)
	}
}

type runner struct {
	seed     uint64
	p        int
	quick    bool
	progress io.Writer
	format   string

	check     string                  // -check: the baseline's path
	baseline  map[string]bench.Export // -check: its exports by name
	regressed *bool                   // -check: a gated cell has differed
}

// emit prints the experiment in the selected format: the human table for
// text, or the machine-readable export for csv/json. With -check it instead
// diffs the export against its baseline export and records a regression;
// main exits 1 once every experiment has been checked.
func (r runner) emit(text string, export bench.Export) {
	if r.check != "" {
		baseline, ok := r.baseline[export.Name]
		if !ok {
			exitOn(fmt.Errorf("%s holds no %q export", r.check, export.Name))
		}
		diffs, err := bench.CompareExports(baseline, export)
		exitOn(err)
		fmt.Print(bench.RenderDiffs(export.Name, diffs))
		for _, d := range diffs {
			*r.regressed = *r.regressed || !d.Host
		}
		return
	}
	switch r.format {
	case "csv":
		exitOn(export.WriteCSV(os.Stdout))
	case "json":
		exitOn(export.WriteJSON(os.Stdout))
	default:
		fmt.Println(text)
	}
}

func (r runner) table1() {
	cfg := bench.Table1Config{Seed: r.seed, P: r.p, Progress: r.progress, ExactNodeLimit: 5_000_000}
	if r.quick {
		cfg.Rounds, cfg.RoundMoves, cfg.ExactNodeLimit = 4, 400, 1_000_000
	} else {
		cfg.Rounds, cfg.RoundMoves = 12, 2000
	}
	rows, err := bench.Table1(cfg)
	exitOn(err)
	r.emit(bench.RenderTable1(rows), bench.ExportTable1(rows))
}

func (r runner) table2() {
	cfg := bench.Table2Config{Seed: r.seed, P: r.p, Progress: r.progress}
	if r.quick {
		cfg.Rounds, cfg.RoundMoves = 4, 400
	} else {
		cfg.Rounds, cfg.RoundMoves = 12, 2000
	}
	rows, err := bench.Table2(cfg)
	exitOn(err)
	r.emit(bench.RenderTable2(rows), bench.ExportTable2(rows))
}

func (r runner) fp() {
	cfg := bench.FPConfig{Seed: r.seed, P: r.p, Progress: r.progress}
	if r.quick {
		cfg.Rounds, cfg.RoundMoves, cfg.ExactNodeLimit, cfg.Limit = 20, 600, 3_000_000, 30
	}
	sum, err := bench.FPReport(cfg)
	exitOn(err)
	r.emit(bench.RenderFP(sum), bench.ExportFP(sum))
}

// compareFile runs the Table 2 comparison on every problem in the given
// instance file (single-instance, official OR-Library multi-problem layout,
// or — for .dat files — the Chu–Beasley mknapcb series).
func (r runner) compareFile(path string) {
	data, err := os.ReadFile(path)
	exitOn(err)
	var instances []*mkp.Instance
	if strings.HasSuffix(path, ".dat") {
		instances, err = mkp.ReadChuBeasley(bytes.NewReader(data), path)
		exitOn(err)
	} else if instances, err = mkp.ReadORLibMulti(bytes.NewReader(data), path); err != nil {
		ins, err2 := mkp.ReadORLib(bytes.NewReader(data), path)
		exitOn(err2)
		instances = []*mkp.Instance{ins}
	}
	cfg := bench.Table2Config{Seed: r.seed, P: r.p, Progress: r.progress}
	if r.quick {
		cfg.Rounds, cfg.RoundMoves = 4, 400
	}
	rows := make([]bench.Table2Row, 0, len(instances))
	for i, ins := range instances {
		row, err := bench.CompareInstance(ins, ins.Name, uint64(i)*97, cfg)
		exitOn(err)
		rows = append(rows, *row)
	}
	r.emit(bench.RenderTable2(rows), bench.ExportTable2(rows))
}

func (r runner) trajectories() {
	cfg := bench.TrajectoryConfig{Seed: r.seed, P: r.p, Progress: r.progress}
	if r.quick {
		cfg.Rounds, cfg.RoundMoves = 6, 400
	}
	series, err := bench.Trajectories(cfg)
	exitOn(err)
	r.emit(bench.RenderTrajectories(series), bench.ExportTrajectories(series))
}

func (r runner) ablationCfg() bench.AblationConfig {
	cfg := bench.AblationConfig{Seed: r.seed, P: r.p, Progress: r.progress}
	if r.quick {
		cfg.Rounds, cfg.RoundMoves, cfg.Seeds = 4, 300, 2
	} else {
		cfg.Rounds, cfg.RoundMoves, cfg.Seeds = 10, 1500, 5
	}
	return cfg
}

func (r runner) alpha() {
	rows, err := bench.AblationAlpha(r.ablationCfg())
	exitOn(err)
	r.emit(bench.RenderAlpha(rows), bench.ExportAlpha(rows))
}

func (r runner) tuning() {
	rows, err := bench.AblationTuning(r.ablationCfg())
	exitOn(err)
	r.emit(bench.RenderTuning(rows), bench.ExportTuning(rows))
}

func (r runner) scaling() {
	rows, err := bench.AblationScaling(r.ablationCfg())
	exitOn(err)
	r.emit(bench.RenderScaling(rows), bench.ExportScaling(rows))
}

func (r runner) strategy() {
	rows, err := bench.AblationStrategy(r.ablationCfg())
	exitOn(err)
	r.emit(bench.RenderStrategy(rows), bench.ExportStrategy(rows))
}

func (r runner) policies() {
	rows, err := bench.AblationPolicies(r.ablationCfg())
	exitOn(err)
	r.emit(bench.RenderPolicies(rows), bench.ExportPolicies(rows))
}

func (r runner) grain() {
	rows, err := bench.AblationGrain(r.ablationCfg())
	exitOn(err)
	r.emit(bench.RenderGrain(rows), bench.ExportGrain(rows))
}

func (r runner) speedup() {
	rows, err := bench.AblationSpeedup(r.ablationCfg())
	exitOn(err)
	r.emit(bench.RenderSpeedup(rows), bench.ExportSpeedup(rows))
}

func (r runner) kernel() {
	rows, err := bench.AblationKernel(r.ablationCfg())
	exitOn(err)
	r.emit(bench.RenderKernel(rows), bench.ExportKernel(rows))
}

func (r runner) reduction() {
	rows, err := bench.AblationReduction(r.ablationCfg())
	exitOn(err)
	r.emit(bench.RenderReduction(rows), bench.ExportReduction(rows))
}

func (r runner) async() {
	rows, err := bench.AblationAsync(r.ablationCfg())
	exitOn(err)
	r.emit(bench.RenderAsync(rows), bench.ExportAsync(rows))
}

// kernelBench runs the evaluator microbenchmark suite and writes the JSON
// report to path ("-" prints the table only). This is how BENCH_kernel.json
// at the repository root is produced.
func (r runner) kernelBench(path string) {
	rep := bench.RunKernelSuite(bench.DefaultKernelSpec())
	fmt.Print(bench.RenderKernelReport(rep))
	if path == "-" {
		return
	}
	f, err := os.Create(path)
	exitOn(err)
	err = rep.WriteJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	exitOn(err)
	fmt.Fprintln(os.Stderr, "mkpbench: kernel report written to", path)
}

// solverBench runs the end-to-end solver benchmark (deterministic quality
// trajectories, guided vs unguided CTS2) and writes the JSON report to path
// ("-" prints the tables only). This is how BENCH_solver.json at the
// repository root is produced. The spec is pinned — -seed and -p are ignored
// so a regenerated baseline is comparable to the committed one; -quick
// shrinks the suite for smoke runs.
func (r runner) solverBench(path string) {
	sp := bench.DefaultSolverSpec()
	if r.quick {
		sp = bench.QuickSolverSpec()
	}
	rep, err := bench.RunSolverSuite(sp, r.progress)
	exitOn(err)
	fmt.Print(bench.RenderSolverReport(rep))
	if path == "-" {
		return
	}
	f, err := os.Create(path)
	exitOn(err)
	err = rep.WriteJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	exitOn(err)
	fmt.Fprintln(os.Stderr, "mkpbench: solver report written to", path)
}

// checkKernel regenerates the kernel suite on the baseline's own spec and
// fails (exit 1) when any optimized op regressed beyond the tolerance. This
// is the bench-guard CI gate (scripts/bench_guard.sh).
func (r runner) checkKernel(path string, tol float64) {
	f, err := os.Open(path)
	exitOn(err)
	baseline, err := bench.ReadKernelReport(f)
	f.Close()
	exitOn(err)
	rep := bench.RunKernelSuite(baseline.Spec)
	fmt.Print(bench.RenderKernelReport(rep))
	regs := bench.CompareKernelReports(baseline, rep, tol)
	if len(regs) > 0 {
		fmt.Fprintln(os.Stderr, "mkpbench: kernel regressions against", path)
		for _, m := range regs {
			fmt.Fprintln(os.Stderr, "  "+m)
		}
		runAtExit()
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "mkpbench: no kernel op regressed more than %.0f%% vs %s\n", 100*tol, path)
}

// atExit holds profiler flushes that must run before the process exits, even
// through the os.Exit in exitOn.
var atExit []func()

func runAtExit() {
	for i := len(atExit) - 1; i >= 0; i-- {
		atExit[i]()
	}
	atExit = nil
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "mkpbench:", err)
		runAtExit()
		os.Exit(1)
	}
}
