// Package pts (import path "repro") is a parallel cooperative tabu-search
// solver for the 0-1 multidimensional knapsack problem, reproducing
//
//	S. Niar, A. Fréville, "A Parallel Tabu Search Algorithm For The 0-1
//	Multidimensional Knapsack Problem", IPPS 1997.
//
// The package is a thin facade over the implementation packages: it exposes
// the problem model, the sequential tabu-search kernel, the four parallel
// search organizations compared in the paper (SEQ, ITS, CTS1, CTS2), the
// asynchronous decentralized extension, exact baselines, bounds, and the
// instance generators used by the experiment harness. The surface is split
// by topic:
//
//	pts.go                 the paper's parallel organizations (Solve)
//	facade_model.go        problem model, I/O, instance generators
//	facade_kernel.go       the sequential tabu-search kernel
//	facade_trace.go        search-event tracing
//	facade_checkpoint.go   crash/resume snapshots
//	facade_exact.go        exact solvers, bounds, problem reduction
//	facade_baselines.go    the non-cooperative parallel baselines
//
// # Quick start
//
//	ins := pts.GenerateGK("demo", 100, 10, 0.25, 1)
//	res, err := pts.Solve(ins, pts.CTS2, pts.Options{P: 8, Seed: 42})
//	if err != nil { ... }
//	fmt.Println(res.Best.Value)
//
// See examples/ for runnable programs and DESIGN.md for the system map.
package pts

import (
	"repro/internal/core"
)

// Algorithm selects one of the four search organizations of the paper's
// Table 2.
type Algorithm = core.Algorithm

// The four algorithms compared in Table 2.
const (
	SEQ  = core.SEQ
	ITS  = core.ITS
	CTS1 = core.CTS1
	CTS2 = core.CTS2
)

// Options configures a parallel solve; zero values select the defaults
// documented on the fields.
type Options = core.Options

// AsyncOptions configures the decentralized asynchronous solver.
type AsyncOptions = core.AsyncOptions

// Result is the outcome of a parallel solve: the best solution found, run
// statistics (trajectory, communication volume, tuning activity), and the
// final per-slave strategies.
type Result = core.Result

// Stats aggregates what a parallel run did.
type Stats = core.Stats

// Solve runs the selected parallel tabu-search organization on the instance.
// Runs are deterministic for a fixed (algorithm, Options.Seed, Options.P).
// With Options.Workers set, the slaves are separate worker processes reached
// over TCP (see cmd/mkpworker) instead of in-process goroutines.
func Solve(ins *Instance, algo Algorithm, opts Options) (*Result, error) {
	return core.Solve(ins, algo, opts)
}

// SolveAsync runs the decentralized asynchronous cooperative search (the
// paper's announced future work) in simulated time on the paper's platform.
// Like Solve it is deterministic: the result is a function of the options.
func SolveAsync(ins *Instance, opts AsyncOptions) (*Result, error) {
	return core.SolveAsync(ins, opts)
}

// ParseAlgorithm converts a Table 2 label ("SEQ", "ITS", "CTS1", "CTS2",
// case-insensitive) to an Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) { return core.ParseAlgorithm(s) }
