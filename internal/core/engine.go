package core

import (
	"fmt"
	"time"

	"repro/internal/mkp"
)

// Engine is one solver run as a value a host can hold: built by NewEngine,
// executed once by Run, released by Close. Unlike the one-shot Solve wrapper
// it separates construction (validation, transport, slave launch) from
// execution, which is what a job server needs — admit and reject bad jobs at
// submit time, then start the round loop later on its own scheduler.
//
// Engines are independent: each owns its transport, RNG streams, bookkeeping
// tables and metric handles, and the package keeps no cross-run mutable state,
// so any number of engines may run concurrently in one process. A concurrent
// run is bitwise identical to the same run executed alone (the determinism
// contract is per-engine). The one sharing rule is the caller's: give each
// engine its own Options.Metrics registry (merge them with metrics.Gatherer)
// and its own Tracer, or those sinks will interleave.
//
// An Engine is not itself safe for concurrent method calls; it belongs to one
// driving goroutine. Close may be called whether or not Run was, and is
// idempotent; the usual remote-stop path is Options.Stop.
type Engine struct {
	m      *master
	start  time.Time
	ran    bool
	closed bool
}

// NewEngine validates the problem and options and builds the full engine:
// transport (in-process farm, or a wire fleet dialed from Options.Workers or
// listening per Options.Elastic), seeded initial
// state, launched slaves, and the restored checkpoint when Options.Resume is
// set. On error nothing is left running. The caller must Close the engine.
func NewEngine(ins *mkp.Instance, algo Algorithm, opts Options) (*Engine, error) {
	if err := ins.Validate(); err != nil {
		return nil, err
	}
	if algo < SEQ || algo > CTS2 {
		return nil, fmt.Errorf("core: unknown algorithm %d", int(algo))
	}
	opts = opts.withDefaults(ins.N)
	if algo == SEQ {
		opts.P = 1
		if len(opts.Portfolio) > 0 {
			return nil, fmt.Errorf("core: SEQ runs one tabu slave; a portfolio needs a parallel algorithm")
		}
	}
	if err := opts.Base.Validate(); err != nil {
		return nil, fmt.Errorf("core: base params: %w", err)
	}
	for i, a := range opts.Portfolio {
		if !a.Valid() {
			return nil, fmt.Errorf("core: portfolio entry %d: unknown algorithm id %d", i, int(a))
		}
	}
	if opts.Faults != nil {
		if err := opts.Faults.Validate(); err != nil {
			return nil, err
		}
	}
	if opts.Supervise != nil {
		if err := opts.Supervise.Validate(); err != nil {
			return nil, err
		}
	}
	if opts.Chaos != nil {
		if err := opts.Chaos.Validate(); err != nil {
			return nil, err
		}
	}
	// Both wire admission paths run the slaves as remote processes on a
	// wire.Fleet: the in-process substrate owns fault injection, supervised
	// respawn and simulated latency, and the wire codec does not ship a core.
	sub := ""
	if len(opts.Workers) > 0 {
		sub = "Workers"
	} else if opts.Elastic != nil {
		sub = "Elastic"
	}
	switch {
	case sub == "":
		if opts.Chaos != nil {
			return nil, fmt.Errorf("core: Chaos requires Workers or Elastic (chaosnet wraps real TCP connections; use Faults for the in-process substrate)")
		}
	case opts.Faults != nil:
		return nil, fmt.Errorf("core: %s and Faults are mutually exclusive (fault injection is an in-process substrate feature; Chaos is its wire mirror)", sub)
	case opts.Supervise != nil:
		return nil, fmt.Errorf("core: %s and Supervise are mutually exclusive (respawn needs in-process slaves)", sub)
	case opts.Latency != 0:
		return nil, fmt.Errorf("core: %s and Latency are mutually exclusive (real links have real latency)", sub)
	case opts.Guide != nil:
		return nil, fmt.Errorf("core: %s and Guide are mutually exclusive (a core is process-local guidance the wire codec does not ship)", sub)
	}
	if len(opts.Workers) > 0 && opts.P != len(opts.Workers) {
		return nil, fmt.Errorf("core: P=%d but %d worker addresses given", opts.P, len(opts.Workers))
	}
	if opts.Elastic != nil {
		// P is the DESIRED size of an elastic fleet, not a fixed roster.
		switch {
		case len(opts.Workers) > 0:
			return nil, fmt.Errorf("core: Elastic and Workers are mutually exclusive (an elastic fleet is joined, not dialed)")
		case opts.Resume != nil:
			return nil, fmt.Errorf("core: Elastic and Resume are mutually exclusive (a checkpoint pins a roster the fleet cannot promise)")
		case opts.Elastic.Min > opts.P:
			return nil, fmt.Errorf("core: Elastic.Min=%d exceeds desired fleet size P=%d", opts.Elastic.Min, opts.P)
		}
	}

	start := time.Now()
	m, err := newMaster(ins, algo, opts)
	if err != nil {
		return nil, err
	}
	if opts.Resume != nil {
		if err := m.restore(opts.Resume); err != nil {
			m.shutdown()
			return nil, err
		}
	}
	return &Engine{m: m, start: start}, nil
}

// Run executes the master's iterative program to completion and returns the
// final result. It may be called exactly once.
func (e *Engine) Run() (*Result, error) {
	if e.closed {
		return nil, fmt.Errorf("core: Run on closed engine")
	}
	if e.ran {
		return nil, fmt.Errorf("core: engine already ran; build a new one")
	}
	e.ran = true
	res, err := e.m.run()
	if err != nil {
		return nil, err
	}
	res.Stats.Elapsed = time.Since(e.start)
	return res, nil
}

// FleetAddr returns the listen address of the engine's elastic fleet ("" for
// an in-process farm or a dialed Workers roster, which listen on nothing).
// With Elastic.Listen ":0" this is how a host learns the bound port to hand
// to joining workers.
func (e *Engine) FleetAddr() string {
	if e.m.fleet == nil {
		return ""
	}
	return e.m.fleet.Addr()
}

// Close stops the slaves and releases the transport (sockets, reader
// goroutines). Idempotent; safe after a failed Run and required after a
// successful one.
func (e *Engine) Close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	e.m.shutdown()
	return nil
}
