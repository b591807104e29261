package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/ckptstore"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/mkp"
	"repro/internal/reduce"
	"repro/internal/rng"
	"repro/internal/tabu"
	"repro/internal/transport/proto"
)

// sink keeps probed results alive so the compiler cannot drop the calls.
var sink float64

// perCall times f in batches of at least 2 ms and returns the median
// seconds per call over five batches.
func perCall(f func()) float64 {
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if time.Since(t0) >= 2*time.Millisecond {
			break
		}
		n *= 2
	}
	per := make([]float64, 5)
	for k := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		per[k] = time.Since(t0).Seconds() / float64(n)
	}
	return median(per)
}

// prober runs the direct layer probes of the traced run on the suite's
// first instance, each recorded as a span under the "probe" op.
type prober struct {
	w     workload
	s     solve
	spans *spanLog
	out   map[string]float64
}

func (p *prober) time(name string, f func() error) error {
	t0 := time.Now()
	err := f()
	p.spans.add(0, "probe", "probe."+name, t0, time.Now())
	if err != nil {
		return fmt.Errorf("probe %s: %w", name, err)
	}
	return nil
}

func runProbes(w workload, s solve, spans *spanLog, dir string) (map[string]float64, error) {
	p := &prober{w: w, s: s, spans: spans, out: make(map[string]float64)}
	ins := s.ins
	r := rng.New(w.solverSeed)
	start := mkp.RandomFeasible(ins, r)

	// mkp: State operations on the workload's instance.
	if err := p.time("mkp", func() error {
		st := mkp.NewState(ins)
		st.Load(start.X)
		j := 0
		p.out["mkp.fits_ns"] = 1e9 * perCall(func() {
			if st.Fits(j) {
				sink++
			}
			if j++; j == ins.N {
				j = 0
			}
		})
		var out []int
		for k := 0; k < ins.N; k++ {
			if !start.X.Get(k) {
				out = append(out, k)
			}
		}
		var add, drop []float64
		for rep := 0; rep < 200; rep++ {
			t0 := time.Now()
			for _, k := range out {
				st.Add(k)
			}
			t1 := time.Now()
			for _, k := range out {
				st.Drop(k)
			}
			add = append(add, t1.Sub(t0).Seconds())
			drop = append(drop, time.Since(t1).Seconds())
		}
		p.out["mkp.add_ns"] = 1e9 * median(add) / float64(len(out))
		p.out["mkp.drop_ns"] = 1e9 * median(drop) / float64(len(out))
		p.out["mkp.random_feasible_us"] = 1e6 * perCall(func() { sink += mkp.RandomFeasible(ins, r).Value })
		return nil
	}); err != nil {
		return nil, err
	}

	// reduce: the LP relaxation and reduced-cost fixing against the target.
	var fix *reduce.Fixing
	if err := p.time("reduce", func() error {
		var relax []float64
		var rx *reduce.Relaxation
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			var err error
			if rx, err = reduce.Relax(ins); err != nil {
				return err
			}
			relax = append(relax, time.Since(t0).Seconds())
		}
		p.out["reduce.relax_s"] = median(relax)
		var err error
		if fix, err = rx.FixAgainst(s.Target, 1); err != nil {
			return err
		}
		p.out["reduce.fix_us"] = 1e6 * perCall(func() { _, _ = rx.FixAgainst(s.Target, 1) })
		return nil
	}); err != nil {
		return nil, err
	}

	// tabu: Searcher.Run at the workload's round budget, on the LP core for
	// the guided workload when the fixing at its target fixes any item (the
	// engine ships no core otherwise).
	params := tabu.DefaultParams(ins.N)
	if w.guided && fix.Fixed0+fix.Fixed1 > 0 {
		c, err := tabu.NewCore(ins, fix.At0, fix.At1, fix.LPValue, s.Target, 1, 1)
		if err != nil {
			return nil, err
		}
		params.Core = c
	}
	var last *tabu.Result
	if err := p.time("tabu", func() error {
		srch, err := tabu.NewSearcher(ins, w.solverSeed)
		if err != nil {
			return err
		}
		const reps = 8
		var round []float64
		var moves int64
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			if last, err = srch.Run(start, params, w.moves); err != nil {
				return err
			}
			round = append(round, time.Since(t0).Seconds())
			moves += last.Moves
		}
		runtime.ReadMemStats(&ms1)
		p.out["tabu.round_s"] = median(round)
		p.out["tabu.move_us"] = 1e6 * sum(round) / float64(moves)
		p.out["tabu.allocs_per_round"] = float64(ms1.Mallocs-ms0.Mallocs) / reps

		// The kernel's own counters, on a separate searcher so their cost
		// stays out of the timings above.
		reg := metrics.NewRegistry()
		counted := params
		counted.Metrics = reg
		cs, err := tabu.NewSearcher(ins, w.solverSeed)
		if err != nil {
			return err
		}
		for i := 0; i < reps; i++ {
			if _, err := cs.Run(start, counted, w.moves); err != nil {
				return err
			}
		}
		snap := reg.Snapshot()
		var scan, scanN float64
		for key, h := range snap.Histograms {
			if strings.HasPrefix(key, "tabu_add_scan_length") {
				scan += h.Sum
				scanN += float64(h.Count)
			}
		}
		p.out["tabu.add_scan_per_move"] = scan / scanN
		p.out["tabu.pool_accept_ratio"] = float64(snap.SumCounters("tabu_pool_accepts_total")) /
			float64(snap.SumCounters("tabu_pool_offers_total"))
		return nil
	}); err != nil {
		return nil, err
	}

	// proto: the codec on one slot's round traffic, a Start and its Result.
	if err := p.time("proto", func() error {
		startMsg := proto.Start{Slot: 0, Round: 1, Start: start, Params: params, Budget: w.moves}
		startMsg.Params.Core = nil // process-local; the wire never carries it
		resMsg := proto.Result{Slot: 0, Node: 1, Round: 1, Res: last}
		encS, err := proto.EncodePayload(proto.TagStart, startMsg, ins.N)
		if err != nil {
			return err
		}
		encR, err := proto.EncodePayload(proto.TagResult, resMsg, ins.N)
		if err != nil {
			return err
		}
		p.out["proto.result_bytes"] = float64(len(encR))
		p.out["proto.encode_us"] = 1e6 * perCall(func() {
			a, _ := proto.EncodePayload(proto.TagStart, startMsg, ins.N)
			b, _ := proto.EncodePayload(proto.TagResult, resMsg, ins.N)
			sink += float64(len(a) + len(b))
		})
		p.out["proto.decode_us"] = 1e6 * perCall(func() {
			_, _ = proto.DecodePayload(proto.TagStart, encS, ins.N)
			_, _ = proto.DecodePayload(proto.TagResult, encR, ins.N)
		})
		return nil
	}); err != nil {
		return nil, err
	}

	// core: result vetting and the checkpoint of a real in-process solve.
	var ckpt *core.Checkpoint
	if err := p.time("core", func() error {
		opts := w.options(s.Target)
		opts.OnCheckpoint = func(c *core.Checkpoint) { ckpt = c }
		e, err := core.NewEngine(ins, core.CTS2, opts)
		if err != nil {
			return err
		}
		res, err := e.Run()
		e.Close()
		if err != nil {
			return err
		}
		best := res.Best.X
		p.out["core.vet_us"] = 1e6 * perCall(func() {
			if mkp.IsFeasibleAssignment(ins, best) {
				sink += mkp.ValueOf(ins, best)
			}
		})
		var buf bytes.Buffer
		if err := core.SaveCheckpoint(&buf, ckpt); err != nil {
			return err
		}
		p.out["core.checkpoint_encode_us"] = 1e6 * perCall(func() {
			buf.Reset()
			_ = core.SaveCheckpoint(&buf, ckpt)
		})
		return nil
	}); err != nil {
		return nil, err
	}

	// ckptstore: Open + Save of that checkpoint on the data directory's disk.
	if err := p.time("ckptstore", func() error {
		var buf bytes.Buffer
		if err := core.SaveCheckpoint(&buf, ckpt); err != nil {
			return err
		}
		pdir := filepath.Join(dir, fmt.Sprintf("probe-%d", os.Getpid()))
		if err := os.MkdirAll(pdir, 0o755); err != nil {
			return err
		}
		defer os.RemoveAll(pdir)
		var save []float64
		for i := 0; i < 9; i++ {
			t0 := time.Now()
			st, err := ckptstore.Open(filepath.Join(pdir, "state"), ckptstore.WithKeep(3))
			if err != nil {
				return err
			}
			if err := st.Save(buf.Bytes()); err != nil {
				return err
			}
			save = append(save, time.Since(t0).Seconds())
		}
		p.out["ckptstore.save_ms"] = 1e3 * median(save)
		p.out["ckptstore.bytes_per_save"] = float64(buf.Len())
		return nil
	}); err != nil {
		return nil, err
	}
	return p.out, nil
}
