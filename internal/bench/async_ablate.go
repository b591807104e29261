package bench

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/stats"
)

// AsyncRow reports one communication scheme at a fixed per-thread budget.
type AsyncRow struct {
	Scheme   string
	Value    stats.Summary
	Messages stats.Summary // messages per run
}

// AblationAsync evaluates the paper's announced future work (§6): replacing
// the centralized synchronous master–slave scheme with a decentralized
// asynchronous one. All three schemes get the same per-thread move budget on
// MK1: the synchronous CTS2, the asynchronous full-broadcast peers, and the
// asynchronous ring (experiment J). Every row replays from cfg.Seed: the
// asynchronous peers run in lockstep simulated time (core.SolveAsync). The
// summaries are over cfg.Seeds seeds.
func AblationAsync(cfg AblationConfig) ([]AsyncRow, error) {
	cfg = cfg.withDefaults()
	ins := ablationInstance(cfg.Seed)
	perThread := cfg.RoundMoves * int64(cfg.Rounds)

	collect := func(name string, run func(seed uint64) (float64, int64, error)) (AsyncRow, error) {
		var values, msgs []float64
		for s := 0; s < cfg.Seeds; s++ {
			v, m, err := run(cfg.Seed + uint64(s)*1217)
			if err != nil {
				return AsyncRow{}, err
			}
			values = append(values, v)
			msgs = append(msgs, float64(m))
			if cfg.Progress != nil {
				fmt.Fprintf(cfg.Progress, "async %-12s seed=%d value=%.0f msgs=%d\n", name, s, v, m)
			}
		}
		return AsyncRow{Scheme: name, Value: stats.Summarize(values), Messages: stats.Summarize(msgs)}, nil
	}

	sync, err := collect("sync (CTS2)", func(seed uint64) (float64, int64, error) {
		res, err := core.Solve(ins, core.CTS2, core.Options{
			P: cfg.P, Seed: seed, Rounds: cfg.Rounds, RoundMoves: cfg.RoundMoves,
		})
		if err != nil {
			return 0, 0, err
		}
		return res.Best.Value, res.Stats.Messages, nil
	})
	if err != nil {
		return nil, err
	}
	full, err := collect("async full", func(seed uint64) (float64, int64, error) {
		res, err := core.SolveAsync(ins, core.AsyncOptions{
			P: cfg.P, Seed: seed, TotalMoves: perThread, ChunkMoves: cfg.RoundMoves,
		})
		if err != nil {
			return 0, 0, err
		}
		return res.Best.Value, res.Stats.Messages, nil
	})
	if err != nil {
		return nil, err
	}
	ring, err := collect("async ring", func(seed uint64) (float64, int64, error) {
		res, err := core.SolveAsync(ins, core.AsyncOptions{
			P: cfg.P, Seed: seed, TotalMoves: perThread, ChunkMoves: cfg.RoundMoves, Ring: true,
		})
		if err != nil {
			return 0, 0, err
		}
		return res.Best.Value, res.Stats.Messages, nil
	})
	if err != nil {
		return nil, err
	}
	return []AsyncRow{sync, full, ring}, nil
}

// RenderAsync prints the communication-scheme comparison.
func RenderAsync(rows []AsyncRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Ablation J: synchronous master-slave vs decentralized asynchronous (MK1, equal per-thread budget)")
	fmt.Fprintf(&b, "%-14s %-16s %s\n", "scheme", "value", "messages")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-16s %s\n", r.Scheme, r.Value.String(), r.Messages.String())
	}
	return b.String()
}

// ExportAsync converts ablation J rows.
func ExportAsync(rows []AsyncRow) Export {
	e := Export{Name: "ablation_async", Header: []string{"scheme", "mean_value", "mean_messages"}}
	for _, r := range rows {
		e.Rows = append(e.Rows, []string{r.Scheme, fnum(r.Value.Mean), fnum(r.Messages.Mean)})
	}
	return e
}
