package core

import (
	"time"

	"repro/internal/mkp"
	"repro/internal/tabu"
	"repro/internal/transport"
	"repro/internal/transport/proto"
)

// dispatcher assembles and sends round orders. It owns the per-slot dispatch
// timestamps the collector's deadline calibration reads, and nothing else:
// what to send (strategy, start, tuning knobs) comes from the shared slave
// table, where to send it from the caller.
type dispatcher struct {
	*slaveTable
	net  transport.Hub
	ins  *mkp.Instance
	opts *Options
	mx   *masterMetrics

	// heartbeat, when non-nil (supervised runs), builds the per-node progress
	// watermark publisher dispatched into the kernel.
	heartbeat func(node int) func(int64)

	// guide, when non-nil (guided runs), supplies the current core shipped in
	// every round's params. Reading it at dispatch time means a refresh
	// between rounds reaches all slaves at the next rendezvous.
	guide *guide

	dispatchedAt []time.Time // when each slot's current order was sent
}

// budgetFor applies the paper's load-balancing rule: the per-round iteration
// count is inversely proportional to NbDrop so slaves with deeper (more
// expensive) moves finish at roughly the same time (§4.2).
func (d *dispatcher) budgetFor(s tabu.Strategy) int64 {
	b := d.opts.RoundMoves * int64(d.opts.RefDrop) / int64(s.NbDrop)
	if d.opts.EqualWork {
		b /= int64(d.opts.P)
	}
	if b < 1 {
		b = 1
	}
	return b
}

// dispatch sends slot's round order to the given worker node.
func (d *dispatcher) dispatch(slot, node, round int, budget int64) error {
	params := d.opts.Base
	params.Strategy = d.strategies[slot]
	params.Tracer = d.opts.Tracer
	params.TraceID = slot
	params.Metrics = d.opts.Metrics
	if d.opts.ExtendedTuning {
		params.Intensify = d.modes[slot]
		params.AddNoise = d.noises[slot]
		params.CandWidth = d.widths[slot]
	}
	if d.heartbeat != nil {
		params.Heartbeat = d.heartbeat(node)
	}
	if d.guide != nil && d.guide.active() {
		params.Core = d.guide.core
	}
	// Clone at the send boundary: the payload crosses into the slave
	// goroutine while the master keeps (and may re-send) its copy.
	req := proto.Start{Slot: slot, Round: round, Start: d.starts[slot].Clone(), Params: params, Budget: budget}
	size := proto.SolutionSize(d.ins.N) + proto.StrategySize()
	d.dispatchedAt[slot] = time.Now()
	d.mx.dispatches.Inc()
	return d.net.Send(0, node, proto.TagStart, req, size)
}
