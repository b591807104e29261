package core

import (
	"repro/internal/mkp"
	"repro/internal/tabu"
)

// slaveTable is the per-slave bookkeeping array of Fig. 2 (strategy, initial
// solution, score, stagnation) plus the liveness columns the fault-tolerant
// layers added. It is shared by pointer between the master and every engine
// component — dispatcher, collector, tuner, healer — which all read and write
// the same rows from the single master goroutine; the components partition
// *behavior*, not state ownership.
type slaveTable struct {
	// Per-slave entries (index 0..P-1 for slave node i+1).
	strategies []tabu.Strategy
	starts     []mkp.Solution
	scores     []int
	stagnation []int
	prevStart  []mkp.Solution

	// Extended-tuning state (used only when Options.ExtendedTuning).
	modes  []tabu.IntensifyMode
	noises []float64
	widths []int

	// Liveness. alive[i] is false once slave node i+1 has been declared dead;
	// its slot is then excluded from dispatch (the run degrades to P−k
	// slaves). nodeFail counts consecutive rounds a node stayed completely
	// silent; deadAfterMisses in a row kill it. strikes counts results (or
	// gossip) from node i+1 that failed the master's revalidation; crossing
	// quarantineStrikes quarantines the node.
	alive    []bool
	nodeFail []int
	strikes  []int

	// Membership (elastic fleets only). departed[i] is true once node i+1
	// announced a graceful Leave: the slot is retired exactly like a dead
	// one (alive=false) but the departure is never charged to DeadSlaves —
	// the classification that keeps the crash ledger honest under churn.
	// admitted[i] is false for slots whose node id was assigned but never
	// admitted into the run (a joiner that arrived while the fleet was
	// already at its desired size and then went away); such rows are
	// permanent placeholders, since elastic node ids are never reused.
	departed []bool
	admitted []bool
}

func newSlaveTable(p int) *slaveTable {
	return &slaveTable{
		strategies: make([]tabu.Strategy, p),
		starts:     make([]mkp.Solution, p),
		scores:     make([]int, p),
		stagnation: make([]int, p),
		prevStart:  make([]mkp.Solution, p),
		modes:      make([]tabu.IntensifyMode, p),
		noises:     make([]float64, p),
		widths:     make([]int, p),
		alive:      make([]bool, p),
		nodeFail:   make([]int, p),
		strikes:    make([]int, p),
		departed:   make([]bool, p),
		admitted:   make([]bool, p),
	}
}

// size returns the table's current slot count. Static runs are built at P
// and never change; elastic runs start empty and grow as joiners are
// admitted (slots are append-only — a departed member's row is retired in
// place, never reused).
func (t *slaveTable) size() int { return len(t.alive) }

// growTo appends zero-valued rows until the table has p slots.
func (t *slaveTable) growTo(p int) {
	for len(t.alive) < p {
		t.strategies = append(t.strategies, tabu.Strategy{})
		t.starts = append(t.starts, mkp.Solution{})
		t.scores = append(t.scores, 0)
		t.stagnation = append(t.stagnation, 0)
		t.prevStart = append(t.prevStart, mkp.Solution{})
		t.modes = append(t.modes, 0)
		t.noises = append(t.noises, 0)
		t.widths = append(t.widths, 0)
		t.alive = append(t.alive, false)
		t.nodeFail = append(t.nodeFail, 0)
		t.strikes = append(t.strikes, 0)
		t.departed = append(t.departed, false)
		t.admitted = append(t.admitted, false)
	}
}

// seat fills slot's row for a member entering the run — at static start-up,
// in the elastic cohort's assembly or as a mid-run admission: the given
// strategy (running the portfolio's algorithm for the slot) and start, the
// configured initial score and tuning knobs, cleared counters, and live.
func (t *slaveTable) seat(slot int, strategy tabu.Strategy, start mkp.Solution, opts *Options) {
	strategy.Algo = algoAt(opts.Portfolio, slot)
	t.strategies[slot] = strategy
	t.starts[slot] = start
	t.scores[slot] = opts.InitialScore
	t.modes[slot] = opts.Base.Intensify
	t.noises[slot] = opts.Base.AddNoise
	t.widths[slot] = opts.Base.CandWidth
	t.stagnation[slot] = 0
	t.nodeFail[slot] = 0
	t.alive[slot] = true
	t.admitted[slot] = true
}
