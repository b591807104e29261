package core

import (
	"fmt"

	"repro/internal/mkp"
	"repro/internal/rng"
	"repro/internal/tabu"
	"repro/internal/trace"
)

// sgp is the Strategy Generation Procedure (§4.2). Each strategy carries a
// score starting at InitialScore (the paper uses 4): it gains a point when
// the slave's round improved on its starting solution and loses one
// otherwise. When the score reaches zero the strategy is discarded and a new
// one is derived from the geometry of the slave's B-best pool:
//
//   - a *clustered* pool (small Hamming diameter) means the slave circled one
//     area, so the new strategy diversifies — longer tabu list, deeper drops,
//     shorter local loops;
//   - a *scattered* pool means the slave sprayed solutions far apart, so the
//     new strategy intensifies — shorter tabu list, shallower drops, longer
//     local loops around the good region;
//   - anything in between draws a fresh random strategy.
func (t *tuner) sgp(results []*tabu.Result) {
	n := t.ins.N
	for i, res := range results {
		if res == nil {
			continue // lost round: the slot's strategy and score are frozen
		}
		if res.Improved {
			t.scores[i]++
		} else {
			t.scores[i]--
		}
		if t.scores[i] > 0 {
			continue
		}

		st, d := regenerate(t.strategies[i], res.Pool, n, t.r)
		// SGP retunes the numeric knobs; the slot's portfolio assignment is
		// the reallocator's to change, so a redraw never resets it.
		st.Algo = t.strategies[i].Algo
		t.strategies[i] = st
		t.scores[i] = t.opts.InitialScore
		t.stats.StrategyResets++
		t.mx.resets.Inc()
		if t.opts.ExtendedTuning {
			// Widen the reset to the structural knobs: a fresh
			// intensification mode, add-phase noise level, and candidate
			// width (§2's "number of neighbor solutions evaluated").
			t.modes[i] = tabu.IntensifyMode(t.r.Intn(3))
			t.noises[i] = 0.15 * t.r.Float64()
			t.widths[i] = []int{0, 0, 5, 10, 20}[t.r.Intn(5)]
		}
		if t.opts.Tracer != nil {
			t.opts.Tracer.Record(trace.Event{
				Kind: trace.KindStrategyReset, Actor: -1, Round: t.stats.Rounds - 1,
				Value: res.Best.Value,
				Detail: fmt.Sprintf("slave=%d diameter=%d new=Lt%d/Drop%d/Local%d",
					i, d, st.LtLength, st.NbDrop, st.NbLocal),
			})
		}
	}
}

// regenerate derives a discarded strategy's successor from the Hamming
// diameter of the slave's pool, which it also returns: diversify a clustered
// pool (diameter at most n/10), intensify a scattered one (at least n/4),
// and otherwise draw a fresh random strategy, the only case that draws
// from r.
func regenerate(st tabu.Strategy, pool []mkp.Solution, n int, r *rng.Rand) (tabu.Strategy, int) {
	clustered := max(n/10, 1)
	scattered := max(n/4, clustered+1)
	d := tabu.Diameter(pool)
	switch {
	case d <= clustered:
		return diversifyStrategy(st, n), d
	case d >= scattered:
		return intensifyStrategy(st), d
	}
	return tabu.RandomStrategy(n, r), d
}

// diversifyStrategy implements "increment lt_size and nb_drop and reduce the
// nb_it parameter" for slaves stuck in one area.
func diversifyStrategy(st tabu.Strategy, n int) tabu.Strategy {
	st.LtLength = st.LtLength*3/2 + 1
	if maxT := n / 2; st.LtLength > maxT {
		st.LtLength = maxT
	}
	if st.NbDrop < 6 {
		st.NbDrop++
	}
	st.NbLocal /= 2
	if st.NbLocal < 5 {
		st.NbLocal = 5
	}
	return st
}

// intensifyStrategy implements "reducing the values of the lt_size and
// nb_drop parameters and incrementing the value of nb_it" for slaves whose
// best solutions are far apart.
func intensifyStrategy(st tabu.Strategy) tabu.Strategy {
	st.LtLength = st.LtLength * 2 / 3
	if st.LtLength < 2 {
		st.LtLength = 2
	}
	if st.NbDrop > 1 {
		st.NbDrop--
	}
	st.NbLocal = st.NbLocal*3/2 + 1
	if st.NbLocal > 200 {
		st.NbLocal = 200
	}
	return st
}
