package core

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/tabu"
)

// The replay contract: with guidance off (a nil Options.Guide — what
// mkpsolve runs without -core), seeded runs reproduce the
// pre-guidance engine bit for bit. The values below were captured on the
// unguided engine before the guide existed; any drift means a change leaked
// into the unguided path.
func TestReplayUnguidedGolden(t *testing.T) {
	ins := gen.GK("replay-10x100", 100, 10, 0.25, 11)
	golden := []struct {
		algo  Algorithm
		best  float64
		moves int64
		traj  []float64
	}{
		{SEQ, 21533, 900, []float64{21533, 21533, 21533, 21533, 21533, 21533}},
		{ITS, 22250, 7020, []float64{22142, 22250, 22250, 22250, 22250, 22250}},
		{CTS1, 22250, 7020, []float64{22142, 22250, 22250, 22250, 22250, 22250}},
		{CTS2, 22250, 7020, []float64{22142, 22250, 22250, 22250, 22250, 22250}},
	}
	for _, g := range golden {
		res, err := Solve(ins, g.algo, Options{P: 4, Seed: 7, Rounds: 6, RoundMoves: 300})
		if err != nil {
			t.Fatal(err)
		}
		if res.Best.Value != g.best || res.Stats.TotalMoves != g.moves {
			t.Fatalf("%v: best %v moves %d, want %v / %d",
				g.algo, res.Best.Value, res.Stats.TotalMoves, g.best, g.moves)
		}
		for i, v := range g.traj {
			if res.Stats.BestByRound[i] != v {
				t.Fatalf("%v: round %d best %v, want %v", g.algo, i+1, res.Stats.BestByRound[i], v)
			}
		}
	}

	// Extended tuning on the paper's largest shape exercises the
	// CandWidth/noise paths.
	ins2 := gen.GK("replay-25x500", 500, 25, 0.25, 42)
	res, err := Solve(ins2, CTS2, Options{P: 4, Seed: 3, Rounds: 4, RoundMoves: 400, ExtendedTuning: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Value != 113759 {
		t.Fatalf("CTS2 extended: best %v, want 113759", res.Best.Value)
	}
	for i, v := range []float64{113365, 113365, 113535, 113759} {
		if res.Stats.BestByRound[i] != v {
			t.Fatalf("CTS2 extended: round %d best %v, want %v", i+1, res.Stats.BestByRound[i], v)
		}
	}

	// Bare kernel, one seeded run per tabu policy.
	kernel := []struct {
		policy tabu.TabuPolicy
		best   float64
	}{
		{tabu.PolicyStatic, 22342},
		{tabu.PolicyReactive, 22367},
		{tabu.PolicyREM, 22259},
	}
	for _, g := range kernel {
		p := tabu.DefaultParams(ins.N)
		p.Policy = g.policy
		r, err := tabu.Search(ins, p, 3000, 99)
		if err != nil {
			t.Fatal(err)
		}
		if r.Best.Value != g.best {
			t.Fatalf("kernel %v: best %v, want %v", g.policy, r.Best.Value, g.best)
		}
	}
}

// An armed guide whose fixing never becomes non-trivial must leave the run
// bitwise identical to the unguided one: the core is not shipped, the starts
// draw the same stream, and the greedy incumbent stays the guide's private
// threshold. On this m=10 shape the LP gap swallows the reduced costs for the
// whole run, so the guided trajectory is pinned to the same golden values.
func TestReplayGuidedInertMatchesUnguided(t *testing.T) {
	ins := gen.GK("replay-10x100", 100, 10, 0.25, 11)
	opts := Options{P: 4, Seed: 7, Rounds: 6, RoundMoves: 300}
	unguided, err := Solve(ins, CTS2, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Guide = &GuideConfig{}
	guided, err := Solve(ins, CTS2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if guided.Stats.CoreFixedIn+guided.Stats.CoreFixedOut != 0 {
		t.Fatalf("fixing unexpectedly bit (%d in, %d out); pick an instance with an inert guide",
			guided.Stats.CoreFixedIn, guided.Stats.CoreFixedOut)
	}
	if !guided.Best.X.Equal(unguided.Best.X) || guided.Best.Value != unguided.Best.Value {
		t.Fatalf("guided best %v diverged from unguided %v", guided.Best.Value, unguided.Best.Value)
	}
	if guided.Stats.TotalMoves != unguided.Stats.TotalMoves {
		t.Fatalf("guided moves %d diverged from unguided %d",
			guided.Stats.TotalMoves, unguided.Stats.TotalMoves)
	}
	for i := range unguided.Stats.BestByRound {
		if guided.Stats.BestByRound[i] != unguided.Stats.BestByRound[i] {
			t.Fatalf("trajectories diverge at round %d", i+1)
		}
	}
}
