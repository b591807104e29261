package core

import (
	"strings"
	"testing"

	"repro/internal/exact"
	"repro/internal/mkp"
)

func TestAlgorithmStringAndParse(t *testing.T) {
	for _, a := range []Algorithm{SEQ, ITS, CTS1, CTS2} {
		got, err := ParseAlgorithm(a.String())
		if err != nil || got != a {
			t.Fatalf("round trip of %v failed: %v %v", a, got, err)
		}
		lower, err := ParseAlgorithm(strings.ToLower(a.String()))
		if err != nil || lower != a {
			t.Fatalf("lowercase parse of %v failed", a)
		}
	}
	if _, err := ParseAlgorithm("nope"); err == nil {
		t.Fatal("unknown label accepted")
	}
	if s := Algorithm(42).String(); s == "" {
		t.Fatal("unknown algorithm stringer empty")
	}
}

func TestSolveRejectsBadInput(t *testing.T) {
	ins := testInstance(10, 2, 1)
	ins.Profit[0] = -1
	if _, err := Solve(ins, CTS2, Options{}); err == nil {
		t.Fatal("invalid instance accepted")
	}
	good := testInstance(10, 2, 1)
	if _, err := Solve(good, Algorithm(9), Options{}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestSolveAllVariantsFeasibleAndSane(t *testing.T) {
	ins := testInstance(40, 4, 11)
	for _, algo := range []Algorithm{SEQ, ITS, CTS1, CTS2} {
		res, err := Solve(ins, algo, Options{P: 3, Seed: 7, Rounds: 4, RoundMoves: 300})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if !mkp.IsFeasibleAssignment(ins, res.Best.X) {
			t.Fatalf("%v: infeasible best", algo)
		}
		if got := mkp.ValueOf(ins, res.Best.X); got != res.Best.Value {
			t.Fatalf("%v: value %v inconsistent with assignment %v", algo, res.Best.Value, got)
		}
		if res.Stats.Rounds != 4 {
			t.Fatalf("%v: Rounds = %d, want 4", algo, res.Stats.Rounds)
		}
		if len(res.Stats.BestByRound) != 4 {
			t.Fatalf("%v: trajectory has %d points", algo, len(res.Stats.BestByRound))
		}
		for i := 1; i < len(res.Stats.BestByRound); i++ {
			if res.Stats.BestByRound[i] < res.Stats.BestByRound[i-1] {
				t.Fatalf("%v: best-by-round decreased", algo)
			}
		}
		if res.Stats.TotalMoves <= 0 {
			t.Fatalf("%v: no moves recorded", algo)
		}
		wantP := 3
		if algo == SEQ {
			wantP = 1
		}
		if res.Stats.P != wantP || len(res.Strategies) != wantP {
			t.Fatalf("%v: P = %d strategies = %d, want %d", algo, res.Stats.P, len(res.Strategies), wantP)
		}
	}
}

func TestSolveDeterministic(t *testing.T) {
	ins := testInstance(50, 5, 12)
	for _, algo := range []Algorithm{SEQ, ITS, CTS1, CTS2} {
		a, err := Solve(ins, algo, Options{P: 4, Seed: 3, Rounds: 3, RoundMoves: 200})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Solve(ins, algo, Options{P: 4, Seed: 3, Rounds: 3, RoundMoves: 200})
		if err != nil {
			t.Fatal(err)
		}
		if a.Best.Value != b.Best.Value || !a.Best.X.Equal(b.Best.X) {
			t.Fatalf("%v: same seed produced different bests (%v vs %v)", algo, a.Best.Value, b.Best.Value)
		}
		if a.Stats.TotalMoves != b.Stats.TotalMoves {
			t.Fatalf("%v: nondeterministic move counts", algo)
		}
		for i := range a.Strategies {
			if a.Strategies[i] != b.Strategies[i] {
				t.Fatalf("%v: nondeterministic strategies", algo)
			}
		}
	}
}

func TestSolveReachesOptimumSmall(t *testing.T) {
	ins := testInstance(14, 3, 13)
	opt, err := exact.Enumerate(ins)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(ins, CTS2, Options{P: 4, Seed: 1, Rounds: 6, RoundMoves: 500})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Value < opt.Value {
		t.Fatalf("CTS2 %v below optimum %v", res.Best.Value, opt.Value)
	}
}

func TestSolveTargetEarlyStop(t *testing.T) {
	ins := testInstance(30, 3, 14)
	greedy := mkp.Greedy(ins)
	// Target at the greedy value: reached in round 1.
	res, err := Solve(ins, CTS2, Options{P: 2, Seed: 1, Rounds: 50, RoundMoves: 100, Target: greedy.Value})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rounds >= 50 {
		t.Fatalf("target early stop did not fire: %d rounds", res.Stats.Rounds)
	}
	if res.Best.Value < greedy.Value {
		t.Fatalf("stopped below target: %v < %v", res.Best.Value, greedy.Value)
	}
}

func TestSolveCommunicationAccounting(t *testing.T) {
	ins := testInstance(30, 3, 15)
	res, err := Solve(ins, CTS2, Options{P: 3, Seed: 1, Rounds: 2, RoundMoves: 100})
	if err != nil {
		t.Fatal(err)
	}
	// 2 rounds x 3 slaves x (1 start + 1 result) = 12 messages minimum.
	if res.Stats.Messages < 12 {
		t.Fatalf("Messages = %d, want >= 12", res.Stats.Messages)
	}
	if res.Stats.BytesSent <= 0 {
		t.Fatal("no bytes accounted")
	}
}

func TestSolveEqualWorkReducesMoves(t *testing.T) {
	ins := testInstance(30, 3, 16)
	full, err := Solve(ins, ITS, Options{P: 4, Seed: 1, Rounds: 2, RoundMoves: 400})
	if err != nil {
		t.Fatal(err)
	}
	equal, err := Solve(ins, ITS, Options{P: 4, Seed: 1, Rounds: 2, RoundMoves: 400, EqualWork: true})
	if err != nil {
		t.Fatal(err)
	}
	if equal.Stats.TotalMoves*3 > full.Stats.TotalMoves {
		t.Fatalf("equal-work moves %d not ~1/4 of %d", equal.Stats.TotalMoves, full.Stats.TotalMoves)
	}
}

func TestSolveCTS2TunesStrategies(t *testing.T) {
	// Over enough rounds on a hard instance, at least one strategy reset
	// should fire (scores decay on non-improving rounds).
	ins := testInstance(60, 6, 17)
	res, err := Solve(ins, CTS2, Options{P: 4, Seed: 2, Rounds: 25, RoundMoves: 150, InitialScore: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.StrategyResets == 0 {
		t.Fatal("CTS2 never retuned a strategy in 25 rounds")
	}
	// CTS1 must never retune.
	res1, err := Solve(ins, CTS1, Options{P: 4, Seed: 2, Rounds: 25, RoundMoves: 150, InitialScore: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res1.Stats.StrategyResets != 0 {
		t.Fatalf("CTS1 retuned strategies %d times", res1.Stats.StrategyResets)
	}
}

func TestSolveITSNoCooperationCounters(t *testing.T) {
	ins := testInstance(40, 4, 18)
	res, err := Solve(ins, ITS, Options{P: 3, Seed: 2, Rounds: 10, RoundMoves: 150})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Replacements != 0 || res.Stats.RandomRestarts != 0 || res.Stats.StrategyResets != 0 {
		t.Fatalf("ITS used cooperation machinery: %+v", res.Stats)
	}
}

func TestSolveAsync(t *testing.T) {
	ins := testInstance(40, 4, 19)
	res, err := SolveAsync(ins, AsyncOptions{P: 4, Seed: 5, TotalMoves: 2000, ChunkMoves: 250})
	if err != nil {
		t.Fatal(err)
	}
	if !mkp.IsFeasibleAssignment(ins, res.Best.X) {
		t.Fatal("async best infeasible")
	}
	if res.Stats.TotalMoves != 4*2000 {
		t.Fatalf("TotalMoves = %d, want 8000", res.Stats.TotalMoves)
	}
	if res.Best.Value < mkp.Greedy(ins).Value {
		t.Fatalf("async best %v below greedy", res.Best.Value)
	}
	if res.Stats.Messages == 0 {
		t.Fatal("async peers never communicated")
	}
	if len(res.Strategies) != 4 {
		t.Fatalf("got %d final strategies", len(res.Strategies))
	}
	for _, st := range res.Strategies {
		if err := st.Validate(); err != nil {
			t.Fatalf("async left invalid strategy: %v", err)
		}
	}
}

func TestSolveAsyncRejectsBadInstance(t *testing.T) {
	ins := testInstance(10, 2, 1)
	ins.Capacity[0] = -1
	if _, err := SolveAsync(ins, AsyncOptions{}); err == nil {
		t.Fatal("invalid instance accepted")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults(100)
	if o.P != 8 || o.Rounds != 20 || o.RoundMoves != 2000 || o.RefDrop != 2 {
		t.Fatalf("unexpected defaults: %+v", o)
	}
	if o.Alpha != 0.99 || o.StagnationLimit != 5 || o.InitialScore != 4 {
		t.Fatalf("unexpected cooperation defaults: %+v", o)
	}
	if err := o.Base.Validate(); err != nil {
		t.Fatalf("default base params invalid: %v", err)
	}
	ao := AsyncOptions{}.withDefaults()
	if ao.P != 8 || ao.TotalMoves != 40000 || ao.ChunkMoves != 1000 {
		t.Fatalf("unexpected async defaults: %+v", ao)
	}
	small := AsyncOptions{TotalMoves: 10, ChunkMoves: 100}.withDefaults()
	if small.ChunkMoves != 10 {
		t.Fatalf("ChunkMoves not clamped to TotalMoves: %+v", small)
	}
}
