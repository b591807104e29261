package mkp

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
	"repro/internal/rng"
)

func TestSolutionRoundTrip(t *testing.T) {
	ins := tiny()
	sol := Greedy(ins)
	var sb strings.Builder
	if err := WriteSolution(&sb, ins.Name, sol); err != nil {
		t.Fatal(err)
	}
	name, back, err := ReadSolution(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if name != ins.Name {
		t.Fatalf("name %q, want %q", name, ins.Name)
	}
	if back.Value != sol.Value || !back.X.Equal(sol.X) {
		t.Fatalf("round trip changed the solution: %+v vs %+v", back, sol)
	}
}

func TestReadSolutionErrors(t *testing.T) {
	cases := map[string]string{
		"empty":           "",
		"missing value":   "solution a\n",
		"bad value":       "solution a\nvalue abc\nitems 1\nx 1\n",
		"bad items":       "solution a\nvalue 1\nitems -2\nx 1\n",
		"length mismatch": "solution a\nvalue 1\nitems 3\nx 10\n",
		"bad bit":         "solution a\nvalue 1\nitems 2\nx 1z\n",
		"wrong key":       "answer a\nvalue 1\nitems 1\nx 1\n",
	}
	for name, in := range cases {
		if _, _, err := ReadSolution(strings.NewReader(in)); err == nil {
			t.Errorf("%s: malformed solution accepted", name)
		}
	}
}

func TestCheckSolutionValid(t *testing.T) {
	ins := tiny()
	sol := Greedy(ins)
	if err := CheckSolution(ins, sol); err != nil {
		t.Fatalf("valid solution rejected: %v", err)
	}
}

func TestCheckSolutionRejects(t *testing.T) {
	ins := tiny()
	good := Greedy(ins)

	nilX := Solution{Value: 1}
	if err := CheckSolution(ins, nilX); err == nil {
		t.Error("nil assignment accepted")
	}
	short := Solution{X: bitset.New(2), Value: 0}
	if err := CheckSolution(ins, short); err == nil {
		t.Error("wrong-length assignment accepted")
	}
	infeasible := Solution{X: bitset.FromIndices(4, []int{0, 3}), Value: 17}
	if err := CheckSolution(ins, infeasible); err == nil {
		t.Error("infeasible assignment accepted")
	}
	lied := Solution{X: good.X, Value: good.Value + 1}
	if err := CheckSolution(ins, lied); err == nil {
		t.Error("wrong declared value accepted")
	}
}

func TestQuickSolutionRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := r.IntRange(1, 80)
		x := bitset.New(n)
		for j := 0; j < n; j++ {
			if r.Bool(0.5) {
				x.Set(j)
			}
		}
		sol := Solution{X: x, Value: float64(r.IntRange(0, 100000))}
		var sb strings.Builder
		if err := WriteSolution(&sb, "q", sol); err != nil {
			return false
		}
		_, back, err := ReadSolution(strings.NewReader(sb.String()))
		if err != nil {
			return false
		}
		return back.Value == sol.Value && back.X.Equal(sol.X)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func FuzzReadORLib(f *testing.F) {
	var sb strings.Builder
	_ = WriteORLib(&sb, tiny())
	f.Add(sb.String())
	f.Add("")
	f.Add("2 1 0\n1 2\n1 1\n3\n")
	f.Add("4 2 0 10 6 4 7")
	f.Add("2 1 0 inf 1 inf 1 inf")
	f.Fuzz(func(t *testing.T, in string) {
		ins, err := ReadORLib(strings.NewReader(in), "fuzz")
		if err != nil {
			return // malformed input must fail cleanly, never panic
		}
		if verr := ins.Validate(); verr != nil {
			t.Fatalf("ReadORLib returned invalid instance: %v", verr)
		}
	})
}

func FuzzReadSolution(f *testing.F) {
	var sb strings.Builder
	_ = WriteSolution(&sb, "seed", Greedy(tiny()))
	f.Add(sb.String())
	f.Add("solution a\nvalue 1\nitems 2\nx 10\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, in string) {
		_, sol, err := ReadSolution(strings.NewReader(in))
		if err != nil {
			return
		}
		if sol.X == nil {
			t.Fatal("nil assignment without error")
		}
	})
}
