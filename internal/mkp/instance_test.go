package mkp

import (
	"math"
	"strings"
	"testing"
)

// tiny returns a hand-checked 2-constraint, 4-item instance:
//
//	max 10x0 + 6x1 + 4x2 + 7x3
//	 3x0 + 2x1 + 1x2 + 4x3 <= 6
//	 2x0 + 3x1 + 3x2 + 1x3 <= 5
//
// Optimum is x = (1,0,0,1) → value 17 (loads 7>6? no: 3+4=7 — infeasible).
// Enumerate: feasible maxima: {0,1}: loads (5,5) value 16; {0,2}: (4,5) v14;
// {0,3}: (7,3) infeasible; {1,2,3}: (7,7) infeasible; {1,3}: (6,4) v13;
// {2,3}: (5,4) v11; {0,1,2}: (6,8) infeasible. Optimum = {0,1} value 16.
func tiny() *Instance {
	return &Instance{
		Name:   "tiny",
		N:      4,
		M:      2,
		Profit: []float64{10, 6, 4, 7},
		Weight: [][]float64{
			{3, 2, 1, 4},
			{2, 3, 3, 1},
		},
		Capacity:  []float64{6, 5},
		BestKnown: 16,
	}
}

func TestValidateOK(t *testing.T) {
	if err := tiny().Validate(); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := map[string]func(*Instance){
		"zero N":            func(i *Instance) { i.N = 0 },
		"zero M":            func(i *Instance) { i.M = 0 },
		"short profit":      func(i *Instance) { i.Profit = i.Profit[:2] },
		"short capacity":    func(i *Instance) { i.Capacity = i.Capacity[:1] },
		"short weight rows": func(i *Instance) { i.Weight = i.Weight[:1] },
		"ragged weight row": func(i *Instance) { i.Weight[1] = i.Weight[1][:3] },
		"zero profit":       func(i *Instance) { i.Profit[0] = 0 },
		"negative profit":   func(i *Instance) { i.Profit[2] = -1 },
		"NaN profit":        func(i *Instance) { i.Profit[1] = math.NaN() },
		"negative weight":   func(i *Instance) { i.Weight[0][1] = -3 },
		"NaN weight":        func(i *Instance) { i.Weight[1][2] = math.NaN() },
		"zero capacity":     func(i *Instance) { i.Capacity[0] = 0 },
		"negative capacity": func(i *Instance) { i.Capacity[1] = -2 },
		"+Inf profit":       func(i *Instance) { i.Profit[3] = math.Inf(1) },
		"+Inf weight":       func(i *Instance) { i.Weight[0][2] = math.Inf(1) },
		"+Inf capacity":     func(i *Instance) { i.Capacity[0] = math.Inf(1) },
	}
	for name, mutate := range cases {
		ins := tiny()
		mutate(ins)
		if err := ins.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a broken instance", name)
		}
	}
	var nilIns *Instance
	if err := nilIns.Validate(); err == nil {
		t.Error("nil instance accepted")
	}
}

func TestSizeLabel(t *testing.T) {
	if got := tiny().Size(); got != "2*4" {
		t.Fatalf("Size = %q, want 2*4", got)
	}
}

func TestCloneDeep(t *testing.T) {
	a := tiny()
	b := a.Clone()
	b.Profit[0] = 99
	b.Weight[0][0] = 99
	b.Capacity[0] = 99
	if a.Profit[0] == 99 || a.Weight[0][0] == 99 || a.Capacity[0] == 99 {
		t.Fatal("Clone shares backing arrays")
	}
}

func TestTotalWeightAndTightness(t *testing.T) {
	ins := tiny()
	if got := ins.TotalWeight(0); got != 10 {
		t.Fatalf("TotalWeight(0) = %v, want 10", got)
	}
	if got := ins.Tightness(0); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("Tightness(0) = %v, want 0.6", got)
	}
}

func TestPseudoUtility(t *testing.T) {
	ins := tiny()
	// item 0: c=10, a/b = 3/6 + 2/5 = 0.9 → 10/0.9
	want := 10 / 0.9
	if got := ins.PseudoUtility(0); math.Abs(got-want) > 1e-9 {
		t.Fatalf("PseudoUtility(0) = %v, want %v", got, want)
	}
}

func TestBurdenRatio(t *testing.T) {
	ins := tiny()
	// item 3: (4+1)/7
	want := 5.0 / 7.0
	if got := ins.BurdenRatio(3); math.Abs(got-want) > 1e-12 {
		t.Fatalf("BurdenRatio(3) = %v, want %v", got, want)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	ins := tiny()
	var sb strings.Builder
	if err := WriteORLib(&sb, ins); err != nil {
		t.Fatal(err)
	}
	back, err := ReadORLib(strings.NewReader(sb.String()), "tiny")
	if err != nil {
		t.Fatal(err)
	}
	if back.N != ins.N || back.M != ins.M || back.BestKnown != ins.BestKnown {
		t.Fatalf("header mismatch: %+v", back)
	}
	for j := range ins.Profit {
		if back.Profit[j] != ins.Profit[j] {
			t.Fatalf("profit %d mismatch", j)
		}
	}
	for i := range ins.Weight {
		for j := range ins.Weight[i] {
			if back.Weight[i][j] != ins.Weight[i][j] {
				t.Fatalf("weight %d %d mismatch", i, j)
			}
		}
	}
	for i := range ins.Capacity {
		if back.Capacity[i] != ins.Capacity[i] {
			t.Fatalf("capacity %d mismatch", i)
		}
	}
}

func TestReadORLibErrors(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"header only":  "4 2 0",
		"bad token":    "4 2 0 abc",
		"truncated":    "4 2 0 10 6 4 7 3 2 1",
		"zero n":       "0 2 0",
		"fractional n": "2.5 2 0",
	}
	for name, in := range cases {
		if _, err := ReadORLib(strings.NewReader(in), name); err == nil {
			t.Errorf("%s: ReadORLib accepted malformed input", name)
		}
	}
}

func TestReadORLibFractionalValues(t *testing.T) {
	in := "2 1 0\n1.5 2.5\n1 1\n1.5\n"
	ins, err := ReadORLib(strings.NewReader(in), "frac")
	if err != nil {
		t.Fatal(err)
	}
	if ins.Profit[0] != 1.5 || ins.Capacity[0] != 1.5 {
		t.Fatalf("fractional values not preserved: %+v", ins)
	}
}
