package lp

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/rng"
)

func benchSolve(b *testing.B, n, m int) {
	b.Helper()
	c, a, bb := randomLP(rng.New(1), n, m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(c, a, bb); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolve250x15(b *testing.B) { benchSolve(b, 250, 15) }
func BenchmarkSolve500x25(b *testing.B) { benchSolve(b, 500, 25) }

// BenchmarkSolveGK500x5 solves the relaxation the guided solves start from:
// a GK instance with 500 items, 5 rows and tightness 0.75, where most
// simplex iterations are bound flips.
func BenchmarkSolveGK500x5(b *testing.B) {
	ins := gen.GK("gk", 500, 5, 0.75, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(ins.Profit, ins.Weight, ins.Capacity); err != nil {
			b.Fatal(err)
		}
	}
}
