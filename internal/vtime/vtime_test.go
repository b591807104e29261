package vtime

import (
	"testing"
	"testing/quick"
	"time"
)

func TestAlphaModelValid(t *testing.T) {
	if err := Alpha().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := map[string]Model{
		"zero mips":      {MIPS: 0, CyclesPerCell: 1, LinkMbps: 1},
		"zero cycles":    {MIPS: 1, CyclesPerCell: 0, LinkMbps: 1},
		"neg latency":    {MIPS: 1, CyclesPerCell: 1, LinkLatency: -1, LinkMbps: 1},
		"zero bandwidth": {MIPS: 1, CyclesPerCell: 1, LinkMbps: 0},
	}
	for name, m := range cases {
		if err := m.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestMoveDurationScales(t *testing.T) {
	m := Alpha()
	small := m.MoveDuration(100, 10)
	big := m.MoveDuration(500, 25)
	if small <= 0 || big <= 0 {
		t.Fatal("non-positive move durations")
	}
	// 500*25 / (100*10) = 12.5x the cells.
	ratio := float64(big) / float64(small)
	if ratio < 12 || ratio > 13 {
		t.Fatalf("cost ratio %v, want ~12.5", ratio)
	}
	// Sanity: a 100x10 move on a 500 MIPS machine is 12k cycles = 24µs.
	if small < 20*time.Microsecond || small > 30*time.Microsecond {
		t.Fatalf("100x10 move costs %v, want ~24µs", small)
	}
}

func TestMessageDuration(t *testing.T) {
	m := Alpha()
	d := m.MessageDuration(2500) // 20 kb over 200 Mb/s = 100µs, plus 50µs latency
	want := 150 * time.Microsecond
	if d < want-time.Microsecond || d > want+time.Microsecond {
		t.Fatalf("MessageDuration = %v, want ~%v", d, want)
	}
}

func TestRoundDurationSlowestSlaveWins(t *testing.T) {
	m := Alpha()
	short := m.RoundDuration(100, 10, []int64{100, 100}, 21, 24)
	long := m.RoundDuration(100, 10, []int64{100, 1000}, 21, 24)
	if long <= short {
		t.Fatal("slower slave did not lengthen the round")
	}
	justComm := m.RoundDuration(100, 10, []int64{0}, 21, 24)
	if justComm <= 0 {
		t.Fatal("communication cost missing")
	}
}

func TestQuickDurationsMonotone(t *testing.T) {
	m := Alpha()
	f := func(n1, m1, n2, m2 uint8) bool {
		na, ma := int(n1)%400+1, int(m1)%30+1
		nb, mb := na+int(n2)%100+1, ma+int(m2)%10+1
		return m.MoveDuration(nb, mb) >= m.MoveDuration(na, ma)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
