package supervise

import (
	"testing"
	"time"
)

func TestPolicyDefaultsAndValidate(t *testing.T) {
	p := Policy{}.WithDefaults()
	if p.MaxRestarts != 3 || p.BaseBackoff != 100*time.Millisecond ||
		p.MaxBackoff != 5*time.Second || p.Jitter != 0.2 ||
		p.StallChecks != 2 {
		t.Fatalf("unexpected defaults: %+v", p)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("defaulted policy must validate: %v", err)
	}
	bad := []Policy{
		{MaxRestarts: -1},
		{Jitter: -0.1},
		{Jitter: 1},
		{BaseBackoff: -time.Second},
		{BaseBackoff: time.Second, MaxBackoff: time.Millisecond},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Fatalf("bad policy %d validated: %+v", i, b)
		}
	}
	// Negative jitter is clamped rather than amplified.
	if q := (Policy{Jitter: -1}).WithDefaults(); q.Jitter != 0 {
		t.Fatalf("negative jitter not clamped: %v", q.Jitter)
	}
}

func TestBackoffGrowsAndCaps(t *testing.T) {
	pol := Policy{MaxRestarts: 10, BaseBackoff: 100 * time.Millisecond,
		MaxBackoff: time.Second, Jitter: -1} // jitter clamped to 0: exact math
	s := New(pol, 1, 7)
	t0 := time.Unix(1000, 0)
	want := []time.Duration{
		100 * time.Millisecond, // restarts=0
		200 * time.Millisecond, // restarts=1
		400 * time.Millisecond,
		800 * time.Millisecond,
		time.Second, // capped
		time.Second,
	}
	for k, w := range want {
		s.OnDeath(0, t0)
		if due, ok := s.NextDue([]int{0}); !ok || due.Sub(t0) != w {
			t.Fatalf("restart %d: backoff %v, want %v", k, due.Sub(t0), w)
		}
		if s.Due(0, t0) {
			t.Fatalf("restart %d: due before backoff elapsed", k)
		}
		if !s.Due(0, t0.Add(w)) {
			t.Fatalf("restart %d: not due after backoff elapsed", k)
		}
		s.OnRestart(0, 0)
		t0 = t0.Add(w)
	}
}

func TestBudgetExhaustion(t *testing.T) {
	s := New(Policy{MaxRestarts: 2, Jitter: -1}, 2, 1)
	now := time.Unix(0, 0)
	for i := 0; i < 2; i++ {
		s.OnDeath(0, now)
		if !s.Due(0, now.Add(time.Hour)) {
			t.Fatalf("restart %d not due", i)
		}
		s.OnRestart(0, 0)
	}
	if !s.Exhausted(0) {
		t.Fatal("budget not exhausted after MaxRestarts")
	}
	if s.Due(0, now.Add(time.Hour)) {
		t.Fatal("exhausted node reported due")
	}
	if _, ok := s.NextDue([]int{0}); ok {
		t.Fatal("NextDue found a slot for an exhausted node")
	}
	// Node 1 still has budget.
	s.OnDeath(1, now)
	if _, ok := s.NextDue([]int{0, 1}); !ok {
		t.Fatal("NextDue missed the in-budget node")
	}
	if s.Restarts(0) != 2 || s.Restarts(1) != 0 {
		t.Fatalf("restart counts wrong: %d, %d", s.Restarts(0), s.Restarts(1))
	}
}

func TestOnDeathDoesNotExtendPendingWindow(t *testing.T) {
	s := New(Policy{MaxRestarts: 3, BaseBackoff: time.Second, Jitter: -1}, 1, 1)
	t0 := time.Unix(0, 0)
	s.OnDeath(0, t0)
	due1, _ := s.NextDue([]int{0})
	// A second symptom of the same death, 100ms later, must not push the
	// window out.
	s.OnDeath(0, t0.Add(100*time.Millisecond))
	if due2, _ := s.NextDue([]int{0}); !due2.Equal(due1) {
		t.Fatalf("pending window extended: %v -> %v", due1, due2)
	}
}

func TestJitterIsSeededAndBounded(t *testing.T) {
	pol := Policy{MaxRestarts: 5, BaseBackoff: time.Second, MaxBackoff: time.Second, Jitter: 0.5}
	a := New(pol, 4, 42)
	b := New(pol, 4, 42)
	c := New(pol, 4, 43)
	t0 := time.Unix(0, 0)
	diverged := false
	for n := 0; n < 4; n++ {
		a.OnDeath(n, t0)
		b.OnDeath(n, t0)
		c.OnDeath(n, t0)
		da, _ := a.NextDue([]int{n})
		db, _ := b.NextDue([]int{n})
		dc, _ := c.NextDue([]int{n})
		if !da.Equal(db) {
			t.Fatalf("node %d: same seed diverged: %v vs %v", n, da, db)
		}
		if !da.Equal(dc) {
			diverged = true
		}
		if d := da.Sub(t0); d < 500*time.Millisecond || d >= 1500*time.Millisecond {
			t.Fatalf("node %d: jittered backoff %v outside ±50%% of 1s", n, d)
		}
	}
	if !diverged {
		t.Fatal("different seeds produced identical jitter on all nodes")
	}
}

func TestJitterOrderIndependence(t *testing.T) {
	// Node 2's first backoff must be identical whether node 1 died before it
	// or not: draws come from per-node streams split at construction.
	pol := Policy{MaxRestarts: 5, BaseBackoff: time.Second, MaxBackoff: time.Second, Jitter: 0.5}
	t0 := time.Unix(0, 0)
	a := New(pol, 3, 9)
	a.OnDeath(1, t0)
	a.OnRestart(1, 0)
	a.OnDeath(2, t0)
	da, _ := a.NextDue([]int{2})

	b := New(pol, 3, 9)
	b.OnDeath(2, t0)
	db, _ := b.NextDue([]int{2})
	if !da.Equal(db) {
		t.Fatalf("node 2 backoff depends on other nodes' deaths: %v vs %v", da, db)
	}
}

func TestWatchdogObserve(t *testing.T) {
	s := New(Policy{StallChecks: 3, Jitter: -1}, 1, 1)
	if got := s.Observe(0, 100); got != Advanced {
		t.Fatalf("first moving observation: %v, want advanced", got)
	}
	if got := s.Observe(0, 100); got != Frozen {
		t.Fatalf("second check, same watermark: %v, want frozen", got)
	}
	if got := s.Observe(0, 100); got != Frozen {
		t.Fatalf("third check: %v, want frozen", got)
	}
	if got := s.Observe(0, 100); got != Stalled {
		t.Fatalf("fourth check: %v, want stalled (StallChecks=3)", got)
	}
	// After a trip the counter restarts — the master is expected to have
	// killed the node, but a fresh incarnation reuses the slot.
	if got := s.Observe(0, 100); got != Frozen {
		t.Fatalf("post-trip check: %v, want frozen", got)
	}
	// Any advancement resets the streak.
	if got := s.Observe(0, 150); got != Advanced {
		t.Fatalf("advanced watermark: %v", got)
	}
	if got := s.Observe(0, 150); got != Frozen {
		t.Fatalf("frozen after advance: %v", got)
	}
	s.NoteProgress(0, 150) // result arrived: same watermark, but known good
	if got := s.Observe(0, 150); got != Frozen {
		t.Fatalf("first check after NoteProgress: %v, want frozen (fresh streak)", got)
	}
	if got := s.Observe(0, 150); got != Frozen {
		t.Fatalf("second check after NoteProgress: %v, want frozen", got)
	}
}

func TestOnRestartRecordsWatermark(t *testing.T) {
	s := New(Policy{}, 2, 1)
	s.OnRestart(0, 7)
	if got := s.Observe(0, 7); got != Frozen {
		t.Fatalf("restart watermark not recorded: %v", got)
	}
}

func TestProgressString(t *testing.T) {
	if Advanced.String() != "advanced" || Frozen.String() != "frozen" || Stalled.String() != "stalled" {
		t.Fatal("progress strings wrong")
	}
	if Progress(99).String() == "" {
		t.Fatal("unknown progress has empty string")
	}
}
