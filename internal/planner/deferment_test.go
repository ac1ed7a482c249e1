package planner

import (
	"testing"
	"testing/quick"
	"time"
)

// asdCfg is an ASD policy with the given ε and TMax.
func asdCfg(eps, tmax time.Duration) DeferConfig {
	return DeferConfig{Mode: DeferASD, Epsilon: eps, TMax: tmax}
}

// stepEvery feeds n updates spaced gap apart, starting at start, and
// returns the last delay, the final state and the time after the last
// update's gap.
func stepEvery(c DeferConfig, st ASDState, start, gap time.Duration, n int) (time.Duration, ASDState, time.Duration) {
	var d time.Duration
	now := start
	for i := 0; i < n; i++ {
		d, st = c.Step(st, now, 0)
		now += gap
	}
	return d, st, now
}

func TestStepNone(t *testing.T) {
	st := ASDState{T: time.Second, LastUpdate: 3 * time.Second, Seen: true}
	d, next := DeferConfig{}.Step(st, 5*time.Second, 1000)
	if d != 0 || next != st {
		t.Fatalf("none: Step = (%v, %+v), want (0, unchanged state)", d, next)
	}
}

func TestStepFixed(t *testing.T) {
	c := DeferConfig{Mode: DeferFixed, FixedT: 4200 * time.Millisecond}
	var st ASDState
	for i := 0; i < 5; i++ {
		var d time.Duration
		if d, st = c.Step(st, time.Duration(i)*time.Second, int64(i*100)); d != c.FixedT {
			t.Fatalf("Step = %v, want %v", d, c.FixedT)
		}
	}
	if st != (ASDState{}) {
		t.Fatalf("fixed deferment touched the ASD state: %+v", st)
	}
}

func TestStepUDS(t *testing.T) {
	c := DeferConfig{Mode: DeferUDS, Threshold: 4 << 20, MaxDelay: time.Minute}
	if d, _ := c.Step(ASDState{}, 0, 1<<20); d != time.Minute {
		t.Fatalf("below threshold: Step = %v, want MaxDelay", d)
	}
	if d, _ := c.Step(ASDState{}, 0, 4<<20); d != 0 {
		t.Fatalf("at threshold: Step = %v, want 0", d)
	}
}

func TestStepUnknownModePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown defer mode did not panic")
		}
	}()
	DeferConfig{Mode: DeferUDS + 1}.Step(ASDState{}, 0, 0)
}

func TestDeferModeString(t *testing.T) {
	for m, want := range map[DeferMode]string{
		DeferNone: "none", DeferFixed: "fixed", DeferASD: "asd", DeferUDS: "uds", DeferUDS + 1: "mode(4)",
	} {
		if got := m.String(); got != want {
			t.Errorf("DeferMode(%d).String() = %q, want %q", uint8(m), got, want)
		}
	}
}

// validateCase is one DeferConfig and whether Validate should accept it.
type validateCase struct {
	cfg DeferConfig
	ok  bool
}

func checkValidate(t *testing.T, cases []validateCase) {
	t.Helper()
	for _, c := range cases {
		if err := c.cfg.Validate(); (err == nil) != c.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", c.cfg, err, c.ok)
		}
	}
}

func TestValidate(t *testing.T) {
	checkValidate(t, []validateCase{
		{DeferConfig{}, true},
		{DeferConfig{Mode: DeferUDS + 1}, false},
		// Only the selected mode's fields are checked.
		{DeferConfig{Mode: DeferNone, FixedT: -time.Second, TMax: -1}, true},
	})
}

func TestASDValidation(t *testing.T) {
	checkValidate(t, []validateCase{
		{asdCfg(time.Millisecond, time.Minute), true},
		{asdCfg(time.Second, time.Minute), true},
		{asdCfg(0, time.Minute), false},
		{asdCfg(2*time.Second, time.Minute), false},
		{asdCfg(time.Millisecond, 0), false},
	})
}

func TestFixedNegativeRejected(t *testing.T) {
	checkValidate(t, []validateCase{
		{DeferConfig{Mode: DeferFixed}, true},
		{DeferConfig{Mode: DeferFixed, FixedT: -time.Second}, false},
	})
}

func TestUDSMisconfiguredRejected(t *testing.T) {
	checkValidate(t, []validateCase{
		{DeferConfig{Mode: DeferUDS, Threshold: 1, MaxDelay: time.Second}, true},
		{DeferConfig{Mode: DeferUDS, MaxDelay: time.Second}, false},
		{DeferConfig{Mode: DeferUDS, Threshold: 1}, false},
	})
}

func TestASDTracksInterUpdateTime(t *testing.T) {
	// Updates every 7 s: the deferment should converge to slightly
	// above 7 s — long enough to batch the next update.
	d, _, _ := stepEvery(asdCfg(500*time.Millisecond, time.Minute), ASDState{}, 0, 7*time.Second, 30)
	if d <= 7*time.Second || d > 9*time.Second {
		t.Fatalf("converged deferment %v, want in (7s, 9s]", d)
	}
}

func TestASDAdaptsDown(t *testing.T) {
	c := asdCfg(100*time.Millisecond, time.Minute)
	_, slow, now := stepEvery(c, ASDState{}, 0, 20*time.Second, 10)
	_, fast, _ := stepEvery(c, slow, now, time.Second, 20)
	if fast.T >= slow.T {
		t.Fatalf("deferment did not adapt down: slow=%v fast=%v", slow.T, fast.T)
	}
	if fast.T > 3*time.Second {
		t.Fatalf("fast-cadence deferment %v, want ≈ 1–2s", fast.T)
	}
}

func TestASDCapsAtTMax(t *testing.T) {
	c := asdCfg(time.Second, 5*time.Second)
	var st ASDState
	for i := 0; i < 10; i++ {
		var d time.Duration
		if d, st = c.Step(st, time.Duration(i)*time.Hour, 0); d > 5*time.Second {
			t.Fatalf("deferment %v exceeds TMax", d)
		}
	}
	if st.T != 5*time.Second {
		t.Fatalf("T = %v, want TMax", st.T)
	}
}

func TestASDSlowCadenceAndIdleGap(t *testing.T) {
	// A steady slow update stream accumulates a deferment above its
	// period, and an idle gap lengthens it only up to TMax (Eq. 2).
	c := asdCfg(500*time.Millisecond, time.Minute)
	_, st, now := stepEvery(c, ASDState{}, 0, 10*time.Second, 20)
	if st.T <= 10*time.Second {
		t.Fatalf("deferment %v did not adapt above the 10s cadence", st.T)
	}
	if _, st = c.Step(st, now+time.Hour, 0); st.T > time.Minute {
		t.Fatalf("deferment %v exceeded TMax", st.T)
	}
}

func TestASDBackwardsUpdate(t *testing.T) {
	// An update older than the latest one seen counts as Δt = 0 and
	// never moves LastUpdate back: 700ms/2 + 0 + 100ms = 450ms.
	c := asdCfg(100*time.Millisecond, 10*time.Second)
	d, st := c.Step(ASDState{T: 700 * time.Millisecond, LastUpdate: 2 * time.Second, Seen: true}, time.Second, 0)
	want := ASDState{T: 450 * time.Millisecond, LastUpdate: 2 * time.Second, Seen: true}
	if d != want.T || st != want {
		t.Fatalf("Step = (%v, %+v), want (%v, %+v)", d, st, want.T, want)
	}
}

// Property: ASD deferment never exceeds TMax and is always positive,
// even when update times arrive out of order.
func TestPropertyASDBounds(t *testing.T) {
	c := asdCfg(200*time.Millisecond, 30*time.Second)
	f := func(gapsMs []int16) bool {
		var st ASDState
		now := time.Minute
		for _, g := range gapsMs {
			var d time.Duration
			if d, st = c.Step(st, now, 0); d <= 0 || d > 30*time.Second {
				return false
			}
			now += time.Duration(g) * time.Millisecond
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: with a constant inter-update gap Δt < TMax−ε, ASD converges
// to a value in (Δt, Δt + 2ε] — "slightly longer than the latest
// inter-update time".
func TestPropertyASDConvergence(t *testing.T) {
	const eps = 500 * time.Millisecond
	f := func(gapSecRaw uint8) bool {
		gap := time.Duration(gapSecRaw%20+1) * time.Second
		_, st, _ := stepEvery(asdCfg(eps, time.Minute), ASDState{}, 0, gap, 60)
		return st.T > gap && st.T <= gap+2*eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestASDStepFixpoint checks the analytic fixpoint of Eq. (2): under a
// constant inter-update interval Δt, the estimate converges to
// Δt + 2ε — "slightly above the inter-update time", which is the
// property that lets ASD keep deferring through a burst.
func TestASDStepFixpoint(t *testing.T) {
	const eps, dt = 50 * time.Millisecond, 2 * time.Second
	delay, _, _ := stepEvery(asdCfg(eps, time.Hour), ASDState{}, 0, dt, 64)
	want := dt + 2*eps
	if diff := delay - want; diff < -time.Millisecond || diff > time.Millisecond {
		t.Fatalf("fixpoint delay = %v, want ≈ %v", delay, want)
	}
}
