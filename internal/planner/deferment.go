package planner

import (
	"fmt"
	"time"
)

// DeferMode selects a sync-deferment policy, the design choice § 6.1 of
// the paper studies for batching frequent file modifications. The
// simulator's client and the watch-mode planner run the same policy
// through DeferConfig.Step.
type DeferMode uint8

const (
	// DeferNone syncs as soon as possible (Dropbox, Box, Ubuntu One).
	DeferNone DeferMode = iota
	// DeferFixed re-arms a fixed deferment T on every update (Google
	// Drive ≈ 4.2 s, SugarSync ≈ 6 s, OneDrive ≈ 10.5 s): efficient
	// while updates arrive faster than T, useless once they arrive
	// slower.
	DeferFixed
	// DeferASD runs the paper's adaptive sync defer, Eq. (2): the
	// deferment tracks the observed inter-update time and stays
	// slightly above it.
	DeferASD
	// DeferUDS is the byte-counter baseline from the authors' earlier
	// work [36]: sync once pending bytes reach a threshold, otherwise
	// linger at most MaxDelay, re-armed on every update.
	DeferUDS
)

// String names the mode.
func (m DeferMode) String() string {
	switch m {
	case DeferNone:
		return "none"
	case DeferFixed:
		return "fixed"
	case DeferASD:
		return "asd"
	case DeferUDS:
		return "uds"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// DeferConfig is the sync-deferment policy. The zero value is DeferNone.
type DeferConfig struct {
	Mode DeferMode
	// FixedT is the deferment for DeferFixed.
	FixedT time.Duration
	// Epsilon and TMax parameterize DeferASD (Eq. 2). Epsilon keeps the
	// deferment slightly above the inter-update time; TMax caps it so
	// idle files do not wait unboundedly.
	Epsilon time.Duration
	TMax    time.Duration
	// Threshold and MaxDelay parameterize DeferUDS.
	Threshold int64
	MaxDelay  time.Duration
}

// Validate checks the fields the selected mode uses: FixedT ≥ 0 for
// DeferFixed; Epsilon ∈ (0, 1 s] (the paper's ε ∈ (0, 1)) and TMax > 0
// for DeferASD; Threshold > 0 and MaxDelay > 0 for DeferUDS.
func (c DeferConfig) Validate() error {
	switch c.Mode {
	case DeferNone:
	case DeferFixed:
		if c.FixedT < 0 {
			return fmt.Errorf("defer: negative fixed deferment %v", c.FixedT)
		}
	case DeferASD:
		if c.Epsilon <= 0 || c.Epsilon > time.Second {
			return fmt.Errorf("defer: ASD epsilon %v outside (0, 1s]", c.Epsilon)
		}
		if c.TMax <= 0 {
			return fmt.Errorf("defer: ASD TMax %v must be positive", c.TMax)
		}
	case DeferUDS:
		if c.Threshold <= 0 || c.MaxDelay <= 0 {
			return fmt.Errorf("defer: UDS threshold %d and max delay %v must be positive",
				c.Threshold, c.MaxDelay)
		}
	default:
		return fmt.Errorf("defer: unknown mode %v", c.Mode)
	}
	return nil
}

// ASDState is the adaptive estimator's complete state, threaded by
// value through Step: the previous deferment estimate T_{i−1} and the
// time of the latest observed update.
type ASDState struct {
	// T is the current deferment estimate T_{i−1}.
	T time.Duration
	// LastUpdate is the latest update time observed.
	LastUpdate time.Duration
	// Seen records whether any update has been observed; the first
	// update has no inter-update interval and contributes Δt = 0.
	Seen bool
}

// Step decides how long to defer synchronization after an update at
// time at, returning the delay (zero means "sync now") and the
// successor state. Only DeferASD reads or advances the state; the
// caller owns it (one per client in the simulator, one per path in the
// planner). UDS judges whatever byte count the caller passes as
// pendingBytes: the simulator passes its pending update bytes, the
// planner the changed file's size.
//
// ASD applies Eq. (2): T_i = min(T_{i−1}/2 + Δt_i/2 + ε, T_max). An
// update older than the latest one seen (a file mtime set backwards)
// counts as Δt = 0 and leaves LastUpdate in place.
//
// Step is pure: equal inputs give equal outputs.
func (c DeferConfig) Step(s ASDState, at time.Duration, pendingBytes int64) (time.Duration, ASDState) {
	switch c.Mode {
	case DeferNone:
		return 0, s
	case DeferFixed:
		return c.FixedT, s
	case DeferASD:
		last, dt := at, time.Duration(0)
		if s.Seen {
			last = max(s.LastUpdate, at)
			dt = last - s.LastUpdate
		}
		t := min(s.T/2+dt/2+c.Epsilon, c.TMax)
		return t, ASDState{T: t, LastUpdate: last, Seen: true}
	case DeferUDS:
		if pendingBytes >= c.Threshold {
			return 0, s
		}
		return c.MaxDelay, s
	default:
		panic(fmt.Sprintf("planner: unknown defer mode %v", c.Mode))
	}
}
