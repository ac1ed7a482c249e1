package planner

import (
	"crypto/md5"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// Content fingerprints the table cases share. Distinct letters are
// distinct contents.
var (
	hashA = md5.Sum([]byte("content-a"))
	hashB = md5.Sum([]byte("content-b"))
	hashC = md5.Sum([]byte("content-c"))
	zeroH [16]byte
)

const (
	s  = time.Second
	ms = time.Millisecond
)

// fmtAction renders one action compactly for expectation matching:
// kind, path, reason, and the defer deadline when present.
func fmtAction(a Action) string {
	out := fmt.Sprintf("%s %s [%s]", a.Kind, a.Path, a.Reason)
	if a.Kind == Defer {
		out += fmt.Sprintf(" until=%v", a.Until)
	}
	return out
}

// applyTable simulates executing a plan: successful transfers update
// baseline and remote the way the pipeline would, deferred changes
// stay pending with their writes consumed. The result is the Input of
// the next round — used to assert plan∘apply reaches a fixpoint.
func applyTable(in Input, out Output) Input {
	next := Input{
		Now:         in.Now,
		Baseline:    map[string]FileMeta{},
		Remote:      map[string]RemoteFile{},
		RemoteKnown: in.RemoteKnown,
		Defer:       in.Defer,
		DeferState:  out.DeferState,
	}
	for p, m := range in.Baseline {
		next.Baseline[p] = m
	}
	for p, r := range in.Remote {
		next.Remote[p] = r
	}
	bump := func(path string) uint64 {
		v := next.Baseline[path].Version
		if r, ok := next.Remote[path]; ok && r.Version > v {
			v = r.Version
		}
		return v + 1
	}
	for _, a := range out.Actions {
		switch a.Kind {
		case Upload, Delta:
			v := bump(a.Path)
			next.Baseline[a.Path] = FileMeta{Size: a.Size, MD5: a.MD5, Version: v}
			if in.RemoteKnown {
				id := next.Remote[a.Path].FileID
				next.Remote[a.Path] = RemoteFile{FileID: id, Size: a.Size, MD5: a.MD5, Version: v}
			}
		case Delete:
			delete(next.Baseline, a.Path)
			if in.RemoteKnown {
				r := next.Remote[a.Path]
				r.Deleted = true
				r.Version++
				next.Remote[a.Path] = r
			}
		case NoOp:
			if a.Absent {
				delete(next.Baseline, a.Path)
			} else {
				m := FileMeta{Size: a.Size, MD5: a.MD5, Version: a.Version}
				if m.Version == 0 {
					m.Version = next.Baseline[a.Path].Version
				}
				next.Baseline[a.Path] = m
			}
		case Defer:
			next.Changes = append(next.Changes, Change{
				Path: a.Path, Size: a.Size, MD5: a.MD5, // writes consumed
			})
		}
	}
	return next
}

type tableCase struct {
	name string
	in   Input
	want []string
	// wantWake asserts NextWake when nonzero (all defer deadlines in the
	// corpus are nonzero).
	wantWake time.Duration
	// noIdem skips the fixpoint check for cases that deliberately leave
	// deferred work pending at a fixed Now.
	noIdem bool
	// extra runs additional assertions on the output.
	extra func(t *testing.T, out Output)
}

func tableCases() []tableCase {
	base1 := map[string]FileMeta{"a.txt": {Size: 9, MD5: hashA, Version: 3}}
	remoteLiveA := map[string]RemoteFile{"a.txt": {FileID: 1, Size: 9, MD5: hashA, Version: 3}}
	remoteLiveB := map[string]RemoteFile{"a.txt": {FileID: 1, Size: 9, MD5: hashB, Version: 5}}
	remoteDeleted := map[string]RemoteFile{"a.txt": {FileID: 1, Size: 9, MD5: hashA, Version: 4, Deleted: true}}

	wA := Change{Path: "a.txt", Size: 9, MD5: hashA}
	wB := Change{Path: "a.txt", Size: 9, MD5: hashB}
	rm := Change{Path: "a.txt", Remove: true}

	fixed5 := DeferConfig{Mode: DeferFixed, FixedT: 5 * s}
	asd := DeferConfig{Mode: DeferASD, Epsilon: 100 * ms, TMax: 10 * s}
	uds := DeferConfig{Mode: DeferUDS, Threshold: 1 << 20, MaxDelay: 4 * s}

	withWrites := func(ch Change, ws ...time.Duration) Change {
		ch.Writes = ws
		return ch
	}

	return []tableCase{
		// --- creates ---
		{
			name: "create/empty-world",
			in:   Input{Now: s, Changes: []Change{wA}, RemoteKnown: true},
			want: []string{"upload a.txt [new file]"},
		},
		{
			name: "create/remote-already-matches",
			in:   Input{Now: s, Changes: []Change{wA}, Remote: remoteLiveA, RemoteKnown: true},
			want: []string{"no-op a.txt [remote already matches]"},
		},
		{
			name: "create/remote-differs",
			in:   Input{Now: s, Changes: []Change{wB}, Remote: remoteLiveA, RemoteKnown: true},
			want: []string{"delta a.txt [modified locally]"},
		},
		{
			name: "create/remote-fake-deleted",
			in:   Input{Now: s, Changes: []Change{wA}, Remote: remoteDeleted, RemoteKnown: true},
			want: []string{"upload a.txt [new file]"},
		},
		{
			name: "create/no-listing-no-baseline",
			in:   Input{Now: s, Changes: []Change{wA}},
			want: []string{"upload a.txt [new file]"},
		},
		{
			name: "create/remote-zero-hash-is-unknown",
			in: Input{Now: s, Changes: []Change{wA},
				Remote:      map[string]RemoteFile{"a.txt": {FileID: 1, Size: 9, MD5: zeroH, Version: 2}},
				RemoteKnown: true},
			want: []string{"delta a.txt [modified locally]"},
		},
		// --- modifies ---
		{
			name: "modify/baseline-and-live-remote",
			in: Input{Now: s, Baseline: base1, Changes: []Change{wB},
				Remote: remoteLiveA, RemoteKnown: true},
			want: []string{"delta a.txt [modified locally]"},
		},
		{
			name: "modify/no-listing-trust-baseline",
			in:   Input{Now: s, Baseline: base1, Changes: []Change{wB}},
			want: []string{"delta a.txt [modified locally]"},
		},
		{
			name: "modify/unchanged-since-baseline-no-listing",
			in:   Input{Now: s, Baseline: base1, Changes: []Change{wA}},
			want: []string{"no-op a.txt [unchanged since baseline]"},
		},
		{
			name: "modify/unchanged-and-remote-matches",
			in: Input{Now: s, Baseline: base1, Changes: []Change{wA},
				Remote: remoteLiveA, RemoteKnown: true},
			want: []string{"no-op a.txt [remote already matches]"},
		},
		{
			name: "modify/unchanged-but-remote-vanished",
			in:   Input{Now: s, Baseline: base1, Changes: []Change{wA}, RemoteKnown: true},
			want: []string{"upload a.txt [remote missing; restore]"},
		},
		{
			name: "modify/unchanged-but-remote-diverged",
			in: Input{Now: s, Baseline: base1, Changes: []Change{wA},
				Remote: remoteLiveB, RemoteKnown: true},
			want: []string{"delta a.txt [remote diverged; local wins]"},
		},
		{
			name: "modify/size-change-same-prefix-hash-differs",
			in: Input{Now: s, Baseline: base1,
				Changes: []Change{{Path: "a.txt", Size: 12, MD5: hashC}},
				Remote:  remoteLiveA, RemoteKnown: true},
			want: []string{"delta a.txt [modified locally]"},
		},
		// --- removes ---
		{
			name: "remove/live-remote",
			in: Input{Now: s, Baseline: base1, Changes: []Change{rm},
				Remote: remoteLiveA, RemoteKnown: true},
			want: []string{"delete a.txt [removed locally]"},
		},
		{
			name: "remove/remote-never-had-it",
			in:   Input{Now: s, Changes: []Change{rm}, RemoteKnown: true},
			want: []string{"no-op a.txt [already absent remotely]"},
		},
		{
			name: "remove/remote-already-deleted",
			in: Input{Now: s, Baseline: base1, Changes: []Change{rm},
				Remote: remoteDeleted, RemoteKnown: true},
			want: []string{"no-op a.txt [already absent remotely]"},
		},
		{
			name: "remove/no-listing-with-baseline",
			in:   Input{Now: s, Baseline: base1, Changes: []Change{rm}},
			want: []string{"delete a.txt [removed locally]"},
		},
		{
			name: "remove/no-listing-never-synced",
			in:   Input{Now: s, Changes: []Change{rm}},
			want: []string{"no-op a.txt [never synced]"},
		},
		{
			name: "remove/never-deferred-despite-defer-mode",
			in: Input{Now: 0, Baseline: base1, Changes: []Change{rm},
				Remote: remoteLiveA, RemoteKnown: true, Defer: fixed5},
			want: []string{"delete a.txt [removed locally]"},
		},
		// --- rename and ordering ---
		{
			name: "rename/upload-before-delete",
			in: Input{Now: s,
				Baseline: map[string]FileMeta{"old.txt": {Size: 9, MD5: hashA, Version: 1}},
				Changes: []Change{
					{Path: "old.txt", Remove: true},
					{Path: "new.txt", Size: 9, MD5: hashA},
				},
				Remote:      map[string]RemoteFile{"old.txt": {FileID: 1, Size: 9, MD5: hashA, Version: 1}},
				RemoteKnown: true},
			want: []string{
				"upload new.txt [new file]",
				"delete old.txt [removed locally]",
			},
		},
		{
			name: "ordering/paths-sorted-within-kind",
			in: Input{Now: s, Changes: []Change{
				{Path: "b.txt", Size: 1, MD5: hashB},
				{Path: "a.txt", Size: 1, MD5: hashA},
				{Path: "c.txt", Size: 1, MD5: hashC},
			}, RemoteKnown: true},
			want: []string{
				"upload a.txt [new file]",
				"upload b.txt [new file]",
				"upload c.txt [new file]",
			},
		},
		{
			name: "ordering/kind-groups",
			in: Input{Now: s,
				Baseline: map[string]FileMeta{
					"dead.txt": {Size: 9, MD5: hashA, Version: 1},
					"sync.txt": {Size: 9, MD5: hashB, Version: 2},
				},
				Changes: []Change{
					{Path: "dead.txt", Remove: true},
					{Path: "new.txt", Size: 3, MD5: hashC},
					withWrites(Change{Path: "slow.txt", Size: 3, MD5: hashA}, s),
					{Path: "sync.txt", Size: 9, MD5: hashB},
				},
				Remote: map[string]RemoteFile{
					"dead.txt": {FileID: 1, Size: 9, MD5: hashA, Version: 1},
					"sync.txt": {FileID: 2, Size: 9, MD5: hashB, Version: 2},
				},
				RemoteKnown: true, Defer: fixed5},
			want: []string{
				"upload new.txt [new file]",
				"delete dead.txt [removed locally]",
				"defer slow.txt [defer window open] until=6s",
				"no-op sync.txt [remote already matches]",
			},
			wantWake: 6 * s, noIdem: true,
		},
		// --- fixed deferment ---
		{
			name: "defer-fixed/window-open",
			in: Input{Now: 2 * s, Changes: []Change{withWrites(wA, s)},
				RemoteKnown: true, Defer: fixed5},
			want:     []string{"defer a.txt [defer window open] until=6s"},
			wantWake: 6 * s, noIdem: true,
		},
		{
			name: "defer-fixed/boundary-exactly-now-is-ready",
			in: Input{Now: 6 * s, Changes: []Change{withWrites(wA, s)},
				RemoteKnown: true, Defer: fixed5},
			want: []string{"upload a.txt [new file]"},
		},
		{
			name: "defer-fixed/rearmed-by-second-write",
			in: Input{Now: 6 * s, Changes: []Change{withWrites(wA, s, 4*s)},
				RemoteKnown: true, Defer: fixed5},
			want:     []string{"defer a.txt [defer window open] until=9s"},
			wantWake: 9 * s, noIdem: true,
		},
		{
			name: "defer-fixed/carried-deadline-no-new-writes",
			in: Input{Now: 3 * s, Changes: []Change{wA}, RemoteKnown: true, Defer: fixed5,
				DeferState: map[string]DeferState{"a.txt": {Deadline: 6 * s, Armed: true}}},
			want:     []string{"defer a.txt [defer window open] until=6s"},
			wantWake: 6 * s, noIdem: true,
		},
		{
			name: "defer-fixed/carried-deadline-expired",
			in: Input{Now: 7 * s, Changes: []Change{wA}, RemoteKnown: true, Defer: fixed5,
				DeferState: map[string]DeferState{"a.txt": {Deadline: 6 * s, Armed: true}}},
			want: []string{"upload a.txt [new file]"},
		},
		{
			name: "defer-fixed/zero-T-syncs-immediately",
			in: Input{Now: s, Changes: []Change{withWrites(wA, s)},
				RemoteKnown: true, Defer: DeferConfig{Mode: DeferFixed, FixedT: 0}},
			want: []string{"upload a.txt [new file]"},
		},
		// --- ASD ---
		{
			name: "defer-asd/first-write-defers-by-epsilon",
			in: Input{Now: s, Changes: []Change{withWrites(wA, s)},
				RemoteKnown: true, Defer: asd},
			want:     []string{"defer a.txt [defer window open] until=1.1s"},
			wantWake: s + 100*ms, noIdem: true,
		},
		{
			name: "defer-asd/estimate-tracks-interupdate-time",
			// Writes at 1s and 3s: T1 = ε = 100ms, T2 = T1/2 + Δt/2 + ε =
			// 50ms + 1s + 100ms = 1.15s ⇒ deadline 4.15s.
			in: Input{Now: 3 * s, Changes: []Change{withWrites(wA, s, 3*s)},
				RemoteKnown: true, Defer: asd},
			want:     []string{"defer a.txt [defer window open] until=4.15s"},
			wantWake: 3*s + 1150*ms, noIdem: true,
		},
		{
			name: "defer-asd/tmax-caps-deferment",
			in: Input{Now: 100 * s, Changes: []Change{withWrites(wA, s, 99*s)},
				RemoteKnown: true,
				Defer:       DeferConfig{Mode: DeferASD, Epsilon: 100 * ms, TMax: 2 * s}},
			want:     []string{"defer a.txt [defer window open] until=1m41s"},
			wantWake: 101 * s, noIdem: true,
		},
		{
			name: "defer-asd/ready-after-deadline",
			in: Input{Now: 2 * s, Changes: []Change{withWrites(wA, s)},
				RemoteKnown: true, Defer: asd},
			want: []string{"upload a.txt [new file]"},
			extra: func(t *testing.T, out Output) {
				st, ok := out.DeferState["a.txt"]
				if !ok || st.Armed || !st.ASD.Seen {
					t.Errorf("ASD estimator state not carried across a sync: %+v (present=%v)", st, ok)
				}
			},
		},
		{
			name: "defer-asd/burst-keeps-deferring",
			// Updates every 200ms; the estimate converges toward Δt+2ε =
			// 400ms > 200ms, so each write lands inside the window.
			in: Input{Now: 2 * s,
				Changes: []Change{withWrites(wB,
					s, s+200*ms, s+400*ms, s+600*ms, s+800*ms, 2*s)},
				RemoteKnown: true, Defer: asd},
			want:   []string{"defer a.txt [defer window open] until=2.390625s"},
			noIdem: true, wantWake: 2*s + 390625*time.Microsecond,
		},
		{
			name: "defer-asd/backwards-mtime-never-shrinks-estimate",
			// A write stamped before the last one seen (touch -d, cp -p)
			// counts as Δt = 0: T = 700ms/2 + 0 + 100ms = 450ms, deadline
			// 1.45s, and LastUpdate stays at 2s.
			in: Input{Now: 1200 * ms, Changes: []Change{withWrites(wA, s)},
				RemoteKnown: true, Defer: asd,
				DeferState: map[string]DeferState{
					"a.txt": {ASD: ASDState{T: 700 * ms, LastUpdate: 2 * s, Seen: true}},
				}},
			want:     []string{"defer a.txt [defer window open] until=1.45s"},
			wantWake: 1450 * ms, noIdem: true,
			extra: func(t *testing.T, out Output) {
				st := out.DeferState["a.txt"]
				if st.ASD.T != 450*ms || st.ASD.LastUpdate != 2*s {
					t.Errorf("ASD state after a backwards write: %+v, want T=450ms LastUpdate=2s", st.ASD)
				}
			},
		},
		// --- UDS ---
		{
			name: "defer-uds/below-threshold-lingers",
			in: Input{Now: s, Changes: []Change{withWrites(wA, s)},
				RemoteKnown: true, Defer: uds},
			want:     []string{"defer a.txt [defer window open] until=5s"},
			wantWake: 5 * s, noIdem: true,
		},
		{
			name: "defer-uds/at-threshold-immediate",
			in: Input{Now: s,
				Changes:     []Change{withWrites(Change{Path: "big.bin", Size: 1 << 20, MD5: hashC}, s)},
				RemoteKnown: true, Defer: uds},
			want: []string{"upload big.bin [new file]"},
		},
		{
			name: "defer-uds/linger-expired",
			in: Input{Now: 5 * s, Changes: []Change{withWrites(wA, s)},
				RemoteKnown: true, Defer: uds},
			want: []string{"upload a.txt [new file]"},
		},
		{
			name: "defer-uds/rearmed-by-new-write",
			in: Input{Now: 5 * s, Changes: []Change{withWrites(wA, s, 4*s)},
				RemoteKnown: true, Defer: uds},
			want:     []string{"defer a.txt [defer window open] until=8s"},
			wantWake: 8 * s, noIdem: true,
		},
		// --- none mode ---
		{
			name: "defer-none/writes-never-defer",
			in: Input{Now: 0, Changes: []Change{withWrites(wA, 0)},
				RemoteKnown: true},
			want: []string{"upload a.txt [new file]"},
		},
		{
			name: "defer-none/write-at-future-time-still-ready",
			in: Input{Now: 0, Changes: []Change{withWrites(wA, s)},
				RemoteKnown: true},
			want: []string{"upload a.txt [new file]"},
		},
		// --- startup reconciliation (rescan-as-creates) ---
		{
			name: "startup/rescan-matches-baseline-and-remote",
			in: Input{Now: s, Baseline: base1, Changes: []Change{wA},
				Remote: remoteLiveA, RemoteKnown: true},
			want: []string{"no-op a.txt [remote already matches]"},
		},
		{
			name: "startup/rescan-no-listing-trusts-baseline",
			in:   Input{Now: s, Baseline: base1, Changes: []Change{wA}},
			want: []string{"no-op a.txt [unchanged since baseline]"},
		},
		// --- divergence repair without pending changes ---
		{
			name: "repair/remote-lost-file",
			in:   Input{Now: s, Baseline: base1, RemoteKnown: true},
			want: []string{"upload a.txt [remote missing; restore]"},
		},
		{
			name: "repair/remote-fake-deleted",
			in:   Input{Now: s, Baseline: base1, Remote: remoteDeleted, RemoteKnown: true},
			want: []string{"upload a.txt [remote missing; restore]"},
		},
		{
			name: "repair/remote-content-diverged",
			in:   Input{Now: s, Baseline: base1, Remote: remoteLiveB, RemoteKnown: true},
			want: []string{"delta a.txt [remote diverged; local wins]"},
		},
		{
			name: "repair/version-drift-only",
			in: Input{Now: s, Baseline: base1,
				Remote:      map[string]RemoteFile{"a.txt": {FileID: 1, Size: 9, MD5: hashA, Version: 7}},
				RemoteKnown: true},
			want: []string{"no-op a.txt [record remote version]"},
		},
		{
			name: "repair/fully-in-sync-plans-nothing",
			in:   Input{Now: s, Baseline: base1, Remote: remoteLiveA, RemoteKnown: true},
			want: nil,
		},
		{
			name: "repair/no-listing-no-repair",
			in:   Input{Now: s, Baseline: base1},
			want: nil,
		},
		// --- remote-only files (one-way mirror) ---
		{
			name: "mirror/remote-only-file-ignored",
			in: Input{Now: s,
				Remote:      map[string]RemoteFile{"other-device.txt": {FileID: 9, Size: 5, MD5: hashC, Version: 1}},
				RemoteKnown: true},
			want: nil,
		},
		// --- misc ---
		{
			name: "empty/plans-nothing",
			in:   Input{Now: s},
			want: nil,
		},
		{
			name: "wake/min-of-multiple-deadlines",
			in: Input{Now: 2 * s, Defer: fixed5, RemoteKnown: true,
				Changes: []Change{
					withWrites(Change{Path: "x", Size: 1, MD5: hashA}, s),
					withWrites(Change{Path: "y", Size: 1, MD5: hashB}, 0),
				}},
			want: []string{
				"defer x [defer window open] until=6s",
				"defer y [defer window open] until=5s",
			},
			wantWake: 5 * s, noIdem: true,
		},
		{
			name: "state/asd-memory-survives-quiet-rounds",
			in: Input{Now: 10 * s, Defer: asd, RemoteKnown: true,
				DeferState: map[string]DeferState{
					"idle.txt": {ASD: ASDState{T: 700 * ms, LastUpdate: 2 * s, Seen: true}},
				}},
			want: nil,
			extra: func(t *testing.T, out Output) {
				st, ok := out.DeferState["idle.txt"]
				if !ok || st.Armed || st.ASD.T != 700*ms || st.ASD.LastUpdate != 2*s {
					t.Errorf("ASD estimator memory lost across a quiet round: %+v (present=%v)", st, ok)
				}
			},
		},
		{
			name: "state/remove-drops-asd-memory",
			in: Input{Now: s, Baseline: base1, Changes: []Change{rm},
				Remote: remoteLiveA, RemoteKnown: true, Defer: asd,
				DeferState: map[string]DeferState{
					"a.txt": {ASD: ASDState{T: 700 * ms, LastUpdate: 500 * ms, Seen: true}},
				}},
			want: []string{"delete a.txt [removed locally]"},
			extra: func(t *testing.T, out Output) {
				if _, ok := out.DeferState["a.txt"]; ok {
					t.Errorf("deleted path kept defer state: %+v", out.DeferState["a.txt"])
				}
			},
		},
		{
			name: "state/stale-armed-state-without-asd-dropped",
			in: Input{Now: 10 * s, Defer: fixed5, RemoteKnown: true,
				Changes:    []Change{withWrites(wA, s)},
				DeferState: map[string]DeferState{"gone.txt": {Deadline: 2 * s, Armed: true}}},
			want: []string{"upload a.txt [new file]"},
			extra: func(t *testing.T, out Output) {
				if len(out.DeferState) != 0 {
					t.Errorf("stale defer state leaked: %+v", out.DeferState)
				}
			},
		},
	}
}

func TestPlannerTable(t *testing.T) {
	for _, tc := range tableCases() {
		t.Run(tc.name, func(t *testing.T) {
			out := Plan(tc.in)
			got := make([]string, len(out.Actions))
			for i, a := range out.Actions {
				got[i] = fmtAction(a)
			}
			if !reflect.DeepEqual(got, tc.want) && !(len(got) == 0 && len(tc.want) == 0) {
				t.Fatalf("actions:\n got: %s\nwant: %s",
					strings.Join(got, "\n      "), strings.Join(tc.want, "\n      "))
			}
			if tc.wantWake != 0 {
				if !out.Wake || out.NextWake != tc.wantWake {
					t.Fatalf("NextWake = (%v, wake=%v), want %v", out.NextWake, out.Wake, tc.wantWake)
				}
			}
			if tc.extra != nil {
				tc.extra(t, out)
			}

			// Determinism: equal inputs, equal plans.
			again := Plan(tc.in)
			if !reflect.DeepEqual(out, again) {
				t.Fatalf("planning is not deterministic:\nfirst:  %+v\nsecond: %+v", out, again)
			}

			// Fixpoint: once a plan is applied, re-planning moves no bytes.
			if !tc.noIdem {
				next := applyTable(tc.in, out)
				out2 := Plan(next)
				for _, a := range out2.Actions {
					if a.Kind != NoOp && a.Kind != Defer {
						t.Fatalf("plan(apply(plan)) still wants %s — not idempotent\nfirst plan: %+v",
							fmtAction(a), out.Actions)
					}
				}
			}
		})
	}
}

// TestPlannerPanicsOnDuplicateChange pins the buffer contract: two
// changes for one path in a single round is a bug upstream, and the
// planner refuses to guess which wins.
func TestPlannerPanicsOnDuplicateChange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate change paths did not panic")
		}
	}()
	Plan(Input{Changes: []Change{
		{Path: "a", Size: 1, MD5: hashA},
		{Path: "a", Size: 2, MD5: hashB},
	}})
}

// TestPlannerPanicsOnDescendingWrites pins the other half of the
// contract: write timestamps must arrive in order, or the defer replay
// would silently mis-estimate.
func TestPlannerPanicsOnDescendingWrites(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("descending write times did not panic")
		}
	}()
	Plan(Input{Changes: []Change{
		{Path: "a", Size: 1, MD5: hashA, Writes: []time.Duration{2 * s, s}},
	}})
}

// TestPlannerDoesNotMutateInput guards purity from the other side: the
// inputs must come back byte-identical, so callers can re-plan or
// shrink failing scenarios without defensive copies.
func TestPlannerDoesNotMutateInput(t *testing.T) {
	in := Input{
		Now:      s,
		Baseline: map[string]FileMeta{"a.txt": {Size: 9, MD5: hashA, Version: 3}},
		Changes: []Change{
			{Path: "a.txt", Size: 9, MD5: hashB, Writes: []time.Duration{s}},
			{Path: "b.txt", Remove: true},
		},
		Remote:      map[string]RemoteFile{"a.txt": {FileID: 1, Size: 9, MD5: hashA, Version: 3}},
		RemoteKnown: true,
		Defer:       DeferConfig{Mode: DeferASD, Epsilon: 100 * ms, TMax: 10 * s},
		DeferState:  map[string]DeferState{"a.txt": {Deadline: 500 * ms, Armed: true}},
	}
	snap := fmt.Sprintf("%+v", in)
	Plan(in)
	if got := fmt.Sprintf("%+v", in); got != snap {
		t.Fatalf("Plan mutated its input:\nbefore: %s\nafter:  %s", snap, got)
	}
}

// TestFormatTableStable pins the dry-run renderer shape on a mixed
// plan (the full committed golden lives under cmd/syncwatch/testdata).
func TestFormatTableStable(t *testing.T) {
	out := Plan(Input{
		Now: 2 * s,
		Baseline: map[string]FileMeta{
			"keep.txt": {Size: 4, MD5: hashA, Version: 1},
			"gone.txt": {Size: 8, MD5: hashB, Version: 2},
		},
		Changes: []Change{
			{Path: "keep.txt", Size: 4, MD5: hashA},
			{Path: "gone.txt", Remove: true},
			{Path: "fresh.bin", Size: 123, MD5: hashC},
		},
	})
	got := FormatTable(out)
	want := "" +
		"ACTION  PATH       SIZE  REASON\n" +
		"upload  fresh.bin   123  new file\n" +
		"delete  gone.txt      -  removed locally\n" +
		"no-op   keep.txt      4  unchanged since baseline\n" +
		"\n3 action(s): 1 upload, 1 delete, 1 no-op\n"
	if got != want {
		t.Fatalf("FormatTable:\n got:\n%s\nwant:\n%s", got, want)
	}
}
