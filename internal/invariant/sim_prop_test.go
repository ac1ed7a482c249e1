package invariant_test

import (
	"fmt"
	"testing"
	"time"

	"cloudsync/internal/chunker"
	"cloudsync/internal/client"
	"cloudsync/internal/content"
	"cloudsync/internal/invariant"
	"cloudsync/internal/netem"
	"cloudsync/internal/obs/ledger"
	"cloudsync/internal/planner"
	"cloudsync/internal/service"
)

// faultyLinkForSeed degrades the Beijing vantage point with a seeded
// mix of exchange loss, connection drops, and stalls. Every fourth
// seed keeps the link clean, so the property also covers the fault-free
// baseline.
func faultyLinkForSeed(seed uint64) netem.Link {
	l := netem.Beijing()
	if seed%4 == 3 {
		return l
	}
	p := &netem.FaultProfile{
		Seed:     seed + 0xFA00,
		LossProb: float64(seed%30) / 100,
	}
	if seed%3 == 1 {
		p.MeanDropInterval = 20 * time.Second
	}
	if seed%2 == 0 {
		p.MeanStallInterval = 30 * time.Second
		p.StallDuration = 2 * time.Second
	}
	l.Faults = p
	return l
}

// runSim replays ops on the simulated sync path — Google Drive's PC
// client, which syncs full files with no compression and no dedup, so
// the TUE floor applies — and checks the invariants against the cloud's
// file table. It returns the violations plus the up-traffic total (for
// the determinism check). Gets are skipped: the simulated client is
// upload-driven; downloads are covered by the live syncnet drivers.
func runSim(seed uint64, ops []invariant.Op) ([]invariant.Violation, int64) {
	s := service.NewSetup(service.GoogleDrive, client.PC, service.Options{
		Link:  faultyLinkForSeed(seed),
		Defer: &planner.DeferConfig{Mode: planner.DeferNone},
	})
	led := &ledger.Ledger{}
	s.Capture.SetLedger(led)
	tr := invariant.NewTracker()
	server := make(map[string]invariant.ServerFile)

	fail := func(err error) ([]invariant.Violation, int64) {
		return []invariant.Violation{{Invariant: "driver", Detail: err.Error()}}, s.Capture.UpBytes()
	}
	for _, op := range ops {
		switch op.Kind {
		case invariant.OpPut:
			blob := content.Random(op.Size, op.ContentSeed)
			var err error
			if _, ok := s.FS.File(op.Name); ok {
				err = s.FS.Write(op.Name, blob, []chunker.Range{{Off: 0, Len: op.Size}})
			} else {
				err = s.FS.Create(op.Name, blob)
			}
			if err != nil {
				return fail(err)
			}
			s.Clock.Run()
			e, ok := s.Cloud.File("alice", op.Name)
			if !ok {
				return fail(fmt.Errorf("%v: not in the cloud after quiescence", op))
			}
			tr.RecordUpload(op.Name, blob.Bytes(), e.Version)
		case invariant.OpGet:
			continue
		case invariant.OpDelete:
			if err := s.FS.Delete(op.Name); err != nil {
				return fail(err)
			}
			s.Clock.Run()
			if _, ok := s.Cloud.File("alice", op.Name); ok {
				return fail(fmt.Errorf("%v: still live in the cloud after quiescence", op))
			}
			tr.RecordDelete(op.Name)
		}
	}
	s.Clock.Run()

	for _, name := range s.FS.Names() {
		e, ok := s.Cloud.File("alice", name)
		if !ok {
			continue // Check flags the miss via the tracked expectation
		}
		server[name] = invariant.ServerFile{Data: e.Blob.Bytes(), Version: e.Version}
	}
	up := s.Capture.UpBytes()
	// The capture has no independent receiver-side counter, so the
	// balance check is vacuous here; the TUE floor is the live one:
	// even with every retransmission charged, up-traffic must cover
	// the fresh content at least once.
	vs := tr.Check(server, invariant.Wire{ClientSent: up, ServerReceived: up, MaxLost: 0})
	// The attribution ledger must account for every simulated wire byte,
	// both directions, exactly.
	vs = append(vs, invariant.CheckLedger(s.Capture.TotalBytes(), led.Snapshot())...)
	return vs, up
}

// TestSimInvariants is the simulated half of the acceptance property:
// 200 seeded fault schedules × seeded edit sequences through the
// netem/client/cloud stack.
func TestSimInvariants(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		ops := invariant.GenOps(seed, 5+int(seed%6))
		vs, up := runSim(seed, ops)
		if len(vs) > 0 {
			reportShrunk(t, seed, ops, vs, func(seed uint64, ops []invariant.Op) []invariant.Violation {
				vs, _ := runSim(seed, ops)
				return vs
			})
			return
		}
		// Fault schedules are drawn from the profile's own seed, so a
		// replay of the same seed must cost byte-identical traffic.
		if seed%25 == 0 {
			if again, up2 := runSim(seed, ops); len(again) != 0 || up2 != up {
				t.Fatalf("seed %d: replay diverged (violations %v, up %d then %d)", seed, again, up, up2)
			}
		}
	}
}
