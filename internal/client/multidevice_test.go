package client

import (
	"testing"
	"time"

	"cloudsync/internal/capture"
	"cloudsync/internal/cloud"
	"cloudsync/internal/content"
	"cloudsync/internal/netem"
	"cloudsync/internal/simclock"
	"cloudsync/internal/vfs"
	"cloudsync/internal/wire"
)

// twoDevices wires two PC clients of the same user to one cloud on one
// clock, each with its own folder, path, and capture.
func twoDevices(t *testing.T) (a, b *rig) {
	t.Helper()
	clk := simclock.New()
	cl := cloud.New(cloud.Config{})
	mk := func(device string) *rig {
		cap := capture.New()
		conn := wire.NewConn(wire.DefaultParams(), cap, capture.Flow{
			Src: capture.Endpoint("client:" + device), Dst: "cloud",
		})
		path := netem.NewPath(clk, netem.Minnesota(), conn, true)
		fs := vfs.New(clk)
		cfg := defaultConfig()
		cfg.Device = device
		cfg.AutoSyncRemote = true
		c := New(cfg, clk, fs, cl, path)
		return &rig{clock: clk, cap: cap, fs: fs, cloud: cl, path: path, client: c}
	}
	return mk("deviceA"), mk("deviceB")
}

func TestRemoteCreatePropagates(t *testing.T) {
	a, b := twoDevices(t)
	if err := a.fs.Create("shared.bin", content.Random(1<<20, 1)); err != nil {
		t.Fatal(err)
	}
	a.clock.Run()

	f, ok := b.fs.File("shared.bin")
	if !ok {
		t.Fatal("device B did not receive the file")
	}
	if f.Size() != 1<<20 {
		t.Fatalf("device B size = %d", f.Size())
	}
	// B downloaded the content: ~1 MB downstream on B's capture.
	if b.cap.DownBytes() < 1<<20 {
		t.Fatalf("device B downstream = %d, want ≥ 1 MB", b.cap.DownBytes())
	}
	// B must not have re-uploaded the mirrored file: its upstream
	// application payload is a couple of control messages (the wire
	// bytes also carry pure TCP ACKs for the 1 MB download, which is
	// why UpBytes alone would mislead).
	if up := b.cap.Dir(capture.Up).AppBytes; up > 1000 {
		t.Fatalf("device B upstream app bytes = %d; mirror must not echo back", up)
	}
	if b.client.Stats().Downloads != 1 {
		t.Fatalf("device B stats = %+v", b.client.Stats())
	}
	if a.cloud.Uploads.Load() != 1 {
		t.Fatalf("cloud uploads = %d, want exactly the original", a.cloud.Uploads.Load())
	}
}

func TestRemoteModifyPropagates(t *testing.T) {
	a, b := twoDevices(t)
	a.fs.Create("doc", content.Random(100<<10, 2))
	a.clock.Run()
	a.fs.Append("doc", 50<<10)
	a.clock.Run()
	f, ok := b.fs.File("doc")
	if !ok || f.Size() != 150<<10 {
		t.Fatalf("device B has %v (size %d), want the 150 KB version", ok, f.Size())
	}
}

func TestRemoteDeletePropagates(t *testing.T) {
	a, b := twoDevices(t)
	a.fs.Create("temp", content.Random(1000, 3))
	a.clock.Run()
	if _, ok := b.fs.File("temp"); !ok {
		t.Fatal("file never reached device B")
	}
	a.fs.Delete("temp")
	a.clock.Run()
	if _, ok := b.fs.File("temp"); ok {
		t.Fatal("deletion did not propagate")
	}
}

func TestRemoteChangeDoesNotEcho(t *testing.T) {
	a, b := twoDevices(t)
	a.fs.Create("f", content.Random(10_000, 4))
	a.clock.Run()
	uploadsAfterCreate := a.cloud.Uploads.Load()
	// Let everything settle; B must not generate further cloud traffic.
	a.clock.RunUntil(a.clock.Now() + time.Hour)
	if a.cloud.Uploads.Load() != uploadsAfterCreate {
		t.Fatalf("uploads grew from %d to %d; devices are echoing", uploadsAfterCreate, a.cloud.Uploads.Load())
	}
	if b.client.PendingCount() != 0 {
		t.Fatal("device B holds pending state from a mirrored change")
	}
}

func TestRemoteWinsOverLocalPending(t *testing.T) {
	a, b := twoDevices(t)
	a.fs.Create("doc", content.Random(10_000, 5))
	a.clock.Run()
	// Both devices edit; A's commit lands and B's mirror supersedes its
	// queued local edit (remote-wins).
	a.fs.Append("doc", 1000)
	a.clock.Run()
	f, _ := b.fs.File("doc")
	if f.Size() != 11_000 {
		t.Fatalf("device B size = %d, want 11000", f.Size())
	}
}

func TestLocalEditAfterMirrorSyncsIncrementally(t *testing.T) {
	a, b := twoDevices(t)
	a.fs.Create("doc", content.Random(1<<20, 6))
	a.clock.Run()
	// B edits the mirrored file; since the mirror recorded the synced
	// generation, only the edit (plus overhead) should move.
	m := b.cap.Mark()
	if err := b.fs.ModifyByte("doc", 1000); err != nil {
		t.Fatal(err)
	}
	b.clock.Run()
	up, _, _ := b.cap.Since(m)
	// defaultConfig is full-file sync, so B re-uploads the file — but
	// it must be a modify (one upload), not a create-from-scratch plus
	// echo loops.
	if a.cloud.Uploads.Load() != 2 {
		t.Fatalf("cloud uploads = %d, want 2", a.cloud.Uploads.Load())
	}
	if up < 1<<20 {
		t.Fatalf("B's modify moved %d bytes up, want full file (full-file sync)", up)
	}
	// And the edit propagates back to A.
	f, _ := a.fs.File("doc")
	if f.Gen() == 0 {
		t.Fatal("device A lost the file")
	}
}

func TestSubscribeNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Subscribe(nil) did not panic")
		}
	}()
	cloud.New(cloud.Config{}).Subscribe("u", "d", nil)
}
