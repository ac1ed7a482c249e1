package client

import (
	"testing"
	"time"

	"cloudsync/internal/capture"
	"cloudsync/internal/chunker"
	"cloudsync/internal/cloud"
	"cloudsync/internal/comp"
	"cloudsync/internal/content"
	"cloudsync/internal/dedup"
	"cloudsync/internal/hardware"
	"cloudsync/internal/netem"
	"cloudsync/internal/planner"
	"cloudsync/internal/simclock"
	"cloudsync/internal/vfs"
	"cloudsync/internal/wire"
)

// rig bundles a full simulation for tests.
type rig struct {
	clock  *simclock.Clock
	cap    *capture.Capture
	fs     *vfs.FS
	cloud  *cloud.Cloud
	path   *netem.Path
	client *Client
}

func defaultConfig() Config {
	return Config{
		User:                "alice",
		Device:              "M1",
		Access:              PC,
		FullFileSync:        true,
		UploadCompression:   comp.None,
		DownloadCompression: comp.None,
		Hardware:            hardware.M1(),
		MetaPerSyncUp:       2000,
		MetaPerSyncDown:     1000,
		PayloadExpansion:    1.05,
	}
}

func newRig(t *testing.T, cfg Config, ccfg cloud.Config, link netem.Link, persistent bool) *rig {
	t.Helper()
	clk := simclock.New()
	cap := capture.New()
	conn := wire.NewConn(wire.DefaultParams(), cap, capture.Flow{Src: "client", Dst: "cloud"})
	path := netem.NewPath(clk, link, conn, persistent)
	fs := vfs.New(clk)
	cl := cloud.New(ccfg)
	c := New(cfg, clk, fs, cl, path)
	return &rig{clock: clk, cap: cap, fs: fs, cloud: cl, path: path, client: c}
}

func TestCreateSyncsToCloud(t *testing.T) {
	r := newRig(t, defaultConfig(), cloud.Config{}, netem.Minnesota(), true)
	if err := r.fs.Create("a.bin", content.Random(10_000, 1)); err != nil {
		t.Fatal(err)
	}
	r.clock.Run()
	e, ok := r.cloud.File("alice", "a.bin")
	if !ok {
		t.Fatal("file not in cloud after sync")
	}
	if e.Blob.Size() != 10_000 {
		t.Fatalf("cloud size = %d", e.Blob.Size())
	}
	if r.cap.TotalBytes() < 10_000 {
		t.Fatalf("traffic %d < payload", r.cap.TotalBytes())
	}
	if r.client.Stats().Sessions != 1 || r.client.Stats().FileSyncs != 1 {
		t.Fatalf("stats = %+v", r.client.Stats())
	}
	if r.client.PendingCount() != 0 || r.client.InFlight() {
		t.Fatal("client not quiescent after run")
	}
}

func TestSmallFileTUEDominatedByOverhead(t *testing.T) {
	// Experiment 1's key finding: a 1-byte file costs kilobytes.
	r := newRig(t, defaultConfig(), cloud.Config{}, netem.Minnesota(), true)
	r.fs.Create("tiny", content.Random(1, 2))
	r.clock.Run()
	if got := r.cap.TotalBytes(); got < 4_000 {
		t.Fatalf("1-byte creation cost %d bytes; overhead should dominate", got)
	}
}

func TestLargeFileTUEApproachesOne(t *testing.T) {
	r := newRig(t, defaultConfig(), cloud.Config{}, netem.Minnesota(), true)
	const size = 10 << 20
	r.fs.Create("big", content.Random(size, 3))
	r.clock.Run()
	tue := float64(r.cap.TotalBytes()) / float64(size)
	if tue < 1.0 || tue > 1.35 {
		t.Fatalf("10MB creation TUE = %.3f, want ≈ 1.1", tue)
	}
}

func TestFullFileVsChunkedModification(t *testing.T) {
	const size = 1 << 20
	run := func(fullFile bool) int64 {
		cfg := defaultConfig()
		cfg.FullFileSync = fullFile
		cfg.ChunkSize = 8 << 10
		r := newRig(t, cfg, cloud.Config{}, netem.Minnesota(), true)
		r.fs.Create("f", content.Random(size, 4))
		r.clock.Run()
		m := r.cap.Mark()
		r.fs.ModifyByte("f", size/2)
		r.clock.Run()
		up, down, _ := r.cap.Since(m)
		return up + down
	}
	full := run(true)
	ids := run(false)
	if full < size {
		t.Fatalf("full-file modify moved %d bytes, want ≥ file size", full)
	}
	if ids > 100_000 {
		t.Fatalf("IDS modify moved %d bytes, want tens of KB", ids)
	}
	if full < 10*ids {
		t.Fatalf("full-file (%d) should dwarf IDS (%d)", full, ids)
	}
}

func TestChunkedAppendSendsTail(t *testing.T) {
	cfg := defaultConfig()
	cfg.FullFileSync = false
	cfg.ChunkSize = 8 << 10
	r := newRig(t, cfg, cloud.Config{}, netem.Minnesota(), true)
	r.fs.Create("log", content.Random(1<<20, 5))
	r.clock.Run()
	m := r.cap.Mark()
	r.fs.Append("log", 1024)
	r.clock.Run()
	up, down, _ := r.cap.Since(m)
	if total := up + down; total > 60_000 {
		t.Fatalf("1KB append moved %d bytes, want one chunk + overhead", total)
	}
	e, _ := r.cloud.File("alice", "log")
	if e.Blob.Size() != 1<<20+1024 {
		t.Fatalf("cloud size = %d", e.Blob.Size())
	}
}

func TestBDSReducesSmallFileTraffic(t *testing.T) {
	// Experiment 1': 100 creations of 1 KB files.
	run := func(bds bool) int64 {
		cfg := defaultConfig()
		cfg.BDS = bds
		r := newRig(t, cfg, cloud.Config{}, netem.Minnesota(), true)
		for i := 0; i < 100; i++ {
			r.fs.Create(fileName(i), content.Random(1024, int64(100+i)))
		}
		r.clock.Run()
		if r.cloud.Uploads.Load() != 100 {
			t.Fatalf("cloud uploads = %d, want 100", r.cloud.Uploads.Load())
		}
		return r.cap.TotalBytes()
	}
	with := run(true)
	without := run(false)
	if with >= without/3 {
		t.Fatalf("BDS traffic %d should be ≪ non-BDS %d", with, without)
	}
	// With BDS the total should be near the 100 KB payload (TUE ≈ 1–2).
	if with > 300_000 {
		t.Fatalf("BDS traffic %d, want ≲ 2× payload", with)
	}
}

func fileName(i int) string {
	return string(rune('a'+i/26%26)) + string(rune('a'+i%26)) + string(rune('0'+i/676))
}

func TestBundleSizeLimitsBDS(t *testing.T) {
	cfg := defaultConfig()
	cfg.BDS = true
	cfg.BundleSize = 10
	r := newRig(t, cfg, cloud.Config{}, netem.Minnesota(), true)
	for i := 0; i < 100; i++ {
		r.fs.Create(fileName(i), content.Random(1024, int64(i)))
	}
	r.clock.Run()
	if got := r.client.Stats().Bundles; got != 10 {
		t.Fatalf("Bundles = %d, want 10", got)
	}
}

func TestDeletionTrafficNegligible(t *testing.T) {
	// Experiment 2: deletion costs < 100 KB regardless of file size.
	r := newRig(t, defaultConfig(), cloud.Config{}, netem.Minnesota(), true)
	r.fs.Create("big", content.Random(10<<20, 6))
	r.clock.Run()
	m := r.cap.Mark()
	r.fs.Delete("big")
	r.clock.Run()
	up, down, _ := r.cap.Since(m)
	if total := up + down; total > 100_000 {
		t.Fatalf("deletion cost %d bytes, want < 100 KB", total)
	}
	if _, ok := r.cloud.File("alice", "big"); ok {
		t.Fatal("file still live in cloud")
	}
	if r.client.Stats().Deletes != 1 {
		t.Fatalf("stats = %+v", r.client.Stats())
	}
}

func TestDeleteBeforeSyncCostsNothing(t *testing.T) {
	cfg := defaultConfig()
	cfg.Defer = planner.DeferConfig{Mode: planner.DeferFixed, FixedT: time.Minute}
	r := newRig(t, cfg, cloud.Config{}, netem.Minnesota(), true)
	r.fs.Create("temp", content.Random(1000, 7))
	r.fs.Delete("temp")
	r.clock.Run()
	if r.cap.TotalBytes() != 0 {
		t.Fatalf("unsynced create+delete cost %d bytes", r.cap.TotalBytes())
	}
}

func TestFullFileDedupSkipsUpload(t *testing.T) {
	cfg := defaultConfig()
	cfg.UseDedup = true
	r := newRig(t, cfg, cloud.Config{DedupGranularity: dedup.FullFile}, netem.Minnesota(), true)
	blob := content.Random(1<<20, 8)
	r.fs.Create("orig", blob)
	r.clock.Run()
	m := r.cap.Mark()
	r.fs.Create("copy", content.Random(1<<20, 8)) // identical content
	r.clock.Run()
	up, down, _ := r.cap.Since(m)
	if total := up + down; total > 50_000 {
		t.Fatalf("dedup'd upload cost %d bytes, want control traffic only", total)
	}
	if r.client.Stats().DedupSkips != 1 {
		t.Fatalf("stats = %+v", r.client.Stats())
	}
	if _, ok := r.cloud.File("alice", "copy"); !ok {
		t.Fatal("skipped upload not recorded in cloud")
	}
}

func TestWebAccessIgnoresDedup(t *testing.T) {
	cfg := defaultConfig()
	cfg.Access = Web
	cfg.UseDedup = false
	r := newRig(t, cfg, cloud.Config{DedupGranularity: dedup.FullFile}, netem.Minnesota(), false)
	blob := content.Random(1<<20, 9)
	r.fs.Create("orig", blob)
	r.clock.Run()
	m := r.cap.Mark()
	r.fs.Create("copy", content.Random(1<<20, 9))
	r.clock.Run()
	up, _, _ := r.cap.Since(m)
	if up < 1<<20 {
		t.Fatalf("web re-upload moved %d bytes, want full content (no dedup)", up)
	}
}

func TestUploadCompressionShrinksText(t *testing.T) {
	run := func(level comp.Level) int64 {
		cfg := defaultConfig()
		cfg.UploadCompression = level
		r := newRig(t, cfg, cloud.Config{}, netem.Minnesota(), true)
		r.fs.Create("doc", content.Text(1<<20, 10))
		r.clock.Run()
		return r.cap.TotalBytes()
	}
	raw := run(comp.None)
	compressed := run(comp.Moderate)
	if compressed >= raw*3/4 {
		t.Fatalf("moderate compression: %d vs raw %d", compressed, raw)
	}
}

func TestFixedDeferBatchesFastUpdates(t *testing.T) {
	// Appends every 1 s with a 4.2 s deferment: everything batches into
	// one sync at the end (Fig. 6(a), X < T region).
	cfg := defaultConfig()
	cfg.Defer = planner.DeferConfig{Mode: planner.DeferFixed, FixedT: 4200 * time.Millisecond}
	r := newRig(t, cfg, cloud.Config{}, netem.Minnesota(), true)
	r.fs.Create("doc", content.Random(0, 11))
	r.clock.Run()
	m := r.cap.Mark()
	// 64 appends of 1 KB, 1 s apart.
	for i := 0; i < 64; i++ {
		at := time.Duration(i+1) * time.Second
		r.clock.At(at, func() { r.fs.Append("doc", 1024) })
	}
	r.clock.Run()
	up, down, _ := r.cap.Since(m)
	total := up + down
	// One batched full-file sync ≈ 64 KB + overhead; unbatched would be
	// ≈ 64×(avg 32 KB) ≈ 2 MB.
	if total > 200_000 {
		t.Fatalf("deferred appends cost %d bytes; batching failed", total)
	}
	e, _ := r.cloud.File("alice", "doc")
	if e.Blob.Size() != 64*1024 {
		t.Fatalf("cloud size = %d", e.Blob.Size())
	}
}

func TestFixedDeferUselessForSlowUpdates(t *testing.T) {
	// Appends every 10 s with a 4.2 s deferment: every append syncs
	// separately (the X > T traffic overuse of Fig. 6).
	cfg := defaultConfig()
	cfg.Defer = planner.DeferConfig{Mode: planner.DeferFixed, FixedT: 4200 * time.Millisecond}
	r := newRig(t, cfg, cloud.Config{}, netem.Minnesota(), true)
	r.fs.Create("doc", content.Random(0, 12))
	r.clock.Run()
	sessionsBefore := r.client.Stats().Sessions
	for i := 0; i < 16; i++ {
		at := time.Duration(i) * 10 * time.Second
		r.clock.At(at+time.Nanosecond, func() { r.fs.Append("doc", 1024) })
	}
	r.clock.Run()
	if got := r.client.Stats().Sessions - sessionsBefore; got < 14 {
		t.Fatalf("sessions = %d, want ≈ 16 (no batching past the deferment)", got)
	}
}

func TestASDBatchesSlowUpdates(t *testing.T) {
	// The same 10 s cadence with ASD: the deferment adapts above 10 s
	// and batches everything.
	cfg := defaultConfig()
	cfg.Defer = planner.DeferConfig{Mode: planner.DeferASD, Epsilon: 500 * time.Millisecond, TMax: time.Minute}
	r := newRig(t, cfg, cloud.Config{}, netem.Minnesota(), true)
	r.fs.Create("doc", content.Random(0, 13))
	r.clock.Run()
	sessionsBefore := r.client.Stats().Sessions
	for i := 0; i < 16; i++ {
		at := time.Duration(i) * 10 * time.Second
		r.clock.At(at+time.Nanosecond, func() { r.fs.Append("doc", 1024) })
	}
	r.clock.Run()
	got := r.client.Stats().Sessions - sessionsBefore
	if got > 8 {
		t.Fatalf("ASD sessions = %d, want far fewer than 16", got)
	}
}

func TestCondition1SlowLinkBatches(t *testing.T) {
	// With no deferment, a slow link makes each session long enough
	// that several appends batch naturally (§ 6.2).
	run := func(link netem.Link) int {
		cfg := defaultConfig()
		r := newRig(t, cfg, cloud.Config{ProcessingTime: 300 * time.Millisecond}, link, true)
		r.fs.Create("doc", content.Random(0, 14))
		r.clock.Run()
		before := r.client.Stats().Sessions
		for i := 0; i < 32; i++ {
			at := time.Duration(i) * time.Second
			r.clock.At(at+time.Nanosecond, func() { r.fs.Append("doc", 64*1024) })
		}
		r.clock.Run()
		return r.client.Stats().Sessions - before
	}
	fast := run(netem.Minnesota())
	slow := run(netem.Beijing())
	if slow >= fast {
		t.Fatalf("slow link sessions (%d) should be < fast link sessions (%d)", slow, fast)
	}
}

func TestCondition2SlowHardwareBatches(t *testing.T) {
	run := func(hw hardware.Profile) int {
		cfg := defaultConfig()
		cfg.Hardware = hw
		r := newRig(t, cfg, cloud.Config{}, netem.Minnesota(), true)
		r.fs.Create("doc", content.Random(0, 15))
		r.clock.Run()
		before := r.client.Stats().Sessions
		for i := 0; i < 32; i++ {
			at := time.Duration(i) * time.Second
			r.clock.At(at+time.Nanosecond, func() { r.fs.Append("doc", 32*1024) })
		}
		r.clock.Run()
		return r.client.Stats().Sessions - before
	}
	fast := run(hardware.M3())
	slowCount := run(hardware.M2())
	if slowCount >= fast {
		t.Fatalf("outdated hardware sessions (%d) should be < SSD machine (%d)", slowCount, fast)
	}
}

func TestDownload(t *testing.T) {
	cfg := defaultConfig()
	cfg.DownloadCompression = comp.High
	r := newRig(t, cfg, cloud.Config{StoreCompression: comp.High}, netem.Minnesota(), true)
	r.fs.Create("doc", content.Text(1<<20, 16))
	r.clock.Run()
	m := r.cap.Mark()
	done := false
	if err := r.client.Download("doc", func() { done = true }); err != nil {
		t.Fatal(err)
	}
	r.clock.Run()
	if !done {
		t.Fatal("download callback never ran")
	}
	_, down, _ := r.cap.Since(m)
	if down >= 1<<20 {
		t.Fatalf("compressed download moved %d bytes, want < raw size", down)
	}
	if down < 100_000 {
		t.Fatalf("download moved %d bytes, implausibly small", down)
	}
	if r.client.Stats().Downloads != 1 {
		t.Fatalf("stats = %+v", r.client.Stats())
	}
}

func TestDownloadMissingErrors(t *testing.T) {
	r := newRig(t, defaultConfig(), cloud.Config{}, netem.Minnesota(), true)
	if err := r.client.Download("ghost", nil); err == nil {
		t.Fatal("download of missing file should error")
	}
}

func TestAccessMethodString(t *testing.T) {
	for a, want := range map[AccessMethod]string{PC: "PC client", Web: "Web-based", Mobile: "Mobile app"} {
		if got := a.String(); got != want {
			t.Errorf("%d = %q, want %q", a, got, want)
		}
	}
	if AccessMethod(9).String() == "" {
		t.Error("unknown access should render")
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.User = "" },
		func(c *Config) { c.FullFileSync = false; c.ChunkSize = 0 },
		func(c *Config) { c.Defer = planner.DeferConfig{Mode: planner.DeferASD} },
		func(c *Config) { c.PayloadExpansion = 0.5 },
		func(c *Config) { c.Hardware = hardware.Profile{} },
	}
	for i, mutate := range cases {
		cfg := defaultConfig()
		mutate(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: invalid config did not panic", i)
				}
			}()
			newRig(t, cfg, cloud.Config{}, netem.Minnesota(), true)
		}()
	}
}

func TestModifyDuringMetadataJoinsBatch(t *testing.T) {
	// An update landing during the Condition-2 window rides along in
	// the same session.
	cfg := defaultConfig()
	cfg.Hardware = hardware.M2() // long metadata time
	r := newRig(t, cfg, cloud.Config{}, netem.Minnesota(), true)
	r.fs.Create("doc", content.Random(10<<20, 17))
	// Schedule a second modification 100 ms in — well inside M2's
	// metadata window for a 10 MB file.
	r.clock.Schedule(100*time.Millisecond, func() {
		r.fs.Append("doc", 1024)
	})
	r.clock.Run()
	e, _ := r.cloud.File("alice", "doc")
	if e.Blob.Size() != 10<<20+1024 {
		t.Fatalf("cloud size = %d; mid-metadata update lost", e.Blob.Size())
	}
}

func TestRapidEditsCoalesceDirtyRanges(t *testing.T) {
	cfg := defaultConfig()
	cfg.FullFileSync = false
	cfg.ChunkSize = 8 << 10
	cfg.Defer = planner.DeferConfig{Mode: planner.DeferFixed, FixedT: time.Second}
	r := newRig(t, cfg, cloud.Config{}, netem.Minnesota(), true)
	r.fs.Create("f", content.Random(1<<20, 18))
	r.clock.Run()
	m := r.cap.Mark()
	// 10 edits to the same byte within the deferment window: one chunk
	// should move, once.
	for i := 0; i < 10; i++ {
		r.fs.ModifyByte("f", 4096)
	}
	r.clock.Run()
	up, down, _ := r.cap.Since(m)
	if total := up + down; total > 60_000 {
		t.Fatalf("coalesced edits moved %d bytes, want one chunk + overhead", total)
	}
}

func TestChunkRanges(t *testing.T) {
	// Sanity: EditsSince + DirtyBytes is what the client charges.
	cfg := defaultConfig()
	cfg.FullFileSync = false
	cfg.ChunkSize = 10 << 10
	r := newRig(t, cfg, cloud.Config{}, netem.Minnesota(), true)
	r.fs.Create("f", content.Random(100<<10, 19))
	r.clock.Run()
	f, _ := r.fs.File("f")
	if dirty := f.EditsSince(f.Gen()); len(dirty) != 0 {
		t.Fatalf("dirty after sync = %v", dirty)
	}
	if n := chunker.DirtyBytes(f.Size(), cfg.ChunkSize, []chunker.Range{{Off: 0, Len: 1}}); n != 10<<10 {
		t.Fatalf("DirtyBytes = %d", n)
	}
}
