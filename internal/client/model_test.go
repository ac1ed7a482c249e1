package client

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"cloudsync/internal/cloud"
	"cloudsync/internal/comp"
	"cloudsync/internal/content"
	"cloudsync/internal/dedup"
	"cloudsync/internal/netem"
	"cloudsync/internal/planner"
)

// TestPropertyCloudMirrorsFolder is a model-based test: apply a random
// sequence of file operations at random times under randomly chosen
// design choices, drain the simulation, and require that the cloud's
// live state is exactly the folder's state — same names, same content
// identity. This is the sync engine's core correctness contract and
// must hold regardless of granularity, dedup, deferment, batching, or
// how operations interleave with in-flight sessions.
func TestPropertyCloudMirrorsFolder(t *testing.T) {
	names := []string{"a", "b", "dir/c", "dir/d", "e"}
	for iter := 0; iter < 120; iter++ {
		rng := rand.New(rand.NewSource(int64(iter)))

		cfg := defaultConfig()
		cfg.FullFileSync = rng.Intn(2) == 0
		if !cfg.FullFileSync {
			cfg.ChunkSize = []int{4 << 10, 64 << 10}[rng.Intn(2)]
		}
		cfg.UseDedup = rng.Intn(2) == 0
		cfg.BDS = rng.Intn(2) == 0
		switch rng.Intn(4) {
		case 0:
			cfg.Defer = planner.DeferConfig{Mode: planner.DeferNone}
		case 1:
			cfg.Defer = planner.DeferConfig{Mode: planner.DeferFixed, FixedT: time.Duration(1+rng.Intn(8)) * time.Second}
		case 2:
			cfg.Defer = planner.DeferConfig{Mode: planner.DeferASD, Epsilon: 500 * time.Millisecond, TMax: 30 * time.Second}
		case 3:
			cfg.Defer = planner.DeferConfig{Mode: planner.DeferUDS, Threshold: 64 << 10, MaxDelay: 20 * time.Second}
		}
		cfg.SharedSession = rng.Intn(2) == 0
		cfg.UploadCompression = comp.Level(rng.Intn(3))

		ccfg := cloud.Config{}
		if cfg.UseDedup && rng.Intn(2) == 0 {
			ccfg.DedupGranularity = dedup.FullFile
		}
		ccfg.ProcessingTime = time.Duration(rng.Intn(3000)) * time.Millisecond

		link := netem.Minnesota()
		if rng.Intn(3) == 0 {
			link = netem.Beijing()
		}
		r := newRig(t, cfg, ccfg, link, rng.Intn(2) == 0)

		// Random op script at random virtual times.
		nOps := 5 + rng.Intn(25)
		at := time.Duration(0)
		for op := 0; op < nOps; op++ {
			at += time.Duration(rng.Intn(8000)) * time.Millisecond
			name := names[rng.Intn(len(names))]
			kind := rng.Intn(4)
			size := int64(rng.Intn(64 << 10))
			seed := int64(iter*1000 + op)
			r.clock.At(at, func() {
				switch kind {
				case 0: // create (or modify if it exists)
					if _, ok := r.fs.File(name); ok {
						r.fs.Write(name, content.Random(size, seed), nil)
					} else {
						r.fs.Create(name, content.Random(size, seed))
					}
				case 1: // append
					if _, ok := r.fs.File(name); ok {
						r.fs.Append(name, size%4096)
					}
				case 2: // modify a byte
					if f, ok := r.fs.File(name); ok && f.Size() > 0 {
						r.fs.ModifyByte(name, seed%f.Size())
					}
				case 3: // delete
					if _, ok := r.fs.File(name); ok {
						r.fs.Delete(name)
					}
				}
			})
		}
		r.clock.Run()

		// Convergence: every folder file is live in the cloud with
		// identical content; nothing extra is live in the cloud.
		desc := fmt.Sprintf("iter %d (fullfile=%v dedup=%v bds=%v defer=%s shared=%v)",
			iter, cfg.FullFileSync, cfg.UseDedup, cfg.BDS, cfg.Defer.Mode, cfg.SharedSession)
		if r.client.PendingCount() != 0 || r.client.InFlight() {
			t.Fatalf("%s: client did not quiesce (pending=%d inflight=%v)",
				desc, r.client.PendingCount(), r.client.InFlight())
		}
		for _, name := range r.fs.Names() {
			f, _ := r.fs.File(name)
			e, ok := r.cloud.File("alice", name)
			if !ok {
				t.Fatalf("%s: %q in folder but not in cloud", desc, name)
			}
			if !e.Blob.Equal(f.Blob()) {
				t.Fatalf("%s: %q content diverged (folder %v, cloud %v)",
					desc, name, f.Blob(), e.Blob)
			}
		}
		for _, name := range names {
			if _, ok := r.fs.File(name); ok {
				continue
			}
			if _, ok := r.cloud.File("alice", name); ok {
				t.Fatalf("%s: %q live in cloud but deleted locally", desc, name)
			}
		}
	}
}
