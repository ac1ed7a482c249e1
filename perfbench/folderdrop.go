package main

import (
	"crypto/md5"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cloudsync/internal/protocol"
	"cloudsync/internal/trace"
)

// folder-drop sizing: files above fdMaxSize are left out of the trace
// sample ("capped at tens of KiB"); fdSeeded files are synced during
// set-up so the baseline starts non-empty; each burst drops fdBurst.
// A run drops a fixed number of bursts, fdPerSecond files for each
// second asked for, so memory and compaction work do not depend on
// how fast the machine happens to be.
const (
	fdMaxSize   = 32 << 10
	fdSeeded    = 500
	fdBurst     = 2000
	fdPerSecond = 600
	// fdTraceScale sizes the generated trace so a run never reuses a
	// record (about 42k files at or below fdMaxSize).
	fdTraceScale = 0.3
)

var errMismatch = errors.New("server content differs from the local tree")

func runFolderDrop(cfg config) (result, error) {
	seeded, burst := fdSeeded, fdBurst
	if cfg.tiny {
		seeded, burst = 20, 40
	}
	recs := dropRecords(cfg.seed, cfg.tiny)
	return runLive(cfg, liveWorkload{workers: 1, dev2: true,
		prepare: func(e *liveEnv, cfg config) (func(float64) (phase, error), func() error, error) {
			fd := &folderDrop{e: e, recs: recs, burst: burst, seen: map[int64]bool{}}
			if err := fd.drop(seeded, nil); err != nil {
				return nil, nil, err
			}
			if _, err := e.converge(); err != nil {
				return nil, nil, err
			}
			return fd.measure, func() error { return fd.verify(cfg.inject == "content") }, nil
		}})
}

// dropRecords samples the calibrated trace generated from seed: files
// of at most fdMaxSize bytes, in trace order. Sizes, compressibility and
// full-file duplicates (shared ContentID, about 1.6% of these files)
// come from the trace.
func dropRecords(seed int64, tiny bool) []trace.Record {
	scale := fdTraceScale
	if tiny {
		scale = 0.01
	}
	var out []trace.Record
	for _, r := range trace.Generate(trace.GenConfig{Seed: seed, Scale: scale}) {
		if r.OriginalSize > 0 && r.OriginalSize <= fdMaxSize {
			out = append(out, r)
		}
	}
	return out
}

// recordContent renders a trace record's bytes: CompressedSize bytes of
// noise followed by a repeated line of text, so flate shrinks the file
// to about its CompressedSize. The bytes depend only on the record's
// content identity, so duplicates in the trace are duplicates here.
func recordContent(r trace.Record) []byte {
	data := make([]byte, r.OriginalSize)
	x := uint64(r.ContentID)*0x9E3779B97F4A7C15 + 1
	c := r.CompressedSize
	if c > r.OriginalSize {
		c = r.OriginalSize
	}
	for i := int64(0); i < c; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		data[i] = byte(x)
	}
	const line = "the reference design syncs only what changed, compressed and deduplicated\n"
	for i := c; i < r.OriginalSize; i++ {
		data[i] = line[i%int64(len(line))]
	}
	return data
}

// folderDrop is one deployment's folder-drop state.
type folderDrop struct {
	e     *liveEnv
	recs  []trace.Record
	next  int            // next unused record
	burst int            // files per burst
	seen  map[int64]bool // content identities already written
	paths []string       // every path written
	drops int            // bursts dropped, for path names
}

// dropped is one burst as written.
type dropped struct {
	paths []string
	sums  [][16]byte
	bytes int64
	dups  int // files whose content an earlier file already had
}

// drop writes n new files into the watched tree as one burst.
func (fd *folderDrop) drop(n int, out *dropped) error {
	fd.drops++
	for i := 0; i < n; i++ {
		r := fd.recs[fd.next%len(fd.recs)]
		fd.next++
		path := fmt.Sprintf("drop%04d/%05d-%x.dat", fd.drops, i, r.NameHash[:4])
		data := recordContent(r)
		if _, err := fd.e.src.write(path, data, fd.e.now()); err != nil {
			return err
		}
		fd.paths = append(fd.paths, path)
		if out != nil {
			out.paths = append(out.paths, path)
			out.sums = append(out.sums, md5.Sum(data))
			out.bytes += int64(len(data))
			if fd.seen[r.ContentID] {
				out.dups++
			}
		}
		fd.seen[r.ContentID] = true
	}
	return nil
}

// measure drops fdPerSecond files for each second asked for, in bursts.
// Each burst is synced by device 1's
// pipeline, then listed and downloaded by device 2. Throughput is the
// median burst's upload rate, from the burst being written to the end
// of the tick that acknowledged it; an operation's latency runs from the
// burst being written to device 2 holding that file.
func (fd *folderDrop) measure(seconds float64) (phase, error) {
	var ph phase
	e := fd.e
	var listNs, dlNs, fetchNs, fetched, dev2Wire int64
	var lists, downloads, dups int64
	var rates []float64 // per-burst upload throughput
	bursts := max(1, int(seconds*fdPerSecond/float64(fd.burst)+0.5))
	for n := 0; n < bursts; n++ {
		var b dropped
		if err := fd.drop(fd.burst, &b); err != nil {
			return ph, err
		}
		ph.attempted += int64(len(b.paths))
		ph.updateBytes += b.bytes
		dups += int64(b.dups)

		tW := time.Now()
		if _, err := e.converge(); err != nil {
			ph.failed += int64(len(b.paths))
			return ph, err
		}
		rates = append(rates, float64(len(b.paths))/time.Since(tW).Seconds())
		ph.ops += int64(len(b.paths))

		in0, out0 := e.dev2.WireTotals()
		tF := time.Now()
		entries, err := e.dev2.List()
		listNs += int64(time.Since(tF))
		lists++
		if err != nil {
			return ph, fmt.Errorf("device 2 list: %w", err)
		}
		listed := make(map[string]protocol.ListEntry, len(entries))
		for _, en := range entries {
			listed[en.Name] = en
		}
		for i, p := range b.paths {
			ph.attempted++
			if en, ok := listed[p]; !ok || en.Deleted || en.FileHash != b.sums[i] {
				ph.failed++
				return ph, fmt.Errorf("device 2 listing of %s: %w", p, errMismatch)
			}
			t0 := time.Now()
			data, err := e.dev2.Download(p)
			dlNs += int64(time.Since(t0))
			downloads++
			if err != nil {
				ph.failed++
				return ph, fmt.Errorf("device 2 download of %s: %w", p, err)
			}
			if md5.Sum(data) != b.sums[i] {
				ph.failed++
				return ph, fmt.Errorf("device 2 copy of %s: %w", p, errMismatch)
			}
			fetched += int64(len(data))
			ph.lat = append(ph.lat, msSince(tW))
		}
		fetchNs += int64(time.Since(tF))
		in1, out1 := e.dev2.WireTotals()
		dev2Wire += in1 + out1 - in0 - out0
	}
	ph.opsPerSec = median(rates)
	ph.layers = metrics{}
	ph.layers.set("syncnet.list_ms", float64(listNs)/1e6/float64(lists), "ms")
	ph.layers.set("syncnet.download_ms", float64(dlNs)/1e6/float64(downloads), "ms")
	ph.layers.set("fetch.files_per_s", float64(downloads)/(float64(fetchNs)/1e9), "1/s")
	ph.layers.set("fetch.tue", float64(dev2Wire)/float64(fetched), "B/B")
	ph.layers.set("dedup.dup_share", float64(dups)/float64(ph.ops), "ratio")
	return ph, nil
}

// verify checks the server's listing against every file of the local
// tree by MD5. With corrupt set (self-test), one local file is changed
// behind the watcher's back first, which the check must catch.
func (fd *folderDrop) verify(corrupt bool) error {
	if corrupt && len(fd.paths) > 0 {
		full := filepath.Join(fd.e.src.root, filepath.FromSlash(fd.paths[0]))
		if err := os.WriteFile(full, []byte("changed behind the watcher's back"), 0o644); err != nil {
			return err
		}
	}
	local, err := fd.e.src.md5Tree(fd.paths)
	if err != nil {
		return err
	}
	entries, err := fd.e.dev2.List()
	if err != nil {
		return err
	}
	return compareListing(local, entries)
}

// compareListing checks that the server lists exactly the local files,
// live, with the local content's MD5.
func compareListing(local map[string][16]byte, entries []protocol.ListEntry) error {
	live := 0
	for _, en := range entries {
		if en.Deleted {
			continue
		}
		live++
		sum, ok := local[en.Name]
		if !ok {
			return fmt.Errorf("server lists %s, absent locally: %w", en.Name, errMismatch)
		}
		if sum != en.FileHash {
			return fmt.Errorf("%s: %w", en.Name, errMismatch)
		}
	}
	if live != len(local) {
		return fmt.Errorf("server lists %d live files, local tree has %d: %w", live, len(local), errMismatch)
	}
	return nil
}
