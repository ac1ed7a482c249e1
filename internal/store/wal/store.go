package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Store manages one durable state directory: the current generation's
// snapshot (if any) plus its record log. State is reconstructed by
// replaying snapshot records then log records through the caller's
// replay function; Compact folds the log into a fresh snapshot and
// starts an empty log.
//
// Directory layout (generation G, zero-padded):
//
//	snap-0000000G.log   compacted state as a record log (absent for a
//	                    fresh store: the base state is empty)
//	wal-0000000G.log    records appended since snapshot G
//
// Crash windows during Compact leave either the old generation intact
// (snapshot write unfinished: only an ignored *.tmp remains) or the
// new one already authoritative (snapshot renamed; a missing log is
// recreated empty, stale older-generation files are swept). Open
// always selects the highest complete snapshot, so recovery is
// deterministic whatever the crash point.
type Store struct {
	dir     string
	gen     uint64
	log     *Log
	metrics *Metrics
}

const (
	snapPrefix = "snap-"
	walPrefix  = "wal-"
	genSuffix  = ".log"
)

func genFile(prefix string, gen uint64) string {
	return fmt.Sprintf("%s%08d%s", prefix, gen, genSuffix)
}

// parseGen extracts the generation from a snap-/wal- file name, or
// returns false for anything else (tmp droppings, foreign files).
func parseGen(name, prefix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, genSuffix) {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, prefix), genSuffix)
	gen, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return gen, true
}

// Open opens (creating if needed) the state directory and replays the
// current generation — snapshot records first, then log records — in
// order through replay. Torn log tails are discarded and repaired;
// stale generations and temp files from interrupted compactions are
// swept. replay must not retain the record slice.
func Open(dir string, replay func(rec []byte) error) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: state dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: state dir: %w", err)
	}

	var snapGens, walGens []uint64
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(dir, name)) // interrupted compaction
			continue
		}
		if g, ok := parseGen(name, snapPrefix); ok {
			snapGens = append(snapGens, g)
		}
		if g, ok := parseGen(name, walPrefix); ok {
			walGens = append(walGens, g)
		}
	}
	sort.Slice(snapGens, func(i, j int) bool { return snapGens[i] < snapGens[j] })
	sort.Slice(walGens, func(i, j int) bool { return walGens[i] < walGens[j] })

	// The authoritative generation: the newest complete snapshot (a
	// snapshot is complete by construction — it is renamed into place
	// only after its bytes are fsynced). With no snapshot yet, the
	// newest log continues generation 1's empty base state.
	gen := uint64(1)
	hasSnap := false
	if n := len(snapGens); n > 0 {
		gen = snapGens[n-1]
		hasSnap = true
	} else if n := len(walGens); n > 0 {
		gen = walGens[n-1]
	}

	// Sweep every other generation: superseded by the snapshot we are
	// about to load, or orphaned by a crash mid-compaction.
	for _, g := range snapGens {
		if g != gen {
			os.Remove(filepath.Join(dir, genFile(snapPrefix, g)))
		}
	}
	for _, g := range walGens {
		if g != gen {
			os.Remove(filepath.Join(dir, genFile(walPrefix, g)))
		}
	}

	if hasSnap {
		f, err := os.Open(filepath.Join(dir, genFile(snapPrefix, gen)))
		if err != nil {
			return nil, fmt.Errorf("wal: open snapshot: %w", err)
		}
		_, rerr := replayFrames(f, replay)
		f.Close()
		if rerr != nil {
			return nil, rerr
		}
	}
	log, err := OpenLog(filepath.Join(dir, genFile(walPrefix, gen)), replay)
	if err != nil {
		return nil, err
	}
	syncDir(dir)
	return &Store{dir: dir, gen: gen, log: log}, nil
}

// SetMetrics installs (or, with nil, removes) the store's instrument
// set; it propagates to the current log and survives the log swap a
// Compact performs. Install before serving traffic — SetMetrics is not
// synchronized against concurrent Sync/Compact.
func (st *Store) SetMetrics(m *Metrics) {
	st.metrics = m
	st.log.metrics = m
}

// Generation returns the current snapshot/log generation.
func (st *Store) Generation() uint64 { return st.gen }

// Append buffers one record for the next Sync (see Log.Append).
func (st *Store) Append(rec []byte) { st.log.Append(rec) }

// Sync makes every record appended so far durable in one fsync.
func (st *Store) Sync() error { return st.log.Sync() }

// LogBytes reports the current log's size including unsynced appends —
// the quantity compaction policies threshold on.
func (st *Store) LogBytes() int64 { return st.log.Size() + st.log.Pending() }

// FailAt arms the injected crash point on the current log at an
// absolute log-file offset (see Log.FailAt).
func (st *Store) FailAt(offset int64) { st.log.FailAt(offset) }

// Compact writes state — the caller's full current state rendered as
// records — as the next generation's snapshot, starts that
// generation's empty log, and removes the old generation. The snapshot
// is fsynced before the atomic rename that makes it authoritative, so
// a crash at any byte leaves either the old generation or the new one,
// never a blend. The caller must guarantee quiescence (no concurrent
// Append) and must have Synced every record already acknowledged.
func (st *Store) Compact(state [][]byte) error {
	if st.log.Dead() {
		return ErrCrashed
	}
	if err := st.log.Sync(); err != nil {
		return err
	}
	next := st.gen + 1

	tmp, err := os.CreateTemp(st.dir, snapPrefix+"*.tmp")
	if err != nil {
		return fmt.Errorf("wal: compact: %w", err)
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("wal: compact: %w", err)
	}
	var buf []byte
	var snapBytes int64
	for _, rec := range state {
		buf = appendFrame(buf[:0], rec)
		if _, err := tmp.Write(buf); err != nil {
			return fail(err)
		}
		snapBytes += int64(len(buf))
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("wal: compact: %w", err)
	}
	snapPath := filepath.Join(st.dir, genFile(snapPrefix, next))
	if err := os.Rename(tmpName, snapPath); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("wal: compact: %w", err)
	}
	syncDir(st.dir) // the rename is the commit point

	newLog, err := OpenLog(filepath.Join(st.dir, genFile(walPrefix, next)), nil)
	if err != nil {
		return err
	}
	newLog.metrics = st.metrics // instruments outlive the log swap
	syncDir(st.dir)
	if m := st.metrics; m != nil {
		m.Compactions.Inc()
		m.SnapshotBytes.Set(snapBytes)
	}

	// The new generation is authoritative; retire the old one. Best
	// effort: leftovers are swept by the next Open.
	old := st.log
	os.Remove(filepath.Join(st.dir, genFile(walPrefix, st.gen)))
	os.Remove(filepath.Join(st.dir, genFile(snapPrefix, st.gen)))
	syncDir(st.dir)
	st.log = newLog
	st.gen = next
	return old.Close()
}

// Close flushes and closes the current log.
func (st *Store) Close() error { return st.log.Close() }
