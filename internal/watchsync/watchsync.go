// Package watchsync is the watch-mode sync pipeline: a local observer
// and the remote listing feed a debounced change buffer; the pure
// planner of internal/planner reconciles buffer, baseline, and remote
// state into an ordered action list; a parallel executor applies the
// transfers over internal/syncnet clients; and an atomically persisted
// baseline closes the loop so a restarted daemon resumes exactly where
// it stopped.
//
// Everything in this package runs on a virtual clock: callers pass the
// current time as a time.Duration offset from an epoch of their
// choosing. The live daemon (cmd/syncwatch) maps wall time onto that
// offset; tests and trace replays drive the offset directly, which
// makes every scheduling decision — debounce windows, sync deferment,
// wake-ups — deterministic and simulable at any speed.
package watchsync

import (
	"fmt"
	"sync"
	"time"

	"cloudsync/internal/dirwatch"
)

// Event is one observed local filesystem change, in virtual time.
type Event struct {
	// Path is slash-separated, relative to the synced root.
	Path string
	// Remove marks a deletion; Write is meaningless then.
	Remove bool
	// Write is the virtual time of the modification itself (typically
	// the file's mtime mapped onto the virtual clock) — the signal the
	// deferment policies estimate inter-update times from.
	Write time.Duration
}

// Source observes one local tree. Scan reports the changes since the
// previous Scan; Read returns a file's current content by path. A
// Source must tolerate concurrent Read calls (the executor's workers
// read in parallel), while Scan is only ever called from the pipeline
// goroutine.
//
// The first Scan must mention every file that currently exists (a
// fresh dirwatch reports the whole tree as creates; MemSource queues
// an event per WriteFile): the pipeline treats it as a full listing
// and synthesizes removes for baseline paths it omits, which is how
// deletions that happened while no watcher was running reach the
// server.
type Source interface {
	Scan(now time.Duration) ([]Event, error)
	Read(path string) ([]byte, error)
}

// DirSource adapts a polling dirwatch.Watcher to the virtual clock:
// each file's mtime is mapped to an offset from Epoch and clamped into
// [0, now] so skewed or future mtimes can never produce events the
// planner would reject.
type DirSource struct {
	// Epoch anchors the virtual clock; mtimes before it clamp to 0.
	Epoch time.Time

	mu sync.Mutex // Scan mutates watcher state; Read is reentrant
	w  *dirwatch.Watcher
}

// NewDirSource watches the tree rooted at w from the given epoch.
func NewDirSource(w *dirwatch.Watcher, epoch time.Time) *DirSource {
	return &DirSource{Epoch: epoch, w: w}
}

// Scan polls the tree once and converts the diff to virtual-time
// events.
func (s *DirSource) Scan(now time.Duration) ([]Event, error) {
	s.mu.Lock()
	changes, err := s.w.Scan()
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	evs := make([]Event, 0, len(changes))
	for _, ch := range changes {
		ev := Event{Path: ch.Path, Remove: ch.Op == dirwatch.Delete}
		if !ev.Remove {
			w := ch.ModTime.Sub(s.Epoch)
			if w < 0 {
				w = 0
			}
			if w > now {
				w = now
			}
			ev.Write = w
		}
		evs = append(evs, ev)
	}
	return evs, nil
}

// Read returns a watched file's current content.
func (s *DirSource) Read(path string) ([]byte, error) { return s.w.Read(path) }

// MemSource is an in-memory Source for tests and trace replays: a
// virtual tree whose writes and removes are queued as events and
// reported by the next Scan, exactly like a poll of a real directory.
type MemSource struct {
	mu     sync.Mutex
	files  map[string][]byte
	queued []Event
}

// NewMemSource returns an empty in-memory tree.
func NewMemSource() *MemSource {
	return &MemSource{files: make(map[string][]byte)}
}

// WriteFile stores content under path at virtual time at.
func (m *MemSource) WriteFile(path string, data []byte, at time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[path] = append([]byte(nil), data...)
	m.queued = append(m.queued, Event{Path: path, Write: at})
}

// RemoveFile deletes path (a no-op on unknown paths, like rm -f).
func (m *MemSource) RemoveFile(path string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[path]; !ok {
		return
	}
	delete(m.files, path)
	m.queued = append(m.queued, Event{Path: path, Remove: true})
}

// Scan drains the queued events.
func (m *MemSource) Scan(time.Duration) ([]Event, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	evs := m.queued
	m.queued = nil
	return evs, nil
}

// Read returns a file's current content.
func (m *MemSource) Read(path string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[path]
	if !ok {
		return nil, fmt.Errorf("watchsync: %s does not exist", path)
	}
	return append([]byte(nil), data...), nil
}

// Files snapshots the current tree — the convergence oracle replays
// compare against the server's state.
func (m *MemSource) Files() map[string][]byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string][]byte, len(m.files))
	for p, d := range m.files {
		out[p] = append([]byte(nil), d...)
	}
	return out
}
