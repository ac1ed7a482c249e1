// Package vfs models the user's local sync folder: the designated
// directory in which "every file operation is noticed and synchronized
// to the cloud by the client software" (Fig. 1 of the paper).
//
// Files carry a content blob and a generation-stamped edit log, so a
// sync client can ask "what byte ranges changed since the generation I
// last synced?" — the information an incremental sync needs — without
// the simulator having to diff content. Watchers receive an event per
// operation, in operation order.
package vfs

import (
	"fmt"
	"sort"
	"time"

	"cloudsync/internal/chunker"
	"cloudsync/internal/content"
	"cloudsync/internal/simclock"
)

// Op is a file operation kind.
type Op uint8

const (
	// OpCreate adds a new file.
	OpCreate Op = iota
	// OpModify replaces or edits file content.
	OpModify
	// OpDelete removes a file.
	OpDelete
)

// String names the operation.
func (o Op) String() string {
	switch o {
	case OpCreate:
		return "create"
	case OpModify:
		return "modify"
	case OpDelete:
		return "delete"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Event is delivered to watchers for every file operation.
type Event struct {
	Time time.Duration
	Op   Op
	Name string
	// Gen is the filesystem generation of the operation.
	Gen uint64
}

type edit struct {
	gen    uint64
	ranges []chunker.Range
}

// File is one file in the sync folder.
type File struct {
	name    string
	blob    *content.Blob
	gen     uint64 // generation of the latest change
	created uint64 // generation at creation
	edits   []edit
}

// Name returns the file's path within the sync folder.
func (f *File) Name() string { return f.name }

// Blob returns the current content.
func (f *File) Blob() *content.Blob { return f.blob }

// Size returns the current content size.
func (f *File) Size() int64 { return f.blob.Size() }

// Gen returns the generation of the file's latest change.
func (f *File) Gen() uint64 { return f.gen }

// EditsSince returns the merged dirty byte ranges of all edits with
// generation > gen. If the file was created after gen, the whole
// current content is dirty.
func (f *File) EditsSince(gen uint64) []chunker.Range {
	if f.created > gen {
		return []chunker.Range{{Off: 0, Len: f.blob.Size()}}
	}
	n, contributing := 0, 0
	var only []chunker.Range
	for _, e := range f.edits {
		if e.gen > gen {
			n += len(e.ranges)
			contributing++
			only = e.ranges
		}
	}
	if contributing == 1 {
		// Stored edits are normalized (addEdit receives Normalize
		// output), so a single contributing edit needs no copy or merge.
		return only
	}
	all := make([]chunker.Range, 0, n)
	for _, e := range f.edits {
		if e.gen > gen {
			all = append(all, e.ranges...)
		}
	}
	return chunker.Normalize(all)
}

// compactThreshold bounds the per-file edit log; beyond it, old entries
// collapse into one normalized entry.
const compactThreshold = 256

func (f *File) addEdit(gen uint64, ranges []chunker.Range) {
	f.edits = append(f.edits, edit{gen: gen, ranges: ranges})
	if len(f.edits) > compactThreshold {
		// Merge the older half into a single entry at its newest
		// generation; EditsSince(g) for g older than that stays exact,
		// and the client never asks about generations inside a burst it
		// hasn't synced.
		half := len(f.edits) / 2
		var merged []chunker.Range
		for _, e := range f.edits[:half] {
			merged = append(merged, e.ranges...)
		}
		compacted := edit{gen: f.edits[half-1].gen, ranges: chunker.Normalize(merged)}
		f.edits = append([]edit{compacted}, f.edits[half:]...)
	}
}

// FS is an in-memory sync folder.
type FS struct {
	clock    *simclock.Clock
	files    map[string]*File
	watchers []func(Event)
	gen      uint64
}

// New returns an empty sync folder on the given clock.
func New(clock *simclock.Clock) *FS {
	if clock == nil {
		panic("vfs: New with nil clock")
	}
	return &FS{clock: clock, files: make(map[string]*File)}
}

// Watch registers a callback invoked synchronously for every operation.
func (fs *FS) Watch(fn func(Event)) {
	if fn == nil {
		panic("vfs: Watch with nil callback")
	}
	fs.watchers = append(fs.watchers, fn)
}

func (fs *FS) notify(op Op, name string, gen uint64) {
	ev := Event{Time: fs.clock.Now(), Op: op, Name: name, Gen: gen}
	for _, w := range fs.watchers {
		w(ev)
	}
}

// Create adds a file. It fails if the name already exists.
func (fs *FS) Create(name string, blob *content.Blob) error {
	if blob == nil {
		return fmt.Errorf("vfs: create %q with nil content", name)
	}
	if _, ok := fs.files[name]; ok {
		return fmt.Errorf("vfs: %q already exists", name)
	}
	fs.gen++
	fs.files[name] = &File{name: name, blob: blob, gen: fs.gen, created: fs.gen}
	fs.notify(OpCreate, name, fs.gen)
	return nil
}

// Write replaces the file's content, recording which byte ranges of the
// new content differ from the old (relative to the new layout). A full
// rewrite passes a single range covering the whole blob.
func (fs *FS) Write(name string, blob *content.Blob, changed []chunker.Range) error {
	if blob == nil {
		return fmt.Errorf("vfs: write %q with nil content", name)
	}
	f, ok := fs.files[name]
	if !ok {
		return fmt.Errorf("vfs: %q does not exist", name)
	}
	fs.gen++
	f.blob = blob
	f.gen = fs.gen
	f.addEdit(fs.gen, chunker.Normalize(changed))
	fs.notify(OpModify, name, fs.gen)
	return nil
}

// Append grows a descriptor-backed file by n content-consistent bytes
// (same generator, larger size) — the primitive behind the paper's
// "X KB / X sec" appending experiments. For literal-backed files use
// Write with an explicitly concatenated blob.
func (fs *FS) Append(name string, n int64) error {
	f, ok := fs.files[name]
	if !ok {
		return fmt.Errorf("vfs: %q does not exist", name)
	}
	if n < 0 {
		return fmt.Errorf("vfs: append of %d bytes to %q", n, name)
	}
	old := f.blob.Size()
	grown := f.blob.Resize(old + n)
	return fs.Write(name, grown, []chunker.Range{{Off: old, Len: n}})
}

// ModifyByte flips one byte of the file at the given offset — the
// paper's Experiment 3 primitive. The resulting blob has new content
// identity (so fingerprints change, as a real edit's would) and the
// edit log records the one-byte dirty range.
func (fs *FS) ModifyByte(name string, off int64) error {
	f, ok := fs.files[name]
	if !ok {
		return fmt.Errorf("vfs: %q does not exist", name)
	}
	if off < 0 || off >= f.blob.Size() {
		return fmt.Errorf("vfs: modify offset %d outside %q (%d bytes)", off, name, f.blob.Size())
	}
	return fs.Write(name, f.blob.Mutate(off), []chunker.Range{{Off: off, Len: 1}})
}

// Delete removes a file.
func (fs *FS) Delete(name string) error {
	if _, ok := fs.files[name]; !ok {
		return fmt.Errorf("vfs: %q does not exist", name)
	}
	delete(fs.files, name)
	fs.gen++
	fs.notify(OpDelete, name, fs.gen)
	return nil
}

// File looks a file up by name.
func (fs *FS) File(name string) (*File, bool) {
	f, ok := fs.files[name]
	return f, ok
}

// Names returns the file names in sorted order.
func (fs *FS) Names() []string {
	out := make([]string, 0, len(fs.files))
	for name := range fs.files {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Len reports the number of files.
func (fs *FS) Len() int { return len(fs.files) }

// Gen reports the filesystem's current generation.
func (fs *FS) Gen() uint64 { return fs.gen }
