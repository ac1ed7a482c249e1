package syncnet

import (
	"bytes"
	"strings"
	"testing"

	"cloudsync/internal/content"
	"cloudsync/internal/store/wal"
)

// reopenSnapshot recovers the state directory into a fresh server and
// returns its view of one user, plus the server for further probing.
func reopenServer(t *testing.T, dir string) *Server {
	t.Helper()
	srv, err := OpenServer(ServerConfig{StateDir: dir})
	if err != nil {
		t.Fatalf("recovering %s: %v", dir, err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func sameSnapshot(t *testing.T, label string, want, got map[string]FileState) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d files after recovery, want %d", label, len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Fatalf("%s: file %q lost in recovery", label, name)
		}
		if g.ID != w.ID || g.Version != w.Version || g.Deleted != w.Deleted || g.History != w.History {
			t.Fatalf("%s: %q recovered as %+v, want %+v", label, name, g, w)
		}
		if !bytes.Equal(g.Data, w.Data) {
			t.Fatalf("%s: %q content diverged after recovery", label, name)
		}
	}
}

// TestDurableRoundTrip: every acknowledged mutation — uploads,
// overwrite, cross-file dedup, delete — survives a close-and-reopen of
// the state directory with identical content, version, history, and
// file identity.
func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	srv, dial := startServer(t, ServerConfig{StateDir: dir})
	alice, _ := dial("alice")
	bob, _ := dial("bob")

	a1 := content.Text(20_000, 1).Bytes()
	a2 := content.Text(24_000, 2).Bytes()
	if _, err := alice.Upload("docs/a.txt", a1); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Upload("docs/b.txt", content.Random(4_000, 3).Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Upload("docs/a.txt", a2); err != nil { // delta path
		t.Fatal(err)
	}
	if _, err := bob.Upload("docs/a.txt", a1); err != nil { // shared content blob
		t.Fatal(err)
	}
	if err := alice.Delete("docs/b.txt"); err != nil {
		t.Fatal(err)
	}

	wantAlice := srv.Snapshot("alice")
	wantBob := srv.Snapshot("bob")
	wantStored := srv.Stats().BytesStored
	alice.Close()
	bob.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv2 := reopenServer(t, dir)
	sameSnapshot(t, "alice", wantAlice, srv2.Snapshot("alice"))
	sameSnapshot(t, "bob", wantBob, srv2.Snapshot("bob"))
	if got := srv2.Stats().BytesStored; got != wantStored {
		t.Fatalf("BytesStored %d after recovery, want %d", got, wantStored)
	}
}

// TestDurableCompaction: state folded into a snapshot plus records
// appended after it replay to the same state, and the fold is
// triggered both explicitly and by the log-size threshold.
func TestDurableCompaction(t *testing.T) {
	dir := t.TempDir()
	// A tiny threshold so ordinary traffic crosses it: every commit's
	// group commit also compacts, exercising snapshot-over-snapshot.
	srv, dial := startServer(t, ServerConfig{StateDir: dir})
	srv.mu.Lock()
	srv.compactAt = 1024
	srv.mu.Unlock()
	c, _ := dial("alice")

	if _, err := c.Upload("a", content.Random(8_000, 1).Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Upload("b", content.Random(8_000, 2).Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := srv.CompactState(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Upload("c", content.Random(8_000, 3).Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("a"); err != nil {
		t.Fatal(err)
	}

	want := srv.Snapshot("alice")
	c.Close()
	srv.Close()

	srv2 := reopenServer(t, dir)
	sameSnapshot(t, "alice", want, srv2.Snapshot("alice"))

	// Recovered dedup index still answers: re-uploading b's bytes under
	// a new name must dedup-skip (no payload transfer).
	// (Server-internal check: the content blob is still addressable.)
	if _, ok := srv2.FileContent("alice", "b"); !ok {
		t.Fatal("content lost across compaction")
	}
}

// TestCrashMidCommit arms a crash point just past the durable prefix:
// the commit that trips it must NOT be acknowledged, the server must
// refuse all further work, and recovery must surface exactly the
// acknowledged state.
func TestCrashMidCommit(t *testing.T) {
	dir := t.TempDir()
	srv, dial := startServer(t, ServerConfig{StateDir: dir})
	c, _ := dial("alice")

	if _, err := c.Upload("safe", content.Text(10_000, 1).Bytes()); err != nil {
		t.Fatal(err)
	}
	want := srv.Snapshot("alice")

	srv.FailStateAt(srv.StateLogBytes() + 3) // tear the next commit's frame
	if _, err := c.Upload("doomed", content.Text(10_000, 2).Bytes()); err == nil {
		t.Fatal("upload acknowledged past an armed crash point")
	}
	if !srv.Crashed() {
		t.Fatal("server not crashed after torn group commit")
	}
	select {
	case <-srv.CrashedC():
	default:
		t.Fatal("CrashedC not closed")
	}
	// A crashed server refuses everything, like a killed process.
	if _, err := c.Upload("more", []byte("x")); err == nil {
		t.Fatal("crashed server accepted work")
	}
	c.Close()
	srv.Close()

	srv2 := reopenServer(t, dir)
	got := srv2.Snapshot("alice")
	if _, ok := got["doomed"]; ok {
		t.Fatal("unacknowledged commit resurrected by recovery")
	}
	sameSnapshot(t, "alice", want, got)
}

// TestArmCrash: the fault scheduler draws seeded crash offsets within
// the documented window and counts them.
func TestArmCrash(t *testing.T) {
	dir := t.TempDir()
	srv := NewServer(ServerConfig{StateDir: dir})
	defer srv.Close()

	fs := NewFaultScheduler(FaultPlan{Seed: 7, MeanCrashBytes: 1000})
	off := fs.ArmCrash(srv)
	if off < 500 || off >= 1500 {
		t.Fatalf("crash offset %d outside [mean/2, 3·mean/2)", off)
	}
	if fs.Stats().Crashes != 1 {
		t.Fatalf("Crashes = %d, want 1", fs.Stats().Crashes)
	}
	if got := NewFaultScheduler(FaultPlan{Seed: 7}).ArmCrash(srv); got != -1 {
		t.Fatalf("inert plan armed offset %d", got)
	}
	// Same seed, same sequence.
	if again := NewFaultScheduler(FaultPlan{Seed: 7, MeanCrashBytes: 1000}).ArmCrash(srv); again != off {
		t.Fatalf("seeded offsets diverge: %d vs %d", again, off)
	}
}

// TestRecoveryRejectsForeignRecords: a record the codec does not know
// (a frame with a valid CRC but garbage payload) aborts Open loudly
// instead of silently dropping state.
func TestRecoveryRejectsForeignRecords(t *testing.T) {
	dir := t.TempDir()
	st, err := wal.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	st.Append([]byte{99, 1, 2, 3})
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	if _, err := OpenServer(ServerConfig{StateDir: dir}); err == nil ||
		!strings.Contains(err.Error(), "unknown state record") {
		t.Fatalf("OpenServer on foreign records: %v, want unknown-record error", err)
	}
}
