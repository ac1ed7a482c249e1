package syncnet

import (
	"bytes"
	"crypto/md5"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cloudsync/internal/comp"
	"cloudsync/internal/content"
	"cloudsync/internal/delta"
	"cloudsync/internal/protocol"
)

// leakCheck registers a cleanup that fails the test if any goroutine
// running syncnet code outlives it (stdlib-only goleak). Register it
// FIRST — t.Cleanup is LIFO, so it then runs after the test's own
// teardown (server Close, client Close) has finished. Repeat calls
// within one test are no-ops, so helpers starting several servers
// keep the check at the very end.
func leakCheck(t *testing.T) {
	t.Helper()
	leakCheckMu.Lock()
	registered := leakCheckActive[t]
	leakCheckActive[t] = true
	leakCheckMu.Unlock()
	if registered {
		return
	}
	// The current goroutine's header, so the test itself (whose stack
	// is full of syncnet test frames) is not reported as a leak.
	self := goroutineHeader()
	t.Cleanup(func() {
		leakCheckMu.Lock()
		delete(leakCheckActive, t)
		leakCheckMu.Unlock()
		deadline := time.Now().Add(2 * time.Second)
		for {
			leaked := syncnetGoroutines(self)
			if len(leaked) == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutine(s) leaked from syncnet:\n\n%s",
					len(leaked), strings.Join(leaked, "\n\n"))
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

var (
	leakCheckMu     sync.Mutex
	leakCheckActive = map[*testing.T]bool{}
)

// goroutineHeader returns this goroutine's "goroutine N" stack header.
func goroutineHeader() string {
	buf := make([]byte, 64)
	n := runtime.Stack(buf, false)
	header, _, _ := strings.Cut(string(buf[:n]), "[")
	return strings.TrimSpace(header)
}

// syncnetGoroutines dumps all goroutine stacks and returns those with
// a syncnet frame, excluding the goroutine whose header is self.
func syncnetGoroutines(self string) []string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	var out []string
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if !strings.Contains(g, "cloudsync/internal/syncnet") {
			continue
		}
		header, _, _ := strings.Cut(g, "[")
		if strings.TrimSpace(header) == self {
			continue
		}
		out = append(out, g)
	}
	return out
}

// countingConn wraps a net.Conn and counts bytes written — the test's
// Wireshark.
type countingConn struct {
	net.Conn
	written *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written.Add(int64(n))
	return n, err
}

// startServer runs a server on a loopback TCP listener and returns a
// dialer producing counted client connections. Teardown goes through
// Server.Close, and a leak check verifies no handler goroutine
// survives it.
func startServer(t *testing.T, cfg ServerConfig) (*Server, func(user string, opts ...ClientOption) (*Client, *atomic.Int64)) {
	t.Helper()
	leakCheck(t)
	srv := NewServer(cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	go srv.Serve(l)
	dial := func(user string, opts ...ClientOption) (*Client, *atomic.Int64) {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		var counter atomic.Int64
		c, err := NewClient(countingConn{conn, &counter}, user, "test", opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c, &counter
	}
	return srv, dial
}

func TestUploadDownloadRoundTrip(t *testing.T) {
	srv, dial := startServer(t, ServerConfig{})
	c, _ := dial("alice")

	data := content.Text(200_000, 1).Bytes()
	stats, err := c.Upload("docs/report.txt", data)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DedupHit || stats.DeltaSync || stats.Version != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	got, err := c.Download("docs/report.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("download mismatch")
	}
	if raw, ok := srv.FileContent("alice", "docs/report.txt"); !ok || !bytes.Equal(raw, data) {
		t.Fatal("server-side content mismatch")
	}
}

func TestEmptyFile(t *testing.T) {
	_, dial := startServer(t, ServerConfig{})
	c, _ := dial("alice")
	if _, err := c.Upload("empty", nil); err != nil {
		t.Fatal(err)
	}
	got, err := c.Download("empty")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("downloaded %d bytes from empty file", len(got))
	}
}

func TestCompressionShrinksWire(t *testing.T) {
	data := content.Text(500_000, 2).Bytes()
	run := func(level comp.Level) int64 {
		_, dial := startServer(t, ServerConfig{Compression: level})
		c, counter := dial("alice", WithCompression(level))
		if _, err := c.Upload("doc", data); err != nil {
			t.Fatal(err)
		}
		return counter.Load()
	}
	raw := run(comp.None)
	compressed := run(comp.High)
	if compressed >= raw*3/4 {
		t.Fatalf("compression saved too little on the wire: %d vs %d", compressed, raw)
	}
	// And content survives.
	_, dial := startServer(t, ServerConfig{Compression: comp.High})
	c, _ := dial("alice", WithCompression(comp.High))
	if _, err := c.Upload("doc", data); err != nil {
		t.Fatal(err)
	}
	got, err := c.Download("doc")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("compressed roundtrip mismatch")
	}
}

func TestDeltaSyncSendsOnlyChanges(t *testing.T) {
	_, dial := startServer(t, ServerConfig{BlockSize: 4096})
	c, counter := dial("alice")

	base := content.Random(1<<20, 3).Bytes()
	if _, err := c.Upload("big.bin", base); err != nil {
		t.Fatal(err)
	}
	uploaded := counter.Load()

	// Change one byte: the second sync should be a delta, tiny on the
	// wire.
	modified := append([]byte(nil), base...)
	modified[512_000] ^= 0xFF
	before := counter.Load()
	stats, err := c.Upload("big.bin", modified)
	if err != nil {
		t.Fatal(err)
	}
	deltaWire := counter.Load() - before
	if !stats.DeltaSync {
		t.Fatalf("expected delta sync, got %+v", stats)
	}
	if stats.Version != 2 {
		t.Fatalf("version = %d", stats.Version)
	}
	if deltaWire > uploaded/20 {
		t.Fatalf("delta sync wrote %d bytes; full upload was %d", deltaWire, uploaded)
	}
	// Server holds the modified content.
	got, err := c.Download("big.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, modified) {
		t.Fatal("delta-synced content mismatch")
	}
}

func TestDeltaSyncAppend(t *testing.T) {
	_, dial := startServer(t, ServerConfig{BlockSize: 4096})
	c, counter := dial("alice")
	base := content.Random(500_000, 4).Bytes()
	if _, err := c.Upload("log", base); err != nil {
		t.Fatal(err)
	}
	grown := append(append([]byte(nil), base...), content.Random(2000, 5).Bytes()...)
	before := counter.Load()
	if _, err := c.Upload("log", grown); err != nil {
		t.Fatal(err)
	}
	if wire := counter.Load() - before; wire > 20_000 {
		t.Fatalf("append delta wrote %d bytes, want ≈ tail + new bytes", wire)
	}
	got, _ := c.Download("log")
	if !bytes.Equal(got, grown) {
		t.Fatal("append content mismatch")
	}
}

// TestDeltaCommitAfterConcurrentDelete: onDelta patches its basis
// outside the server lock, so a delete can land between taking the
// basis and committing. The commit then behaves like a full upload
// after a delete — the file is live again and holds the acknowledged
// content, in memory and in the recovered durable state.
func TestDeltaCommitAfterConcurrentDelete(t *testing.T) {
	dir := t.TempDir()
	srv, dial := startServer(t, ServerConfig{StateDir: dir})
	c, _ := dial("alice")
	base := content.Random(40_000, 6).Bytes()
	if _, err := c.Upload("doc", base); err != nil {
		t.Fatal(err)
	}

	// Take the basis as onDelta does, then let a delete land.
	basis, _ := srv.FileContent("alice", "doc")
	id := srv.Snapshot("alice")["doc"].ID
	if err := c.Delete("doc"); err != nil {
		t.Fatal(err)
	}
	edited := append(bytes.Clone(base[:30_000]), "edited tail"...)
	raw, err := delta.Apply(basis, delta.Compute(delta.Sign(basis, delta.DefaultBlockSize), edited))
	if err != nil {
		t.Fatal(err)
	}
	ss := &session{srv: srv, user: "alice"}
	version := ss.store(&pendingUpload{id: id, name: "doc", size: int64(len(raw)), hash: md5.Sum(raw)}, raw, true)
	if err := srv.persistSync(); err != nil {
		t.Fatal(err)
	}

	if version != 3 {
		t.Errorf("delta committed as v%d, want v3 (upload, delete, delta)", version)
	}
	got, err := c.Download("doc")
	if err != nil || !bytes.Equal(got, edited) {
		t.Fatalf("download after delta commit: %v (content match %v)", err, bytes.Equal(got, edited))
	}
	if st := srv.Stats(); st.DeltaSyncs != 1 || st.Uploads != 1 {
		t.Errorf("DeltaSyncs = %d, Uploads = %d; want 1 and 1", st.DeltaSyncs, st.Uploads)
	}
	srv.Close()
	reopened, err := OpenServer(ServerConfig{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got, ok := reopened.FileContent("alice", "doc"); !ok || !bytes.Equal(got, edited) {
		t.Fatalf("recovered state: live=%v, content match %v", ok, bytes.Equal(got, edited))
	}
}

func TestFullFileDedupAcrossClients(t *testing.T) {
	srv, dial := startServer(t, ServerConfig{CrossUserDedup: true})
	data := content.Random(300_000, 6).Bytes()

	alice, _ := dial("alice")
	if _, err := alice.Upload("orig", data); err != nil {
		t.Fatal(err)
	}

	bob, counter := dial("bob")
	before := counter.Load()
	stats, err := bob.Upload("copy", append([]byte(nil), data...))
	if err != nil {
		t.Fatal(err)
	}
	if !stats.DedupHit {
		t.Fatal("cross-user duplicate not deduplicated")
	}
	if wire := counter.Load() - before; wire > 1000 {
		t.Fatalf("dedup'd upload wrote %d bytes, want control messages only", wire)
	}
	// Bob can download his copy even though he never sent the bytes.
	got, err := bob.Download("copy")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("dedup'd content mismatch")
	}
	if srv.Stats().DedupSkips != 1 {
		t.Fatalf("server stats = %+v", srv.Stats())
	}
}

func TestPerUserDedupScope(t *testing.T) {
	_, dial := startServer(t, ServerConfig{CrossUserDedup: false})
	data := content.Random(100_000, 7).Bytes()
	alice, _ := dial("alice")
	alice.Upload("f", data)
	bob, _ := dial("bob")
	stats, err := bob.Upload("f", append([]byte(nil), data...))
	if err != nil {
		t.Fatal(err)
	}
	if stats.DedupHit {
		t.Fatal("per-user server deduplicated across users")
	}
}

func TestDeleteIsFakeDeletion(t *testing.T) {
	srv, dial := startServer(t, ServerConfig{})
	c, _ := dial("alice")
	data := []byte("ephemeral")
	if _, err := c.Upload("f", data); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("f"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Download("f"); err == nil {
		t.Fatal("download of deleted file should fail")
	}
	if _, ok := srv.FileContent("alice", "f"); ok {
		t.Fatal("deleted file still visible")
	}
	// Re-upload revives the name; delta path must not be attempted
	// against a tombstone.
	if _, err := c.Upload("f", []byte("reborn")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Download("f")
	if err != nil || string(got) != "reborn" {
		t.Fatalf("revived content = %q, %v", got, err)
	}
	if srv.Stats().Deletes != 1 {
		t.Fatalf("stats = %+v", srv.Stats())
	}
}

func TestDeleteUnknownName(t *testing.T) {
	_, dial := startServer(t, ServerConfig{})
	c, _ := dial("alice")
	if err := c.Delete("never-synced"); err == nil {
		t.Fatal("delete of unknown name should fail client-side")
	}
}

func TestDownloadMissing(t *testing.T) {
	_, dial := startServer(t, ServerConfig{})
	c, _ := dial("alice")
	_, err := c.Download("ghost")
	if err == nil {
		t.Fatal("download of missing file should fail")
	}
	var perr *protocol.Error
	if !isProtoErr(err, &perr) || perr.Code != protocol.ErrNotFound {
		t.Fatalf("error = %v, want protocol not-found", err)
	}
	// The session survives the error.
	if _, err := c.Upload("real", []byte("x")); err != nil {
		t.Fatal(err)
	}
}

func TestUserNamespacesIsolated(t *testing.T) {
	_, dial := startServer(t, ServerConfig{})
	alice, _ := dial("alice")
	alice.Upload("private", []byte("secret"))
	bob, _ := dial("bob")
	if _, err := bob.Download("private"); err == nil {
		t.Fatal("bob downloaded alice's file")
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, dial := startServer(t, ServerConfig{CrossUserDedup: true})
	const clients = 8
	const filesEach = 10
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, _ := dial(fmt.Sprintf("user%d", i))
			for j := 0; j < filesEach; j++ {
				name := fmt.Sprintf("f%d", j)
				data := content.Random(10_000, int64(i*100+j)).Bytes()
				if _, err := c.Upload(name, data); err != nil {
					errs <- err
					return
				}
				got, err := c.Download(name)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, data) {
					errs <- fmt.Errorf("user%d %s mismatch", i, name)
					return
				}
			}
			errs <- nil
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.Stats().Uploads; got != clients*filesEach {
		t.Fatalf("uploads = %d, want %d", got, clients*filesEach)
	}
}

func TestServerRejectsNonHello(t *testing.T) {
	srv := NewServer(ServerConfig{})
	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- srv.HandleConn(server) }()
	client.Write(protocol.Encode(&protocol.Get{Name: "x"}))
	m, err := protocol.ReadMessage(client)
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := m.(*protocol.Error); !ok || e.Code != protocol.ErrBadRequest {
		t.Fatalf("reply = %#v", m)
	}
	client.Close()
	if err := <-done; err == nil {
		t.Fatal("HandleConn should report the protocol violation")
	}
}

func TestServerRejectsStrayData(t *testing.T) {
	srv := NewServer(ServerConfig{})
	client, server := net.Pipe()
	go srv.HandleConn(server)
	client.Write(protocol.Encode(&protocol.Hello{User: "alice"}))
	client.Write(protocol.Encode(&protocol.Data{FileID: 99, Payload: []byte("x")}))
	m, err := protocol.ReadMessage(client)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.(*protocol.Error); !ok {
		t.Fatalf("reply = %#v", m)
	}
}

func TestServerRejectsHashMismatch(t *testing.T) {
	srv := NewServer(ServerConfig{})
	client, server := net.Pipe()
	go srv.HandleConn(server)
	client.Write(protocol.Encode(&protocol.Hello{User: "alice"}))
	// Announce one hash, send different content.
	client.Write(protocol.Encode(&protocol.IndexUpdate{Name: "f", Size: 3}))
	if m, _ := protocol.ReadMessage(client); m == nil {
		t.Fatal("no index reply")
	}
	client.Write(protocol.Encode(&protocol.Data{FileID: 1, Offset: 0, Payload: []byte("abc")}))
	client.Write(protocol.Encode(&protocol.Commit{FileID: 1}))
	m, err := protocol.ReadMessage(client)
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := m.(*protocol.Error); !ok || e.Code != protocol.ErrBadRequest {
		t.Fatalf("reply = %#v, want bad-request", m)
	}
}

func TestVersionsAdvance(t *testing.T) {
	_, dial := startServer(t, ServerConfig{})
	c, _ := dial("alice")
	var last uint64
	for i := 0; i < 3; i++ {
		data := content.Random(50_000, int64(i)).Bytes()
		stats, err := c.Upload("doc", data)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Version <= last {
			t.Fatalf("version %d did not advance past %d", stats.Version, last)
		}
		last = stats.Version
	}
}

func TestNewClientValidation(t *testing.T) {
	client, _ := net.Pipe()
	if _, err := NewClient(client, "", "dev"); err == nil {
		t.Fatal("empty user should fail")
	}
}

func TestNegativeBlockSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative block size did not panic")
		}
	}()
	NewServer(ServerConfig{BlockSize: -1})
}
