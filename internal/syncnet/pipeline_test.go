package syncnet

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"cloudsync/internal/obs/ledger"
	"cloudsync/internal/protocol"
)

func makeBatch(prefix string, n, size int) []FileUpload {
	files := make([]FileUpload, n)
	for i := range files {
		data := bytes.Repeat([]byte{byte('a' + i%26)}, size)
		data[0] = byte(i) // distinct content per file
		files[i] = FileUpload{Name: fmt.Sprintf("%s/f%03d.txt", prefix, i), Data: data}
	}
	return files
}

func TestUploadBundleRoundTrip(t *testing.T) {
	srv, dial := startServer(t, ServerConfig{})
	c, _ := dial("alice")

	files := makeBatch("docs", 12, 700)
	stats, err := c.UploadBundle(files)
	if err != nil {
		t.Fatalf("UploadBundle: %v", err)
	}
	for i, st := range stats {
		if st.DedupHit {
			t.Errorf("file %d: unexpected dedup hit on first upload", i)
		}
		if st.Version != 1 {
			t.Errorf("file %d: version = %d, want 1", i, st.Version)
		}
	}
	for _, f := range files {
		got, err := c.Download(f.Name)
		if err != nil {
			t.Fatalf("download %s: %v", f.Name, err)
		}
		if !bytes.Equal(got, f.Data) {
			t.Fatalf("download %s: content mismatch", f.Name)
		}
	}

	// Re-bundling identical content must dedup every entry and bump
	// versions: the payload rode along but the server discarded it.
	stats, err = c.UploadBundle(files)
	if err != nil {
		t.Fatalf("re-bundle: %v", err)
	}
	for i, st := range stats {
		if !st.DedupHit {
			t.Errorf("file %d: re-bundle was not a dedup hit", i)
		}
		if st.Version != 2 {
			t.Errorf("file %d: version = %d, want 2", i, st.Version)
		}
	}

	if st := srv.Stats(); st.Bundles != 2 || st.BundledFiles != 24 {
		t.Errorf("server stats: Bundles=%d BundledFiles=%d, want 2 and 24", st.Bundles, st.BundledFiles)
	}
}

// TestUploadBundleRepeatedName: entries commit in order, so a name
// repeated within one bundle advances its version once per entry and
// ends holding the last entry's content.
func TestUploadBundleRepeatedName(t *testing.T) {
	_, dial := startServer(t, ServerConfig{})
	c, _ := dial("alice")
	first, last := []byte("first draft"), []byte("second draft, longer")
	stats, err := c.UploadBundle([]FileUpload{
		{Name: "notes.txt", Data: first},
		{Name: "notes.txt", Data: last},
	})
	if err != nil {
		t.Fatalf("UploadBundle: %v", err)
	}
	if stats[0].Version != 1 || stats[1].Version != 2 {
		t.Fatalf("versions = %d, %d; want 1, 2", stats[0].Version, stats[1].Version)
	}
	got, err := c.Download("notes.txt")
	if err != nil {
		t.Fatalf("download: %v", err)
	}
	if !bytes.Equal(got, last) {
		t.Fatalf("download = %q, want the last entry %q", got, last)
	}
}

// TestServerCloseDrainsPipelinedRequests is the deterministic-drain
// contract: a burst of requests a peer sent ahead, still unread in the
// server's receive buffer when Close half-closes the connection, is
// read, dispatched and answered in order before the connection ends —
// Close half-closes the read side rather than snapping the socket —
// and no handler goroutine outlives Close (the leak check enforces
// that part). The session is held at its start until the half-close
// has happened, so every request in the burst is in flight.
func TestServerCloseDrainsPipelinedRequests(t *testing.T) {
	leakCheck(t)
	started, release := make(chan struct{}), make(chan struct{})
	srv := NewServer(ServerConfig{Logf: func(format string, _ ...any) {
		if strings.HasPrefix(format, "session start") {
			close(started)
			<-release
		}
	}})
	tl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := &halfCloseListener{Listener: tl, accepted: make(chan halfCloseConn, 1)}
	go srv.Serve(l)

	conn, err := net.Dial("tcp", tl.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	burst := protocol.Encode(&protocol.Hello{User: "alice", Device: "drain", Version: "cloudsync/1"})
	const n = 16
	for i := 0; i < n; i++ {
		burst = append(burst, protocol.Encode(&protocol.IndexUpdate{
			Name: fmt.Sprintf("f%02d", i), Size: 1, FileHash: [16]byte{byte(i)},
		})...)
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatalf("write burst: %v", err)
	}
	sc := <-l.accepted
	<-started // the Hello is read; the burst behind it is not
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case <-sc.readClosed:
		close(release)
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatal("Close did not half-close the connection")
	}

	// Every request's reply must arrive, in order, then EOF.
	for i := 0; i < n; i++ {
		m, err := protocol.ReadMessage(conn)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if r, ok := m.(*protocol.IndexReply); !ok || r.FileID != uint64(i+1) {
			t.Fatalf("reply %d: got %#v, want IndexReply for file %d", i, m, i+1)
		}
	}
	if _, err := protocol.ReadMessage(conn); err == nil {
		t.Fatal("connection still open after drain; want EOF")
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// halfCloseListener hands out connections that report when Server.Close
// half-closes them.
type halfCloseListener struct {
	net.Listener
	accepted chan halfCloseConn
}

func (l *halfCloseListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	hc := halfCloseConn{TCPConn: c.(*net.TCPConn), readClosed: make(chan struct{})}
	l.accepted <- hc
	return hc, nil
}

type halfCloseConn struct {
	*net.TCPConn
	readClosed chan struct{}
}

func (c halfCloseConn) CloseRead() error {
	defer close(c.readClosed)
	return c.TCPConn.CloseRead()
}

// TestBundleFaultRetryRetransmit cuts the connection mid-bundle and
// lets the retry policy replay it: the upload must converge, the
// client's per-byte ledger must still balance exactly against its
// metered wire bytes, and the re-sent ranges must be tagged retransmit
// rather than inflating the fresh-payload figure.
func TestBundleFaultRetryRetransmit(t *testing.T) {
	leakCheck(t)
	clientLed := &ledger.Ledger{}
	srv := NewServer(ServerConfig{})
	t.Cleanup(func() { srv.Close() })
	// Budget smaller than the bundle frame, so the first attempt dies
	// mid-bundle.
	sched := NewFaultScheduler(FaultPlan{Seed: 11, MeanDropBytes: 6 << 10, MaxDrops: 2})

	var prevDone chan struct{}
	dial := func() (net.Conn, error) {
		if prevDone != nil {
			<-prevDone
		}
		clientEnd, serverEnd := net.Pipe()
		done := make(chan struct{})
		prevDone = done
		go func() {
			defer close(done)
			srv.HandleConn(serverEnd)
		}()
		return sched.Wrap(clientEnd), nil
	}
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(conn, "alice", "bundle-retry",
		WithLedger(clientLed), WithDialer(dial),
		WithRetry(RetryPolicy{MaxAttempts: 6, Sleep: func(time.Duration) {}}))
	if err != nil {
		t.Fatal(err)
	}

	files := makeBatch("retry", 6, 2048)
	var payloadBytes int64
	for _, f := range files {
		payloadBytes += int64(len(f.Data))
	}
	stats, err := c.UploadBundle(files)
	if err != nil {
		t.Fatalf("UploadBundle under faults: %v", err)
	}
	if stats[0].Attempts < 2 {
		t.Fatalf("bundle completed in %d attempt(s); the fault never fired", stats[0].Attempts)
	}
	for _, f := range files {
		got, err := c.Download(f.Name)
		if err != nil || !bytes.Equal(got, f.Data) {
			t.Fatalf("download %s after retried bundle: %v", f.Name, err)
		}
	}
	c.Close()
	<-prevDone

	clientIn, clientOut := c.WireTotals()
	if got, want := clientLed.Total(), clientIn+clientOut; got != want {
		t.Errorf("client ledger total = %d, wire in+out = %d\n%s",
			got, want, clientLed.Snapshot().Table("client"))
	}
	if clientLed.Get(ledger.Retransmit) == 0 {
		t.Errorf("bundle was replayed but no bytes were tagged retransmit\n%s",
			clientLed.Snapshot().Table("client"))
	}
}

// TestConcurrentBatchedClients races many clients mixing lockstep and
// bundled uploads against one server — the coverage the race detector
// needs over the shared server state and the pooled buffers.
func TestConcurrentBatchedClients(t *testing.T) {
	srv, dial := startServer(t, ServerConfig{})
	const clients = 6
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		c, _ := dial(fmt.Sprintf("user%d", g))
		wg.Add(1)
		go func(g int, c *Client) {
			defer wg.Done()
			files := makeBatch(fmt.Sprintf("u%d", g), 10, 600)
			for _, f := range files[:5] {
				if _, err := c.Upload(f.Name, f.Data); err != nil {
					errs <- fmt.Errorf("client %d upload %s: %w", g, f.Name, err)
					return
				}
			}
			if _, err := c.UploadBundle(files[5:]); err != nil {
				errs <- fmt.Errorf("client %d bundle: %w", g, err)
				return
			}
			for _, f := range files {
				got, err := c.Download(f.Name)
				if err != nil || !bytes.Equal(got, f.Data) {
					errs <- fmt.Errorf("client %d download %s: %v", g, f.Name, err)
					return
				}
			}
		}(g, c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := srv.Stats(); st.BundledFiles != clients*5 || st.Uploads != clients*10 {
		t.Errorf("BundledFiles = %d, Uploads = %d; want %d and %d", st.BundledFiles, st.Uploads, clients*5, clients*10)
	}
}
