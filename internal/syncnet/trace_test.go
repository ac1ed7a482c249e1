package syncnet

import (
	"bytes"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"cloudsync/internal/obs"
	"cloudsync/internal/obs/ledger"
	"cloudsync/internal/protocol"
)

// tracedPair wires a client and server over net.Pipe with independent
// tracers; opts extend the client side.
func tracedPair(t *testing.T, cfg ServerConfig, opts ...ClientOption) (*Client, *Server, func()) {
	t.Helper()
	leakCheck(t)
	srv := NewServer(cfg)
	cp, sp := net.Pipe()
	handlerCh := make(chan error, 1)
	go func() { handlerCh <- srv.HandleConn(sp) }()
	c, err := NewClient(cp, "alice", "trace-test", opts...)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return c, srv, func() {
		c.Close()
		if err := <-handlerCh; err != nil {
			t.Fatalf("HandleConn: %v", err)
		}
	}
}

// TestTracePropagationMergedTree is the tentpole shape check: with
// context propagation on, merging the two sides' dumps must hang every
// server request span off the client attempt that caused it, under one
// shared root.
func TestTracePropagationMergedTree(t *testing.T) {
	serverTr, clientTr := obs.NewTracer(), obs.NewTracer()
	c, _, finish := tracedPair(t, ServerConfig{Tracer: serverTr},
		WithTracer(clientTr), WithTraceContext())

	if _, err := c.Upload("a.txt", bytes.Repeat([]byte("trace "), 2048)); err != nil {
		t.Fatalf("upload: %v", err)
	}
	finish()

	merged := obs.Merge(clientTr.Dump("client"), serverTr.Dump("server"))
	var uploadRoot, attemptID uint64
	for _, m := range merged {
		switch m.Name {
		case "client.upload":
			uploadRoot = m.ID
		case "client.attempt":
			attemptID = m.ID
		}
	}
	if uploadRoot == 0 || attemptID == 0 {
		t.Fatalf("client spans missing from merge: %+v", merged)
	}

	var serverUnderAttempt, serverSpans int
	for _, m := range merged {
		if m.Process != "server" || m.Name == "server.session" {
			continue
		}
		serverSpans++
		if m.Parent == attemptID {
			serverUnderAttempt++
		}
		if m.Root != uploadRoot {
			t.Errorf("server span %s: root %d, want client.upload root %d", m.Name, m.Root, uploadRoot)
		}
	}
	if serverSpans == 0 {
		t.Fatal("no server request spans in merge")
	}
	if serverUnderAttempt == 0 {
		t.Fatalf("no server span parented under client.attempt (%d server spans)", serverSpans)
	}
}

// TestTraceLedgerExactWithPropagation: the TraceCtx frames a
// propagating session adds are charged to framing, so both sides'
// ledgers must still equal their metered wire bytes exactly.
func TestTraceLedgerExactWithPropagation(t *testing.T) {
	clientLed, serverLed := &ledger.Ledger{}, &ledger.Ledger{}
	serverTr, clientTr := obs.NewTracer(), obs.NewTracer()
	c, srv, finish := tracedPair(t, ServerConfig{Tracer: serverTr, Ledger: serverLed},
		WithTracer(clientTr), WithTraceContext(), WithLedger(clientLed))

	v1 := bytes.Repeat([]byte("propagated "), 4<<10)
	if _, err := c.Upload("report.txt", v1); err != nil {
		t.Fatalf("upload: %v", err)
	}
	if _, err := c.Download("report.txt"); err != nil {
		t.Fatalf("download: %v", err)
	}
	if err := c.Delete("report.txt"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	finish()

	clientIn, clientOut := c.WireTotals()
	if got, want := clientLed.Total(), clientIn+clientOut; got != want {
		t.Errorf("client ledger total %d ≠ wire %d with tracing on\n%s",
			got, want, clientLed.Snapshot().Table("client"))
	}
	st := srv.Stats()
	if got, want := serverLed.Total(), st.BytesReceived+st.BytesSent; got != want {
		t.Errorf("server ledger total %d ≠ wire %d with tracing on\n%s",
			got, want, serverLed.Snapshot().Table("server"))
	}
	if clientLed.Total() != serverLed.Total() {
		t.Errorf("sides disagree: client %d, server %d", clientLed.Total(), serverLed.Total())
	}
}

// teeConn records everything the client writes, so tests can assert on
// the exact frames that reached the wire.
type teeConn struct {
	net.Conn
	mu  sync.Mutex
	buf bytes.Buffer
}

func (c *teeConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.mu.Lock()
	c.buf.Write(p[:n])
	c.mu.Unlock()
	return n, err
}

// frames splits the captured stream into [type, body...] frames.
func (c *teeConn) frames(t *testing.T) [][]byte {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var out [][]byte
	b := c.buf.Bytes()
	for len(b) > 0 {
		if len(b) < frameHeaderLen {
			t.Fatalf("trailing %d-byte fragment in captured stream", len(b))
		}
		n := int(uint32(b[1]) | uint32(b[2])<<8 | uint32(b[3])<<16 | uint32(b[4])<<24)
		if len(b) < frameHeaderLen+n {
			t.Fatalf("truncated frame: need %d, have %d", frameHeaderLen+n, len(b))
		}
		out = append(out, b[:frameHeaderLen+n])
		b = b[frameHeaderLen+n:]
	}
	return out
}

const frameHeaderLen = 5

// TestNonPropagatingClientIsWireIdenticalToLegacy pins the interop
// guarantee: a traced client that does not opt into propagation puts
// exactly the legacy byte stream on the wire — its Hello matches the
// pre-capability encoding byte for byte and no TraceCtx frame ever
// appears — and the ledgers still balance. A peer that predates the
// capability cannot tell the difference.
func TestNonPropagatingClientIsWireIdenticalToLegacy(t *testing.T) {
	leakCheck(t)
	clientLed := &ledger.Ledger{}
	srv := NewServer(ServerConfig{Tracer: obs.NewTracer()})
	cp, sp := net.Pipe()
	handlerCh := make(chan error, 1)
	go func() { handlerCh <- srv.HandleConn(sp) }()
	tee := &teeConn{Conn: cp}
	c, err := NewClient(tee, "alice", "legacy-test",
		WithTracer(obs.NewTracer()), WithLedger(clientLed)) // no WithTraceContext
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	if _, err := c.Upload("a.txt", []byte("legacy wire")); err != nil {
		t.Fatalf("upload: %v", err)
	}
	c.Close()
	if err := <-handlerCh; err != nil {
		t.Fatalf("HandleConn: %v", err)
	}

	frames := tee.frames(t)
	if len(frames) == 0 {
		t.Fatal("no frames captured")
	}
	legacyHello := protocol.Encode(&protocol.Hello{User: "alice", Device: "legacy-test", Version: "cloudsync/1"})
	if !bytes.Equal(frames[0], legacyHello) {
		t.Fatalf("Hello differs from legacy bytes:\n got %x\nwant %x", frames[0], legacyHello)
	}
	for i, f := range frames {
		if protocol.MsgType(f[0]) == protocol.TypeTraceCtx {
			t.Fatalf("frame %d is a TraceCtx from a non-propagating client", i)
		}
	}
	in, out := c.WireTotals()
	if got, want := clientLed.Total(), in+out; got != want {
		t.Errorf("client ledger total %d ≠ wire %d", got, want)
	}
}

// driveRawTraceCtx sends a raw Hello (with the given caps), a TraceCtx,
// and a ListRequest at a tracing server, and reports the remote context
// the server's request span recorded.
func driveRawTraceCtx(t *testing.T, caps uint32) (obs.TraceID, uint64) {
	t.Helper()
	leakCheck(t)
	remote := obs.TraceID{1, 2, 3}
	serverTr := obs.NewTracer()
	srv := NewServer(ServerConfig{Tracer: serverTr})
	t.Cleanup(func() { srv.Close() })
	client, server := net.Pipe()
	handlerCh := make(chan error, 1)
	go func() { handlerCh <- srv.HandleConn(server) }()
	go io.Copy(io.Discard, client) // drain replies so writes never block

	for _, m := range []protocol.Message{
		&protocol.Hello{User: "raw", Device: "d", Version: "v", Caps: caps},
		&protocol.TraceCtx{TraceID: [16]byte(remote), SpanID: 77},
		&protocol.ListRequest{},
	} {
		if _, err := client.Write(protocol.Encode(m)); err != nil {
			t.Fatalf("write %v: %v", m.Type(), err)
		}
	}
	client.Close()
	<-handlerCh

	for _, s := range serverTr.Spans() {
		if s.Name == "server.list-request" {
			return s.RemoteTrace, s.RemoteParent
		}
	}
	t.Fatal("server.list-request span not recorded")
	return obs.TraceID{}, 0
}

// TestTraceCtxIgnoredWithoutCapability: a TraceCtx after a legacy
// (capability-free) Hello is absorbed without adopting the context.
func TestTraceCtxIgnoredWithoutCapability(t *testing.T) {
	trace, span := driveRawTraceCtx(t, 0)
	if span != 0 || !trace.IsZero() {
		t.Fatalf("server adopted a context it never negotiated: trace %v span %d", trace, span)
	}
}

// TestTraceCtxAdoptedWithCapability: the same frames after a CapTrace
// Hello re-parent the next request span under the remote context.
func TestTraceCtxAdoptedWithCapability(t *testing.T) {
	trace, span := driveRawTraceCtx(t, protocol.CapTrace)
	if span != 77 || trace != (obs.TraceID{1, 2, 3}) {
		t.Fatalf("server did not adopt the context: trace %v span %d", trace, span)
	}
}

// TestWalMetricsRegisteredOnlyWithStateDir: the WAL instrument family
// appears on the registry only when there is a durable state to
// measure, and real commits move it.
func TestWalMetricsRegisteredOnlyWithStateDir(t *testing.T) {
	ram := obs.NewRegistry()
	srv := NewServer(ServerConfig{Metrics: ram})
	srv.Close()
	var buf bytes.Buffer
	if err := ram.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "syncd_wal_") {
		t.Fatalf("in-RAM server registered WAL metrics:\n%s", buf.String())
	}

	leakCheck(t)
	reg := obs.NewRegistry()
	durable := NewServer(ServerConfig{Metrics: reg, StateDir: t.TempDir()})
	cp, sp := net.Pipe()
	handlerCh := make(chan error, 1)
	go func() { handlerCh <- durable.HandleConn(sp) }()
	c, err := NewClient(cp, "alice", "wal-test")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { durable.Close() })
	if _, err := c.Upload("a.txt", []byte("durable bytes")); err != nil {
		t.Fatalf("upload: %v", err)
	}
	c.Close()
	if err := <-handlerCh; err != nil {
		t.Fatalf("HandleConn: %v", err)
	}

	if n := reg.Histogram("syncd_wal_fsync_duration_us", "").Count(); n == 0 {
		t.Error("fsync duration histogram never observed")
	}
	if n := reg.Counter("syncd_wal_fsyncs_total", "").Value(); n == 0 {
		t.Error("fsync counter never incremented")
	}
	if n := reg.Counter("syncd_wal_bytes_appended_total", "").Value(); n == 0 {
		t.Error("bytes-appended counter never incremented")
	}
}

// TestPhaseHistogramsPopulated: one traced upload must move every phase
// instrument that does not need a durable state — client reply wait,
// request duration, and apply time.
func TestPhaseHistogramsPopulated(t *testing.T) {
	reg := obs.NewRegistry()
	c, _, finish := tracedPair(t, ServerConfig{Metrics: reg}, WithClientMetrics(reg))
	if _, err := c.Upload("a.txt", bytes.Repeat([]byte("phase "), 1024)); err != nil {
		t.Fatalf("upload: %v", err)
	}
	finish()
	for _, name := range []string{
		"syncnet_client_reply_wait_us",
		"syncd_request_duration_us",
		"syncd_apply_us",
	} {
		if n := reg.Histogram(name, "").Count(); n == 0 {
			t.Errorf("%s never observed", name)
		}
	}
}

// TestFlightRecorderCrashDump: when the durable state dies, the flight
// ring must land in <state-dir>/flight-<ts>.jsonl — parseable, carrying
// the requests that led up to the crash and the crash record itself —
// before CrashedC releases any exit watcher.
func TestFlightRecorderCrashDump(t *testing.T) {
	dir := t.TempDir()
	fl := obs.NewFlightRecorder(64)
	srv, dial := startServer(t, ServerConfig{StateDir: dir, Flight: fl})
	c, _ := dial("alice")

	if _, err := c.Upload("safe", bytes.Repeat([]byte("s"), 4096)); err != nil {
		t.Fatal(err)
	}
	srv.FailStateAt(srv.StateLogBytes() + 3)
	if _, err := c.Upload("doomed", bytes.Repeat([]byte("d"), 4096)); err == nil {
		t.Fatal("upload acknowledged past an armed crash point")
	}
	select {
	case <-srv.CrashedC():
	default:
		t.Fatal("CrashedC not closed after crash")
	}

	matches, err := filepath.Glob(filepath.Join(dir, "flight-*.jsonl"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("flight dumps on disk: %v (err %v), want exactly 1", matches, err)
	}
	f, err := os.Open(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := obs.ReadFlightDump(f)
	if err != nil {
		t.Fatalf("flight dump does not parse: %v", err)
	}
	if len(recs) == 0 {
		t.Fatal("flight dump is empty")
	}
	var sawCommit, sawCrash bool
	for _, r := range recs {
		if r.Name == "server.commit" && r.User == "alice" {
			sawCommit = true
		}
		if r.Name == "server.crash" {
			sawCrash = true
		}
	}
	if !sawCommit {
		t.Errorf("no server.commit record for alice in dump: %+v", recs)
	}
	if !sawCrash {
		t.Errorf("no server.crash record in dump: %+v", recs)
	}
	if last := recs[len(recs)-1]; last.Name != "server.crash" {
		t.Errorf("last record is %q, want the crash marker", last.Name)
	}
}
