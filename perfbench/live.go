package main

import (
	"crypto/md5"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cloudsync/internal/comp"
	"cloudsync/internal/obs"
	"cloudsync/internal/obs/ledger"
	"cloudsync/internal/planner"
	"cloudsync/internal/syncnet"
	"cloudsync/internal/watchsync"
)

// benchUser is the one account every live workload syncs.
const benchUser = "bench"

// connMeter counts what crosses a set of wrapped connections. The
// wrapper hides *net.TCPConn, so a vectored send goes out as one write
// per buffer instead of one writev: traced runs only.
type connMeter struct {
	writes, writeBytes atomic.Int64
	readBytes          atomic.Int64
	readWaitNs         atomic.Int64
}

type meteredConn struct {
	net.Conn
	m *connMeter
}

func (c meteredConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.m.writes.Add(1)
	c.m.writeBytes.Add(int64(n))
	return n, err
}

func (c meteredConn) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Read(p)
	c.m.readWaitNs.Add(int64(time.Since(t0)))
	c.m.readBytes.Add(int64(n))
	return n, err
}

type meteredListener struct {
	net.Listener
	m *connMeter
}

func (l meteredListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return meteredConn{c, l.m}, nil
}

// treeSource is the benchmark's watchsync.Source: the workload writes
// files under root and queues one event per write, the way an
// event-driven watcher would report them; Read reads the file back
// from disk. It also tracks, per path, how many edits the content
// returned by the latest Read contains, so doc-edit can tell which
// edits a tick delivered.
type treeSource struct {
	root  string
	timed bool // time every Read (traced runs)

	mu      sync.Mutex
	queued  []watchsync.Event
	seq     map[string]int64 // edits written per path
	readSeq map[string]int64 // edits contained in the latest Read

	reads  atomic.Int64
	readNs atomic.Int64
}

func newTreeSource(root string, timed bool) *treeSource {
	return &treeSource{root: root, timed: timed, seq: map[string]int64{}, readSeq: map[string]int64{}}
}

// write replaces path atomically (temp file + rename, as editors save)
// and queues its event at virtual time at. It returns the path's edit
// count including this write.
func (s *treeSource) write(path string, data []byte, at time.Duration) (int64, error) {
	full := filepath.Join(s.root, filepath.FromSlash(path))
	if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
		return 0, err
	}
	tmp := full + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp, full); err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq[path]++
	s.queued = append(s.queued, watchsync.Event{Path: path, Write: at})
	return s.seq[path], nil
}

// delivered reports how many edits of path the latest Read returned.
func (s *treeSource) delivered(path string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.readSeq[path]
}

// md5Tree hashes every file under the tree, keyed by slash path.
func (s *treeSource) md5Tree(paths []string) (map[string][16]byte, error) {
	out := make(map[string][16]byte, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(filepath.Join(s.root, filepath.FromSlash(p)))
		if err != nil {
			return nil, err
		}
		out[p] = md5.Sum(data)
	}
	return out, nil
}

// Scan drains the queued events.
func (s *treeSource) Scan(time.Duration) ([]watchsync.Event, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	evs := s.queued
	s.queued = nil
	return evs, nil
}

// Read returns a file's current content. The edit count is taken
// before the read, so it never claims an edit the content lacks.
func (s *treeSource) Read(path string) ([]byte, error) {
	s.mu.Lock()
	n := s.seq[path]
	s.mu.Unlock()
	var t0 time.Time
	if s.timed {
		t0 = time.Now()
	}
	data, err := os.ReadFile(filepath.Join(s.root, filepath.FromSlash(path)))
	if s.timed {
		s.readNs.Add(int64(time.Since(t0)))
	}
	s.reads.Add(1)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.readSeq[path] = n
	s.mu.Unlock()
	return data, nil
}

// liveEnv is one in-process deployment: a durable syncnet server on a
// loopback listener, device 1's pipeline over its executor clients,
// and optionally a device-2 client. Every client and the server carry
// a ledger; close checks them against the metered wire.
type liveEnv struct {
	srv       *syncnet.Server
	ln        net.Listener
	served    chan error
	srvLedger *ledger.Ledger
	reg       *obs.Registry // traced runs only

	workers  []*syncnet.Client
	exec     *watchsync.Executor
	dev2     *syncnet.Client
	clients  []*syncnet.Client // every client, device 2 last
	ledgers  []*ledger.Ledger  // one per client, same order
	src      *treeSource
	pipe     *watchsync.Pipeline
	baseline string
	epoch    time.Time

	cliMeter, srvMeter connMeter // traced runs only

	ticks, polls   int64
	tickNs, pollNs int64
	baselineBytes  int64
	baselineStat   os.FileInfo
	closed         bool
}

// openEnv starts a fresh deployment under dir with the given number of
// executor connections and, if dev2, a device-2 connection.
func openEnv(dir string, workers int, dev2, traced bool) (*liveEnv, error) {
	e := &liveEnv{srvLedger: ledger.New(), served: make(chan error, 1)}
	if traced {
		e.reg = obs.NewRegistry()
	}
	srv, err := syncnet.OpenServer(syncnet.ServerConfig{
		Compression: comp.High,
		StateDir:    filepath.Join(dir, "server"),
		Ledger:      e.srvLedger,
		Metrics:     e.reg,
	})
	if err != nil {
		return nil, fmt.Errorf("opening server: %w", err)
	}
	e.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	e.ln = ln
	var sl net.Listener = ln
	if traced {
		sl = meteredListener{ln, &e.srvMeter}
	}
	go func() { e.served <- srv.Serve(sl) }()

	dial := func(device string) (*syncnet.Client, error) {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return nil, err
		}
		if traced {
			conn = meteredConn{conn, &e.cliMeter}
		}
		l := ledger.New()
		opts := []syncnet.ClientOption{syncnet.WithCompression(comp.High), syncnet.WithLedger(l)}
		if traced {
			opts = append(opts, syncnet.WithClientMetrics(e.reg))
		}
		c, err := syncnet.NewClient(conn, benchUser, device, opts...)
		if err != nil {
			conn.Close()
			return nil, err
		}
		e.clients = append(e.clients, c)
		e.ledgers = append(e.ledgers, l)
		return c, nil
	}
	for i := 0; i < workers; i++ {
		c, err := dial(fmt.Sprintf("dev1-w%d", i))
		if err != nil {
			e.close()
			return nil, fmt.Errorf("dialing: %w", err)
		}
		e.workers = append(e.workers, c)
	}
	if dev2 {
		if e.dev2, err = dial("dev2"); err != nil {
			e.close()
			return nil, fmt.Errorf("dialing: %w", err)
		}
	}

	tree := filepath.Join(dir, "tree")
	if err := os.MkdirAll(tree, 0o755); err != nil {
		e.close()
		return nil, err
	}
	e.src = newTreeSource(tree, traced)
	e.baseline = filepath.Join(dir, "client", "baseline.json")
	if err := os.MkdirAll(filepath.Dir(e.baseline), 0o755); err != nil {
		e.close()
		return nil, err
	}
	e.exec = watchsync.NewExecutor(e.workers...)
	e.pipe = watchsync.NewPipeline(e.src, e.exec, watchsync.Config{
		Debounce:     0,
		Defer:        planner.DeferConfig{Mode: planner.DeferNone},
		BaselinePath: e.baseline,
	})
	e.epoch = time.Now()
	if err := e.pipe.Bootstrap(); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// now is the pipeline's virtual clock: wall time since the epoch.
func (e *liveEnv) now() time.Duration { return time.Since(e.epoch) }

// syncOnce runs one Poll and one Tick, timing both and stat'ing the
// baseline afterwards. It returns the tick's stats.
func (e *liveEnv) syncOnce() (watchsync.TickStats, error) {
	t0 := time.Now()
	if err := e.pipe.Poll(e.now()); err != nil {
		return watchsync.TickStats{}, err
	}
	t1 := time.Now()
	st, _, _, err := e.pipe.Tick(e.now())
	t2 := time.Now()
	e.polls++
	e.ticks++
	e.pollNs += int64(t1.Sub(t0))
	e.tickNs += int64(t2.Sub(t1))
	if fi, serr := os.Stat(e.baseline); serr == nil {
		if e.baselineStat == nil || !os.SameFile(fi, e.baselineStat) || fi.ModTime() != e.baselineStat.ModTime() {
			e.baselineBytes += fi.Size()
		}
		e.baselineStat = fi
	}
	return st, err
}

// converge ticks until nothing is pending, retrying failed transfers;
// it returns the transfer errors seen on the way.
func (e *liveEnv) converge() (errs int, err error) {
	for round := 0; ; round++ {
		st, err := e.syncOnce()
		if err != nil {
			return errs, err
		}
		errs += st.Errors
		if e.pipe.PendingPaths() == 0 {
			return errs, nil
		}
		if round >= 20 {
			return errs, fmt.Errorf("pipeline did not converge: %d paths pending", e.pipe.PendingPaths())
		}
	}
}

// dev1Wire is device 1's metered wire bytes, both directions.
func (e *liveEnv) dev1Wire() int64 {
	var n int64
	for _, c := range e.workers {
		in, out := c.WireTotals()
		n += in + out
	}
	return n
}

// close tears the deployment down and checks the ledger gates: every
// client's ledger sums to its metered wire bytes, the server's ledger
// to the server's, and both sides of the loopback saw the same bytes.
func (e *liveEnv) close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	var errs []error
	var cliWire int64
	for i, c := range e.clients {
		c.Close()
		in, out := c.WireTotals()
		cliWire += in + out
		if got := e.ledgers[i].Total(); got != in+out {
			errs = append(errs, fmt.Errorf("client %d ledger %d B != metered wire %d B", i, got, in+out))
		}
	}
	if e.srv != nil {
		e.srv.Close()
		if e.ln != nil {
			if err := <-e.served; err != nil && !errors.Is(err, syncnet.ErrServerClosed) && !errors.Is(err, net.ErrClosed) {
				errs = append(errs, fmt.Errorf("serve: %w", err))
			}
		}
		st := e.srv.Stats()
		srvWire := st.BytesReceived + st.BytesSent
		if got := e.srvLedger.Total(); got != srvWire {
			errs = append(errs, fmt.Errorf("server ledger %d B != metered wire %d B", got, srvWire))
		}
		if cliWire != srvWire {
			errs = append(errs, fmt.Errorf("clients metered %d B but server %d B", cliWire, srvWire))
		}
	}
	return errors.Join(errs...)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssInterval is how often an rssSampler reads the resident set.
const rssInterval = 20 * time.Millisecond

// rssSampler averages a process's resident set over time. A time
// average rather than the high-water mark: the peak of a Go process
// swings with where garbage collections and the server's WAL
// compactions (which copy the whole stored state) happen to fall.
type rssSampler struct {
	stop, done chan struct{}
	sum        float64
	n          int
}

// sampleRSS samples /proc/<pid>/statm until meanMB is called.
func sampleRSS(pid int) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	path := fmt.Sprintf("/proc/%d/statm", pid)
	page := float64(os.Getpagesize())
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssInterval)
		defer tick.Stop()
		for {
			if data, err := os.ReadFile(path); err == nil {
				if f := strings.Fields(string(data)); len(f) >= 2 {
					if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
						s.sum += pages * page / (1 << 20)
						s.n++
					}
				}
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// meanMB stops sampling and returns the mean resident set in MiB.
func (s *rssSampler) meanMB() float64 {
	close(s.stop)
	<-s.done
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}
