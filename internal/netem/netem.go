// Package netem models the network path between a sync client and the
// cloud: asymmetric bandwidth, propagation latency, and serialized
// request/response exchanges over a wire.Conn.
//
// It replaces the paper's two physical vantage points (Minnesota and
// Beijing) and its Netfilter-based bandwidth/latency shapers with a
// deterministic analytical model on the simulation clock: an exchange's
// duration is its round trips times the RTT plus its wire bytes divided
// by the direction's bandwidth, which is exactly the quantity the
// paper's "Condition 1" batching depends on.
package netem

import (
	"fmt"
	"time"

	"cloudsync/internal/capture"
	"cloudsync/internal/obs"
	"cloudsync/internal/obs/ledger"
	"cloudsync/internal/simclock"
	"cloudsync/internal/wire"
)

// Link describes a client↔cloud path.
type Link struct {
	// UpBps and DownBps are the bandwidths in bits per second, client→cloud
	// and cloud→client.
	UpBps, DownBps int64
	// RTT is the round-trip time.
	RTT time.Duration
	// Faults, when non-nil, makes the link imperfect: seeded packet
	// loss, connection drops, and stalls (see FaultProfile). Nil is the
	// ideal loss-free pipe.
	Faults *FaultProfile
}

// Minnesota returns the paper's "close to the cloud" vantage point:
// ~20 Mbps with 42–77 ms latency (midpoint 60 ms).
func Minnesota() Link {
	return Link{UpBps: 20_000_000, DownBps: 20_000_000, RTT: 60 * time.Millisecond}
}

// Beijing returns the paper's "remote from the cloud" vantage point:
// ~1.6 Mbps upload with 200–480 ms latency (midpoint 340 ms). Download
// bandwidth on the measured access links was roughly 4× the upload rate.
func Beijing() Link {
	return Link{UpBps: 1_600_000, DownBps: 6_400_000, RTT: 340 * time.Millisecond}
}

// Custom returns a link with the given bandwidth (applied in both
// directions) and RTT — the equivalent of the paper's controlled
// packet-filter experiments.
func Custom(bps int64, rtt time.Duration) Link {
	return Link{UpBps: bps, DownBps: bps, RTT: rtt}
}

func (l Link) validate() {
	if l.UpBps <= 0 || l.DownBps <= 0 {
		panic(fmt.Sprintf("netem: non-positive bandwidth %+v", l))
	}
	if l.RTT < 0 {
		panic(fmt.Sprintf("netem: negative RTT %+v", l))
	}
	l.Faults.validate()
}

// UpTime reports how long bytes take to serialize onto the uplink.
func (l Link) UpTime(bytes int) time.Duration {
	l.validate()
	return time.Duration(float64(bytes) * 8 / float64(l.UpBps) * float64(time.Second))
}

// DownTime reports how long bytes take to serialize onto the downlink.
func (l Link) DownTime(bytes int) time.Duration {
	l.validate()
	return time.Duration(float64(bytes) * 8 / float64(l.DownBps) * float64(time.Second))
}

// Exchange is one application-level request/response over the path.
type Exchange struct {
	// UpApp and DownApp are the application bytes of the request body
	// and response body.
	UpApp, DownApp int
	// Kind classifies the payload for capture accounting.
	Kind capture.Kind
	// ExtraRTTs adds protocol round trips beyond the one implied by the
	// request/response itself (e.g. a commit-then-ack step).
	ExtraRTTs int
	// Cause attributes the exchange's payload bytes when the capture has
	// a ledger attached. ledger.Unset derives the cause from Kind;
	// loss-triggered retry attempts override it with ledger.Retransmit.
	Cause ledger.Cause
}

// Path binds a link, a connection, and the clock into the unit the sync
// client talks through. Sessions on one path are serialized: a session
// started while another is in flight queues behind it, which is what
// produces the paper's Condition-1 natural batching.
type Path struct {
	clock      *simclock.Clock
	link       Link
	conn       *wire.Conn
	persistent bool
	busyUntil  time.Duration
	sessions   int
	faults     *faultState
	tracer     *obs.Tracer
}

// SetTracer makes the path record one analytic span per session
// ("net.session") and per push ("net.push"). Because the path computes
// session times analytically rather than observing them, spans are
// recorded with explicit virtual start/end stamps; use a tracer built
// with obs.NewSimTracer so the stamps share the simulation timeline.
// A nil tracer (the default) records nothing.
func (p *Path) SetTracer(tr *obs.Tracer) { p.tracer = tr }

// NewPath constructs a path. persistent controls whether the underlying
// connection stays open between sessions (PC clients with notification
// channels) or is re-established per session (web and mobile access).
func NewPath(clock *simclock.Clock, link Link, conn *wire.Conn, persistent bool) *Path {
	if clock == nil || conn == nil {
		panic("netem: NewPath with nil clock or conn")
	}
	link.validate()
	return &Path{
		clock: clock, link: link, conn: conn, persistent: persistent,
		faults: newFaultState(link.Faults, clock.Now()),
	}
}

// Link returns the path's link parameters.
func (p *Path) Link() Link { return p.link }

// SetLink swaps the link parameters (used by controlled bandwidth and
// latency sweeps). It does not affect sessions already in flight.
// Swapping in a different fault profile restarts its schedule from the
// current sim time.
func (p *Path) SetLink(l Link) {
	l.validate()
	if l.Faults != p.link.Faults {
		p.faults = newFaultState(l.Faults, p.clock.Now())
	}
	p.link = l
}

// FaultStats reports the faults injected on this path so far (zero for
// fault-free links).
func (p *Path) FaultStats() FaultStats {
	if p.faults == nil {
		return FaultStats{}
	}
	return p.faults.stats
}

// Conn exposes the underlying connection (for tests and teardown).
func (p *Path) Conn() *wire.Conn { return p.conn }

// Busy reports whether a session is currently occupying the path.
func (p *Path) Busy() bool { return p.busyUntil > p.clock.Now() }

// Sessions reports how many sessions have been started on the path.
func (p *Path) Sessions() int { return p.sessions }

// Do runs a session of exchanges over the path, queueing behind any
// session in flight, and schedules done (which may be nil) at the
// session's completion time. serverTime adds fixed server-side
// processing to the session (commit latency, metadata DB work).
// It returns the scheduled completion time.
func (p *Path) Do(exchanges []Exchange, serverTime time.Duration, done func(end time.Duration)) time.Duration {
	asked := p.clock.Now()
	start := asked
	if p.busyUntil > start {
		start = p.busyUntil
	}
	p.sessions++
	at := p.open(start)
	for _, ex := range exchanges {
		if ex.UpApp < 0 || ex.DownApp < 0 {
			panic("netem: exchange with negative size")
		}
		at = p.exchange(at, ex)
	}
	at += serverTime
	if !p.persistent {
		p.conn.Close(at)
	}
	p.busyUntil = at
	end := at
	p.tracer.Record("net.session", start, end,
		obs.Int("exchanges", int64(len(exchanges))),
		obs.Int("queued_us", (start-asked).Microseconds()))
	p.clock.Post(end, func() {
		if done != nil {
			done(end)
		}
	})
	return end
}

// open ensures the connection is established at time at, paying the
// handshake when it is not, and returns the time the path is usable.
func (p *Path) open(at time.Duration) time.Duration {
	if p.conn.Established() {
		return at
	}
	up, down := p.conn.Open(at)
	at += time.Duration(wire.HandshakeRTTs) * p.link.RTT
	return at + p.link.UpTime(up) + p.link.DownTime(down)
}

// exchange runs one request/response at time at and returns its
// completion time, applying the link's fault schedule: stalls freeze
// the path, due connection drops tear it down (the exchange then pays
// a fresh handshake), and lost exchanges are retransmitted after a
// timeout with every attempt charged to the wire — which is how
// retransmission traffic reaches the capture and therefore TUE.
func (p *Path) exchange(at time.Duration, ex Exchange) time.Duration {
	attempts := 1
	if st := p.faults; st != nil {
		at = st.stallUntil(at)
		if st.dropDue(at) && p.conn.Established() {
			p.conn.Close(at)
			at = p.open(at)
		}
		attempts = st.lossAttempts()
	}
	for i := 0; i < attempts; i++ {
		cause := ex.Cause
		if i > 0 {
			// Every attempt after the first puts the same bytes on the
			// wire again: charge them to retransmit, whatever the
			// payload's own cause was.
			cause = ledger.Retransmit
		}
		up, down := p.conn.RequestCause(at, ex.UpApp, ex.DownApp, ex.Kind, cause)
		at += p.link.RTT // request/response latency
		at += p.link.UpTime(up) + p.link.DownTime(down)
		if i < attempts-1 {
			at += p.faults.profile.retryTimeout(p.link.RTT)
		}
	}
	if ex.ExtraRTTs > 0 {
		at += time.Duration(ex.ExtraRTTs) * p.link.RTT
	}
	return at
}

// Push delivers a server-initiated message (notification) to the client
// immediately, without occupying the path's session queue. It returns
// the delivery time. The connection is opened if needed.
func (p *Path) Push(app int, done func(end time.Duration)) time.Duration {
	at := p.clock.Now()
	if !p.conn.Established() {
		up, down := p.conn.Open(at)
		at += time.Duration(wire.HandshakeRTTs) * p.link.RTT
		at += p.link.UpTime(up) + p.link.DownTime(down)
	}
	p.conn.Send(at, app, capture.Down, capture.KindControl)
	start := at
	at += p.link.RTT/2 + p.link.DownTime(app)
	p.tracer.Record("net.push", start, at, obs.Int("bytes", int64(app)))
	p.clock.Post(at, func() {
		if done != nil {
			done(at)
		}
	})
	return at
}
