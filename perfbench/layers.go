package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"cloudsync/internal/obs/ledger"
)

// ledgerCauses are the causes the per-layer ledger metrics report.
var ledgerCauses = []ledger.Cause{
	ledger.Payload, ledger.Metadata, ledger.Framing,
	ledger.DedupProbe, ledger.DeltaLiteral, ledger.DeltaCopyRef,
}

// perLayer returns every per-layer metric at zero: a layer a workload
// leaves idle reports 0. artifacts are the tuebench artifact names.
func perLayer(artifacts []string) metrics {
	m := metrics{}
	for _, n := range []struct{ name, unit string }{
		{"watchsync.tick_ms", "ms"}, {"watchsync.poll_ms", "ms"}, {"watchsync.ticks", "count"},
		{"watchsync.source_reads_per_file", "count"}, {"watchsync.source_read_ms", "ms"},
		{"watchsync.baseline_bytes_written", "B/op"},
		{"wire.client_writes_per_file", "count"}, {"wire.server_writes_per_file", "count"},
		{"wire.client_bytes_per_file", "B"}, {"wire.client_read_wait_ms", "ms"},
		{"syncnet.inbound_wait_p50_us", "us"}, {"syncnet.inbound_wait_p99_us", "us"},
		{"syncnet.request_p50_us", "us"}, {"syncnet.request_p99_us", "us"},
		{"syncnet.apply_p50_us", "us"}, {"syncnet.apply_p99_us", "us"},
		{"syncnet.reply_wait_p50_us", "us"}, {"syncnet.reply_wait_p99_us", "us"},
		{"syncnet.download_ms", "ms"}, {"syncnet.list_ms", "ms"},
		{"fetch.files_per_s", "1/s"}, {"fetch.tue", "B/B"},
		{"wal.fsyncs_per_file", "count"}, {"wal.fsync_p50_us", "us"}, {"wal.bytes_appended_per_file", "B"},
		{"dedup.hit_ratio", "ratio"}, {"dedup.dup_share", "ratio"},
		{"runtime.alloc_bytes_per_op", "B"}, {"runtime.mallocs_per_op", "count"}, {"runtime.gc_cycles", "count"},
		{"gen.late_p50_ms", "ms"}, {"gen.late_p99_ms", "ms"},
		{"op.samples", "count"}, {"op.p90_ms", "ms"}, {"trace.overhead_pct", "%"},
	} {
		m.set(n.name, 0, n.unit)
	}
	for _, side := range []string{"client", "server"} {
		for _, c := range ledgerCauses {
			m.set("ledger."+side+"."+c.String(), 0, "B/B")
		}
	}
	for _, l := range cpuLayers {
		m.set("cpu."+l, 0, "s/op")
	}
	m.set("cpu.total", 0, "s/op")
	for _, a := range artifacts {
		m.set("tuebench."+a+"_s", 0, "s")
	}
	return m
}

// setCPU fills the cpu.* metrics from a CPU profile covering ops
// operations.
func setCPU(m metrics, gzProfile []byte, ops float64) error {
	p, err := parseProfile(gzProfile)
	if err != nil {
		return err
	}
	var total int64
	for layer, ns := range cpuByLayer(p) {
		m.set("cpu."+layer, float64(ns)/1e9/ops, "s/op")
		total += ns
	}
	m.set("cpu.total", float64(total)/1e9/ops, "s/op")
	return nil
}

// tracer collects what a traced live phase reports beyond the
// pipeline's own counters: a CPU profile and runtime memory
// statistics over the measured interval, plus counter baselines.
type tracer struct {
	prof   bytes.Buffer
	mem0   runtime.MemStats
	e      *liveEnv
	reads0 int64
	wal0   [2]int64
	led0   []ledger.Snapshot
	srv0   ledger.Snapshot
	stats0 [2]int64 // uploads, dedup skips
	cli0   [4]int64 // writes, bytes, read wait; server writes
}

// startTrace snapshots every counter the traced phase reports as a
// difference and starts the CPU profile.
func startTrace(e *liveEnv) (*tracer, error) {
	t := &tracer{e: e}
	e.ticks, e.polls, e.tickNs, e.pollNs, e.baselineBytes = 0, 0, 0, 0, 0
	t.reads0 = e.src.reads.Load()
	e.src.readNs.Store(0)
	t.wal0 = [2]int64{
		e.reg.Counter("syncd_wal_fsyncs_total", "").Value(),
		e.reg.Counter("syncd_wal_bytes_appended_total", "").Value(),
	}
	for _, l := range e.ledgers {
		t.led0 = append(t.led0, l.Snapshot())
	}
	t.srv0 = e.srvLedger.Snapshot()
	st := e.srv.Stats()
	t.stats0 = [2]int64{st.Uploads, st.DedupSkips}
	t.cli0 = [4]int64{e.cliMeter.writes.Load(), e.cliMeter.writeBytes.Load() + e.cliMeter.readBytes.Load(),
		e.cliMeter.readWaitNs.Load(), e.srvMeter.writes.Load()}
	runtime.ReadMemStats(&t.mem0)
	if err := pprof.StartCPUProfile(&t.prof); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	return t, nil
}

// stop ends the profile and fills the live per-layer metrics for a
// phase of ops operations carrying updateBytes of user update.
func (t *tracer) stop(m metrics, ops float64, updateBytes int64) error {
	pprof.StopCPUProfile()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	e := t.e
	if err := setCPU(m, t.prof.Bytes(), ops); err != nil {
		return err
	}
	m.set("runtime.alloc_bytes_per_op", float64(mem.TotalAlloc-t.mem0.TotalAlloc)/ops, "B")
	m.set("runtime.mallocs_per_op", float64(mem.Mallocs-t.mem0.Mallocs)/ops, "count")
	m.set("runtime.gc_cycles", float64(mem.NumGC-t.mem0.NumGC), "count")

	ms := func(ns int64, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(ns) / 1e6 / float64(n)
	}
	m.set("watchsync.tick_ms", ms(e.tickNs, e.ticks), "ms")
	m.set("watchsync.poll_ms", ms(e.pollNs, e.polls), "ms")
	m.set("watchsync.ticks", float64(e.ticks), "count")
	reads := e.src.reads.Load() - t.reads0
	m.set("watchsync.source_reads_per_file", float64(reads)/ops, "count")
	m.set("watchsync.source_read_ms", ms(e.src.readNs.Load(), reads), "ms")
	m.set("watchsync.baseline_bytes_written", float64(e.baselineBytes)/ops, "B/op")

	m.set("wire.client_writes_per_file", float64(e.cliMeter.writes.Load()-t.cli0[0])/ops, "count")
	m.set("wire.client_bytes_per_file",
		float64(e.cliMeter.writeBytes.Load()+e.cliMeter.readBytes.Load()-t.cli0[1])/ops, "B")
	m.set("wire.client_read_wait_ms", float64(e.cliMeter.readWaitNs.Load()-t.cli0[2])/1e6/ops, "ms")
	m.set("wire.server_writes_per_file", float64(e.srvMeter.writes.Load()-t.cli0[3])/ops, "count")

	for _, h := range []struct{ name, hist string }{
		{"inbound_wait", "syncd_inbound_queue_wait_us"},
		{"request", "syncd_request_duration_us"},
		{"apply", "syncd_apply_us"},
		{"reply_wait", "syncnet_client_reply_wait_us"},
	} {
		hist := e.reg.Histogram(h.hist, "")
		m.set("syncnet."+h.name+"_p50_us", float64(hist.Quantile(0.5)), "us")
		m.set("syncnet."+h.name+"_p99_us", float64(hist.Quantile(0.99)), "us")
	}
	m.set("wal.fsyncs_per_file", float64(e.reg.Counter("syncd_wal_fsyncs_total", "").Value()-t.wal0[0])/ops, "count")
	m.set("wal.bytes_appended_per_file",
		float64(e.reg.Counter("syncd_wal_bytes_appended_total", "").Value()-t.wal0[1])/ops, "B")
	m.set("wal.fsync_p50_us", float64(e.reg.Histogram("syncd_wal_fsync_duration_us", "").Quantile(0.5)), "us")

	st := e.srv.Stats()
	if up := st.Uploads - t.stats0[0]; up > 0 {
		m.set("dedup.hit_ratio", float64(st.DedupSkips-t.stats0[1])/float64(up), "ratio")
	}

	if updateBytes > 0 {
		var cli ledger.Snapshot
		for i := range e.workers { // device 1: the first clients dialed
			now := e.ledgers[i].Snapshot()
			for j := range cli {
				cli[j] += now[j] - t.led0[i][j]
			}
		}
		srv := e.srvLedger.Snapshot()
		for _, c := range ledgerCauses {
			m.set("ledger.client."+c.String(), float64(cli.Get(c))/float64(updateBytes), "B/B")
			m.set("ledger.server."+c.String(), float64(srv.Get(c)-t.srv0.Get(c))/float64(updateBytes), "B/B")
		}
	}
	return nil
}

// msSince is the milliseconds elapsed since t0.
func msSince(t0 time.Time) float64 { return float64(time.Since(t0)) / 1e6 }
