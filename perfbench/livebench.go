package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"cloudsync/internal/obs/ledger"
)

// setupRuns is how many times a live workload's set-up is timed; the
// median is setup_s.
const setupRuns = 5

// phase is what one measured stretch of a live workload produced.
type phase struct {
	ops               int64         // operations completed
	attempted, failed int64         // operations tried / not completed
	opsPerSec         float64       // throughput, as the workload defines it
	lat               []float64     // per-operation latency, ms, sorted once measured
	updateBytes       int64         // bytes of user update
	dev1Wire          int64         // device 1's wire bytes, both directions
	cpu               time.Duration // process CPU time
	rssMB             float64       // mean resident set while measuring
	layers            metrics       // workload-specific per-layer values
}

// liveWorkload is a live workload: its deployment shape, and a prepare
// step (part of set-up) returning the measurement and the final
// correctness check for that deployment.
type liveWorkload struct {
	workers int
	dev2    bool
	prepare func(e *liveEnv, cfg config) (measure func(seconds float64) (phase, error), verify func() error, err error)
}

// runLive runs a live workload. Untraced, it times setupRuns set-ups,
// the last of which it measures; traced, it measures half the time
// untraced and half traced, and reports the traced half's per-layer
// metrics.
func runLive(cfg config, w liveWorkload) (result, error) {
	var res result
	if !cfg.trace {
		var setups []float64
		for len(setups) < setupRuns-1 {
			d, err := timeSetup(cfg, w)
			if err != nil {
				return res, err
			}
			setups = append(setups, d.Seconds())
		}
		ph, setup, err := livePhase(cfg, w, cfg.seconds, false, nil)
		res.Attempted, res.Failed = ph.attempted, ph.failed
		if err != nil {
			return res, err
		}
		setups = append(setups, setup.Seconds())
		m := metrics{}
		m.set("setup_s", median(setups), "s")
		setEndToEnd(m, ph)
		res.Metrics = m
		fmt.Printf("%s: %d ops, %d latency samples, setup runs %v\n", cfg.workload, ph.ops, len(ph.lat), setups)
		return res, nil
	}

	base, _, err := livePhase(cfg, w, cfg.seconds/2, false, nil)
	res.Attempted, res.Failed = base.attempted, base.failed
	if err != nil {
		return res, err
	}
	golden, err := readGolden(cfg)
	if err != nil {
		return res, err
	}
	m := perLayer(goldenSections(golden))
	ph, _, err := livePhase(cfg, w, cfg.seconds/2, true, m)
	res.Attempted += ph.attempted
	res.Failed += ph.failed
	if err != nil {
		return res, err
	}
	for k, v := range ph.layers {
		m[k] = v
	}
	untraced, traced := metrics{}, metrics{}
	setEndToEnd(untraced, base)
	setEndToEnd(traced, ph)
	m.set("trace.overhead_pct", overheadPct(untraced["op_p50_ms"].Value, traced["op_p50_ms"].Value), "%")
	m.set("op.samples", float64(len(ph.lat)), "count")
	m.set("op.p90_ms", quantile(ph.lat, 0.9), "ms")
	res.Metrics = m
	return res, nil
}

// overheadPct is how much slower the traced median is, in percent.
func overheadPct(untraced, traced float64) float64 {
	if untraced == 0 {
		return 0
	}
	return (traced/untraced - 1) * 100
}

// setEndToEnd fills the end-to-end metrics a phase determines.
func setEndToEnd(m metrics, ph phase) {
	m.set("ops_per_s", ph.opsPerSec, "1/s")
	m.set("op_p50_ms", quantile(ph.lat, 0.5), "ms")
	m.set("tue", float64(ph.dev1Wire)/float64(ph.updateBytes), "B/B")
	m.set("cpu_ms_per_op", float64(ph.cpu)/1e6/float64(ph.ops), "ms")
	m.set("rss_mb", ph.rssMB, "MB")
}

// livePhase sets up a fresh deployment, measures it for seconds, checks
// its output and ledgers, and tears it down. With layers non-nil the
// phase is traced and fills them.
func livePhase(cfg config, w liveWorkload, seconds float64, traced bool, layers metrics) (phase, time.Duration, error) {
	// Deployments stay on disk until the run ends and main removes the
	// scratch directory: deleting hundreds of MiB between phases would
	// put that I/O inside the next phase's measurement.
	dir, err := os.MkdirTemp(cfg.work, "live-")
	if err != nil {
		return phase{}, 0, err
	}
	runtime.GC() // every set-up starts from a collected heap
	t0 := time.Now()
	e, err := openEnv(dir, w.workers, w.dev2, traced)
	if err != nil {
		return phase{}, 0, err
	}
	defer e.close()
	measure, verify, err := w.prepare(e, cfg)
	if err != nil {
		return phase{}, 0, fmt.Errorf("set-up: %w", err)
	}
	setup := time.Since(t0)

	var tr *tracer
	if traced {
		if tr, err = startTrace(e); err != nil {
			return phase{}, setup, err
		}
	}
	cpu0, wire0 := cpuTime(), e.dev1Wire()
	rss := sampleRSS(os.Getpid())
	ph, err := measure(seconds)
	ph.rssMB = rss.meanMB()
	sort.Float64s(ph.lat)
	ph.cpu = cpuTime() - cpu0
	ph.dev1Wire = e.dev1Wire() - wire0
	if traced {
		if serr := tr.stop(layers, float64(ph.ops), ph.updateBytes); err == nil {
			err = serr
		}
	}
	if err != nil {
		return ph, setup, err
	}
	if ph.ops == 0 || ph.updateBytes == 0 {
		return ph, setup, fmt.Errorf("no operation completed in %.1f s", seconds)
	}
	if err := verify(); err != nil {
		return ph, setup, fmt.Errorf("content gate: %w", err)
	}
	if cfg.inject == "ledger" {
		e.srvLedger.Add(ledger.Framing, 1)
	}
	if err := e.close(); err != nil {
		return ph, setup, fmt.Errorf("ledger gate: %w", err)
	}
	return ph, setup, nil
}

// timeSetup times one more set-up of the workload on a fresh
// deployment, then tears it down (the ledger gates still apply).
func timeSetup(cfg config, w liveWorkload) (time.Duration, error) {
	dir, err := os.MkdirTemp(cfg.work, "setup-")
	if err != nil {
		return 0, err
	}
	runtime.GC()
	t0 := time.Now()
	e, err := openEnv(dir, w.workers, w.dev2, false)
	if err != nil {
		return 0, err
	}
	_, _, err = w.prepare(e, cfg)
	d := time.Since(t0)
	if cerr := e.close(); err == nil && cerr != nil {
		err = fmt.Errorf("ledger gate: %w", cerr)
	}
	return d, err
}
