package main

import (
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"cloudsync/internal/core"
	"cloudsync/internal/obs"
)

// TestQuickGoldenWithTracing re-renders the full -quick table set with
// a live tracer installed and pins it against the same golden as the
// untraced run: instrumentation must never perturb simulated results.
// A tracing-induced divergence — an extra RNG draw, a reordered pass,
// a span leaking into output — fails here byte-for-byte.
func TestQuickGoldenWithTracing(t *testing.T) {
	// The experiment pool runs cells on several goroutines, so the
	// clock they all read must be safe for concurrent use.
	var clock atomic.Int64
	tr := obs.NewSimTracer(func() time.Duration { return time.Duration(clock.Add(int64(time.Microsecond))) })
	core.SetTracer(tr)
	defer core.SetTracer(nil)

	got := quickTables()
	want, err := os.ReadFile(filepath.Join("testdata", "quick.golden"))
	if err != nil {
		t.Fatalf("reading golden snapshot: %v", err)
	}
	if got != string(want) {
		t.Fatal("tuebench -quick output changed when tracing was enabled; " +
			"instrumentation must be invisible to simulated results " +
			"(run TestQuickGolden for the line-level diff)")
	}
	if len(tr.Spans()) == 0 {
		t.Fatal("tracer recorded no spans — the traced run was not actually traced")
	}
}
