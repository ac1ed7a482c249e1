package main

import (
	"bytes"
	"flag"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"cloudsync/internal/comp"
	"cloudsync/internal/syncnet"
)

// TestDryRunGolden pins `syncwatch -dry-run` output byte for byte: a
// committed fixture tree and baseline plan to a stable text table. The
// fixture covers all four action kinds — a file modified since the
// baseline, a new file, a baseline entry deleted from disk, and an
// unchanged file.
func TestDryRunGolden(t *testing.T) {
	var got bytes.Buffer
	err := runDryRun(options{
		dir:      "testdata/tree",
		baseline: filepath.Join("testdata", "baseline.json"),
	}, &got)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "dryrun.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("dry-run output drifted from testdata/dryrun.golden:\n got:\n%s\nwant:\n%s",
			got.String(), want)
	}
}

// TestDryRunDeterministic: two runs over the same tree must agree —
// the golden is only meaningful if the output carries no ambient
// state (mtimes, map order, wall clock).
func TestDryRunDeterministic(t *testing.T) {
	run := func() string {
		var b bytes.Buffer
		if err := runDryRun(options{dir: "testdata/tree", baseline: "testdata/baseline.json"}, &b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("dry-run not deterministic:\n%s\nvs\n%s", a, b)
	}
}

// TestReplayCommand smoke-tests `-replay freqmod -explain`: the
// comparison must report savings and the explain tables must balance.
func TestReplayCommand(t *testing.T) {
	var out bytes.Buffer
	err := runReplay(options{
		replay: "freqmod", explain: true,
		deferMode: "asd", epsilon: 200 * time.Millisecond, tmax: 5 * time.Second,
		files: 1, edits: 4, editGap: 500 * time.Millisecond,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sync points", "client wire bytes", "TUE", "saves", "traffic by cause"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("replay output missing %q:\n%s", want, out.String())
		}
	}
}

// TestDeferFlagsValidated: out-of-range deferment flags are rejected
// before the daemon dials, and the defaults of every mode are accepted.
func TestDeferFlagsValidated(t *testing.T) {
	for _, c := range []struct {
		args []string
		ok   bool
	}{
		{nil, true},
		{[]string{"-defer", "fixed"}, true},
		{[]string{"-defer", "asd"}, true},
		{[]string{"-defer", "uds"}, true},
		{[]string{"-defer", "asd", "-tmax", "0"}, false},
		{[]string{"-defer", "asd", "-epsilon", "0"}, false},
		{[]string{"-defer", "asd", "-epsilon", "2s"}, false},
		{[]string{"-defer", "uds", "-uds-threshold", "0"}, false},
		{[]string{"-defer", "fixed", "-defer-fixed", "-1s"}, false},
	} {
		o, err := parseFlags(flag.NewFlagSet("syncwatch", flag.ContinueOnError), c.args)
		if err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		if _, err := deferConfig(o); (err == nil) != c.ok {
			t.Errorf("%v: deferConfig error = %v, want ok=%v", c.args, err, c.ok)
		}
		if !c.ok {
			o.addr = "" // would fail to dial: the defer error must come first
			o.dir, o.baseline = t.TempDir(), filepath.Join(t.TempDir(), "baseline.json")
			if err := runDaemon(o, nil); err == nil || !strings.Contains(err.Error(), "defer:") {
				t.Errorf("%v: runDaemon = %v, want the defer validation error", c.args, err)
			}
		}
	}
}

// syncGoroutines returns stacks of goroutines currently inside sync
// code — the daemon loop, executor workers, server handlers.
func syncGoroutines() []string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	var out []string
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if (strings.Contains(g, "cloudsync/internal/syncnet") ||
			strings.Contains(g, "cloudsync/internal/watchsync") ||
			strings.Contains(g, "runDaemon")) &&
			!strings.Contains(g, "runtime.Stack") &&
			!strings.Contains(g, "testing.tRunner") {
			out = append(out, g)
		}
	}
	return out
}

// TestDaemonSmoke runs the real daemon loop against an in-process
// server over TCP: create files, wait for convergence, modify, delete,
// wait again, shut down, and verify no goroutine survives.
func TestDaemonSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon smoke test sleeps on real time")
	}
	srv := syncnet.NewServer(syncnet.ServerConfig{Compression: comp.High})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)

	dir := t.TempDir()
	writeFile := func(name, content string) {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeFile("hello.txt", "hello watch mode")
	writeFile("docs/spec.md", "# spec\ncontent")

	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- runDaemon(options{
			dir:       dir,
			addr:      l.Addr().String(),
			user:      "smoke",
			device:    "smoketest",
			interval:  20 * time.Millisecond,
			debounce:  10 * time.Millisecond,
			baseline:  filepath.Join(dir, ".syncwatch", "baseline.json"),
			workers:   2,
			compress:  true,
			deferMode: "none",
		}, stop)
	}()

	waitFor := func(desc string, ok func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !ok() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s; server snapshot: %v", desc, srv.Snapshot("smoke"))
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	content := func(name string) string {
		f, ok := srv.Snapshot("smoke")[name]
		if !ok || f.Deleted {
			return ""
		}
		return string(f.Data)
	}

	waitFor("initial sync", func() bool {
		return content("hello.txt") == "hello watch mode" && content("docs/spec.md") == "# spec\ncontent"
	})
	writeFile("hello.txt", "hello watch mode, edited")
	waitFor("modify sync", func() bool { return content("hello.txt") == "hello watch mode, edited" })
	if err := os.Remove(filepath.Join(dir, "docs", "spec.md")); err != nil {
		t.Fatal(err)
	}
	waitFor("delete sync", func() bool {
		f, ok := srv.Snapshot("smoke")["docs/spec.md"]
		return ok && f.Deleted
	})

	// The baseline must have been persisted for the next generation.
	if _, err := os.Stat(filepath.Join(dir, ".syncwatch", "baseline.json")); err != nil {
		t.Fatalf("baseline not persisted: %v", err)
	}

	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("daemon exited with %v", err)
	}
	srv.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		leaked := syncGoroutines()
		if len(leaked) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutine(s) leaked:\n\n%s", len(leaked), strings.Join(leaked, "\n\n"))
		}
		time.Sleep(5 * time.Millisecond)
	}
}
