package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The self-test runs every workload at a tiny size, traced and
// untraced, and breaks each correctness gate once. Run it with
//
//	python3 perfbench/run.py --self-test
//
// which builds the tuebench binaries and points PERFBENCH_BIN at them.

// tinyConfig is a tiny run of workload with its scratch under a test
// directory.
func tinyConfig(t *testing.T, workload string, trace bool) config {
	t.Helper()
	bin := os.Getenv("PERFBENCH_BIN")
	if bin == "" {
		t.Fatal("PERFBENCH_BIN is unset: run the self-test with python3 perfbench/run.py --self-test")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	return config{
		workload: workload, seed: 7, seconds: 1, trace: trace, tiny: true,
		root: root, work: t.TempDir(),
		tuebench: filepath.Join(bin, "tuebench"), tueTest: filepath.Join(bin, "tuebench.test"),
	}
}

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer []string, workloads []string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, m := range doc.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range doc.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	for _, w := range doc.Workloads {
		workloads = append(workloads, w.Name)
	}
	return endToEnd, perLayer, workloads
}

func sortedKeys(m metrics) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	e2e, layers, names := declared(t)
	sort.Strings(e2e)
	sort.Strings(layers)
	if got := workloadNames(); strings.Join(got, ",") != strings.Join(sortedCopy(names), ",") {
		t.Fatalf("BENCHMARK.json workloads %v, program runs %v", names, got)
	}
	var code []string
	for _, m := range endToEnd {
		code = append(code, m.name)
	}
	if strings.Join(sortedCopy(code), ",") != strings.Join(e2e, ",") {
		t.Fatalf("end-to-end metrics: program %v, BENCHMARK.json %v", code, e2e)
	}
	for _, w := range names {
		for _, traced := range []bool{false, true} {
			cfg := tinyConfig(t, w, traced)
			res, err := workloads[w](cfg)
			if err == nil {
				err = res.Metrics.finite()
			}
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w, traced, err)
			}
			want := e2e
			if traced {
				want = layers
			}
			if got := sortedKeys(res.Metrics); strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("%s (traced %v) metrics:\n got %v\nwant %v", w, traced, got, want)
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s (traced %v): attempted %d, failed %d", w, traced, res.Attempted, res.Failed)
			}
			if !traced {
				for _, name := range e2e {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, name, res.Metrics[name].Value)
					}
				}
			}
		}
	}
}

func sortedCopy(s []string) []string {
	c := append([]string(nil), s...)
	sort.Strings(c)
	return c
}

// TestGatesTrip injects one mismatch per gate and expects the run to
// fail, naming the gate.
func TestGatesTrip(t *testing.T) {
	for _, tc := range []struct{ workload, inject, want string }{
		{"folder-drop", "content", "content gate"},
		{"folder-drop", "ledger", "ledger gate"},
		{"doc-edit", "content", "content gate"},
		{"doc-edit", "ledger", "ledger gate"},
		{"tuebench-quick", "golden", "differs from the golden"},
	} {
		cfg := tinyConfig(t, tc.workload, false)
		cfg.inject = tc.inject
		_, err := workloads[tc.workload](cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s with %s injected: err = %v, want one containing %q", tc.workload, tc.inject, err, tc.want)
		}
	}
}

func TestSplitRegenOutput(t *testing.T) {
	out := "A\nB\n\n[x completed in 1.5s]\n\nC\n\n[y completed in 20ms]\n\nregenerated 2 artifact(s) in 2s (2 worker(s))\n"
	tables, times, err := splitRegenOutput([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	if want := "== x ==\nA\nB\n\n== y ==\nC\n\n"; string(tables) != want {
		t.Fatalf("tables %q, want %q", tables, want)
	}
	if times["x"] != 1.5 || times["y"] != 0.02 {
		t.Fatalf("times %v", times)
	}
	if err := compareGolden(tables, []byte("== x ==\nA\nb\n\n== y ==\nC\n\n")); err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("compareGolden on a changed line: %v", err)
	}
	if _, _, err := splitRegenOutput([]byte("A\n[x completed in 1s]\n\n")); err == nil {
		t.Fatal("output without its closing summary accepted")
	}
}

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"compress/flate.(*compressor).deflate", "cloudsync/internal/comp.Compress", "cloudsync/internal/syncnet.(*session).onGet"}, "comp"},
		{[]string{"crypto/md5.block", "cloudsync/internal/store/wal.(*Log).Sync"}, "wal"},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.write", "internal/poll.(*FD).Write", "cloudsync/internal/syncnet.(*Client).send"}, "syscall"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"slices.SortFunc[go.shape.struct { cloudsync/internal/protocol.ListEntry }]", "cloudsync/internal/syncnet.(*session).onList"}, "syncnet"},
		{[]string{"runtime.schedule", "runtime.mcall"}, "other"},
		{[]string{"cloudsync/internal/parallel.Map.func1"}, "other"},
		{[]string{"main.(*folderDrop).drop"}, "bench"},
	} {
		if got := classify(tc.stack); got != tc.want {
			t.Errorf("classify(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}
