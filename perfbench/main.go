// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload for a fixed time, checks the system's outputs, and
// prints one JSON result line:
//
//	perfbench -workload folder-drop -seed 1 -seconds 20 -trace 0 \
//	    -root . -work .bench_build/work -tuebench .bench_build/tuebench \
//	    -tuebench-test .bench_build/tuebench.test
//
// Normally run.py in this directory builds the binaries and calls it;
// README.md there describes the workloads and every metric.
//
// Workloads:
//
//   - folder-drop: closed-loop bursts of small trace-calibrated files
//     synced by watchsync.Pipeline to an in-process durable syncnet
//     server, then listed and downloaded by a second device.
//   - doc-edit: an open loop of small edits to MiB-sized text files,
//     synced with two executor connections (the delta path).
//   - tuebench-quick: the built `tuebench -quick`, its tables compared
//     with cmd/tuebench/testdata/quick.golden.
//
// With -trace 0 the result holds the end-to-end metrics; with -trace 1
// it holds the per-layer metrics of a traced run, whose first half is
// an untraced run of the same workload (for trace.overhead_pct).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // checkout root: the golden and cmd/tuebench live here
	work     string // scratch directory for trees, server state, profiles
	tuebench string // built cmd/tuebench binary
	tueTest  string // built cmd/tuebench test binary (traced runs)
	tiny     bool   // small sizes (self-test only)
	inject   string // break one gate: "content", "ledger" or "golden" (self-test only)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// finite reports the first metric that is not a finite number: a
// latency percentile landing on a failed operation reads +Inf, and the
// run then counts as failed rather than reporting it.
func (m metrics) finite() error {
	for name, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, v.Value)
		}
	}
	return nil
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// endToEnd lists the untraced metrics every workload reports, with
// their units; BENCHMARK.json at the repository root lists the same.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"tue", "B/B"},
	{"cpu_ms_per_op", "ms"},
	{"rss_mb", "MB"},
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(config) (result, error){
	"folder-drop":    runFolderDrop,
	"doc-edit":       runDocEdit,
	"tuebench-quick": runRegen,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (folder-drop, doc-edit, tuebench-quick)")
	flag.Int64Var(&cfg.seed, "seed", 1, "input generation seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured time per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "repository checkout root")
	flag.StringVar(&cfg.work, "work", "", "scratch directory (required; removed on exit)")
	flag.StringVar(&cfg.tuebench, "tuebench", "", "built tuebench binary")
	flag.StringVar(&cfg.tueTest, "tuebench-test", "", "built tuebench test binary (traced tuebench-quick runs)")
	flag.Parse()
	cfg.trace = trace == 1

	run, ok := workloads[cfg.workload]
	if !ok || cfg.work == "" || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -work, -seconds > 0 and -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	res, err := run(cfg)
	if err == nil {
		err = res.Metrics.finite()
	}
	if rerr := os.RemoveAll(cfg.work); rerr != nil && err == nil {
		err = rerr
	}
	if err != nil {
		// A failed gate or run is never reported as a number.
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		res.Correct = false
		res.Metrics = metrics{}
		if res.Failed == 0 {
			res.Failed = 1
		}
		if res.Attempted < res.Failed {
			res.Attempted = res.Failed
		}
		printResult(res)
		os.Exit(1)
	}
	res.Correct = true
	printResult(res)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func printResult(res result) {
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// quantile is the linear-interpolation quantile of sorted values
// (Python's statistics.quantiles "inclusive" method at q). It returns
// +Inf when the rank lands on a failed operation, which is stored as
// +Inf: a failed operation misses every latency limit.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if math.IsInf(sorted[hi], 1) {
		return math.Inf(1)
	}
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// median of unsorted values (the slice is sorted in place).
func median(v []float64) float64 {
	sort.Float64s(v)
	return quantile(v, 0.5)
}
