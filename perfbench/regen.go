package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupSamples is how many times tuebench's start-up is timed, after
// one untimed start that warms the page cache.
const setupSamples = 21

// regenRun is one `tuebench -quick` execution.
type regenRun struct {
	wall      time.Duration
	cpu       time.Duration
	rssMB     float64            // mean resident set
	artifacts map[string]float64 // seconds, from its "[name completed in d]" lines
	tue       float64            // the reference design's trace-replay TUE
}

// runRegen is the tuebench-quick workload: regenerate every table with
// the built binary until seconds have passed (at least twice), each
// output checked against the golden.
func runRegen(cfg config) (result, error) {
	var res result
	golden, err := readGolden(cfg)
	if err != nil {
		return res, err
	}
	if cfg.inject == "golden" {
		golden = bytes.Replace(golden, []byte("Reference"), []byte("Refer3nce"), 1)
	}
	artifacts := goldenSections(golden)
	seconds := cfg.seconds
	if cfg.trace {
		seconds /= 2
	}

	var setups []float64
	for i := 0; i <= setupSamples; i++ {
		t0 := time.Now()
		if out, err := exec.Command(cfg.tuebench, "-list").Output(); err != nil || len(out) == 0 {
			return res, fmt.Errorf("tuebench -list: %v", err)
		}
		if i > 0 {
			setups = append(setups, time.Since(t0).Seconds())
		}
	}

	var runs []regenRun
	start := time.Now()
	for len(runs) < 2 || time.Since(start).Seconds() < seconds {
		res.Attempted++
		r, err := regenerate(cfg, golden)
		if err != nil {
			res.Failed++
			return res, err
		}
		runs = append(runs, r)
		if cfg.tiny {
			break
		}
	}

	var walls []float64
	var cpuSum time.Duration
	var rss []float64
	for _, r := range runs {
		walls = append(walls, float64(r.wall)/1e6)
		cpuSum += r.cpu
		rss = append(rss, r.rssMB)
	}
	sort.Float64s(walls)
	fmt.Printf("tuebench-quick: %d regenerations, wall ms %v\n", len(runs), walls)

	if !cfg.trace {
		m := metrics{}
		m.set("setup_s", median(setups), "s")
		m.set("ops_per_s", float64(len(artifacts))/(quantile(walls, 0.5)/1000), "1/s")
		m.set("op_p50_ms", quantile(walls, 0.5), "ms")
		m.set("tue", runs[0].tue, "B/B")
		m.set("cpu_ms_per_op", float64(cpuSum)/1e6/float64(len(runs)), "ms")
		m.set("rss_mb", median(rss), "MB")
		res.Metrics = m
		return res, nil
	}

	m := perLayer(artifacts)
	for _, a := range artifacts {
		var v []float64
		for _, r := range runs {
			v = append(v, r.artifacts[a])
		}
		m.set("tuebench."+a+"_s", median(v), "s")
	}
	res.Attempted++
	prof, err := profileRegen(cfg, m)
	if err != nil {
		res.Failed++
		return res, err
	}
	m.set("trace.overhead_pct", overheadPct(quantile(walls, 0.5), float64(prof)/1e6), "%")
	m.set("op.samples", float64(len(runs)), "count")
	m.set("op.p90_ms", quantile(walls, 0.9), "ms")
	res.Metrics = m
	return res, nil
}

// regenerate runs `tuebench -quick` once and checks its tables against
// the golden.
func regenerate(cfg config, golden []byte) (regenRun, error) {
	var r regenRun
	var tables []byte
	var artifacts map[string]float64
	cmd := exec.Command(cfg.tuebench, "-quick")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return r, fmt.Errorf("tuebench -quick: %w", err)
	}
	rss := sampleRSS(cmd.Process.Pid)
	err := cmd.Wait()
	r.wall = time.Since(t0)
	r.rssMB = rss.meanMB()
	if err != nil {
		return r, fmt.Errorf("tuebench -quick: %w", err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	tables, artifacts, err = splitRegenOutput(stdout.Bytes())
	if err != nil {
		return r, err
	}
	if err := compareGolden(tables, golden); err != nil {
		return r, err
	}
	r.artifacts = artifacts
	r.tue, err = referenceTUE(tables)
	return r, err
}

var completedRE = regexp.MustCompile(`^\[(\S+) completed in (\S+)\]$`)

// splitRegenOutput turns tuebench's stdout into the golden's layout —
// each artifact's table under a "== name ==" header — and collects the
// per-artifact times from the "[name completed in d]" lines, which are
// dropped together with the blank line after each and the final
// "regenerated" summary.
func splitRegenOutput(out []byte) ([]byte, map[string]float64, error) {
	var tables bytes.Buffer
	times := map[string]float64{}
	var block []string
	lines := strings.Split(string(out), "\n")
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		m := completedRE.FindStringSubmatch(line)
		if m == nil {
			block = append(block, line)
			continue
		}
		d, err := time.ParseDuration(m[2])
		if err != nil {
			return nil, nil, fmt.Errorf("tuebench timing line %q: %w", line, err)
		}
		times[m[1]] = d.Seconds()
		// Println(table) then the timing line: the block ends with the
		// table's own trailing newline (an empty last element).
		fmt.Fprintf(&tables, "== %s ==\n%s\n", m[1], strings.Join(block, "\n"))
		block = nil
		if i+1 < len(lines) && lines[i+1] == "" {
			i++ // the blank line after the timing line
		}
	}
	if len(block) == 0 || !strings.HasPrefix(block[0], "regenerated ") {
		return nil, nil, errors.New("tuebench output lacks its closing summary")
	}
	return tables.Bytes(), times, nil
}

// compareGolden checks tables byte for byte against the golden and
// names the first differing line.
func compareGolden(tables, golden []byte) error {
	if bytes.Equal(tables, golden) {
		return nil
	}
	got, want := strings.Split(string(tables), "\n"), strings.Split(string(golden), "\n")
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			return fmt.Errorf("tuebench output differs from the golden at line %d: got %q, want %q", i+1, g, w)
		}
	}
	return errors.New("tuebench output differs from the golden")
}

// readGolden reads cmd/tuebench/testdata/quick.golden.
func readGolden(cfg config) ([]byte, error) {
	return os.ReadFile(filepath.Join(cfg.root, "cmd", "tuebench", "testdata", "quick.golden"))
}

// goldenSections lists the artifact names in golden order.
func goldenSections(golden []byte) []string {
	var names []string
	for _, line := range strings.Split(string(golden), "\n") {
		if strings.HasPrefix(line, "== ") && strings.HasSuffix(line, " ==") {
			names = append(names, strings.TrimSuffix(strings.TrimPrefix(line, "== "), " =="))
		}
	}
	return names
}

// referenceTUE reads the reference design's TUE from the replay table
// (the column under the "TUE" header).
func referenceTUE(tables []byte) (float64, error) {
	lines := strings.Split(string(tables), "\n")
	col := -1
	inReplay := false
	for _, line := range lines {
		switch {
		case line == "== replay ==":
			inReplay = true
		case strings.HasPrefix(line, "== "):
			inReplay = false
		case inReplay && strings.HasPrefix(line, "Service "):
			col = strings.Index(line, " TUE ") + 1
		case inReplay && col > 0 && strings.HasPrefix(line, "Reference ") && len(line) > col:
			f := strings.Fields(line[col:])
			if len(f) > 0 {
				return strconv.ParseFloat(f[0], 64)
			}
		}
	}
	return 0, errors.New("replay table has no Reference TUE")
}

// profileRegen runs the golden test of cmd/tuebench once — the same
// quick regeneration, in-process — under the CPU and heap profilers and
// a GC trace, fills the cpu.* and runtime.* metrics per regeneration,
// and returns the test's wall time.
func profileRegen(cfg config, m metrics) (time.Duration, error) {
	cpuProf := filepath.Join(cfg.work, "regen-cpu.pprof")
	memProf := filepath.Join(cfg.work, "regen-mem.pprof")
	abs := func(p string) string {
		a, err := filepath.Abs(p)
		if err != nil {
			return p
		}
		return a
	}
	cmd := exec.Command(abs(cfg.tueTest), "-test.run", "^TestQuickGolden$", "-test.count", "1",
		"-test.cpuprofile", abs(cpuProf), "-test.memprofile", abs(memProf))
	cmd.Dir = filepath.Join(cfg.root, "cmd", "tuebench")
	cmd.Env = append(os.Environ(), "GODEBUG=gctrace=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	t0 := time.Now()
	if out, err := cmd.Output(); err != nil {
		return 0, fmt.Errorf("tuebench golden test: %v\n%s%s", err, out, stderr.Bytes())
	}
	wall := time.Since(t0)

	raw, err := os.ReadFile(cpuProf)
	if err != nil {
		return 0, err
	}
	if err := setCPU(m, raw, 1); err != nil {
		return 0, err
	}
	raw, err = os.ReadFile(memProf)
	if err != nil {
		return 0, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return 0, err
	}
	var objects, space int64
	for _, s := range p.samples {
		if len(s.values) >= 2 {
			objects += s.values[0]
			space += s.values[1]
		}
	}
	m.set("runtime.alloc_bytes_per_op", float64(space), "B")
	m.set("runtime.mallocs_per_op", float64(objects), "count")
	gcs := 0
	for _, line := range strings.Split(stderr.String(), "\n") {
		if strings.HasPrefix(line, "gc ") {
			gcs++
		}
	}
	m.set("runtime.gc_cycles", float64(gcs), "count")
	return wall, nil
}
