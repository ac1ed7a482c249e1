package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuLayers are the buckets a CPU profile is split into: one per repo
// package a workload is expected to load, plus garbage collection,
// system calls, and everything else. Their sum is cpu.total.
var cpuLayers = []string{
	"comp", "delta", "dedup", "syncnet", "watchsync", "planner", "protocol", "wire",
	"wal", "ledger", "obs", "chunker", "content", "core", "simclock", "cloud",
	"client", "netem", "trace", "cmd", "bench", "runtime_gc", "syscall", "other",
}

// profile is the part of a pprof protobuf profile the attribution
// needs: each sample's stack as function names, leaf first, and its
// values.
type profile struct {
	samples []profSample
}

type profSample struct {
	stack  []string
	values []int64
}

// parseProfile decodes a gzipped pprof profile (the perftools.profiles
// protobuf runtime/pprof writes) without external dependencies.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]int64{}    // function id → string index
		strs      []string
	)
	err = eachField(raw, func(num int, wt int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := eachField(b, func(num int, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendUvarints(s.locs, wt, v, b)
				case 2:
					for _, u := range appendUvarints(nil, wt, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, wt int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num int, wt int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &profile{}
	for _, s := range samples {
		ps := profSample{values: s.values}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcNames[fn]; idx >= 0 && idx < int64(len(strs)) {
					ps.stack = append(ps.stack, strs[idx])
				}
			}
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

// eachField walks one protobuf message, calling f with each field's
// number, wire type, varint value (wire type 0) or bytes (wire type 2).
func eachField(b []byte, f func(num, wt int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wt {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wt)
		}
		if err := f(num, wt, v, body); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// appendUvarints appends a repeated varint field, packed or not.
func appendUvarints(dst []uint64, wt int, v uint64, b []byte) []uint64 {
	if wt == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

// cpuByLayer sums a CPU profile's nanoseconds per layer. A sample is
// charged to garbage collection when its stack runs GC work, to
// syscall when a system call sits below the innermost repo frame, and
// otherwise to the innermost repo package on the stack — so standard
// library work such as flate or MD5 lands on the package that called
// it.
func cpuByLayer(p *profile) map[string]int64 {
	out := map[string]int64{}
	for _, s := range p.samples {
		if len(s.values) < 2 {
			continue
		}
		out[classify(s.stack)] += s.values[1]
	}
	return out
}

func classify(stack []string) string {
	for _, fn := range stack {
		if isGC(fn) {
			return "runtime_gc"
		}
	}
	for _, fn := range stack {
		if layer, ok := repoLayer(fn); ok {
			return layer
		}
		if strings.HasPrefix(fn, "syscall.") || strings.HasPrefix(fn, "internal/runtime/syscall.") {
			return "syscall"
		}
	}
	return "other"
}

func isGC(fn string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.scanobject", "runtime.sweepone"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// repoLayer maps a function name to its repo layer: the last element
// of its cloudsync/internal package path, "cmd" for the repo's
// commands, "bench" for this program; ok is false outside the repo.
func repoLayer(fn string) (string, bool) {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiations name other packages in brackets
	}
	switch {
	case strings.HasPrefix(fn, "main."):
		return "bench", true
	case strings.HasPrefix(fn, "cloudsync/cmd/"):
		return "cmd", true
	case !strings.HasPrefix(fn, "cloudsync/internal/"):
		return "", false
	}
	pkg := fn
	if slash := strings.LastIndexByte(pkg, '/'); slash >= 0 {
		if dot := strings.IndexByte(pkg[slash:], '.'); dot >= 0 {
			pkg = pkg[:slash+dot]
		}
		pkg = pkg[slash+1:]
	}
	for _, l := range cpuLayers {
		if l == pkg {
			return pkg, true
		}
	}
	return "other", true
}
