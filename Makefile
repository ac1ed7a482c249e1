GO ?= go

.PHONY: check build vet test race bench bench-obs bench-core bench-scale bench-diff bench-kernel-diff bench-load bench-load-diff tuebench

# check is the full gate: compile everything, vet, and run the test
# suite under the race detector (the experiment layer is concurrent).
check: build vet race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -benchtime=1x -run=^$$ ./...

# bench-obs measures the observability tax: every <Base>Off/<Base>On
# benchmark pair (nil tracer/registry vs instrumented) across the obs
# primitives and the syncnet hot path, summarised as overhead
# percentages in BENCH_obs.json. Target: spans/counters on the nil
# path free, instrumented sync path within a few percent.
bench-obs:
	$(GO) test -bench 'ObsO(ff|n)$$' -benchmem -run '^$$' \
		./internal/obs ./internal/syncnet \
		| $(GO) run ./internal/obs/benchjson > BENCH_obs.json
	cat BENCH_obs.json

# KERNEL_PKGS are the data-plane kernel packages (chunking and delta
# scan); KERNEL_FILTER selects their entries out of BENCH_core.json for
# the failing throughput gate. Kernels run at a real -benchtime (unlike
# the 1x experiment tables) so the recorded MB/s figures are stable.
KERNEL_PKGS = ./internal/chunker ./internal/delta
KERNEL_FILTER = ^(Fixed$$|ContentDefined|Delta|WeakSum$$)

# bench-core records the experiment-table baseline — every root-package
# benchmark (the paper tables and figures) at -benchtime 1x — plus the
# chunker/delta kernel benchmarks at a real benchtime with their MB/s
# captured, dumped together into BENCH_core.json. ns/op is
# machine-dependent — the trajectory to watch is allocation counts,
# relative shape, and kernel throughput ratios.
bench-core:
	{ $(GO) test -bench . -benchmem -benchtime 1x -run '^$$' . ; \
	  $(GO) test -bench . -benchmem -benchtime 0.5s -run '^$$' $(KERNEL_PKGS) ; } \
		| $(GO) run ./internal/obs/benchjson -raw > BENCH_core.json
	cat BENCH_core.json

# bench-scale records the multi-tenant scale-replay baseline: the trace
# replayed at 8× synthetic user multiples on the sharded index/cloud,
# reporting wall time, heap growth, peak RSS, and per-service TUE
# (which must match the 1× baseline exactly) into BENCH_scale.json.
bench-scale:
	$(GO) run ./cmd/tuebench scale -n 8 \
		| $(GO) run ./internal/obs/benchjson -raw > BENCH_scale.json
	cat BENCH_scale.json

# bench-diff re-measures the core benchmarks and diffs their allocation
# counts against the committed BENCH_core.json baseline. Exit 1 on a
# regression beyond the tolerance; CI runs this warn-only.
bench-diff:
	{ $(GO) test -bench . -benchmem -benchtime 1x -run '^$$' . ; \
	  $(GO) test -bench . -benchmem -benchtime 0.5s -run '^$$' $(KERNEL_PKGS) ; } \
		| $(GO) run ./internal/obs/benchjson -raw > /tmp/bench_core_new.json
	$(GO) run ./internal/obs/benchjson -compare BENCH_core.json /tmp/bench_core_new.json -tolerance-pct 10

# bench-kernel-diff is the failing CI gate on the data-plane kernels:
# re-measure only the chunker/delta benchmarks and diff allocation
# counts (tight, machine-independent) and MB/s throughput (loose —
# absolute throughput moves with the machine, so the 50% default only
# catches falling off an algorithmic cliff: losing the gear-hash skip
# scan, the tag bitmap, or the batched hashing is a 2–10x drop) against
# the kernel entries of BENCH_core.json.
bench-kernel-diff:
	$(GO) test -bench . -benchmem -benchtime 0.5s -run '^$$' $(KERNEL_PKGS) \
		| $(GO) run ./internal/obs/benchjson -raw > /tmp/bench_kernel_new.json
	$(GO) run ./internal/obs/benchjson -compare BENCH_core.json /tmp/bench_kernel_new.json \
		-tolerance-pct 10 -throughput-tolerance-pct 50 -filter '$(KERNEL_FILTER)'

# bench-load records the live-sync throughput baseline: syncload drives
# open-loop arrivals of small-file batches against an in-process syncd
# over real TCP in both modes (lockstep, bundle) at a rate past
# lockstep saturation, verifying ledger exactness as it goes, and
# writes sustained req/s, latency quantiles, and peak RSS per mode into
# BENCH_load.json. The headline is the shape: bundle mode must sustain
# a multiple of lockstep's files/s at equal-or-better p99.
SYNCLOAD_ARGS = -accounts 256 -rate 8000 -duration 4s -batch 8 \
	-max-size 4096 -seed 1 -check -quiet

bench-load:
	$(GO) run ./cmd/syncload $(SYNCLOAD_ARGS) -json BENCH_load.json
	cat BENCH_load.json

# bench-load-diff re-runs the load scenario and diffs it against the
# committed BENCH_load.json: a sustained-throughput drop or p99 growth
# beyond the tolerance fails. Load numbers are noisier than allocation
# counts, hence the loose tolerance; CI runs this warn-only.
bench-load-diff:
	$(GO) run ./cmd/syncload $(SYNCLOAD_ARGS) -json /tmp/bench_load_new.json
	$(GO) run ./internal/obs/benchjson -compare BENCH_load.json /tmp/bench_load_new.json -tolerance-pct 30

tuebench:
	$(GO) run ./cmd/tuebench -quick
