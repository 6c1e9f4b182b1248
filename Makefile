# Standard-library-only Go repo: every target is a thin wrapper over the
# go tool so CI and humans run the same commands.

GO ?= go

.PHONY: all build check test race chaos bench des-smoke fuzz-smoke metrics-smoke serve-smoke trace-smoke sccvet sccvet-json fmt-check ci clean

all: build

build:
	$(GO) build ./...

# check is the tier-1 gate: formatting, go vet, the repo's own static
# analyzers (cmd/sccvet, all ten: the v1 determinism/concurrency/geometry
# suite plus the v2 flow-aware service-era suite), and the full test
# suite. The tree must be sccvet-clean: every surviving suppression
# carries a "//sccvet:allow <analyzer> <reason>" directive AND suppresses
# something (stale directives are findings). perfbench is a nested
# module that root ./... never reaches, so check also vets it: a change to
# the main module's API that breaks the benchmark fails here.
check: fmt-check
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...
	$(GO) run ./cmd/sccvet ./...
	$(GO) test ./...

# sccvet runs only the custom invariant analyzers (determinism,
# concurrency, cache geometry, atomic consistency, result aliasing, hash
# coverage, ctx propagation, error discard, counter drift,
# lock-across-blocking).
sccvet:
	$(GO) run ./cmd/sccvet ./...

# sccvet-json records the machine-readable findings report
# (schema sccvet-findings/1); ci archives it next to the test logs.
sccvet-json:
	$(GO) run ./cmd/sccvet -json ./... > /tmp/sccvet.json || \
		{ cat /tmp/sccvet.json; exit 1; }
	@echo "sccvet findings report written to /tmp/sccvet.json"

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# race runs the race detector over the packages with host concurrency:
# the parallel simulation engine, the experiment pipelines, and the
# goroutine-backed RCCE runtime and kernels. The experiments suite runs
# right at go test's default 10-minute limit under the race detector on
# a single-CPU host, so the timeout is raised explicitly.
race:
	$(GO) vet ./...
	$(GO) test -race -timeout 30m ./internal/sim ./internal/experiments ./internal/rcce ./internal/spmv ./internal/serve ./internal/lint

# chaos runs the fault-injection suite (internal/fault plans driven
# through the RCCE watchdog and the experiment engine's error isolation)
# under the race detector: deadlock detection, dropped/delayed messages,
# failed ranks, matrix/cell faults and cancellation paths.
chaos:
	$(GO) test -race -timeout 10m -run 'Chaos' ./internal/rcce ./internal/experiments ./internal/serve
	$(GO) test -race -timeout 10m ./internal/fault ./internal/obs

# ci is the full pre-merge pipeline: the check gate, the recorded sccvet
# findings report, the race detector over the host-concurrent packages,
# the chaos suite, the DES smoke (which proves the goroutine and
# virtual-time RCCE backends render bit-identical tables), the daemon
# smoke (which exercises the job API and result cache over real HTTP),
# the telemetry smoke (Prometheus exposition, trace export and the flight
# recorder's post-mortem path), the fuzz smoke (a short fixed run of
# every fuzz target past its seed corpus), and last the benchmark
# module's own tests.
ci: check sccvet-json race chaos des-smoke serve-smoke trace-smoke fuzz-smoke
	cd perfbench && $(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem

# des-smoke runs the executable rcce-scaling sweep once per RCCE backend
# (the goroutine oracle and the virtual-time discrete-event scheduler) on
# a tiny matrix and diffs the rendered tables byte for byte. Any engine
# divergence - a reordered message, a dropped counter, a nondeterministic
# checksum - fails the diff.
des-smoke:
	@rm -rf /tmp/des-smoke && mkdir -p /tmp/des-smoke/goroutine /tmp/des-smoke/des
	$(GO) run ./cmd/sccsim -exp rcce-scaling -scale 0.05 -max 1 -engine goroutine -outdir /tmp/des-smoke/goroutine > /dev/null
	$(GO) run ./cmd/sccsim -exp rcce-scaling -scale 0.05 -max 1 -engine des -outdir /tmp/des-smoke/des > /dev/null
	cmp /tmp/des-smoke/goroutine/rcce-scaling.txt /tmp/des-smoke/des/rcce-scaling.txt
	cmp /tmp/des-smoke/goroutine/rcce-scaling.csv /tmp/des-smoke/des/rcce-scaling.csv
	@echo "des-smoke: goroutine and des tables are bit-identical"

# fuzz-smoke runs each fuzz target for a short fixed -fuzztime beyond
# its seed corpus (which plain go test already replays): the
# MatrixMarket parser, the sccsimd job canonicaliser and the mesh
# geometry parser. A crasher is written under the package's testdata/fuzz
# and fails the target.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadMatrixMarket$$' -fuzztime 10s ./internal/sparse
	$(GO) test -run '^$$' -fuzz '^FuzzJobConfigCanonical$$' -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzParseGeometry$$' -fuzztime 10s ./internal/scc

# serve-smoke proves the sccsimd job daemon end to end: an in-process
# daemon on a loopback port runs a tiny job twice over real HTTP and
# asserts the second submission is served from the content-addressed
# result cache with byte-identical tables.
serve-smoke:
	$(GO) run ./cmd/sccsimd -selfcheck

# metrics-smoke proves the observability layer end to end: a small run
# with -metrics must emit parseable JSON with nonzero engine counters
# (UE walks, cells, cache traffic, controller contention), histogram
# invariants intact, and a Prometheus exposition that lints against the
# same snapshot.
metrics-smoke:
	$(GO) run ./cmd/sccsim -exp fig3 -scale 0.05 -metrics /tmp/m.json -metrics-prom /tmp/m.prom > /dev/null
	$(GO) run ./cmd/metricscheck -prom /tmp/m.prom /tmp/m.json

# trace-smoke proves the telemetry surfaces end to end: a loopback
# daemon runs a tiny job, /metrics must lint as Prometheus text, the
# job's trace must lint as Chrome trace-event JSON, and a fault-wedged
# job must fail with its flight-recorder tail attached (the post-mortem
# path).
trace-smoke:
	$(GO) run ./cmd/sccsimd -telemetrycheck

clean:
	$(GO) clean ./...
	rm -f cpu.pprof mem.pprof
