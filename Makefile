GO ?= go
SMOKEDIR ?= .smoke

.PHONY: ci fmt vet build test race fuzz chaos bench-compare bench-resident profile-smoke footprint-guard cas-battery net-chaos smoke

# ci is the tier-1 gate: everything must stay green, including the race
# detector over the worker pool, the observability counters, the
# crash/chaos robustness walk, the flight-recorder regression check on
# the example project (which is also the skip-rate tripwire: `regress
# -min-skip-rate`), the critical-path profiler end-to-end check, the
# footprint guard (honest builds must produce zero missed invalidations),
# the shared-cache battery (two clients over one CAS must match the
# stateless oracle at every commit), and the network-adversity battery
# (every client↔server exchange failed every way must still produce
# oracle-identical builds), and one iteration of the resident-rebuild
# benchmark (so the benchmark the profiling recipe names keeps running).
ci: fmt vet build test race chaos smoke profile-smoke footprint-guard cas-battery net-chaos bench-resident

# fmt fails when any file is not gofmt-clean (it lists them, changes none).
fmt:
	@test -z "$$(gofmt -l .)" || { gofmt -l . >&2; echo "fmt: run gofmt -w on the files above" >&2; exit 1; }

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test -timeout 10m ./...

# race exercises the parallel build engine (including the obs counters
# registry and tracer under concurrent workers), the daemon's drain path,
# and the workload differential suite under the race detector — and the
# compile path itself: every worker reuses scratch memory (the frontend's
# token buffer and tables, the IR arena its modules are cut from, the
# passes' and code generation's dense side tables) from unit to unit, which
# is shared state the moment two workers can reach one scratch
# (internal/compiler's TestDirtyScratchAcrossWorkers runs 1, 2 and 4
# workers over one snapshot) — and the VM that runs what the
# compile path made: linked functions share their argument pools, read-only,
# with the cached objects they were linked from. The flight recorder is in
# the list for what it shares across processes, not goroutines: its append,
# its readers and the two-process append test run here too. So is the IR
# and its fingerprint: the fingerprint's pooled scratch is the one structure
# that package shares between workers (TestFunctionConcurrent). So is the
# state codec and its save, all of whose tests run here (`make chaos` runs
# its walks only). So is the fault core every injector logs its calls
# through from concurrent workers, and the oracle driver the differential
# batteries walk their candidates with.
race:
	$(GO) test -race -timeout 15m ./internal/buildsys/... ./internal/obs/... ./internal/history/... ./internal/workload ./internal/footprint ./internal/cas ./internal/state/... ./internal/faults/... ./internal/oracletest ./cmd/minibuild
	$(GO) test -race -timeout 15m ./internal/passes/... ./internal/core/... ./internal/codegen/... ./internal/vm/... ./internal/analysis/... ./internal/compiler/... ./internal/fingerprint/... ./internal/ir/...
	$(GO) test -race -timeout 15m ./internal/lexer/... ./internal/parser/... ./internal/types/... ./internal/irbuild/...

# fuzz runs the fingerprint stability/sensitivity fuzzer for a short burst
# beyond its committed corpus.
fuzz:
	$(GO) test -fuzz FuzzFingerprintStability -fuzztime 30s ./internal/fingerprint

# chaos is the robustness gate (docs/ROBUSTNESS.md): the fault core the
# injectors share (its rules, occurrence numbering and schedule golden),
# the fault-injection walks over every state/history I/O call (under the
# race detector, since faults land on concurrent worker paths) and over the
# flight recorder's append that reads nothing (TestAppender), the state
# save's shape (one
# write path: in place, no temp file, rename or sync; the file is old, new,
# or rejected) and its torn-overwrite check,
# the execution-fault walk — pass
# panics, a nondeterministic pass caught by the soundness sentinel,
# cancellation mid-build, a plan across the disk, wire and pass injectors
# in one build sequence, and the daemon's SIGTERM drain — plus a burst of
# every fuzz target: the attacker-grade parsers (the state decoder, the IR
# fingerprinter, the cache's keys, blob and wire decoders, the reader of a
# history file's end — whatever a crash or another writer left there — and
# the frontend, on a fresh scratch and on one a file before it left full or
# stopped mid-way), the compiler's depth-0 split of a unit into declarations
# against the parser's (it agrees or declines; a new input is minimized for
# at most 100 runs, or minimizing the many the splitter's branches turn up
# takes the whole burst), the optimizer against the unoptimized program, and the skip
# rule itself (an edit compiled under each of the four arms — stateless,
# dormancy records alone over their state written and read back, segment
# replay alone and both over their in-memory state — every skip and replay
# audited, must equal a stateless compile; and an edit of one unit built
# by resident and per-commit builders must link the stateless program — its inputs are
# minimized for at most 100 runs, or minimizing one input, each run a dozen
# builds, takes the whole burst). TestMakefileFuzzesEveryTarget holds this list
# to the fuzz targets in the tree, TestMakefileRunPatternsMatch every -run
# pattern here to tests that exist.
chaos:
	$(GO) test -race -timeout 15m ./internal/vfs/... ./internal/faults/...
	$(GO) test -race -timeout 15m -run 'TestChaos|TestSaveWritesInPlace|TestEveryTornOverwriteIsRejected|TestAppender' ./internal/state ./internal/history ./internal/buildsys
	$(GO) test -race -timeout 15m -run 'TestPanic|TestSentinel|TestCancelled|TestAudited|TestWarnf|TestCrossLayer' ./internal/buildsys
	$(GO) test -race -timeout 15m -run 'TestServeSIGTERMDrain|TestServePollSkipsOverlap' ./cmd/minibuild
	$(GO) test -fuzz FuzzStateDecode -fuzztime 30s ./internal/state
	$(GO) test -fuzz FuzzHistoryTail -fuzztime 20s ./internal/history
	$(GO) test -fuzz FuzzFootprintDecode -fuzztime 30s ./internal/footprint
	$(GO) test -fuzz FuzzFingerprintStability -fuzztime 30s ./internal/fingerprint
	$(GO) test -fuzz FuzzCASBlobDecode -fuzztime 20s ./internal/cas
	$(GO) test -fuzz FuzzCASObjectDecode -fuzztime 20s ./internal/cas
	$(GO) test -fuzz FuzzCASWire -fuzztime 20s ./internal/cas
	$(GO) test -run '^$$' -fuzz '^FuzzCASKey$$' -fuzztime 10s ./internal/cas
	$(GO) test -run '^$$' -fuzz '^FuzzFrontend$$' -fuzztime 20s ./internal/parser
	$(GO) test -run '^$$' -fuzz '^FuzzScratchReuse$$' -fuzztime 30s ./internal/parser
	$(GO) test -run '^$$' -fuzz '^FuzzPipelineDifferential$$' -fuzztime 20s ./internal/passes
	$(GO) test -run '^$$' -fuzz '^FuzzSplit$$' -fuzztime 20s -fuzzminimizetime 100x ./internal/compiler
	$(GO) test -run '^$$' -fuzz '^FuzzStatefulEdit$$' -fuzztime 30s ./internal/compiler
	$(GO) test -run '^$$' -fuzz '^FuzzBuildEdit$$' -fuzztime 30s -fuzzminimizetime 100x ./internal/buildsys

# bench-compare judges two reports of the benchmark of record
# (`go run ./benchmark -seed S -out FILE`, see benchmark/README.md). The
# recipe exits with the comparison's own code — 0 pass, 1 regress, 2
# unresolved — and prints it, because make reports a failed recipe's code
# ("Error 1") but itself always exits 2: a caller that must tell regress
# from unresolved reads the last line or runs .bench_build/benchmark
# directly. The binary is built first since `go run` flattens every child
# failure to 1.
bench-compare:
	@test -n "$(BASE)" -a -n "$(NEW)" || { echo "usage: make bench-compare BASE=base.json NEW=new.json" >&2; exit 64; }
	@mkdir -p .bench_build && $(GO) build -o .bench_build/benchmark ./benchmark
	@.bench_build/benchmark -compare $(BASE) $(NEW); code=$$?; \
		echo "bench-compare: exit $$code (0 pass, 1 regress, 2 unresolved)"; exit $$code

# bench-resident runs BenchmarkResidentRebuild once: a resident builder's
# megarepo rebuild with no edit, a 2-unit edit and equal cloned bytes, each
# reporting hashedB/op and codeReused/op (docs/PERFORMANCE.md, "Profiling").
bench-resident:
	$(GO) test -run '^$$' -bench ResidentRebuild -benchtime 1x ./internal/buildsys

# profile-smoke is the critical-path profiler's end-to-end check: cold
# build, edit, incremental rebuild, then `minibuild profile -json` on the
# recorded history — the output must be valid JSON with a non-empty
# critical path and longest unit ≤ critical-path total ≤ compile wall ≤
# build wall (python3 parses and asserts both).
profile-smoke:
	rm -rf $(SMOKEDIR)-profile
	mkdir -p $(SMOKEDIR)-profile/proj
	cp examples/project/*.mc $(SMOKEDIR)-profile/proj/
	$(GO) build -o $(SMOKEDIR)-profile/minibuild ./cmd/minibuild
	$(SMOKEDIR)-profile/minibuild -dir $(SMOKEDIR)-profile/proj -mode stateful
	printf '\n// profile-smoke edit\n' >> $(SMOKEDIR)-profile/proj/math.mc
	$(SMOKEDIR)-profile/minibuild -dir $(SMOKEDIR)-profile/proj -mode stateful
	$(SMOKEDIR)-profile/minibuild profile -dir $(SMOKEDIR)-profile/proj
	$(SMOKEDIR)-profile/minibuild profile -dir $(SMOKEDIR)-profile/proj -json \
		| python3 -c 'import json,sys; d=json.load(sys.stdin); assert d["critical_path"], "empty critical path"; assert 0 < d["longest_unit_ns"] <= d["critical_total_ns"] <= d["compile_wall_ns"] <= d["wall_ns"], "not longest unit <= critical total <= compile wall <= build wall: %s" % {k: d[k] for k in ("longest_unit_ns", "critical_total_ns", "compile_wall_ns", "wall_ns")}'
	rm -rf $(SMOKEDIR)-profile

# footprint-guard is the always-correct tripwire: honest suite builds with
# footprint tracing on must cross-check every cached unit and report zero
# missed invalidations (docs/ROBUSTNESS.md).
footprint-guard:
	$(GO) test -timeout 10m -run TestFootprintGuard -count=1 ./internal/footprint

# cas-battery is the shared cache's correctness gate (docs/ARCHITECTURE.md):
# the two-client differential battery (cold client B must match the
# stateless oracle at every commit with zero local compiles), the poisoned
# store walk, the 16-builder cold fleet under the race detector, and the
# chaos fault walk over every CAS I/O point.
cas-battery:
	$(GO) test -race -timeout 15m -count=1 ./internal/cas

# net-chaos is the network-adversity gate (docs/ROBUSTNESS.md): the
# partition battery (every recorded client↔server exchange × every fault
# kind must still yield oracle-identical builds within the deadline
# budgets), the breaker lifecycle and retry-taxonomy proofs, crash-restart
# recovery from the startup scan, and the daemon's slow-loris / body-limit
# defenses — all under the race detector.
net-chaos:
	$(GO) test -race -timeout 15m -count=1 \
		-run 'TestPartitionBattery|TestBreaker|TestHTTPCAS|TestFaultTransport|TestServeRestart|TestRecoverTorn' \
		./internal/cas
	$(GO) test -race -timeout 15m -count=1 \
		-run 'TestServeSlowLoris|TestServeCASBodyLimit' ./cmd/minibuild

# smoke is the flight-recorder end-to-end check: cold build, comment-only
# edit, incremental rebuild, then gate on the recorded history — regress
# exits 2 unless the rebuild actually skipped dormant passes, explain must
# render the edited unit's decision table and answer for main.mc, which the
# edit left alone, and history must list both builds. (Each build here is a
# new process with an empty object cache, so the rebuild compiles main.mc
# again; a record that leaves a cached unit out is read by the tests.) It
# first compiles and runs the project through stateful minicc twice over
# one state directory with the IR verifier on; the second, warm run audits
# every skip and fails on an unsound one (minicc's flag is written
# -run=true, since TestMakefileRunPatternsMatch reads the flag and its next
# word as a go test pattern).
smoke:
	rm -rf $(SMOKEDIR)
	mkdir -p $(SMOKEDIR)/proj
	cp examples/project/*.mc $(SMOKEDIR)/proj/
	$(GO) build -o $(SMOKEDIR)/minicc ./cmd/minicc
	cd $(SMOKEDIR)/proj && ../minicc -mode stateful -state-dir st -verify-state -verify-ir -run=true *.mc
	cd $(SMOKEDIR)/proj && ../minicc -mode stateful -state-dir st -verify-state -verify-ir -run=true *.mc
	$(GO) build -o $(SMOKEDIR)/minibuild ./cmd/minibuild
	$(SMOKEDIR)/minibuild -dir $(SMOKEDIR)/proj -mode stateful
	printf '\n// smoke edit\n' >> $(SMOKEDIR)/proj/math.mc
	$(SMOKEDIR)/minibuild -dir $(SMOKEDIR)/proj -mode stateful
	$(SMOKEDIR)/minibuild regress -dir $(SMOKEDIR)/proj -min-skip-rate 10
	$(SMOKEDIR)/minibuild explain -dir $(SMOKEDIR)/proj math.mc
	$(SMOKEDIR)/minibuild explain -dir $(SMOKEDIR)/proj main.mc
	$(SMOKEDIR)/minibuild history -dir $(SMOKEDIR)/proj -n 2
	rm -rf $(SMOKEDIR)
