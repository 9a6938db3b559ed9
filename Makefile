# Standard loops for the SOLERO reproduction.
#
#   make build     - compile everything
#   make vet       - go vet ./...
#   make test      - full test suite
#   make race      - race-detector pass over the lock core, thread registry,
#                    public API + schedule kernel
#   make bench     - reader-scaling + alloc-free benchmarks
#   make allocfree - one pass of the alloc-free benchmarks: each fails if
#                    an elided read entry allocates
#   make inlinecheck - the owned-slot increment (core's (*Lock).bump) must
#                    stay under the inliner's budget
#   make check     - tier-1 gate: build + vet + test
#   make fmtcheck  - gofmt -l over the whole tree (bench/ included) must
#                    list nothing
#   make nofencemodel - the locks, backend SPI, workloads and solero API
#                    must not depend on internal/memmodel: fences are
#                    charged only in the coherence simulator
#   make benchtest - the end-to-end benchmark module's own tests (oracle,
#                    watchdog, compare), short mode
#   make lint      - solerovet speculation-safety analyzers over the module
#   make lintcatch - inverted lint: seeded violations MUST be reported
#   make factsmoke - proof-carrying pipeline: solerovet -facts feeds
#                    solerojit -facts over the corpus; agreement gate
#   make lockorder-catch - inverted lockorder: a seeded ABBA cycle MUST fail
#   make guardedby-catch - inverted guardedby: seeded unguarded accesses
#                    MUST fail lint
#   make racecatch - static/dynamic differential: the seeded-racy package
#                    must be flagged by guardedby AND fail `go test -race`
#   make escape-catch - escape differential: the seeded leaked-reference
#                    package must be flagged by escape AND fail `go test
#                    -race`; the snapshot-fixed twin must pass both
#   make lint-sarif - solerovet -sarif output validated against a golden
#   make schedsmoke - fixed-seed schedule-exploration smoke + inverted bug-catch
#   make schedfuzz  - longer schedule exploration across both strategies
#   make replaydeterminism - same seed, same schedule: the replay test 20x
#   make fuzz      - native Go fuzzing of the lock-word encoding
#   make obs-smoke - live observability smoke: lockstats -serve + curl asserts
#   make json-smoke - solerobench -json writes valid snapshot bundles
#   make montable-smoke - compact monitor table under vmlock and core: short
#                    churn torture, 1M-lock footprint assert per lock,
#                    inverted lost-waiter catch per lock
#   make bench-gate - `bench compare` with the BENCHMARK.json bounds over
#                    the committed bench/testdata fixtures (+ the seeded
#                    regression MUST fail: anti-vacuity)
#   make tournament-smoke - every lock backend through the schedule-kernel
#                    oracle, vmlock and solero again with a monitor-table
#                    sweeper thread
#
# Smoke targets that write files do so in one `mktemp -d` directory
# (honouring $TMPDIR), removed when the target exits.

GO ?= go

.PHONY: build vet test race bench allocfree inlinecheck check fmtcheck nofencemodel benchtest lint lintcatch factsmoke lockorder-catch guardedby-catch racecatch escape-catch lint-sarif schedsmoke schedfuzz replaydeterminism fuzz obs-smoke json-smoke bench-gate tournament-smoke montable-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/core/... ./internal/stats/... \
		./internal/sched/... ./internal/history/... ./internal/schedcheck/... \
		./internal/monitor/... ./internal/metrics/... ./internal/export/... \
		./internal/trace/... ./internal/backend/... ./internal/bravo/... \
		./internal/rwlock/... ./internal/jthread/... ./solero/...
	$(GO) test -race -short ./internal/montable/... ./internal/vmlock/... \
		./internal/lockword/...

bench:
	$(GO) test -bench 'BenchmarkReaderScaling|BenchmarkReadOnlyAllocFree|BenchmarkBackendTournament' -benchtime 200ms .

allocfree:
	$(GO) test -run '^$$' -bench 'BenchmarkReadOnlyAllocFree' -benchtime 1x .

# Every elided read and uncontended write ends with (*Lock).bump, the
# owned-slot increment; kept under the inliner's budget, it costs those
# success paths no call. The compiler's inlining report must say so
# (go build replays the report from its cache, so a warm build checks too).
inlinecheck:
	@out=$$($(GO) build -gcflags=-m=2 ./internal/core 2>&1) || { echo "$$out"; exit 1; }; \
	if ! echo "$$out" | grep -q 'can inline (\*Lock)\.bump '; then \
		echo "FAIL: (*Lock).bump is no longer inlinable:"; echo "$$out" | grep 'inline (\*Lock)\.bump:'; exit 1; \
	fi; \
	echo "OK: inlinecheck ((*Lock).bump is inlinable)"

check: build vet test

# `gofmt -l .` walks every directory, so the bench/ module and the
# analyzer testdata are held to the same formatting as the module.
fmtcheck:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "FAIL: gofmt -l lists unformatted files:"; echo "$$out"; exit 1; \
	fi; \
	echo "OK: fmtcheck (gofmt -l lists nothing)"

# The locks run natively on Go's sequentially consistent atomics. The §3.4
# fence plans (internal/memmodel) are charged only by the coherence
# simulator, so no lock, the backend SPI, the workloads or the public API
# may import them.
NOFENCE_PKGS = ./internal/core ./internal/vmlock ./internal/rwlock ./internal/bravo \
	./internal/backend ./internal/workload ./solero/...
nofencemodel:
	@deps=$$($(GO) list -deps $(NOFENCE_PKGS)) || exit 1; \
	if echo "$$deps" | grep -qx 'repro/internal/memmodel'; then \
		echo "FAIL: a lock-path package depends on repro/internal/memmodel:"; \
		$(GO) list -f '{{.ImportPath}}: {{join .Imports " "}}' -deps $(NOFENCE_PKGS) | grep 'repro/internal/memmodel' | grep -v '^repro/internal/memmodel:'; \
		exit 1; \
	fi; \
	echo "OK: nofencemodel (no lock path depends on internal/memmodel)"

# bench/ is its own module, so `go test ./...` at the root never reaches it.
benchtest:
	$(GO) test -C bench -short ./...

# The whole module must be clean: critical-section closures proven
# speculation-safe, ReadMostly stores dominated by BeforeWrite, elided
# loads atomic where the lock writes.
lint:
	$(GO) run ./cmd/solerovet ./...

# Inverted lint: the golden testdata packages carry known violations of
# every analyzer; solerovet reporting nothing there would mean the
# analyzers rotted. A green build certifies both directions.
lintcatch:
	@for pkg in specsafety beforewrite atomicread elide lockorder guardedby escape; do \
		$(GO) run ./cmd/solerovet repro/internal/govet/testdata/src/$$pkg >/dev/null 2>&1; rc=$$?; \
		if [ $$rc -ne 1 ]; then \
			echo "FAIL: solerovet did not report seeded violations in $$pkg (exit $$rc, want 1)"; exit 1; \
		fi; \
		echo "OK: $$pkg violations caught"; \
	done

# Proof-carrying pipeline smoke: solerovet -facts writes the corpus
# verdicts, solerojit -facts rebuilds each .mj program with them — every
# block must seed from the file (re-analyzed 0) and every carried verdict
# must agree with fresh analysis (exit 0 is the agreement gate). The
# corpus packages are listed explicitly: Go's `...` wildcards never match
# paths containing "testdata".
CORPUS_PKGS = repro/internal/govet/testdata/src/corpus/annotated \
	repro/internal/govet/testdata/src/corpus/cache \
	repro/internal/govet/testdata/src/corpus/counterbank \
	repro/internal/govet/testdata/src/corpus/linkedlist
factsmoke:
	@tmp=$$(mktemp -d) || exit 1; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/solerovet ./cmd/solerovet || exit 1; \
	$(GO) build -o $$tmp/solerojit ./cmd/solerojit || exit 1; \
	$$tmp/solerovet -facts $$tmp/solero.facts.json $(CORPUS_PKGS) || exit 1; \
	grep -q '"schema": "solero-facts/v3"' $$tmp/solero.facts.json || { \
		echo "FAIL: solerovet -facts did not write the v3 schema"; head -2 $$tmp/solero.facts.json; exit 1; }; \
	for mj in internal/jit/testdata/*.mj; do \
		out=$$($$tmp/solerojit -facts $$tmp/solero.facts.json $$mj) || { echo "FAIL: agreement gate tripped for $$mj"; exit 1; }; \
		echo "$$out" | grep -q 're-analyzed 0$$' || { echo "FAIL: $$mj was re-analyzed despite carried facts"; echo "$$out"; exit 1; }; \
		echo "OK: $$mj seeded from facts"; \
	done; \
	echo "OK: factsmoke"

# Inverted lockorder: testdata/src/lockorderseed is nothing but a seeded
# two-lock ABBA cycle (it lives under testdata, so the module build never
# sees it); the analyzer MUST flag it. The clean tree producing zero
# findings is certified by `make lint`; this certifies the other direction.
lockorder-catch:
	@$(GO) run ./cmd/solerovet -checks lockorder repro/internal/govet/testdata/src/lockorderseed >/dev/null 2>&1; rc=$$?; \
	if [ $$rc -ne 1 ]; then \
		echo "FAIL: lockorder did not flag the seeded ABBA cycle (exit $$rc, want 1)"; exit 1; \
	fi; \
	echo "OK: seeded lock-order cycle caught"

# Inverted guardedby: testdata/src/guardedbyseed carries an unguarded
# shared access and a guard-confusion pair; the lockset analyzer MUST
# flag both fields. The clean tree producing zero findings is certified
# by `make lint`; this certifies the other direction.
guardedby-catch:
	@out=$$($(GO) run ./cmd/solerovet -checks guardedby repro/internal/govet/testdata/src/guardedbyseed 2>&1); rc=$$?; \
	if [ $$rc -ne 1 ]; then \
		echo "FAIL: guardedby did not flag the seeded races (exit $$rc, want 1)"; echo "$$out"; exit 1; \
	fi; \
	echo "$$out" | grep -q 'histogram\.count' || { echo "FAIL: unguarded histogram.count not reported"; echo "$$out"; exit 1; }; \
	echo "$$out" | grep -q 'meter\.gauge' || { echo "FAIL: guard confusion on meter.gauge not reported"; echo "$$out"; exit 1; }; \
	echo "OK: seeded unguarded access and guard confusion caught"

# Static/dynamic differential: every race in the seeded package that the
# runtime race detector can catch must also be a guardedby finding. The
# static half re-runs guardedby-catch (both seeded fields flagged); the
# dynamic half runs the package's stress test under `go test -race` and
# requires FAILURE — the detector firing on the same seeds. A green build
# certifies the lockset analyzer is at least as strict as the dynamic
# detector on this corpus.
racecatch: guardedby-catch
	@echo "--- dynamic half: go test -race MUST fail on the seeded package ---"
	@tmp=$$(mktemp -d) || exit 1; trap 'rm -rf "$$tmp"' EXIT; \
	if $(GO) test -race -count 1 repro/internal/govet/testdata/src/guardedbyseed >$$tmp/racecatch.log 2>&1; then \
		echo "FAIL: go test -race did not catch the seeded races"; cat $$tmp/racecatch.log; exit 1; \
	fi; \
	grep -q 'DATA RACE' $$tmp/racecatch.log || { echo "FAIL: -race run failed for another reason"; cat $$tmp/racecatch.log; exit 1; }; \
	echo "OK: racecatch (static findings and dynamic detector agree on the seeds)"

# Escape differential: testdata/src/escapeseed leaks the live backing
# array out of an elided section. Static half: the escape analyzer MUST
# flag it, naming registry.items. Dynamic half: the package's stress test
# dereferences the leaked slice while a Sync writer mutates elements in
# place, so `go test -race` MUST abort with DATA RACE. The snapshot-fixed
# twin escapeseedfixed runs the identical stress schedule and MUST pass
# both halves — the positive control proving the snapshot idiom (the -fix
# rewrite) removes the hazard rather than the test shape hiding it.
escape-catch:
	@out=$$($(GO) run ./cmd/solerovet -checks escape repro/internal/govet/testdata/src/escapeseed 2>&1); rc=$$?; \
	if [ $$rc -ne 1 ]; then \
		echo "FAIL: escape did not flag the seeded leak (exit $$rc, want 1)"; echo "$$out"; exit 1; \
	fi; \
	echo "$$out" | grep -q 'registry\.items' || { echo "FAIL: escaping registry.items not named"; echo "$$out"; exit 1; }; \
	echo "OK: static half (registry.items escape flagged)"
	@tmp=$$(mktemp -d) || exit 1; trap 'rm -rf "$$tmp"' EXIT; \
	echo "--- dynamic half: go test -race MUST fail on the seeded package ---"; \
	if $(GO) test -race -count 1 repro/internal/govet/testdata/src/escapeseed >$$tmp/escapecatch.log 2>&1; then \
		echo "FAIL: go test -race did not catch the stale read"; cat $$tmp/escapecatch.log; exit 1; \
	fi; \
	grep -q 'DATA RACE' $$tmp/escapecatch.log || { echo "FAIL: -race run failed for another reason"; cat $$tmp/escapecatch.log; exit 1; }; \
	echo "OK: dynamic half (stale read caught by -race)"; \
	echo "--- fixed twin: snapshot copy MUST pass both halves ---"; \
	out=$$($(GO) run ./cmd/solerovet -checks escape repro/internal/govet/testdata/src/escapeseedfixed 2>&1); rc=$$?; \
	if [ $$rc -ne 0 ]; then \
		echo "FAIL: snapshot-fixed twin still flagged (exit $$rc, want 0)"; echo "$$out"; exit 1; \
	fi; \
	$(GO) test -race -count 1 repro/internal/govet/testdata/src/escapeseedfixed >$$tmp/escapecatch-fixed.log 2>&1 || { \
		echo "FAIL: fixed twin failed under -race"; cat $$tmp/escapecatch-fixed.log; exit 1; }; \
	echo "OK: escape-catch (leak flagged + raced; snapshot fix silent + race-free)"

# SARIF interchange smoke: solerovet -sarif over the seeded escape
# package must exit 1 (findings present) and the emitted document must
# match the committed golden byte-for-byte — pinning the schema version,
# rule metadata, relative URIs, and deterministic ordering that code
# scanning consumers rely on.
lint-sarif:
	@tmp=$$(mktemp -d) || exit 1; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/solerovet -checks escape -sarif repro/internal/govet/testdata/src/escapeseed >$$tmp/lint.sarif 2>/dev/null; rc=$$?; \
	if [ $$rc -ne 1 ]; then \
		echo "FAIL: solerovet -sarif exit $$rc, want 1 (findings present)"; exit 1; \
	fi; \
	diff -u internal/govet/testdata/escapeseed.sarif.golden $$tmp/lint.sarif || { \
		echo "FAIL: SARIF output diverged from golden (regenerate with the command above if intended)"; exit 1; }; \
	echo "OK: lint-sarif (SARIF output matches golden)"

# Fixed-seed smoke: a clean 30s exploration must pass, and a run with an
# injected release-without-counter-bump bug must FAIL (the inverted step:
# the harness catching the bug is what a green build certifies).
schedsmoke:
	$(GO) run ./cmd/solerocheck -sched -seed 1 -episodes 1000 -duration 30s
	@echo "--- inverted step: the injected bug below MUST be caught ---"
	@if $(GO) run ./cmd/solerocheck -sched -seed 1 -ops 10 -bug no-counter-bump; then \
		echo "FAIL: injected no-counter-bump bug was NOT caught"; exit 1; \
	else \
		echo "OK: injected bug caught"; \
	fi

# A schedule must be a function of the seed alone. Twenty back-to-back
# runs give host-timing nondeterminism (a wakeup resolving late, a timed
# park running long) room to show as a diverged decision sequence.
replaydeterminism:
	$(GO) test -count=20 -run '^TestReplayDeterminism$$' ./internal/schedcheck/

schedfuzz:
	$(GO) run ./cmd/solerocheck -sched -seed $$RANDOM -episodes 1000 -duration 120s -strategy random
	$(GO) run ./cmd/solerocheck -sched -seed $$RANDOM -episodes 1000 -duration 120s -strategy pct -upgraders 1

fuzz:
	$(GO) test ./internal/lockword/ -fuzz FuzzSoleroRoundTrip -fuzztime 30s
	$(GO) test ./internal/lockword/ -fuzz FuzzSoleroEncode -fuzztime 30s
	$(GO) test ./internal/lockword/ -fuzz FuzzTicketRoundTrip -fuzztime 30s

# Live-endpoint smoke: start `lockstats -serve`, poll /metrics until it
# answers, assert the known gauges/buckets are exposed, check the expvar
# bundle and snapshot schema, then shut the server down.
OBS_PORT ?= 18321
obs-smoke:
	@tmp=$$(mktemp -d) || exit 1; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/lockstats ./cmd/lockstats || exit 1; \
	$$tmp/lockstats -bench empty -threads 2 -duration 100ms -serve :$(OBS_PORT) >$$tmp/obs.log 2>&1 & \
	pid=$$!; trap 'kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; rm -rf "$$tmp"' EXIT; \
	ok=0; for i in $$(seq 1 50); do \
		if curl -sf localhost:$(OBS_PORT)/metrics >$$tmp/metrics.txt 2>/dev/null; then ok=1; break; fi; \
		sleep 0.2; \
	done; \
	[ $$ok -eq 1 ] || { echo "FAIL: /metrics never came up"; cat $$tmp/obs.log; exit 1; }; \
	grep -q '^solero_ops_total ' $$tmp/metrics.txt || { echo "FAIL: solero_ops_total gauge missing"; exit 1; }; \
	grep -q 'solero_aborts_total{cause="writer-raced"}' $$tmp/metrics.txt || { echo "FAIL: abort taxonomy missing"; exit 1; }; \
	grep -q 'solero_cs_duration_nanoseconds_bucket{le="255"}' $$tmp/metrics.txt || { echo "FAIL: histogram buckets missing"; exit 1; }; \
	curl -sf localhost:$(OBS_PORT)/debug/vars | grep -q '"solero"' || { echo "FAIL: expvar bundle missing"; exit 1; }; \
	curl -sf localhost:$(OBS_PORT)/snapshot.json | grep -q 'solero-snapshot/v1' || { echo "FAIL: snapshot schema missing"; exit 1; }; \
	curl -sf localhost:$(OBS_PORT)/trace.json | grep -q 'traceEvents' || { echo "FAIL: Perfetto trace missing"; exit 1; }; \
	curl -sf localhost:$(OBS_PORT)/trace.json | grep -q '"process_name"' || { echo "FAIL: Perfetto process metadata missing"; exit 1; }; \
	curl -sf localhost:$(OBS_PORT)/debug/pprof/contention -o $$tmp/contention.pb.gz || { echo "FAIL: pprof contention endpoint missing"; exit 1; }; \
	gunzip -t $$tmp/contention.pb.gz || { echo "FAIL: contention profile is not valid gzip"; exit 1; }; \
	echo "OK: obs-smoke (/metrics, /debug/vars, /snapshot.json, /trace.json, /debug/pprof/contention)"

# The benchmark regression gate is `bench compare` (bench/compare.go; the
# BENCHMARK.json end-to-end bounds are declared in bench/metrics.go) over
# the committed bench/testdata fixtures:
# a record set judged against itself must pass, and — so the gate can't
# rot into vacuity — the seeded change set (a 35% ops_per_s drop and a
# failed_share rise) MUST fail with exit 1.
bench-gate:
	$(GO) run -C bench . compare testdata/base.jsonl testdata/base.jsonl
	@$(GO) run -C bench . compare testdata/base.jsonl testdata/change.jsonl >/dev/null 2>&1; rc=$$?; \
	if [ $$rc -ne 1 ]; then \
		echo "FAIL: seeded regression fixture exited $$rc, want 1 (vacuous gate)"; exit 1; \
	fi; \
	echo "OK: bench-gate (fixture set clean against itself, seeded regression caught)"

# Every lock backend must survive the same schedule-kernel oracle — the
# deterministic revocation-window schedule included. This is the CI gate
# for the backend SPI; the cross-backend race itself is the root
# BenchmarkBackendTournament (`make bench`).
tournament-smoke:
	$(GO) test -run 'TestAllBackendsPassOracle|TestBravoRevocationWindowPinned|TestOracleWorkloadAllBackends' \
		./internal/schedcheck/ ./internal/backend/
	@for be in vmlock rwlock solero bravo; do \
		$(GO) run ./cmd/solerocheck -sched -backend $$be -writers 1 -readers 2 -upgraders 1 -ops 4 -episodes 25 \
			|| { echo "FAIL: backend $$be violated the oracle"; exit 1; }; \
	done
	@for be in vmlock solero; do \
		$(GO) run ./cmd/solerocheck -sched -backend $$be -writers 2 -readers 1 -sweepers 1 -ops 3 -episodes 25 \
			|| { echo "FAIL: table-backed backend $$be violated the oracle"; exit 1; }; \
	done
	@echo "OK: tournament-smoke (4 backends, oracle + pinned revocation window + table sweeper)"

# Compact-monitor-table smoke: the short churn-torture/property pass, a
# 1M-lock steady-state footprint assert (<64 bytes/lock — the scale
# acceptance bound), and the inverted step: the seeded lost-waiter
# sweeper bug MUST make the torture run fail. A green build certifies
# the suite catches real deflation bugs, not just that the table works.
montable-smoke:
	$(GO) test -short -count 1 \
		-run 'TestChurnTorture|TestRandomInterleavingsNeverLoseWaiters|TestLostWaiterBugIsDetected' \
		./internal/montable/
	@out=$$(MONTABLE_FOOTPRINT_LOCKS=1000000 $(GO) test -count 1 -run TestFootprintSteadyState -v ./internal/montable/) \
		|| { echo "$$out"; echo "FAIL: 1M-lock footprint assert"; exit 1; }; \
	for k in vmlock core; do \
		echo "$$out" | grep -q -- "--- PASS: TestFootprintSteadyState/$$k " \
			|| { echo "$$out"; echo "FAIL: 1M-lock footprint assert did not pass on $$k"; exit 1; }; \
	done; \
	echo "$$out" | grep -E 'bytes/lock|^ok'
	@echo "--- inverted steps: the seeded lost-waiter bug below MUST be caught on each lock ---"
	@tmp=$$(mktemp -d) || exit 1; trap 'rm -rf "$$tmp"' EXIT; \
	for k in vmlock core; do \
		if MONTABLE_BUG=lost-waiter $(GO) test -short -count 1 -run "^TestChurnTorture\$$/^$$k\$$" ./internal/montable/ >$$tmp/montable-bug-$$k.log 2>&1; then \
			echo "FAIL: seeded lost-waiter bug was NOT caught on $$k"; cat $$tmp/montable-bug-$$k.log; exit 1; \
		elif ! grep -q -- "--- FAIL: TestChurnTorture/$$k " $$tmp/montable-bug-$$k.log; then \
			echo "FAIL: the lost-waiter run on $$k failed without TestChurnTorture/$$k failing"; cat $$tmp/montable-bug-$$k.log; exit 1; \
		else \
			echo "OK: seeded lost-waiter bug caught on $$k"; \
		fi; \
	done

# The instrumented suite must emit parseable solero-snapshot/v1 bundles.
json-smoke:
	@tmp=$$(mktemp -d) || exit 1; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/solerobench -json $$tmp/suite.json -duration 20ms -runs 1 -inner 1 -threads 1,2 || exit 1; \
	grep -q '"schema": "solero-snapshot/v1"' $$tmp/suite.json || { echo "FAIL: schema missing from bundles"; exit 1; }; \
	echo "OK: json-smoke"
