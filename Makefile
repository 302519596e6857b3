# Convenience targets for the FAST reproduction.

GO ?= go

.PHONY: all check build kernel-path test test-short test-purego race chaos examples fuzz obs-smoke soak-smoke shard-chaos bench-test bench tables cover fmt vet loc clean

all: build test

# The default pre-merge gate: static analysis, the full suite, the race
# detector over the concurrency tests, the chaos suite, the example programs,
# and the benchmark harness's own tests.
check: vet test race chaos examples bench-test

build:
	$(GO) build ./...

# One line, before each `go test` leg: which internal/ring kernel path (go,
# avx2, avx512ifma) this build and CPU run on, and which differential legs
# skip because of it — so a CI log shows whether the IFMA differentials
# actually executed on that runner. TAGS carries the leg's build tags.
kernel-path:
	@$(GO) test $(TAGS) -count=1 -run '^TestKernelPathReport$$' -v ./internal/ring | grep '^ring:'

test: kernel-path
	$(GO) test ./...

# Skips the slow functional-bootstrapping tests (~40 s).
test-short: kernel-path
	$(GO) test -short ./...

# Pure-Go leg: compile out the GOARCH-gated assembly kernels (internal/ring's
# AVX2 and AVX-512 IFMA routines) and run the suite against the reference
# loops — the build every non-amd64 platform gets. The differential tests skip
# their avx2 / avx512ifma legs by name; everything else must pass identically.
# cmd/fastd's byte-lane kernels are compiled out too, so FuzzBase64's seeds
# and the envelope tests run on encoding/base64 alone here.
test-purego:
	$(GO) build -tags purego ./...
	@$(MAKE) --no-print-directory kernel-path TAGS='-tags purego'
	$(GO) test -tags purego -short ./...

# Race-detector pass over the whole module (the concurrency-model contract:
# one Context serving many goroutines). Uses -short so the gate stays fast;
# -short skips every bootstrap test, so the one that has two goroutines make
# their first Bootstrap call on a fresh context is run by name. Under -race
# ring.PolyPool also poisons every buffer it hands out and panics on a
# second Put of one (internal/ring/pool_race.go), so the golden-bytes and
# oracle tests this runs exercise every pooled path poisoned: an op that
# reads a recycled buffer before writing it, or recycles one twice, fails
# here. The shape cache's two contracts — concurrent first creates of one
# configuration compile it once, and an unreferenced compile leaves the cache
# — are run again by name, several times over, and so is the one that has
# sixteen goroutines make a fresh context's first ops at once, eight per
# method (each evaluation key must be derived exactly once, and the outputs
# match a one-goroutine run's byte for byte), two goroutines sharing one
# context agreeing that Rotate, RotateHoisted, Execute and ExecuteSequential
# (and Conjugate under both executors) give one rotation's bytes on every
# kernel path, fastd's DELETE-against-a-write
# races (a .snap write in flight — create, evict or restore — never lands
# after the DELETE's unlinks), and fused Add-tree sites run through
# ExecuteBatch from four goroutines (each run decomposes its own input and
# writes its own sum, byte-identical to ExecuteSequential; runs of one
# batch share no work), and EvaluationKeySet.Derive called from several
# goroutines while a Bootstrap reads the same lazy key set (each key derived
# once, the output byte-identical to one over eager keys). TestNewContextOptions
# runs three times over: at every n and on every kernel path, the one-fork-per-
# stage paths (ModUp digit tasks, ModDown and Rescale component tasks, limb
# forks of the Mul tensor and the hoisted sums) must give the serial bytes.
race: kernel-path
	$(GO) test -race -short ./...
	$(GO) test -race -run TestBootstrapConcurrentFirstUse ./internal/ckks
	$(GO) test -race -count=5 -run TestDeriveWhileBootstrapping ./internal/ckks
	$(GO) test -race -count=5 -run TestKeysDerivedOnceUnderConcurrentFirstUse .
	$(GO) test -race -count=3 -run TestRotationBytesIndependentOfSchedule .
	$(GO) test -race -short -count=3 -run TestNewContextOptions .
	$(GO) test -race -count=5 -run TestFusedSiteParallelBatchesBitExact .
	$(GO) test -race -count=5 -run 'TestNoSnapWriteAfterDelete|TestDeleteDuringRestoreStaysDeleted' ./cmd/fastd
	$(GO) test -race -count=5 -run 'TestNewContextConcurrentCompileOnce|TestContextsShareCompiledParameters' .
	$(GO) test -race -count=5 -run 'TestShapeCacheForgetsUnreferencedShapes|TestParametersShareShapeAcrossSeeds' ./internal/ckks

# Chaos gate, under the race detector. The library's seeded random op script
# is held to a plaintext shadow (checked-in precision floors, hybrid vs KLSS
# agreement, two contexts of one seed bit-identical), next to the planner's
# differential zoo. internal/hemera's shared evk tier must singleflight its
# fills and hold its byte budget under concurrent demand from many shards.
# The fastd suite runs the
# serve loop in-process: real queue overload, disk writes failed through the
# store's hook, crash/restart and shard kill — accepted responses
# bit-identical to an in-process reference, refusals typed. internal/session's
# registry routes creates and restores while its shards are fenced
# concurrently. (-short keeps the op count CI-sized; drop it for a deeper
# soak.)
chaos:
	$(GO) test -race -short -run 'Chaos|Fault|Resilience|RandomScript|NoisyTenant' . ./internal/hemera ./cmd/fastd ./internal/session

# Every examples/* program, run to completion (each under ~1 s warm); the
# target fails on the first one that exits non-zero. Every program's first
# ops derive their evaluation keys, and quickstart pins KLSS on one op, so a
# KLSS key derivation runs here too.
examples:
	@for d in examples/*/; do echo "go run ./$$d"; $(GO) run ./$$d > /dev/null || exit 1; done

# Fuzz smoke pass: each target fuzzes for 10s (Go allows one -fuzz pattern
# per package invocation). Corpus findings land in testdata/fuzz/.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzEncodeDecode -fuzztime 10s ./internal/ckks
	$(GO) test -run '^$$' -fuzz FuzzReadCiphertext -fuzztime 10s ./internal/ckks
	$(GO) test -run '^$$' -fuzz FuzzCiphertextMarshal -fuzztime 10s ./internal/ckks
	$(GO) test -run '^$$' -fuzz FuzzContextConfig -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz FuzzSessionSnapshot -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz FuzzProgramPlan -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz FuzzEvalEnvelope -fuzztime 10s ./cmd/fastd
	$(GO) test -run '^$$' -fuzz FuzzIdemRing -fuzztime 10s ./cmd/fastd
	$(GO) test -run '^$$' -fuzz FuzzBase64 -fuzztime 10s ./cmd/fastd
	$(GO) test -run '^$$' -fuzz FuzzNTTRoundTrip -fuzztime 10s ./internal/ring
	$(GO) test -run '^$$' -fuzz FuzzMul60 -fuzztime 10s ./internal/tbm

# Observability smoke gate: boot the real fastd through run(), drive one
# evaluation with a pinned request ID, and assert every surface's contract —
# access-log JSON schema, /debug/requests shape, /metrics Prometheus-text
# validity (incl. the serve.latency.p* quantile gauges), /readyz quantiles,
# request-ID attribution on both HTTP and evaluator trace spans, the restore
# phase histograms and the idempotency counters (fastd.idem.conflicts and
# .replay_mismatch exported; the body journal's counters and
# fastd.restore.journal_index_ns gone), and — after more than 64k spans, every
# one of those requests keyed — a trace export that is the newest ring-full,
# not empty and not the first 64k, beside a .idem no larger than magic +
# IdemCap slots.
obs-smoke:
	$(GO) test -race -run TestObsSmoke -v ./cmd/fastd

# Durability smoke gate: a CI-sized fastload soak — a few concurrent sessions
# under Zipf reuse with one SIGKILL+restart cycle mid-run against a spawned,
# race-instrumented fastd. Asserts the crash-safety contract end to end:
# restored decrypts bit-identical to the fault-free reference, ladder-typed
# errors only, exactly-once idempotent retries, p99 within SLO. The full-size
# soak is `go run ./cmd/fastload` (see its package doc).
soak-smoke:
	$(GO) test -race -run TestSoakSmoke -v ./cmd/fastload

# Shard-failover gate: fastload spawns a race-instrumented 3-shard fastd and
# fences one shard mid-soak through the chaos endpoint (an in-process SIGKILL,
# and the only way a shard is fenced: permanent fence, hash-range remap,
# snapshot failover). Asserts the daemon stays ready, the dead shard's
# sessions serve bit-identically from survivors, errors stay on the typed
# ladder, idempotent retries are exactly-once, and the shared evk tier shows
# cross-shard reuse within its byte budget. The fastd leg adds that a shard
# whose queue stays full is refused to, never fenced.
shard-chaos:
	$(GO) test -race -run TestShardChaosSmoke -v ./cmd/fastload
	$(GO) test -race -run 'TestShard|TestIdemJournal' -v ./cmd/fastd

# The benchmark harness (benchmark/, BENCHMARK.json) is its own Go module, so
# `go test ./...` at the root never descends into it — but its per-layer
# probes import this module's internal/ packages. Running its tests here
# (toy-size smoke run of every workload included) makes an internal/ rename
# that breaks the harness fail the gate, not the next benchmark run.
bench-test:
	$(GO) test -C benchmark -short ./...

# Go micro-benchmarks: a developer tool for measuring while you work. The
# recorded trajectory and the gate are `go run -C benchmark .` (BENCHMARK.json).
bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every table and figure of the paper's evaluation.
tables:
	$(GO) run ./cmd/benchtables

# Coverage with a per-function summary (writes cover.out next to the total).
cover:
	$(GO) test -short -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -n 25
	@echo "full per-function report: $(GO) tool cover -func=cover.out"
	@echo "HTML report:              $(GO) tool cover -html=cover.out"

fmt:
	gofmt -w .

# Static analysis: go vet, a gofmt cleanliness check (fails listing any file
# that gofmt would rewrite) and the size budgets of the serving layer, the
# performance model, the root package and internal/ckks.
vet: loc
	$(GO) vet ./...
	@fmtout="$$(gofmt -l .)"; if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi

# Size budget of the serving layer: non-test lines (wc -l, comments included)
# of cmd/fastd + internal/session. fastd exists to measure the library under
# traffic, and it has outgrown that job twice; growing it now takes an edit
# to FASTD_LOC_MAX, which a reviewer sees, next to the code that needs it.
#
# 3100 -> 3515 (PR 22): +415 is the measured net growth of the one-pass
# envelope (3059 -> 3474 lines). cmd/fastd/envelope.go is 450 lines, comments
# included: buffer pools and body reader 96, scanner and the two envelope
# shapes 281, ciphertext decode + response writer 73. Around it 35 net lines
# went: evalWire, encodeCiphertext, decodeCiphertext, decryptRequest,
# ciphertextResponse (now test-only references) and the traceEvents constant.
# The codec stays in cmd/fastd, where the count sees it; ROADMAP 5a/5b are
# what take the budget back down.
#
# 3515 -> 3189 (PR 25, ROADMAP 5b): the idempotency journal keeps a digest
# record per key instead of the response body (3474 -> 3189 lines). Went:
# indexJournal 83 (frame walk + torn-tail truncate), compactJournal 52,
# appendFrame + appendFrameRetry 41, readBody 21 (lazy pread), compactIfDue
# 20, writeFrame 19, parseFrame 17, putFrameHeader 10, restoreJournal 10, the
# journal / journalFrame types and the store's writer-state map 36, the LRU
# idemEntry table 128, the body-keeping recorder 32, lifecycle.go's replay
# section (withIdempotency, writeRecorded, recordIdem) 95, and the session's
# idem/journal fields, the journal restore phase, the evict compaction and
# sendRendered's hand-over branch. Came in (idem.go, 381 lines with
# comments): the 84-byte record and ring parse 76, the per-ID table 97 (its
# write lock keeps a DELETE from racing a slot write), one-read load and
# in-place slot write 61, withIdempotency 72 (422 on key reuse, re-execution
# checked against the record), the pooled recorder 28.
#
# 3189 -> 3167 (2026-10-15, ROADMAP 3): the modelled disk-write fault went
# with internal/fault. Went: daemonConfig.StoreFaults and its injector
# wiring, sessionStore's injector and fastd.store.write_faults counter,
# checkFault and errInjectedDiskWrite, and the fault checks in writeAtomic
# and writeIdem. Tests now fail a write through sessionStore.hook.
#
# 3167 -> 3158 (ROADMAP 2): a create is priced where its keys are generated.
# fastd's keygenUnits (a hard-coded relin + conjugation key, one method,
# Set-I's α) went for fast.KeygenUnits, and a session's pass weight comes
# from fast.KeySwitchShape of its resolved config.
#
# 3158 -> 3224 (ROADMAP 6): a shard is fenced only by the kill endpoint. The
# gate now counts internal/shard too, so the same tree measured 3158 + 373 =
# 3531 before the change and 3082 + 142 = 3224 after it (-307). Went: the
# health-probe supervisor (internal/shard/supervisor.go, 203); Ring.Unfence,
# Version, Members and the replica-count parameter every caller left at its
# default (ring.go 170 -> 142); Registry.Unfence (-6); fastd's
# probeShard, onUnfence and /readyz's per-shard "killed", which always equals
# "fenced" now (shard.go 197 -> 175); the supervisor wiring, the sup field and
# the daemonConfig probe and evk-budget fields with their defaults
# (daemon.go -38, main.go -7, lifecycle.go -3); and four flags that every
# caller left at their defaults: -shard-probe-interval, -shard-probe-timeout,
# -shard-fence-threshold and -evk-budget-mb (the tier keeps its 256 MiB).
#
# 3224 -> 3223: a snapshot is its header. Went: saveEpoch and epochLen (a
# restore rewrites the header-sized .snap with its epoch instead of writing
# an .epoch sidecar), writeAtomic's generic fill (writeSnapshot is its one
# caller's form), loadSnapshot (inlined into restoreSession), restoreInto's
# second remove after a racing DELETE, and the sidecar's share of the store
# docs. Came in: idemTable.persist and errDeleted (every .snap write runs
# under the ID's write guard, so none lands after a DELETE), session.idem and
# session.save, and the legacy sidecar's unlink after the first restore.
# The sidecar reader stays for legacy dirs (it went with the next entry);
# crc32c stays for the ring.
#
# 3223 -> 3182: a served eval is one run. Went from shard.go (175 -> 133):
# evalShard.batcher, runEvalBatch and the batcher wiring; from program.go
# (98 -> 87): compiledEval.inputIDs, its unread sess field and the per-input
# digest; from envelope.go (443 -> 437): readCiphertext's SHA-256 of the wire
# bytes. Came in to daemon.go (765 -> 782): the eval closure that runs a
# one-run ExecuteBatch inside the shard's Server.Do and stamps its batch
# number, and requestContext's bound on an X-Deadline-Ms whose duration
# overflows.
#
# 3182 -> 3080: one eviction trigger and one state-dir format. Went from
# lifecycle.go (206 -> 178): the idle-TTL sweeper loop and restoreSession's
# sidecar read and unlink (the restore epoch is 1 + the header's); from
# persist.go (255 -> 226): the epoch sidecar's reader, suffix and path, and
# its share of scan, remove and the store doc; from daemon.go (782 -> 761):
# the TTL config field, sweepStop, sweepDone, stopOnce, the sweeper's start
# and stop, and the eval's one-run ExecuteBatch with its batch stamp (an eval
# is one Execute); from main.go: the TTL flag; from middleware.go: the access
# log's batch attribute; from internal/session (339 -> 319): the registry's
# idle scan, each entry's last-use time and Registry.now (recency is the
# shard's LRU order).
#
# 3080 -> 3087: a restore whose epoch write fails refuses to serve. Came to
# lifecycle.go (178 -> 183): errEpochUnwritten and restoreSession's return of
# the failed write (a DELETE racing it still reaches Publish); to daemon.go
# (761 -> 763): the ladder's 503 epoch_unwritten rung with Retry-After.
#
# 3087 -> 2980: one owner for session placement. Went: internal/shard (the
# consistent-hash ring, 142, and its glob here); from daemon.go (763 -> 754)
# the ring field and route(); from shard.go (133 -> 117) splitResident and
# the second fence call. Came to internal/session (319 -> 380): rendezvous
# routing inside Reserve and BeginRestore, ErrShardDown and ErrFull, Fence's
# range check and its fenced result, and the live count and fenced flags in
# Stats.
#
# 2980 -> 3071: +91 is the measured growth of coding ciphertexts and checking
# plain strings on the AVX-512 byte lanes (the same wire bytes). Came in:
# base64.go 49 (b64AppendEncode and b64Decode, each encoding/base64 after the
# kernel's whole blocks, with the decoder's error offset shifted by them;
# byteLanes, read at each call), bytelanes_amd64.go 27 (the three kernel
# declarations and their contracts), bytelanes_other.go 11 (stubs for builds
# without them), envelope.go +4 (plainASCII's block pass and its doc). The
# kernels themselves, bytelanes_amd64.s (196 lines with their tables), are
# assembly and outside this count, as internal/ring's are outside every one.
FASTD_LOC_MAX ?= 3071

# Size budget of the performance model: non-test lines of the cost model,
# Aether, the simulator, the traces and workloads, the baselines, perf.go and
# the two CLIs over them. Each modelled decision has one owner there (DESIGN.md,
# "The performance half: one owner per decision"); a second copy of one shows
# up as growth here.
#
# 2324 -> 2253 (2026-10-15, ROADMAP 10): one key-switch site type priced by
# aether.PlanSites (costmodel.SiteCost, KeySwitchUnits and PlanUnits went),
# one plan-and-simulate path (sim.Mode, sim.Plan, sim.Simulate), one name
# table per package (workloads.ByName, baselines.ByName), one kernel-width
# and one EKG-halving function in costmodel, and cmd/aether without -http.
#
# 2253 -> 2325 (ROADMAP 2): +72 is the measured growth of the online count
# that prices a functional context's key switch at its own shape instead of
# Set-I's resized accelerator. internal/costmodel/plan.go went 31 -> 99
# lines: costmodel.Shape 11, LaneWeight 12, Shape.KeySwitch 39 (a stage-by-
# stage count of what ckks.KeySwitcher runs, 16 of them its doc), the header
# that separates it from Params 9; Params.PassUnits moved to Shape. PlanSites
# takes a Shape now; its doc comment grew 4 lines.
#
# 2325 -> 2348: +23 is the measured growth of pricing a fused site (an Add
# tree summing a hoist group's rotations, one ModDown pair for all of them).
# internal/costmodel/plan.go 99 -> 112: Shape.Hoisted and its doc, with
# KeySwitch's per-rotation breakdown split into a per-rotation part
# (automorphism, KeyMult) and a per-ModDown-pair part; KeySwitch is
# Hoisted with a pair per rotation. internal/aether/plan.go 69 -> 79:
# Site.ModDowns (the fused flag) and PlanSites pricing both methods at it.
MODEL_LOC_MAX ?= 2348

# Size budget of the library's public surface: non-test lines of the root
# package. The library is the product; growing its API takes an edit here.
#
# 2885 -> 2784 (ROADMAP 2): the plan is the one owner of the key-switch
# method. Went: WithDefaultMethod, Context.Method and the defaultMethod
# fields with their two KLSS-default checks, the snapshot header's
# default_method and SessionSnapshot.DefaultMethod, PlanWithDefaultMethod,
# PlanOption and planConfig, Plan.InputLevels, and the four NewContext
# options that restated ContextConfig fields (WithRotations,
# WithConjugation, WithKLSS, WithSeed).
#
# 2784 -> 2773: WriteSessionSnapshot appends the keys into the snapshot
# buffer and writes it once; its bytes.Buffer and io.MultiWriter went, and
# ErrCorruptSnapshot moved here from internal/ckks, which no longer returns it.
#
# 2773 -> 2781: +8 is the measured net growth of deriving KLSS keys on first
# use. context.go +2 (buildContext keys hybrid only and attaches the
# derivation; KeygenUnits lost its KLSS term; the EnableKLSS and NewContext
# docs say when KLSS keys exist), marshal.go +4 (WriteSessionSnapshot and
# Restore docs: no KLSS section is written, restore derives it), plan.go +2
# (Plan.Units does not price the derivation).
#
# 2781 -> 2763: a snapshot is its header ("FASTSNP\x02"). Went: readKeys,
# the key payload half of WriteSessionSnapshot and of DecodeSessionSnapshot,
# snapshotMaxKeys, and buildContext's snapshot branch (it takes an epoch, and
# always generates). Came in: the legacy "FASTSNP\x01" framing check and its
# secret-key prefix comparison, and Restore's refusal of a header whose
# config is not resolved or does not compile.
#
# 2763 -> 2934: +171 is the measured growth of fusing Add trees over a hoist
# group into one rotate-and-sum site. plan.go 313 -> 417: the fused-tree
# pass (fuseAddTrees 58 with its doc: read counts, the tree walk, the site
# per maximal tree), fusedSite and the plan's fused/groupFused tables, the
# site's ModDown count handed to PlanSites, PlanDecision.Fused, and the
# Plan, PlanDecision and Units docs. exec.go 447 -> 492: execGroupStep runs
# each distinct fused sum on the group's decomposition and writes the trees'
# root registers, ExecuteBatch skips fused adds, ExecuteSequential runs a
# tree at its root, and the bit-identity contract names the fused case.
# context.go 516 -> 535: rotateHoistedSums, the one call both executors
# make (RotateHoisted is it without sums). program.go +3: Rotate's doc.
#
# 2934 -> 2968: +34 is the measured growth of deriving each evaluation key on
# first use. plan.go +23: the plan records the keys it reads (its decisions'
# relinearisation, rotation and conjugation keys, each once) and Units adds a
# top-level hybrid key switch per key its context has not derived yet, read
# at call time. context.go +7: checkSeed (NewContext refuses a seed outside
# [1, 2^31-2], which the sk/pk stream would alias) and its call; buildContext
# names the set's methods instead of generating hybrid keys and attaching
# the KLSS derivation; KeygenUnits is sk + pk, three passes; the Rotations,
# EnableKLSS, Seed, NewContext and buildContext docs. bootstrap.go +4: the
# same seed check and the Seed doc.
#
# 2968 -> 2804: runs share no work. exec.go 492 -> 330: went Run.InputIDs,
# mergeKey and inputKey, batchStep and stepMember, the cross-run step
# scheduler with its merge accounting, the union of members' rotations and
# sums in execGroupStep, mergedContext, and wrapRunCtxErr (inlined into
# failNode); ExecuteBatch runs each run through execRun, and execGroupStep
# serves one run's hoist group. observe.go -2: PlanRecord.MergedRotations.
#
# 2804 -> 2718: one snapshot format, one executor, one request-ID route.
# marshal.go 261 -> 240: the "FASTSNP\x01" branch, the snapshot's legacy key
# payload and Restore's secret-key prefix check (a version-1 file is refused
# as corrupt, naming its version). exec.go 330 -> 306: Execute is the
# executor and ExecuteBatch a loop over it; Run.Batch and recordBatch's batch
# accounting went (recordRun records one run). observe.go 205 -> 186:
# PlanRecord.Batch, Runs and RequestIDs (one RequestID in their place), and
# the observer's batch sequence. options.go and context.go -22: the per-op
# request-ID option, opSettings.requestID and its folding in settings.
#
# 2718 -> 2711: evkcache.go (108 -> 101) sizes a key at its packed rows; the
# request's unused level argument and EvkCache.Stats' field-by-field copy of
# hemera.SharedStats went.
#
# 2711 -> 2714: bootstrap.go derives a bootstrap context's whole key set in
# NewBootstrapContext (ckks.EvaluationKeySet.Derive across GOMAXPROCS
# goroutines), and Bootstrap's comment says its keys are not derived lazily.
#
# 2714 -> 2703: a rescaling Mul, MulPlain or MulConst is one call into the
# evaluator (MulRelinRescaleCtx, MulPlainRescaleCtx, MulConstRescaleCtx),
# which draws the pre-rescale product from its pool; the three bodies lost
# their separate product, error check and RescaleCtx call.
ROOT_LOC_MAX ?= 2703

# Size budget of the CKKS layer: non-test lines of internal/ckks, the
# module's largest package (scheme, key switch, bootstrapping, wire codec).
#
# 4245 -> 4115: one wire codec. Every object is appended to and parsed from
# bytes; the io.Writer/io.Reader twins went: writePoly, readPoly and their
# 32 KiB chunkPool, writeHeader, readHeader, readLevelScale, and the
# Serialize methods of SecretKey, PublicKey, SwitchingKey and
# EvaluationKeySet. Two helpers left with one caller were inlined
# (appendPolyHeader, decodeLevelScale). Ciphertext.Serialize is one Write of
# AppendBinary, and ReadCiphertext reads the ciphertext's bytes into
# ReadCiphertextBytes.
#
# 4115 -> 4211: +96 is the measured net growth of deriving KLSS keys on first
# use and typing the ciphertext wire errors. keys.go 281 -> 368 (+87):
# DeriveKLSS and its doc, the set's klss field (a sync.OnceValues) and the
# section lookup RelinKey and GaloisKey go through, galoisElements (the sort
# AppendBinary did inline, marshal.go -4), the KLSS-only sampler stream
# (klssSeedOffset, newKLSSGenerator), GenEvaluationKeySet split into the
# element list and genSection, and the EvaluationKeySet doc saying which keys
# a set holds. marshal.go 469 -> 478 (+9): invalidCiphertext and the deferred
# call that wraps ErrInvalidCiphertext once where ReadCiphertext and
# ReadCiphertextBytes return, and the AppendBinary doc.
#
# 4211 -> 4006: keys have no wire form. Went from marshal.go (478 -> 273):
# PublicKey, SwitchingKey and EvaluationKeySet AppendBinary, ParsePublicKey,
# ParseSecretKey, ParseSwitchingKey, ParseEvaluationKeySet, keyShape,
# cutBytes and the three key tags; from keys.go, DeriveKLSS's branch for a set
# that already holds parsed KLSS keys. SecretKey.AppendBinary stays: a legacy
# snapshot's stored secret is checked against it.
#
# 4006 -> 4130: +124 is the measured growth of the rotate-and-sum kernel.
# evaluator.go 668 -> 772: rotateHoistedSums (one decomposition serves the
# loose rotations and every sum; a rotated decomposition a sum needs is held
# and shared, a loose one is released after its key switch; rotation 0 adds
# the input; a repeated amount is one key switch), RotateSumWith and
# RotateHoistedSumsCtx with their docs. keyswitch.go 482 -> 502: keyMult
# takes a list of (decomposition, key) terms accumulated into one PQ pair
# before one ModDown (ksTerm, maxInnerTerms: per-row tables for h·β = 20 on
# the stack), with its doc.
#
# 4130 -> 4097: each evaluation key is derived on its first lookup, from a
# stream of its own. keys.go 368 -> 329: went DeriveKLSS, the section lookup
# and the klss field, galoisElements, addGalois, klssSeedOffset,
# newKLSSGenerator, genSection and GenEvaluationKeySet's KLSS branch; came
# in KeyID with its stream label, the lazyKey entry (a sync.OnceValues and a
# derived flag), NewEvaluationKeySet, deriveKey, the one lookup RelinKey and
# GaloisKey share, and Pending. GenEvaluationKeySet is the eager caller of
# the same derivation. params.go +6: GaloisElement and ConjugationElement
# (the evaluator's three element computations use them).
#
# 4097 -> 4077: no key has a wire form. marshal.go 273 -> 258: the secret
# key's wire encoder and tagSecretKey, whose one reader was the legacy
# snapshot check (keys.go: SecretKey.signed became a local of GenSecretKey).
# evaluator.go 772 -> 767: the cancellable hoisted rotation without sums,
# which had no caller (RotateHoistedSumsCtx serves every hoist group).
#
# 4077 -> 4028: a rotation permutes its key product, not its digits. Went:
# KeySwitcher.Automorph, rotateHoistedSums' held map of permuted
# decompositions and its two output loops, the separate body of
# Evaluator.automorphism (now a group of one) and the rotateHoisted wrapper
# (evaluator.go 767 -> 717). Came: keyProduct (split from keyMult: per row,
# each term's β-digit product permuted into the PQ accumulator; its stack
# tables hold β digits, not h·β), galoisSums (every rotation, sum and
# conjugation), and GenGaloisKey's switch to φ⁻¹(s) (keys.go 329 -> 331).
#
# 4028 -> 4045: evaluation keys are held at the width of their primes. Came
# to marshal.go (258 -> 264): appendPoly takes a packed poly too, written as
# the residues it holds (the key digests of the tests read keys through it);
# to keyswitch.go (501 -> 504): keyProduct's packed row tables and the width
# it passes to ring.Modulus.MulAccPackedRows; to keys.go (331 -> 339): the
# SwitchingKey doc names the layout, and genSwitchingKey packs each pair,
# reuses its scratch polynomials across the gadget groups and adds the
# gadget term on the group's own limbs only (S·w_j is 0 mod every other
# prime), which pays for the packing pass (ring.MulScalarBigint went).
#
# 4045 -> 4069: +24 is the measured growth of encoding without big values.
# encoder.go: scaleToInt64 and its doc 9 (for a power-of-two scale and a
# product below 2^63, math.Round of the exact float64 product is
# scaleToInt's result), EncodeAtLevel's power-of-two test and int64
# coefficients written by ring.SetSigned, with the big.Float loop kept for
# every other scale, 15.
#
# 4069 -> 4102: +33 is the measured growth of forking once per stage, against
# -29 in internal/ring and -21 in internal/rns (net -17 across the three).
# evaluator.go: the Mul tensor and final adds and a hoisted sum's c0 adds as
# limb forks of per-row kernels (ring.Modulus.MulAccRows, AddVec,
# PermuteAddRow), the Rescale's two component tasks, and MulRelinRescaleCtx,
# MulPlainRescaleCtx, MulConstRescaleCtx with rescaled, which draw a
# rescaling op's product from the pool (717 -> 766). keyswitch.go: ModUp as
# one task per digit (modUpDigit stages the digit in its own output rows, so
# the coefficient-form copy of the input went) and ModDown as two component
# tasks (504 -> 493). polyeval.go: mulRescaleCC rescales through rescaled
# (328 -> 323).
CKKS_LOC_MAX ?= 4102

MODEL_GO = internal/aether/*.go internal/costmodel/*.go internal/sim/*.go internal/trace/*.go \
	internal/workloads/*.go internal/baselines/*.go perf.go cmd/aether/*.go cmd/fastsim/*.go

loc:
	@n=$$(ls *.go | grep -v _test.go | xargs cat | wc -l); \
	echo "root package: $$n non-test lines (budget $(ROOT_LOC_MAX))"; \
	[ $$n -le $(ROOT_LOC_MAX) ]
	@n=$$(ls $(MODEL_GO) | grep -v _test.go | xargs cat | wc -l); \
	echo "performance model (costmodel, aether, sim, trace, workloads, baselines, perf.go, cmd/{aether,fastsim}): $$n non-test lines (budget $(MODEL_LOC_MAX))"; \
	[ $$n -le $(MODEL_LOC_MAX) ]
	@n=$$(ls cmd/fastd/*.go internal/session/*.go | grep -v _test.go | xargs cat | wc -l); \
	echo "cmd/fastd + internal/session: $$n non-test lines (budget $(FASTD_LOC_MAX))"; \
	[ $$n -le $(FASTD_LOC_MAX) ]
	@n=$$(ls internal/ckks/*.go | grep -v _test.go | xargs cat | wc -l); \
	echo "internal/ckks: $$n non-test lines (budget $(CKKS_LOC_MAX))"; \
	[ $$n -le $(CKKS_LOC_MAX) ]

clean:
	$(GO) clean ./...
	rm -f cover.out
