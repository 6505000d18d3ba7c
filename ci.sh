#!/bin/sh
# Repo verification: formatting, vet, doc coverage, build, the full test
# suite under the race detector (the race run is what enforces the
# strsim.Cache concurrency contract and the parallel pipeline's
# worker-pool discipline), and a short-mode smoke run of the no-op-sink
# overhead benchmark (guards the "nil metrics sink is free" claim of
# OBSERVABILITY.md).
set -eux

cd "$(dirname "$0")"

# gofmt -l lists unformatted files; any output is a failure.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...

# Every exported identifier must carry a doc comment, and the design
# references must not name repo paths that no longer exist (see
# cmd/doccheck; .md arguments select the reference-check mode), and the
# "Benchmark errata" table of EXPERIMENTS.md must name only rows the
# frozen benchmark still has (-errata).
go run ./cmd/doccheck -errata EXPERIMENTS.md \
    . \
    ./internal/classifier \
    ./internal/cluster \
    ./internal/core \
    ./internal/datagen \
    ./internal/domains \
    ./internal/dsu \
    ./internal/embed \
    ./internal/eval \
    ./internal/experiments \
    ./internal/graph \
    ./internal/index \
    ./internal/intern \
    ./internal/obs \
    ./internal/parallel \
    ./internal/predicate \
    ./internal/rankquery \
    ./internal/records \
    ./internal/score \
    ./internal/segment \
    ./internal/server \
    ./internal/shard \
    ./internal/stream \
    ./internal/strsim \
    ./internal/wal \
    DESIGN.md \
    EXPERIMENTS.md \
    INCREMENTAL.md \
    OBSERVABILITY.md \
    README.md \
    SERVING.md

# Metric and trace span names in code must match the OBSERVABILITY.md
# registry in both directions, and the registry must mangle injectively
# to valid Prometheus family names (see cmd/obscheck).
go run ./cmd/obscheck -doc OBSERVABILITY.md \
    . \
    ./internal/classifier \
    ./internal/cluster \
    ./internal/core \
    ./internal/experiments \
    ./internal/obs \
    ./internal/parallel \
    ./internal/server \
    ./internal/stream \
    ./internal/wal

# One blocking path: predicate.P.Block (which core.BlockReps wraps) is
# the only non-test code outside internal/index that builds an index, and
# no pipeline package keeps a string-keyed bucket or owner map of its own.
if grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=index --exclude-dir=.bench_build 'index\.BuildID(' . | grep -v '^\./internal/predicate/predicate\.go:'; then exit 1; fi
if grep -rnE --include='*.go' --exclude='*_test.go' 'map\[string\](\[\]int32|int32)' internal/core internal/rankquery internal/stream internal/experiments; then exit 1; fi

# An index build keeps nothing between calls: predicate.P.Block numbers
# its keys itself (renumbering a domain's key ids through a pooled table
# it resets, or interning Keys into a map of its own), and core (the
# bound scan included) reads the index it builds, never an intern.Table.
# Gram keys are the cache's gram ids (their text its sorted grams), with
# no per-domain key prefix built onto each.
if grep -rn --include='*.go' --exclude='*_test.go' 'topkdedup/internal/intern"' internal/core; then exit 1; fi
if grep -rn --include='*.go' --exclude='*_test.go' 'keyPrefix' internal/domains; then exit 1; fi

# One route to a pruning, each piece of work once: segment.BestR and the
# canonical group order stay off reflection-based sort.Slice (BestR
# merges sorted rows; groups sort by slices.SortFunc, which allocates
# nothing), and so does every other non-test file of internal/core.
if grep -n --include='*.go' --exclude='*_test.go' -r 'sort\.Slice(' internal/segment internal/core; then exit 1; fi

# One §4.2 bound scan: the consume loop (the incremental prefix, block
# events) lives in one non-test file — core.EstimateLowerBoundCtx's.
for pat in 'graph.NewPrefix(' '"bound.block"'; do
    n=$(grep -rlF --include='*.go' --exclude='*_test.go' --exclude-dir=graph --exclude-dir=obs --exclude-dir=.bench_build "$pat" . | wc -l)
    if [ "$n" -ne 1 ]; then
        echo "$pat appears in $n non-test files outside internal/graph and internal/obs, want 1" >&2
        exit 1
    fi
done

# One Algorithm-2 level loop: core's prunedDedup. The §7
# rank queries finish a core pruning (M := T for the thresholded one)
# and never collapse or prune on their own.
if grep -rnF --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark --exclude-dir=.bench_build 'for li, level := range levels' . | grep -v '^\./internal/core/pruneddedup\.go:'; then exit 1; fi
if grep -rnE --include='*.go' --exclude='*_test.go' 'core\.(Collapse|Prune)\(' internal/rankquery; then exit 1; fi

# One union-find on the write path: stream.Incremental owns the only
# growable DSU (the sufficient closure Add maintains is also what decides
# which groups a publish rebuilds).
n=$(grep -rlF --include='*.go' --exclude='*_test.go' --exclude-dir=dsu --exclude-dir=.bench_build 'dsu.NewGrowable(' . | wc -l)
if [ "$n" -ne 1 ]; then
    echo "dsu.NewGrowable( is called from $n non-test files outside internal/dsu, want 1" >&2
    exit 1
fi

# One closure kernel: core.Insert is the sufficient closure's only step,
# called by the batch collapse (internal/core/collapse.go) and by the
# streaming accumulator's Add (internal/stream/stream.go) and by nothing
# else, so a served level 1 is batch's collapse, eval count included.
callers=$(grep -rlE --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark --exclude-dir=.bench_build '(^|[^.[:alnum:]_]|core\.)Insert\(' . | sort | tr '\n' ' ')
if [ "$callers" != "./internal/core/collapse.go ./internal/stream/stream.go " ]; then
    echo "core.Insert is called from: $callers; want internal/core/collapse.go and internal/stream/stream.go" >&2
    exit 1
fi

# One verdict path in the prune pass: the Pruner holds one evaluator,
# (i, j), and its walk calls it from one place, when a pair's shared-key
# count reaches its need — a predicate's count filter is read when the
# predicate is bound (predicate.P.BoundNeed), never by a second loop
# body.
n=$(grep -c 'p\.eval(' internal/core/prune.go)
if [ "$n" -ne 1 ]; then
    echo "internal/core/prune.go calls p.eval( from $n places, want 1" >&2
    exit 1
fi

# What earlier PRs measured and deleted does not come back (in table
# order: engine seeding, the estimator seam, the second union-find, the
# sketch tier, sharding as a tier, WAL snapshots, the in-process sharded
# pipeline and the part-generic bound scan it needed, the WAL's segment
# chain with the knobs only tests set and the obs exports nothing
# called, the snapshot's per-K memo and the default-mode knob, the
# engine, domain and trainer options no program set and the exports no
# program called, the stamp-form candidate walk prune no longer
# collects, the serving knobs only one value of was ever set and the
# strsim exports only their own tests called, the prune pass's sorted
# candidate list and shared-count verdict, the server's trace accessor
# nothing called, the second closure kernel: collapse's chunked
# verify-and-merge, the accumulator's one-eval-per-root dedup and the
# collapse wrappers folded into core.Collapse, every way to time or
# trace a phase but obs.Start, and the gram cache's memos of sorted gram
# strings and of gram maps with the hand-locked id maps beside them, now
# the gram ids an index build reads and an intern.Table). One item a
# line:
# `path`s must not exist; `go` is an ERE no .go file outside the frozen
# benchmark/ may match; `text` an ERE no file may match outside
# benchmark/ and the history files; `flag` an ERE of topkd flag names.
gone() {
    while read -r kind what; do
        case "$kind" in
        path) for f in $what; do if [ -e "$f" ]; then echo "$f exists" >&2; exit 1; fi; done ;;
        go) if grep -rnE --include='*.go' --exclude-dir=benchmark --exclude-dir=.bench_build -- "$what" .; then exit 1; fi ;;
        text) if grep -rnE --exclude=CHANGES.md --exclude=ROADMAP.md --exclude=ISSUE.md --exclude=ci.sh --exclude='BENCH_*' --exclude-dir=benchmark --exclude-dir=.bench_build --exclude-dir=.git -- "$what" .; then exit 1; fi ;;
        flag) if go run ./cmd/topkd -h 2>&1 | grep -E "^ +-($what)\\b"; then exit 1; fi ;;
        *) echo "gone: bad line: $kind $what" >&2; exit 1 ;;
        esac
    done
}
gone <<'EOF'
text StartGroups
text BoundEstimator
text topkdedup/internal/inc"
path internal/sketch
text topkdedup/internal/sketch
text SketchCapacity|AuditRate|sketch-capacity|audit-rate
path internal/shard/http.go internal/shard/replica.go internal/server/shardnode.go
go /shard/|ShardPeers|SetShards
path internal/faulty internal/wal/snapshot.go
text internal/faulty
text TKWALSN1|WALSnapshotEvery|wal-snapshot-every|snapMu
go Checkpoint\(
flag role|peers|replicate|shards|wal-snapshot-every
path SHARDING.md internal/shard/coordinator.go internal/shard/worker.go internal/shard/partition.go internal/shard/testdata internal/experiments/shard.go
go BoundParts|PartScan|ReplayBound|LocalPrefix|PrefixController|shardParts
text FuzzBoundMerge|SHARDING\.md
text SegmentBytes|SyncEvery|wal\.segment\.rotations|wal\.open\.segments|RuntimeSampleInterval|runtime-sample-interval|PublishExpvar|DefaultSLOObjectives
flag runtime-sample-interval
go FreshTopKCtx|prunedOnce|DefaultMode
text stream\.topk\.reused|mode-default
flag mode-default
go ModeViterbi|ScaleByMembersOff|EmbedAlpha|MaxGroupWidth|NonCandidatePenalty|SetPrunePasses|AddressOptions|TuneNecessary|Soundex
path internal/predicate/tune.go internal/strsim/phonetic.go
go \(ix \*IDIndex\) Candidates\(|ix\.Candidates\(
flag refresh-every|wal-fsync|trace-limit|slo-target
go \b(RefreshEvery|TraceLimit|SyncInterval|SLOConfig|syncLoop|SetWorkers)\b
go \b(Jaccard|Overlap|Dice)(\[[a-z]+\])?\(|\b(Jaccard|Overlap|Dice)\[|\b(TermCounts|TopIDFTokens|VocabSize)\b
go \b(heavierFirst|gatedCand|BoundCounted|BindRepsCounted|CandidatesCounted|ClearCounts)\b|\(s \*Server\) Tracer\(
go \b(collapseChunk|seenRoot|CollapseWorkers)\b|\(pl \*PreparedLevel\) collapsed\(
go obs\.(Span|StartSpan|ObserveSince|ObserveDuration)\b
go obs\.(StartChild|TraceSpan|SpanFromContext)\b|\.StartTrace\(
go sorted +\*Memo|\bc\.sorted\b|\b(internMu|internSorted)\b|\b(gramID|tokID) +map\[|\bc\.grams\b|\(c \*Cache\) TriGrams\(
EOF

# One clock per phase: core's phases and the engine's are timed by the
# obs.Start phase that also files their span and their .seconds
# observation (LevelStats store what End returns), so no non-test file
# of internal/core, engine.go or dedup.go reads the clock itself.
if grep -nE 'time\.(Now|Since)\(' internal/core/*.go engine.go dedup.go | grep -v '_test\.go:'; then exit 1; fi

# One memo on the read path: the epoch's (internal/server/cache.go). A
# Snapshot is immutable and holds no lock, so snapshot.go needs no sync.
if grep -n '"sync"' internal/stream/snapshot.go; then exit 1; fi

# One similarity kernel: feature vectors and predicates read
# strsim.PairScratch or the Cache's id slices, never a per-call map-built
# gram or token set; QGrams and TokenSet stay for the kernel's
# map-based reference in internal/strsim's tests.
if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark --exclude-dir=.bench_build 'strsim\.(QGrams|TokenSet)\(' .; then exit 1; fi

go build ./...
go test -race ./...

# The benchmark harness is its own module (benchmark/go.mod replaces
# topkdedup with this checkout), so the build and tests above do not
# notice when an internal/ signature it imports changes. Vet it and run
# its smoke test (a few hundred records per workload, correctness gate
# included).
(cd benchmark && go vet . && go test -count=1 .)

# Serving-layer smoke: topkd brings itself up on an ephemeral port, runs
# a full client session (healthz, ingest, topk, rank, metrics), and
# shuts down gracefully.
go run ./cmd/topkd -smoke

# Prometheus scrape smoke: a real topkd smoke session writes its
# /metrics?format=prom scrape to a file, and obscheck parses
# it as an exposition and diffs every scraped family against the
# OBSERVABILITY.md registry — an undocumented metric in a live scrape
# fails CI.
promscrape=$(mktemp)
go run ./cmd/topkd -smoke -smoke-prom "$promscrape"
go run ./cmd/obscheck -doc OBSERVABILITY.md -prom "$promscrape"
rm -f "$promscrape"

# Durability smoke (SERVING.md "Durability"): a child topkd is SIGKILLed
# mid-ingest and restarted on the same WAL directory; every acknowledged
# batch must be recovered whole, and the reborn server must answer
# queries and accept new ingests. The byte-level recovery guarantees
# are pinned by the deterministic crash-point tests (wal.CrashAt) in
# the race suite above; this exercises a real process kill end to end.
go run ./cmd/topkd -crash-smoke

# Fuzz smoke: a few seconds per target over the committed seed corpora
# (similarity-measure contracts; R-best segmentation DP invariants; WAL
# replay).
go test -run '^$' -fuzz '^FuzzStrsim$' -fuzztime 5s ./internal/strsim
go test -run '^$' -fuzz '^FuzzSegmentDP$' -fuzztime 5s ./internal/segment
go test -run '^$' -fuzz '^FuzzWALReplay$' -fuzztime 5s ./internal/wal

# Smoke-run the instrumentation overhead benchmarks (one iteration per
# variant; the full comparisons are `go test -bench=NoopSinkOverhead`
# and `go test -benchmem -bench=EngineTopKTracing`).
go test -run '^$' -bench 'BenchmarkNoopSinkOverhead|BenchmarkEngineTopKTracing' -benchtime 1x -short .
go test -run '^$' -bench 'BenchmarkPromExposition' -benchtime 1x ./internal/obs

# Exact-count gate: the pruning pipeline's per-level counts (n, m, M, n′,
# bound, prune and collapse evaluations) on fixed-seed citation, students
# and address datasets, K in {1, 10, 50}. Host-independent, unlike every wall-clock
# row, so a change that evaluates, keeps or orders differently fails here
# by name. The final-phase golden pins what comes after the pruning on
# the same datasets with the trained scorers: a hash of the TopK(K, 3)
# answers and engine.final.scored_pairs per K; the Dedup golden pins
# Engine.Dedup's groups and score on the citation dataset. The served
# pipeline (a stream snapshot) equals batch on the same three domains,
# every eval count included.
go test -count=1 -run 'TestExactCountsCitations|TestServedMatchesBatch|TestFinalPhaseGolden|TestDedupGolden' .

# Each phase reports once: LevelStats times are their spans' Dur and
# their .seconds observations exactly; what the pipeline emits, its
# EXPLAIN and its span tree are pinned on the citation dataset; a phase
# on an untraced context with a nil sink allocates nothing.
go test -count=1 -run 'TestPhaseTimesAreSpanTimes|TestObservabilityGolden|TestTracerUntracedNoAllocs' .

# The pair kernel holds every built-in feature vector to the map-based
# reference bit for bit, at one allocation per pair; smoke the per-domain
# kernel-versus-reference benchmark one iteration each.
go test -count=1 -run 'TestFeatureVectorsMatchReference|TestFeatureVecAllocs|TestPairMatchesReference' ./internal/strsim
go test -run '^$' -bench 'BenchmarkFeatureVec' -benchtime 1x ./internal/strsim

# Alloc-regression smoke: the allocation pins (stage-0 prune rescan, the
# §4.2 bound scan, bound predicate evaluators, pooled tokeniser, stop-word
# fast path) run as ordinary tests via testing.AllocsPerRun; re-run them
# by name so a steady-state allocation sneaking into the hot path fails
# CI even when unrelated packages are skipped, and smoke the hot-path
# benchmarks one iteration each.
go test -run 'TestStage0PruneNoAllocs|TestPrunePassAllocs|TestBoundScanAllocs' ./internal/core
# The prune kernel walks only as far as its verdicts read and evaluates
# a pair only once it shares its need of keys: stage 0 must leave every
# bound and kill of the full-walk reference kept in its test file, each
# exact pass must keep exactly the groups the brute-force reference
# keeps, and a count filter must keep the survivors of its need-1 twin
# at no more evaluations. The count filters themselves: OverlapNeed is
# the smallest count that clears, BoundNeed hands each record's need
# over, and every domain's matching candidate pairs share their need.
go test -count=1 -run 'TestStage0MatchesFullWalk|TestPassMatchesReference|TestPrunerCountFormMatchesEvalTwin' ./internal/core
go test -count=1 -run 'TestOverlapNeed' ./internal/strsim
go test -count=1 -run 'TestBoundNeedForms' ./internal/predicate
go test -count=1 -run 'TestCountFormMatchesMatch' ./internal/domains
# One index build is a handful of allocations whatever its key count
# (TestBlockAllocs); the CSR index answers every query as the
# bucket-per-key reference does; the bound scan reads the level's index,
# so a repeated key cannot make a group its own candidate.
go test -count=1 -run 'TestBlockAllocs|TestBoundScanRepeatedKeys' ./internal/core
go test -count=1 -run 'TestIDIndexMatchesReference' ./internal/index
# Block reads the key ids a domain memoises and builds, for every
# predicate of every domain, the index the string keys give (the
# string-keyed build is the reference in the test file), also when
# several builds mint a fresh domain's ids at once; smoke the
# per-predicate build benchmark one iteration each.
go test -race -count=1 -run 'TestBlockIDsMatchStringKeys|TestBlockIDsConcurrentMint' ./internal/domains
go test -count=1 -run 'TestBlockReadsKeyIDs' ./internal/predicate
go test -run '^$' -bench 'BenchmarkBlock' -benchtime 1x ./internal/domains
go test -run 'TestBoundEvalNoAllocs' ./internal/domains
go test -run 'TestTokenScratchNoAllocs|TestStopWordsContainsNoAllocLowercase|TestPairScratchNoAllocs' ./internal/strsim
go test -run 'TestAnswerCacheHitNoAllocs' ./internal/server
# A coalesced /topk or /rank waiter whose own request is live computes
# the key itself when the owner's request is cancelled.
go test -count=1 -run 'TestCoalescedWaiterOutlivesOwnerCancel' ./internal/server
go test -run '^$' -bench 'BenchmarkStage0Prune' -benchtime 1x ./internal/core
go test -run '^$' -bench 'BenchmarkTokenSet|BenchmarkIndexBuild' -benchtime 1x ./internal/strsim ./internal/index
