#!/usr/bin/env bash
# CI gate: vet, build, full test suite under the race detector, and a
# one-iteration benchmark smoke so the per-figure benchmarks stay runnable.
# Usage: scripts/ci.sh  (from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
  echo "gofmt needed on:" >&2
  echo "$unformatted" >&2
  exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test -race"
go test -race ./...

echo "== parallel determinism gate (GOMAXPROCS=2 and NumCPU, under -race)"
# The full suite above ran at the host's default GOMAXPROCS; re-run the
# executor equivalence and pinned-batch tests at a forced 2 so a many-core
# host also exercises the constrained-budget schedule (and a 1-core host
# exercises a parallel one).
# The world-stepping helper (network.Lookahead, a routing run's live world
# stepped on a budget token) gets the same two settings: aggregates and
# registry counters identical with the helper forced off and on, no
# goroutine left after a failing run, and the streaming tape's reader
# waiting at step gaps, matching live stepping and a RecordTrajectory tape,
# from a kept replay world reset in place without allocating.
# Replicated runs draw run state from a free list concurrently, so the
# harnesses' recycling tests run here too: a recycled state (agents, maps,
# visit tables, footprint board) must give a fresh state's results, a
# warm state must be reused in place (allocation pin included: meetings
# run on the state's own scratch, so it holds under -race), and a garbage
# collection must not empty the list (RunStateSurvivesCollection).
# Measurement trails the run on the helper (or on a measure-only helper
# for replay and static worlds): every Result identical with helpers off
# and on over live, replay and static worlds, a Meter fed only logged
# change records equal to the inline Meter and the scratch referee, and
# no goroutine left after a run or a measurement that panics.
GOMAXPROCS=2 go test -race -run 'ParallelEquivalence|ParallelDeterminism|ParallelSharedWorld|BatchPinned|TestReplicate|LookaheadEquivalence|LookaheadMetrics|LookaheadPanic|RecycledStateMatchesFresh|RunReusesPooledAgents|RunStateSurvivesCollection|MeterFedFromChangeLog|HelperPanic|MeasurePipe|SpareTracksTokens' \
  . ./internal/routing ./internal/mapping ./internal/parallel
go test -race -run 'ParallelEquivalence|ParallelDeterminism|TestReplicate|LookaheadEquivalence|LookaheadMetrics|LookaheadPanic|RecycledStateMatchesFresh|RunReusesPooledAgents|RunStateSurvivesCollection|MeterFedFromChangeLog|HelperPanic|MeasurePipe|SpareTracksTokens' \
  . ./internal/routing ./internal/mapping ./internal/parallel
GOMAXPROCS=2 go test -race -count=1 -run 'Lookahead|StreamingTape' ./internal/network
go test -race -count=1 -run 'Lookahead|StreamingTape' ./internal/network

echo "== incremental-vs-rebuild topology equivalence gate (GOMAXPROCS=2 and NumCPU, -race)"
# The full -race suite above already runs these, but the equivalence of the
# incremental topology engine against the full per-step rebuild is a
# correctness cornerstone (bit-identical graphs under mobility, decay, and
# mode toggles), so it gets an explicit named gate that fails loudly on
# its own. TopoDeltasReplayTopology checks that the per-step edge-change
# stream is the exact graph diff on every stepping path (incremental,
# full rebuild, fault and partition steps, replay worlds), and
# TrajectoryTapeMatchesDiffReferee that the replay tape built from it is
# byte-identical to a full-diff referee's. KineticCertificatesAdversarial
# and the FuzzIncrementalTopology seed corpus drive the pair certificates
# through worlds built to break them (fast nodes, threshold pairs, bound
# violations, faults). The gate runs at a forced GOMAXPROCS=2 next to the
# host default.
GOMAXPROCS=2 go test -race -count=1 \
  -run 'IncrementalMatchesFullRebuild|IncrementalModeToggle|IncrementalChurnCounters|WorldStepZeroAllocs|TopoDeltasReplayTopology|TrajectoryTapeMatchesDiffReferee|KineticCertificatesAdversarial|FuzzIncrementalTopology' \
  ./internal/network
go test -race -count=1 \
  -run 'IncrementalMatchesFullRebuild|IncrementalModeToggle|IncrementalChurnCounters|WorldStepZeroAllocs|TopoDeltasReplayTopology|TrajectoryTapeMatchesDiffReferee|KineticCertificatesAdversarial|FuzzIncrementalTopology' \
  ./internal/network

echo "== fault-injection gate (churn/partition equivalence + snapshot round-trip, -race)"
# The fault engine must leave every stepping path bit-identical: the
# engine-level equivalence test drives every fault preset through the
# incremental and full-rebuild engines against a brute-force referee, and
# the harness-level test pins aggregates across runworkers in {1,2,4}.
# The snapshot tests gate the versioned faulted round-trip, and the
# distance-vector baseline must label every exported route with the
# gateway it tracks while gateways fail and recover.
GOMAXPROCS=2 go test -race -count=1 \
  -run 'FaultedEnginesMatch|FaultedSnapshotRoundTrip|SnapshotVersionRejected' \
  ./internal/network
go test -race -count=1 \
  -run 'FaultedRunEquivalence|FaultCountersPinned|RoutingChurnResultPinned|DistanceVectorGatewayFailure' \
  . ./internal/network ./internal/routing ./internal/baseline

echo "== record/replay determinism gate"
# A recorded binary log must reconstruct the world bit-identically from
# snapshot anchors + deltas: record one small dynamic run, one faulted
# (churn) routing run and one churn-faulted mapping run, then verify each
# in full lockstep (the routing ones at a mid-run seek too). The one log
# reader's other modes get a smoke: the JSONL export and the summary of
# the routing log, and the export of a truncated log must exit 1.
replaydir=$(mktemp -d)
go build -o "$replaydir" ./cmd/routing ./cmd/mapping ./cmd/replay
"$replaydir/routing" -nodes 60 -edges 400 -gateways 4 -agents 20 -steps 80 \
  -runs 1 -anchorevery 25 -binlog "$replaydir/run.alog" >/dev/null
# grep without -q so it drains the pipe to EOF: -q exits at the first
# match, and replay prints a summary line after it, so the writer can
# take a SIGPIPE (exit 141 under pipefail) depending on scheduling.
"$replaydir/replay" -log "$replaydir/run.alog" -verify | grep '^verify ok' >/dev/null
"$replaydir/replay" -log "$replaydir/run.alog" -step 40 -verify | grep '^verify step=40 ok' >/dev/null
"$replaydir/routing" -nodes 60 -edges 400 -gateways 4 -agents 20 -steps 120 \
  -runs 1 -anchorevery 30 -faults churn -binlog "$replaydir/churn.alog" >/dev/null
"$replaydir/replay" -log "$replaydir/churn.alog" -verify | grep '^verify ok' >/dev/null
"$replaydir/replay" -log "$replaydir/churn.alog" -step 77 -verify | grep '^verify step=77 ok' >/dev/null
"$replaydir/mapping" -runs 1 -maxsteps 400 -faults churn -binlog "$replaydir/mapping.alog" >/dev/null
"$replaydir/replay" -log "$replaydir/mapping.alog" -verify | grep '^verify ok' >/dev/null
"$replaydir/replay" -log "$replaydir/run.alog" -jsonl > "$replaydir/run.jsonl"
grep '^{"step":0,"kind":"move",' "$replaydir/run.jsonl" >/dev/null
"$replaydir/replay" -log "$replaydir/run.alog" -summary | grep '^agent activity: 20 agents' >/dev/null
head -c "$(( $(wc -c < "$replaydir/run.alog") / 2 ))" "$replaydir/run.alog" > "$replaydir/trunc.alog"
set +e
"$replaydir/replay" -log "$replaydir/trunc.alog" -jsonl >/dev/null 2>&1
status=$?
set -e
if [ "$status" != 1 ]; then
  echo "FAIL: replay -jsonl on a truncated log exited $status, want 1" >&2
  exit 1
fi
rm -rf "$replaydir"

echo "== corrupt-log gate (framing fuzz seeds + corruption table + codec pipeline, GOMAXPROCS=1, 2 and NumCPU, -race)"
# Truncated, bit-flipped, version-bumped, and garbage logs must produce
# clean errors — never panics or runaway allocations. The fuzz targets run
# their seed corpus as ordinary tests here; scheduled fuzzing can go
# deeper with: go test -fuzz FuzzLogReader ./internal/trace
# The block codec compresses and inflates on helper goroutines, so the
# gate also pins the pipelined writer byte for byte to its synchronous
# reference, its failure and early-stop paths, and its reuse of deflate
# state. It runs at GOMAXPROCS=1 too: the pipeline must not need a second P.
corrupt_gate='TestBinlogCorruption|FuzzLogReader|LogWriterFailFast|LogWriterMatchesSyncReference|LogWriterPipelineFailure|LogReaderCorruptBlockInOrder|LogReaderStopAwaitsHelper|LogWriterReusesDeflateState'
GOMAXPROCS=1 go test -race -count=1 -run "$corrupt_gate" ./internal/trace
GOMAXPROCS=2 go test -race -count=1 -run "$corrupt_gate" ./internal/trace
go test -race -count=1 -run "$corrupt_gate" \
  ./internal/trace

echo "== replay determinism tests (pinned runs + log byte pins + faulted round-trips)"
# The pinned logs (a dynamic routing run, a churn-faulted one, and a static
# mapping world under churn) are pinned by length and FNV-64a hash, so a
# codec change that moves any log byte fails here at test size. Replay must
# also reject a delta naming nodes outside the recorded world, and the
# JSONL export must match the events a trace.Buffer sees byte for byte.
go test -count=1 -run 'TestReplayMatchesPinnedRun|TestReplayChurnLogPinned|TestReplayStaticMappingLogPinned' .
go test -count=1 -run 'TestLogRoundTrip|TestDeltaOutsideWorldRejected|TestExportJSONL|FuzzExportJSONL' ./internal/replay

echo "== trajectory replay gate (cached-stepping equivalence + tape size + lazy geometry, -race)"
# The record-once/replay-many engine must stay bit-identical to live
# stepping at every worker setting, and its tape must stay as compact as
# the predictor lanes make it (TestTrajectoryCompact), and byte-identical
# to the full-diff referee's (TestTrajectoryTapeMatchesDiffReferee). The
# tape's geometry stream encodes positions and ranges with the binary
# log's trace.DeltaCodec, whose decoder the corrupt-log gate fuzzes
# (FuzzLogReader); FuzzTrajectoryDecoder runs its seed corpus of real
# tapes here (go test -fuzz FuzzTrajectoryDecoder -fuzzminimizetime 2s
# ./internal/network goes deeper). Replay worlds decode geometry only when
# it is read: ReplayGeometryOnDemand reads snapshots on several schedules
# under every fault preset, from fresh and reused Lookahead worlds whose
# tape is still being written, an untraced routing run on a replay world
# must decode no geometry at all (DecodesNoGeometry), and a traced one
# must write the live run's log byte for byte (ReplayWorldLogPinned).
go test -race -count=1 -run 'Trajectory|StepRecorder|RunManyCached|ReconstructAt|ReplayGeometry|DecodesNoGeometry' \
  ./internal/network ./internal/mapping ./internal/routing ./internal/replay
go test -race -count=1 -run 'ReplayWorldLogPinned' .

echo "== incremental-measurement equivalence gate (-race)"
# The churn-proportional measurement meter must report bit-identical
# numbers to the full scratch recompute at every step — across fault
# presets, stepping engines, trajectory replay, worker grids, arbitrary
# table mutations, skipped measures, and a reset onto a differently sized
# world. These run in the full -race suite above too, but the meter is the
# only measurement path of every routing run (its ideal-connectivity
# forest included) and of the ant-colony and distance-vector baselines
# (BaselineMeasureMatchesReferee), so they get an explicit named gate that
# fails loudly on its own. The referee is the scratch measure kept in
# internal/routing/referee_test.go. DynReach is the witness-forest engine under both forests.
# MeterPartitionStaysIncremental pins that partition-active steps, whose
# edge edits the world reports exactly, cost no resync. The meter's table
# feed is routing.Tables' dirty list: TablesEveryWriteTracked pins that
# every row-changing Update and DropIf marks its node exactly once, with
# no Meter attached; the Table* tests and FuzzTableUpdate pin the row
# semantics (freshest-wins, stalest-first eviction, the O(1) eviction
# total, allocation-free reset).
go test -race -count=1 \
  -run 'MeterMatchesFullMeasure|BaselineMeasureMatchesReferee|MeterRunManyGrids|MeterPropertyRandomMutations|MeterSteadyStateAllocs|FuzzMeterEquivalence|MeterIdealReplay|MeterResetRebinds|MeterSkippedStepsResync|MeterStaysIncremental|MeterPartitionStaysIncremental|TablesEveryWriteTracked|TablesEvictionsTotal|TableUpdateAndLookup|TableEviction|TableUnbounded|TableEntries|TableResetZeroAllocs|FuzzTableUpdate' \
  ./internal/routing
go test -race -count=1 -run 'ConnTracker|DynReach' ./internal/network ./internal/graph

echo "== visit-memory equivalence gate (GOMAXPROCS=2 and NumCPU, -race)"
# The dense node-indexed visit memory must stay observably identical to
# the map-backed reference kept in internal/knowledge/visits_ref_test.go:
# the differential tests (FuzzVisitsOps runs its seed corpus as an
# ordinary test here; go test -fuzz FuzzVisitsOps goes deeper), the
# allocation budgets, and every pinned result, including the
# super-conscientious pin whose unbounded merges exercise it most. Its
# four-worker twin runs the pinned runs side by side on a run pool, so
# they share the merge-lineage token counter across goroutines; the gate
# also runs at a forced GOMAXPROCS=2.
GOMAXPROCS=2 go test -race -count=1 -run 'Visits|MergeAll|FuzzVisitsOps|Pinned' \
  ./internal/knowledge ./internal/core .
go test -race -count=1 -run 'Visits|MergeAll|FuzzVisitsOps|Pinned' \
  ./internal/knowledge ./internal/core .

echo "== cached-sweep byte-identity gate (worldcache on/off, pointworkers 1 and 4, runworkers 1 and default)"
# The whole point of the trajectory cache is that nobody can tell it is on:
# for both scenarios, clean and faulted, the cached sweep's CSV must be
# byte-identical to the live-stepping sweep's at any point parallelism.
# The live sweep runs at -runworkers 1 and at the default (one run worker
# per CPU), which must agree byte for byte too.
sweepdir=$(mktemp -d)
go build -o "$sweepdir" ./cmd/sweep
for sc in routing mapping; do
  for preset in "" churn; do
    "$sweepdir/sweep" -scenario "$sc" -param agents -values 5,10 -runs 2 \
      ${preset:+-faults "$preset"} -worldcache=0 -runworkers 1 > "$sweepdir/live.csv"
    "$sweepdir/sweep" -scenario "$sc" -param agents -values 5,10 -runs 2 \
      ${preset:+-faults "$preset"} -worldcache=0 > "$sweepdir/live-default.csv"
    diff "$sweepdir/live.csv" "$sweepdir/live-default.csv" \
      || { echo "FAIL: sweep ($sc faults='$preset') at default -runworkers differs from -runworkers 1" >&2; exit 1; }
    for pw in 1 4; do
      "$sweepdir/sweep" -scenario "$sc" -param agents -values 5,10 -runs 2 \
        ${preset:+-faults "$preset"} -worldcache=1 -pointworkers "$pw" > "$sweepdir/cached.csv"
      diff "$sweepdir/live.csv" "$sweepdir/cached.csv" \
        || { echo "FAIL: cached sweep ($sc faults='$preset' pointworkers=$pw) differs from live" >&2; exit 1; }
    done
  done
done
rm -rf "$sweepdir"

echo "== benchmark smoke (1 iteration each)"
go test -run '^$' -bench . -benchtime=1x -benchmem .

echo "== bench.sh smoke (artifact pipeline, temp output)"
benchout=$(mktemp -d)
BENCH_OUT="$benchout" scripts/bench.sh 1x >/dev/null
test -s "$benchout/BENCH_parallel.json"
grep -q '"speedup_vs_sequential"' "$benchout/BENCH_parallel.json"
test -s "$benchout/BENCH_incremental.json"
grep -q '"speedup_vs_rebuild"' "$benchout/BENCH_incremental.json"
test -s "$benchout/BENCH_trace.json"
grep -q '"jsonl_over_binary"' "$benchout/BENCH_trace.json"
test -s "$benchout/BENCH_trajectory.json"
grep -q '"speedup_vs_live"' "$benchout/BENCH_trajectory.json"
test -s "$benchout/BENCH_connectivity.json"
grep -q '"speedup_vs_full"' "$benchout/BENCH_connectivity.json"
rm -rf "$benchout"

echo "== metrics exposition smoke"
go run ./cmd/routing -runs 1 -metrics /tmp/ci-metrics.txt >/dev/null
grep -q '^routing_moves_total ' /tmp/ci-metrics.txt
rm -f /tmp/ci-metrics.txt

echo "CI OK"
