#!/usr/bin/env bash
# Replication benchmark harness: runs the RunMany batch benchmarks
# (sequential vs parallel executor) plus a sweep wall-clock comparison, and
# emits both the raw `go test -bench` output (results/bench_parallel.txt)
# and a machine-readable summary (results/BENCH_parallel.json) with
# per-benchmark ns/op, allocs/op, and parallel-over-sequential speedup.
# It then runs the per-step topology maintenance benchmarks (full rebuild
# vs incremental engine) and emits results/bench_incremental.txt plus
# results/BENCH_incremental.json with incremental-over-rebuild speedups.
# The trajectory tier (results/BENCH_trajectory.json) compares live
# incremental stepping against recorded-trajectory replay at
# n=500/8000/100000 plus an end-to-end cached-vs-live sweep timing, with a
# >=2x replay floor at n=8000. The connectivity tier
# (results/BENCH_connectivity.json) compares the full-scratch measurement
# phase against the incremental meter at n=500/8000/100000, with >=3x and
# 0 allocs/op floors at n=8000 (BenchmarkConnectivity lives in
# internal/routing, next to the scratch referee it times). The trace tier (results/BENCH_trace.json)
# enforces a >=5x size floor for the binary log over JSONL.
# Usage: scripts/bench.sh [benchtime]   (default 5x; `scripts/bench.sh 1x`
# is the CI smoke run, which skips the sweep timing). The world-step
# benchmarks default to 600 fixed iterations for stable per-step numbers;
# override with WORLD_BENCHTIME. Set BENCH_OUT to redirect the artifacts
# away from results/ (CI smokes into a temp dir so the committed numbers
# survive).
set -euo pipefail
cd "$(dirname "$0")/.."

benchtime="${1:-5x}"
out="${BENCH_OUT:-results}"
raw="$out/bench_parallel.txt"
json="$out/BENCH_parallel.json"
mkdir -p "$out"

{
  echo "# RunMany replication benchmarks — sequential vs parallel executor"
  echo "# host: $(nproc) CPU(s), $(go version | cut -d' ' -f3-)"
  echo "# benchtime: $benchtime"
  echo "#"
  echo "# NOTE: the sequential variant spends the executor budget (one goroutine,"
  echo "# worlds stepped and measured inline); sequential+helper runs one run at a"
  echo "# time, each with a helper goroutine stepping its live world ahead of it"
  echo "# and measuring one step behind it. The Fig 8/Fig 11 benchmarks take the"
  echo "# helper when a token is free; their Instrumented twins attach a metrics"
  echo "# registry, which keeps every run inline, so the gap between a twin and"
  echo "# its plain benchmark is the instrumentation plus the lost overlap."
  echo "# The parallel variant grants the executor budget NumCPU-1 extra"
  echo "# workers, so on a single-core host it degrades to the sequential path"
  echo "# and the recorded speedup is honestly ~1x. Replication is"
  echo "# embarrassingly parallel (independent runs, ordered reduction), so an"
  echo "# 8-core host runs the 8-run batches in ~ceil(8/8)=1 run-times instead"
  echo "# of 8 — i.e. the >=4x target engages once >=4 cores grant tokens."
  go test -run '^$' -benchtime "$benchtime" -benchmem \
    -bench 'Fig8PopulationSweep(Instrumented)?$|Fig11OldestComm(Instrumented)?$|MappingBatch|RoutingBatch' .
} | tee "$raw"

awk '
/^Benchmark/ {
  name = $1
  sub(/-[0-9]+$/, "", name)
  if (!(name in ns)) order[n++] = name
  ns[name] = $3
  allocs[name] = $7
}
END {
  printf "[\n"
  for (i = 0; i < n; i++) {
    nm = order[i]
    base = nm
    sub(/\/(parallel|sequential\+helper)$/, "/sequential", base)
    sp = (base != nm && ns[base] + 0 > 0) ? ns[base] / ns[nm] : 1.0
    printf "  {\"name\": \"%s\", \"ns_per_op\": %s, \"allocs_per_op\": %s, \"speedup_vs_sequential\": %.3f}%s\n", \
      nm, ns[nm], allocs[nm], sp, (i < n - 1 ? "," : "")
  }
  printf "]\n"
}' "$raw" > "$json"
echo "wrote $json"

# --- per-step topology maintenance: full rebuild vs incremental engine ---
# One world step at n nodes, mover fraction 0.5 (local random-waypoint with
# pause times; a quarter of the fleet on decaying batteries). mode=rebuild
# is the pre-incremental full per-step recompute, mode=incremental the
# churn-proportional engine; both produce bit-identical topologies.
world_benchtime="${WORLD_BENCHTIME:-600x}"
if [ "$benchtime" = "1x" ]; then
  world_benchtime="1x"
fi
iraw="$out/bench_incremental.txt"
ijson="$out/BENCH_incremental.json"

{
  echo "# Per-step topology maintenance — full rebuild vs incremental engine"
  echo "# host: $(nproc) CPU(s), $(go version | cut -d' ' -f3-)"
  echo "# benchtime: $world_benchtime"
  echo "#"
  echo "# mode=rebuild recomputes every link from the spatial grid each step"
  echo "# (the pre-incremental behaviour); mode=incremental repairs the"
  echo "# previous step's graph in place, rechecking only the pairs whose"
  echo "# kinetic certificates expire and the lists of movers that strayed"
  echo "# past their skin. Equivalence and fuzz tests in internal/network"
  echo "# pin the two modes bit-identical, so the ratio is pure maintenance"
  echo "# cost. Acceptance floors at n=8000: >=3x over rebuild AND 0 allocs/op"
  echo "# (enforced below, skipped on the 1x smoke). The routing250 tier steps"
  echo "# the paper's Fig 8 world (RoutingNetwork), where every mover moves;"
  echo "# n=500/fastnode adds one node at 10x the fleet's speed."
  go test -run '^$' -benchtime "$world_benchtime" -benchmem \
    -bench 'BenchmarkWorldStep/(n=(500|2000|8000)|routing250)/' .
} | tee "$iraw"

awk '
/^BenchmarkWorldStep/ {
  name = $1
  sub(/-[0-9]+$/, "", name)
  if (!(name in ns)) order[n++] = name
  ns[name] = $3
  allocs[name] = $7
}
END {
  printf "[\n"
  for (i = 0; i < n; i++) {
    nm = order[i]
    base = nm
    sub(/mode=incremental$/, "mode=rebuild", base)
    sp = (nm ~ /mode=incremental$/ && ns[nm] + 0 > 0) ? ns[base] / ns[nm] : 1.0
    printf "  {\"name\": \"%s\", \"ns_per_op\": %s, \"allocs_per_op\": %s, \"speedup_vs_rebuild\": %.3f}%s\n", \
      nm, ns[nm], allocs[nm], sp, (i < n - 1 ? "," : "")
  }
  printf "]\n"
}' "$iraw" > "$ijson"
echo "wrote $ijson"

if [ "$world_benchtime" != "1x" ]; then
  incr_ok=$(awk '
    /^BenchmarkWorldStep\/n=8000\/mode=rebuild/ { full = $3 }
    /^BenchmarkWorldStep\/n=8000\/mode=incremental/ { inc = $3; ia = $7 }
    END { print (inc + 0 > 0 && full >= 3 * inc && ia + 0 == 0) ? 1 : 0 }' "$iraw")
  if [ "$incr_ok" != 1 ]; then
    echo "FAIL: incremental topology at n=8000 missed its floor (need >=3x over rebuild AND 0 allocs/op)" >&2
    exit 1
  fi
fi

# --- durable event logs: encode/decode throughput + Fig8 trace density ---
# BenchmarkTraceEncode/Decode serialise a routing-shaped stream (events +
# world deltas) through JSONL and the compressed binary log. The size tier
# then records ONE canonical 250-node routing run (the Fig 8 network) as a
# binary log, exports its event stream as JSONL (replay -jsonl), and
# compares the two sizes; the binary log must be >=5x smaller than the
# JSONL even though it additionally carries the replayable world stream.
# That floor is enforced here, so CI's bench smoke fails if the encoding
# regresses.
traw="$out/bench_trace.txt"
tjson="$out/BENCH_trace.json"

{
  echo "# Trace serialisation — JSONL vs compressed binary log"
  echo "# host: $(nproc) CPU(s), $(go version | cut -d' ' -f3-)"
  echo "# benchtime: $benchtime"
  go test -run '^$' -benchtime "$benchtime" -benchmem \
    -bench 'BenchmarkTrace(Encode|Decode)' ./internal/trace
} | tee "$traw"

tracedir=$(mktemp -d)
go run ./cmd/routing -runs 1 -binlog "$tracedir/fig8.alog" >/dev/null
jsonl_bytes=$(go run ./cmd/replay -log "$tracedir/fig8.alog" -jsonl | wc -c)
binary_bytes=$(wc -c < "$tracedir/fig8.alog")
rm -rf "$tracedir"
echo "fig8 trace: jsonl=${jsonl_bytes}B binary=${binary_bytes}B" | tee -a "$traw"

awk -v jb="$jsonl_bytes" -v bb="$binary_bytes" '
/^BenchmarkTrace/ {
  name = $1
  sub(/-[0-9]+$/, "", name)
  if (!(name in ns)) order[n++] = name
  ns[name] = $3
  for (i = 4; i < NF; i++) {
    if ($(i + 1) == "MB/s") mbs[name] = $i
    if ($(i + 1) == "bytes/event") bpe[name] = $i
    if ($(i + 1) == "B/op") bop[name] = $i
    if ($(i + 1) == "allocs/op") allocs[name] = $i
  }
}
END {
  printf "[\n"
  for (i = 0; i < n; i++) {
    nm = order[i]
    printf "  {\"name\": \"%s\", \"ns_per_op\": %s, \"mb_per_s\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s", \
      nm, ns[nm], mbs[nm], bop[nm], allocs[nm]
    if (nm in bpe) printf ", \"bytes_per_event\": %s", bpe[nm]
    printf "},\n"
  }
  printf "  {\"name\": \"fig8_trace_size\", \"jsonl_bytes\": %d, \"binary_bytes\": %d, \"jsonl_over_binary\": %.3f}\n", \
    jb, bb, jb / bb
  printf "]\n"
}' "$traw" > "$tjson"
echo "wrote $tjson"

ratio_ok=$(awk -v jb="$jsonl_bytes" -v bb="$binary_bytes" 'BEGIN { print (jb >= 5 * bb) ? 1 : 0 }')
if [ "$ratio_ok" != 1 ]; then
  echo "FAIL: binary log is only $(awk -v jb="$jsonl_bytes" -v bb="$binary_bytes" 'BEGIN{printf "%.2f", jb/bb}')x smaller than JSONL (floor: 5x)" >&2
  exit 1
fi

# --- trajectory replay: record-once, replay-many stepping engine ---
# mode=replay steps a world by applying a pre-recorded delta — no mobility
# RNG, no disc scans, no spatial grid. This is the engine cmd/sweep and the
# RunManyCached harnesses amortise across replications: record the world's
# evolution once, replay it for every point and run. Results are
# bit-identical to live stepping (pinned by the equivalence tests in
# internal/network, internal/mapping, internal/routing, and ci.sh's
# cached-sweep byte-identity gate). Acceptance floor: replay >=2x faster
# than the live incremental engine at n=8000 (skipped on the 1x smoke).
traj_benchtime="${WORLD_BENCHTIME:-600x}"
if [ "$benchtime" = "1x" ]; then
  traj_benchtime="1x"
fi
yraw="$out/bench_trajectory.txt"
yjson="$out/BENCH_trajectory.json"

{
  echo "# Trajectory replay — live incremental stepping vs recorded-delta replay"
  echo "# host: $(nproc) CPU(s), $(go version | cut -d' ' -f3-)"
  echo "# benchtime: $traj_benchtime"
  go test -run '^$' -benchtime "$traj_benchtime" -benchmem \
    -bench 'BenchmarkWorldStep/n=(500|8000|100000)/mode=(incremental|replay)$' .
} | tee "$yraw"

# End-to-end amortisation: the same routing sweep with the trajectory cache
# off and on. The CSV is byte-identical either way (ci.sh diffs it); only
# the wall clock moves.
sweep_live_ms=0
sweep_cached_ms=0
if [ "$benchtime" != "1x" ]; then
  for wc in 0 1; do
    start=$(date +%s%N)
    go run ./cmd/sweep -scenario routing -param agents -values 25,50 \
      -runs 4 -worldcache="$wc" >/dev/null
    end=$(date +%s%N)
    ms=$(( (end - start) / 1000000 ))
    echo "sweep worldcache=$wc: ${ms} ms" | tee -a "$yraw"
    if [ "$wc" = 0 ]; then sweep_live_ms=$ms; else sweep_cached_ms=$ms; fi
  done
fi

awk -v lms="$sweep_live_ms" -v cms="$sweep_cached_ms" '
/^BenchmarkWorldStep/ {
  name = $1
  sub(/-[0-9]+$/, "", name)
  if (!(name in ns)) order[n++] = name
  ns[name] = $3
  allocs[name] = $7
}
END {
  printf "[\n"
  for (i = 0; i < n; i++) {
    nm = order[i]
    base = nm
    sub(/mode=replay$/, "mode=incremental", base)
    sp = (nm ~ /mode=replay$/ && ns[nm] + 0 > 0) ? ns[base] / ns[nm] : 1.0
    printf "  {\"name\": \"%s\", \"ns_per_op\": %s, \"allocs_per_op\": %s, \"speedup_vs_live\": %.3f},\n", \
      nm, ns[nm], allocs[nm], sp
  }
  sp = (lms + 0 > 0 && cms + 0 > 0) ? lms / cms : 1.0
  printf "  {\"name\": \"sweep_routing_agents_runs4\", \"live_ms\": %d, \"cached_ms\": %d, \"speedup_vs_live\": %.3f}\n", \
    lms, cms, sp
  printf "]\n"
}' "$yraw" > "$yjson"
echo "wrote $yjson"

if [ "$traj_benchtime" != "1x" ]; then
  floor_ok=$(awk '
    /^BenchmarkWorldStep\/n=8000\/mode=incremental/ { inc = $3 }
    /^BenchmarkWorldStep\/n=8000\/mode=replay/ { rep = $3 }
    END { print (rep + 0 > 0 && inc >= 2 * rep) ? 1 : 0 }' "$yraw")
  if [ "$floor_ok" != 1 ]; then
    echo "FAIL: trajectory replay is under the 2x floor vs live incremental stepping at n=8000" >&2
    exit 1
  fi
fi

# --- connectivity measurement: full scratch recompute vs incremental meter ---
# mode=full recomputes LocalConnectivity, end-to-end Connectivity,
# ConnectivityToGateways, and Staleness from scratch every step (the
# scratch referee, test code in internal/routing); mode=incr is the churn-proportional
# Meter fed by the topology delta stream and table write tracking. The two
# are bit-identical at every step (equivalence, property, and fuzz tests in
# internal/routing), so the ratio is pure measurement cost. Acceptance
# floors at n=8000: >=3x over full AND 0 allocs/op in steady state
# (skipped on the 1x smoke).
conn_benchtime="${WORLD_BENCHTIME:-600x}"
if [ "$benchtime" = "1x" ]; then
  conn_benchtime="1x"
fi
craw="$out/bench_connectivity.txt"
cjson="$out/BENCH_connectivity.json"

{
  echo "# Connectivity measurement — full scratch recompute vs incremental meter"
  echo "# host: $(nproc) CPU(s), $(go version | cut -d' ' -f3-)"
  echo "# benchtime: $conn_benchtime"
  go test -run '^$' -benchtime "$conn_benchtime" -benchmem \
    -bench 'BenchmarkConnectivity/' ./internal/routing
} | tee "$craw"

awk '
/^BenchmarkConnectivity/ {
  name = $1
  sub(/-[0-9]+$/, "", name)
  if (!(name in ns)) order[n++] = name
  ns[name] = $3
  allocs[name] = $7
}
END {
  printf "[\n"
  for (i = 0; i < n; i++) {
    nm = order[i]
    base = nm
    sub(/mode=incr$/, "mode=full", base)
    sp = (nm ~ /mode=incr$/ && ns[nm] + 0 > 0) ? ns[base] / ns[nm] : 1.0
    printf "  {\"name\": \"%s\", \"ns_per_op\": %s, \"allocs_per_op\": %s, \"speedup_vs_full\": %.3f}%s\n", \
      nm, ns[nm], allocs[nm], sp, (i < n - 1 ? "," : "")
  }
  printf "]\n"
}' "$craw" > "$cjson"
echo "wrote $cjson"

if [ "$conn_benchtime" != "1x" ]; then
  conn_ok=$(awk '
    /^BenchmarkConnectivity\/n=8000\/mode=full/ { full = $3 }
    /^BenchmarkConnectivity\/n=8000\/mode=incr/ { inc = $3; ia = $7 }
    END { print (inc + 0 > 0 && full >= 3 * inc && ia + 0 == 0) ? 1 : 0 }' "$craw")
  if [ "$conn_ok" != 1 ]; then
    echo "FAIL: incremental measurement at n=8000 missed its floor (need >=3x over full AND 0 allocs/op)" >&2
    exit 1
  fi
fi

if [ "$benchtime" != "1x" ]; then
  {
    echo ""
    echo "# sweep wall-clock: cmd/sweep routing agents sweep, runs=4/point,"
    echo "# -runworkers 1 vs -runworkers \$(nproc) (identical TSV either way)"
    for rw in 1 "$(nproc)"; do
      start=$(date +%s%N)
      go run ./cmd/sweep -scenario routing -param agents -values 25,50 \
        -runs 4 -runworkers "$rw" >/dev/null
      end=$(date +%s%N)
      echo "sweep runworkers=$rw: $(( (end - start) / 1000000 )) ms"
    done
  } | tee -a "$raw"
fi
