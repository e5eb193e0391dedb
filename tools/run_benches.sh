#!/usr/bin/env bash
# Regenerates the checked-in benchmark results under results/.
#
# Always measures a Release build in its own build tree
# (build-release/), so numbers never silently come from a debug or
# sanitizer configuration — bench_common.h additionally hard-warns and
# stamps "debug_build" in the JSON record if that ever regresses.
#
# Usage:
#   tools/run_benches.sh [bench ...]
#
# With no arguments, re-runs the benches whose .txt snapshots are
# checked in.  Each bench writes results/<name>.txt (console output)
# and results/<name>.json (trajectory record, cold caches: no --memo).
#
# The pseudo-bench `server_throughput` is not a google-benchmark binary:
# it starts cqacd on a Unix socket and sweeps `cqacc --load` over
# connection counts 1/2/4/8, recording one JSON record per point in
# results/BENCH_server_throughput.json.
#
# Two more pseudo-benches ride the same harness:
#   catalog_steady_state  cold (the first request on each of 16 fresh
#                         daemons) vs warm (semantic-cache replay on one
#                         daemon) request latency on a repeated query
#                         -> results/BENCH_view_catalog.json
#   parallel_scaling      jobs=1/2/4 sweep of the serve-batch driver (8
#                         distinct jobs) and of cqacd worker threads
#                         -> results/BENCH_parallel_scaling.json
#
# `telemetry_overhead` is the observability acceptance gate: bench_tiers
# keep-test rows with CQAC_TELEMETRY=1 (a bound request scope, so every
# span site records into the flight recorder) against the same rows from
# a separate -DCQAC_TRACING=OFF build tree (build-notrace/).  Per-row
# medians over several repetitions; the canonical keep-test row must stay
# within 3% -> results/BENCH_telemetry_overhead.json, nonzero exit on a
# gate failure.
set -euo pipefail

cd "$(dirname "$0")/.."
repo="$PWD"
build="$repo/build-release"

cmake -S "$repo" -B "$build" -DCMAKE_BUILD_TYPE=Release >/dev/null

benches=("$@")
if [ ${#benches[@]} -eq 0 ]; then
  benches=(bench_containment bench_canonical bench_homomorphism bench_phase1
           server_throughput catalog_steady_state parallel_scaling
           telemetry_overhead)
fi

# A 5-relation chain: tens of milliseconds of Phase 1 per request on one
# core, so the warm (semantic-cache) path is clearly separable from cold.
# The optional second argument replaces the comparison constant 8.
write_chain_job() {
  local bound="${2:-8}"
  cat > "$1" <<EOF
view v(A) :- r1(A,B), r2(B,C), r3(C,D), r4(D,E), r5(E,F).
query q(A) :- r1(A,B), r2(B,C), r3(C,D), r4(D,E), r5(E,F), A <= $bound.
EOF
}

start_daemon() {  # start_daemon SOCK LOG [extra cqacd args...]
  local sock="$1" log="$2"
  shift 2
  "$build/tools/cqacd" --unix "$sock" "$@" > "$log" 2>&1 &
  daemon_pid=$!
  for _ in $(seq 1 50); do
    [ -S "$sock" ] && break
    sleep 0.1
  done
  [ -S "$sock" ] || { echo "error: cqacd did not come up" >&2; return 1; }
}

stop_daemon() {
  kill -TERM "$daemon_pid" 2>/dev/null || true
  wait "$daemon_pid" 2>/dev/null || true
}

run_server_throughput() {
  local requests=512
  local work sock daemon_pid out
  work="$(mktemp -d)"
  sock="$work/cqac.sock"
  out="$repo/results/BENCH_server_throughput.json"

  "$build/tools/cqacd" --unix "$sock" > "$work/cqacd.out" 2>&1 &
  daemon_pid=$!
  for _ in $(seq 1 50); do
    [ -S "$sock" ] && break
    sleep 0.1
  done
  [ -S "$sock" ] || { echo "error: cqacd did not come up" >&2; return 1; }

  {
    echo "{\"bench\": \"server_throughput\","
    echo " \"commit\": \"$(git -C "$repo" rev-parse HEAD 2>/dev/null || echo unknown)\","
    echo " \"cpus\": $(nproc),"
    echo " \"requests_per_point\": $requests,"
    echo " \"sweep\": ["
    local first=1
    for c in 1 2 4 8; do
      [ $first -eq 1 ] || echo ","
      first=0
      printf '  '
      "$build/tools/cqacc" --unix "$sock" --load "$requests" \
        --concurrency "$c" | tr -d '\n'
    done
    echo ""
    echo "]}"
  } > "$out"
  kill -TERM "$daemon_pid"
  wait "$daemon_pid" || true
  rm -rf "$work"
  cat "$out" | tee "$repo/results/BENCH_server_throughput.txt"
}

run_catalog_steady_state() {
  local work sock out job cold warm rec samples cold_runs=16
  work="$(mktemp -d)"
  sock="$work/cqac.sock"
  job="$work/job.txt"
  out="$repo/results/BENCH_view_catalog.json"
  write_chain_job "$job"

  # Cold baseline: the first request on a fresh daemon compiles the views
  # and runs both phases with every cache empty.  One request per daemon,
  # 16 daemons; the p50 is the median of those first requests.
  samples=""
  for _ in $(seq 1 "$cold_runs"); do
    start_daemon "$sock" "$work/cold.out"
    rec="$("$build/tools/cqacc" --unix "$sock" --load 1 --concurrency 1 \
             --job-file "$job")"
    stop_daemon
    rm -f "$sock"
    samples="$samples $(printf '%s' "$rec" | sed -n 's/.*"latency_ns_p50": \([0-9]*\).*/\1/p')"
  done
  cold="$(printf '%s\n' $samples | sort -n | awk -v n="$cold_runs" '
    { v[NR] = $1; list = list (NR > 1 ? ", " : "") $1 }
    END { printf "{\"daemons\": %d, \"latency_ns\": [%s], \"latency_ns_p50\": %d}", n, list, v[int((NR + 1) / 2)] }')"

  # Steady state: repeats of the same query are served from the
  # alpha-normalized semantic cache — only the first request pays the
  # rewrite; p50 over 64 requests is the warm replay cost.
  start_daemon "$sock" "$work/warm.out"
  warm="$("$build/tools/cqacc" --unix "$sock" --load 64 --concurrency 1 \
            --job-file "$job")"
  stop_daemon
  rm -rf "$work"

  local cold_p50 warm_p50 speedup
  cold_p50="$(printf '%s' "$cold" | sed -n 's/.*"latency_ns_p50": \([0-9]*\).*/\1/p')"
  warm_p50="$(printf '%s' "$warm" | sed -n 's/.*"latency_ns_p50": \([0-9]*\).*/\1/p')"
  speedup="$(awk -v c="$cold_p50" -v w="$warm_p50" \
               'BEGIN { printf (w > 0 ? "%.1f" : "0"), c / w }')"
  {
    echo "{\"bench\": \"catalog_steady_state\","
    echo " \"commit\": \"$(git -C "$repo" rev-parse HEAD 2>/dev/null || echo unknown)\","
    echo " \"cpus\": $(nproc),"
    echo " \"job\": \"chain5\","
    echo " \"cold\": $cold,"
    echo " \"warm\": $warm,"
    echo " \"warm_speedup_p50\": $speedup}"
  } > "$out"
  cat "$out" | tee "$repo/results/BENCH_view_catalog.txt"
}

run_parallel_scaling() {
  local work sock out job stream rec wall_start wall_ns
  work="$(mktemp -d)"
  sock="$work/cqac.sock"
  job="$work/job.txt"
  stream="$work/stream.txt"
  out="$repo/results/BENCH_parallel_scaling.json"
  write_chain_job "$job"
  # Eight distinct jobs (comparison constants 8-15), so the batch sweep
  # measures rewriting rather than semantic-cache replay.
  : > "$stream"
  for bound in $(seq 8 15); do
    write_chain_job "$work/job_$bound.txt" "$bound"
    cat "$work/job_$bound.txt" >> "$stream"
    echo >> "$stream"
  done

  {
    echo "{\"bench\": \"parallel_scaling\","
    echo " \"commit\": \"$(git -C "$repo" rev-parse HEAD 2>/dev/null || echo unknown)\","
    echo " \"cpus\": $(nproc),"
    # Scaling numbers from a single-core host cannot show jobs>1 speedup;
    # flag them so trajectory consumers don't read flat sweeps as a
    # regression.
    if [ "$(nproc)" -le 1 ]; then
      echo " \"single_core\": true,"
      echo " \"caveat\": \"measured on a single-core host; jobs>1 cannot speed up\","
    else
      echo " \"single_core\": false,"
    fi
    echo " \"batch_jobs_per_run\": 8,"
    echo " \"batch_sweep\": ["
    local first=1
    for j in 1 2 4; do
      [ $first -eq 1 ] || echo ","
      first=0
      wall_start=$(date +%s%N)
      "$build/tools/cqacsh" --serve-batch --jobs "$j" \
        < "$stream" > /dev/null
      wall_ns=$(( $(date +%s%N) - wall_start ))
      printf '  {"jobs": %d, "wall_ns": %d}' "$j" "$wall_ns"
    done
    echo ""
    echo " ],"
    echo " \"server_sweep\": ["
    first=1
    for j in 1 2 4; do
      [ $first -eq 1 ] || echo ","
      first=0
      start_daemon "$sock" "$work/cqacd_$j.out" --jobs "$j"
      rec="$("$build/tools/cqacc" --unix "$sock" --load 32 \
               --concurrency "$j" --job-file "$job")"
      stop_daemon
      rm -f "$sock"
      printf '  {"jobs": %d, "load": %s}' "$j" "$rec"
    done
    echo ""
    echo "]}"
  } > "$out"
  rm -rf "$work"
  cat "$out" | tee "$repo/results/BENCH_parallel_scaling.txt"
}

run_telemetry_overhead() {
  local build_off="$repo/build-notrace"
  local out="$repo/results/BENCH_telemetry_overhead.json"
  local reps=5
  # The canonical keep-test row is the gate; the Phase-1 sweep row rides
  # along as the span-dense informational upper bound (phase1.database +
  # phase1.freeze fire per canonical database).
  local gate_row='BM_SemiIntervalKeepTest'
  local filter='BM_SemiIntervalKeepTest$|BM_SemiIntervalPhase1'
  local work
  work="$(mktemp -d)"

  cmake -S "$repo" -B "$build_off" -DCMAKE_BUILD_TYPE=Release \
    -DCQAC_TRACING=OFF >/dev/null
  cmake --build "$build_off" --target bench_tiers -j"$(nproc)" >/dev/null

  collect() {  # collect BINARY TELEMETRY ROWSFILE
    local bin="$1" telemetry="$2" rows="$3" rep
    : > "$rows"
    for rep in $(seq 1 "$reps"); do
      CQAC_TELEMETRY="$telemetry" "$bin" --json "$work/run.json" \
        --benchmark_filter="$filter" --benchmark_color=false \
        >/dev/null 2>&1
      sed -n 's/.*"name": "\([^"]*\)", "wall_ms": \([0-9.e+-]*\).*/\1 \2/p' \
        "$work/run.json" >> "$rows"
    done
  }
  median() {  # median ROWNAME ROWSFILE
    grep -F "$1 " "$2" | awk '{print $2}' | sort -g \
      | awk '{v[NR] = $1} END {print v[int((NR + 1) / 2)]}'
  }

  collect "$build/bench/bench_tiers" 1 "$work/on.rows"
  collect "$build_off/bench/bench_tiers" "" "$work/off.rows"

  local rows first=1 name on off ratio gate_ratio=0 pass=true
  rows="$(awk '{print $1}' "$work/on.rows" | sort -u)"
  {
    echo "{\"bench\": \"telemetry_overhead\","
    echo " \"commit\": \"$(git -C "$repo" rev-parse HEAD 2>/dev/null || echo unknown)\","
    echo " \"cpus\": $(nproc),"
    echo " \"repetitions\": $reps,"
    echo " \"gate_row\": \"$gate_row\","
    echo " \"gate_threshold_ratio\": 1.03,"
    echo " \"rows\": ["
    for name in $rows; do
      on="$(median "$name" "$work/on.rows")"
      off="$(median "$name" "$work/off.rows")"
      ratio="$(awk -v a="$on" -v b="$off" \
                 'BEGIN { printf (b > 0 ? "%.4f" : "0"), a / b }')"
      [ "$name" = "$gate_row" ] && gate_ratio="$ratio"
      [ $first -eq 1 ] || echo ","
      first=0
      printf '  {"name": "%s", "telemetry_on_ms": %s, "tracing_off_ms": %s, "ratio": %s}' \
        "$name" "$on" "$off" "$ratio"
    done
    echo ""
    echo " ],"
    pass="$(awk -v r="$gate_ratio" 'BEGIN { print (r > 0 && r <= 1.03) ? "true" : "false" }')"
    echo " \"gate_ratio\": $gate_ratio,"
    echo " \"pass\": $pass}"
  } > "$out"
  rm -rf "$work"
  cat "$out" | tee "$repo/results/BENCH_telemetry_overhead.txt"
  if ! grep -q '"pass": true' "$out"; then
    echo "error: telemetry overhead gate FAILED (ratio $gate_ratio > 1.03)" >&2
    return 1
  fi
}

targets=()
for bench in "${benches[@]}"; do
  case "$bench" in
    server_throughput|catalog_steady_state) targets+=(cqacd cqacc) ;;
    parallel_scaling) targets+=(cqacd cqacc cqacsh) ;;
    telemetry_overhead) targets+=(bench_tiers) ;;
    *) targets+=("$bench") ;;
  esac
done
cmake --build "$build" --target "${targets[@]}" -j"$(nproc)"

mkdir -p "$repo/results"
echo "commit: $(git -C "$repo" rev-parse HEAD 2>/dev/null || echo unknown)"
echo "cpus:   $(nproc)"
for bench in "${benches[@]}"; do
  echo "=== $bench ==="
  case "$bench" in
    server_throughput) run_server_throughput ;;
    catalog_steady_state) run_catalog_steady_state ;;
    parallel_scaling) run_parallel_scaling ;;
    telemetry_overhead) run_telemetry_overhead ;;
    *)
      "$build/bench/$bench" --json "$repo/results/$bench.json" \
        --benchmark_color=false 2>&1 | tee "$repo/results/$bench.txt"
      ;;
  esac
done
