#!/usr/bin/env bash
# End-to-end smoke of the rewrite service (docs/SERVICE.md): starts
# cqacd on a Unix socket, checks that cqacc's job-mode output is
# byte-identical to `cqacsh --serve-batch` for the same stream on a cold
# and a warm (semantic-cache replay) pass, runs a small concurrent load,
# round-trips a set_catalog request, then SIGTERMs the daemon and checks
# the graceful drain (batch footer printed, exit 0).
#
# Usage:  tools/server_smoke.sh [build-dir]     # default: build
set -euo pipefail

build="${1:-build}"
cd "$(dirname "$0")/.."

for tool in cqacd cqacc cqacsh; do
  if [ ! -x "$build/tools/$tool" ]; then
    echo "error: $build/tools/$tool not built" >&2
    exit 1
  fi
done

work="$(mktemp -d)"
sock="$work/cqac.sock"
trap 'kill "$daemon_pid" 2>/dev/null || true; rm -rf "$work"' EXIT

cat > "$work/jobs.txt" <<'EOF'
view v(Y,Z) :- r(X), s(Y,Z), Y <= X, X <= Z
query q(A) :- r(A), s(A,A), A <= 8
run
view w(A,B) :- e(A,B), A <= B
query q2(X,Y) :- e(X,Y), X <= Y
run
query broken(
run
view lone(A) :- p(A)
EOF

"$build/tools/cqacd" --unix "$sock" > "$work/cqacd.out" 2>&1 &
daemon_pid=$!

for _ in $(seq 1 50); do
  [ -S "$sock" ] && break
  sleep 0.1
done
[ -S "$sock" ] || { echo "error: cqacd did not come up" >&2; cat "$work/cqacd.out" >&2; exit 1; }

# 1. Byte-identical bodies: cqacc output == cqacsh --serve-batch output
#    minus its two footer lines (batch, catalog), twice in a
#    row: the warm pass replays every answer from the daemon's catalogs.
#    Both exit 1 (the stream contains two deliberate job-level errors),
#    which is itself part of the parity.
cqacsh_status=0
"$build/tools/cqacsh" --serve-batch < "$work/jobs.txt" > "$work/cqacsh.out" || cqacsh_status=$?
head -n -2 "$work/cqacsh.out" > "$work/cqacsh.body"
for pass in cold warm; do
  pass_status=0
  "$build/tools/cqacc" --unix "$sock" < "$work/jobs.txt" \
    > "$work/cqacc_$pass.out" || pass_status=$?
  if ! diff -u "$work/cqacsh.body" "$work/cqacc_$pass.out"; then
    echo "error: $pass service response bodies differ from --serve-batch" >&2
    exit 1
  fi
  if [ "$pass_status" != "$cqacsh_status" ]; then
    echo "error: $pass exit codes differ: cqacc=$pass_status cqacsh=$cqacsh_status" >&2
    exit 1
  fi
done

# 2. Concurrent load: 8 connections, every request answered.
"$build/tools/cqacc" --unix "$sock" --load 64 --concurrency 8 > "$work/load.json"
grep -q '"completed": 64' "$work/load.json" || {
  echo "error: load run incomplete: $(cat "$work/load.json")" >&2
  exit 1
}

# 2b. Observability control plane on the live daemon: a get_metrics
#     scrape must serve Prometheus text with the one SLO summary,
#     and dump_telemetry must lead with its meta line.  Span assertions
#     are gated on the build actually compiling tracing in, so this
#     passes unchanged on a -DCQAC_TRACING=OFF leg.
"$build/tools/cqacc" --unix "$sock" --get-metrics > "$work/metrics.txt"
grep -q '^# TYPE cqac_server_slo_request_latency_ns summary' "$work/metrics.txt" || {
  echo "error: get_metrics missing the SLO summary header:" >&2
  cat "$work/metrics.txt" >&2
  exit 1
}
grep -q '^cqac_server_slo_request_latency_ns{quantile=' "$work/metrics.txt" || {
  echo "error: get_metrics missing the SLO series" >&2
  exit 1
}
if grep -q 'cqac_server_slo_request_latency_ns{tier=' "$work/metrics.txt"; then
  echo "error: get_metrics still serves per-tier SLO series" >&2
  exit 1
fi
grep -q '^cqac_server_requests_accepted_total ' "$work/metrics.txt" || {
  echo "error: get_metrics missing the accepted-requests counter" >&2
  exit 1
}

"$build/tools/cqacc" --unix "$sock" --dump-telemetry > "$work/telemetry.txt"
head -1 "$work/telemetry.txt" | grep -q '"event": "telemetry"' || {
  echo "error: dump_telemetry meta line missing:" >&2
  head -3 "$work/telemetry.txt" >&2
  exit 1
}
compiled_in=false
if head -1 "$work/telemetry.txt" | grep -q '"tracing_compiled_in": true'; then
  compiled_in=true
  grep -q '"name": "server.job"' "$work/telemetry.txt" || {
    echo "error: dump_telemetry has no server.job span after a load run" >&2
    exit 1
  }
fi

# 3. set_catalog round trip: install a default view set, then a
#    query-only job must be served against it.
cat > "$work/views.txt" <<'EOF'
view v(Y,Z) :- r(X), s(Y,Z), Y <= X, X <= Z
EOF
echo "query q(A) :- r(A), s(A,A), A <= 8" > "$work/query_only.txt"
"$build/tools/cqacc" --unix "$sock" --set-catalog "$work/views.txt" \
  < "$work/query_only.txt" > "$work/query_only.out" 2> "$work/set_catalog.err"
grep -q 'catalog set: 1 view' "$work/set_catalog.err" || {
  echo "error: set_catalog ack missing:" >&2
  cat "$work/set_catalog.err" >&2
  exit 1
}
grep -q 'equivalent rewriting' "$work/query_only.out" || {
  echo "error: query-only job not served by the default catalog:" >&2
  cat "$work/query_only.out" >&2
  exit 1
}

# 4. Graceful drain: SIGTERM -> batch footer on stdout, exit 0.  The
#    footer counts the 2 x 4 parity jobs, the 64 load requests and the
#    query-only job; set_catalog is control-plane work, not a job.
kill -TERM "$daemon_pid"
drain_status=0
wait "$daemon_pid" || drain_status=$?
if [ "$drain_status" != 0 ]; then
  echo "error: cqacd exited $drain_status on SIGTERM" >&2
  cat "$work/cqacd.out" >&2
  exit 1
fi
grep -q '^batch: 73 jobs' "$work/cqacd.out" || {
  echo "error: drain footer missing or wrong:" >&2
  cat "$work/cqacd.out" >&2
  exit 1
}

# 5. Slow-request attribution (the acceptance scenario): two concurrent
#    clients against a --slow-log daemon, one of them a deadline-doomed
#    heavy request.  With session tracing never enabled, the slow log
#    must still carry that request's trace id, per-phase wall times, and
#    (when tracing is compiled in) its flight-recorder spans.
sock2="$work/cqac_slow.sock"
slow_log="$work/slow.jsonl"
"$build/tools/cqacd" --unix "$sock2" --slow-log "$slow_log" \
  > "$work/cqacd_slow.out" 2>&1 &
daemon_pid=$!
for _ in $(seq 1 50); do
  [ -S "$sock2" ] && break
  sleep 0.1
done
[ -S "$sock2" ] || { echo "error: cqacd --slow-log did not come up" >&2; cat "$work/cqacd_slow.out" >&2; exit 1; }

cat > "$work/heavy.txt" <<'EOF'
view v(A) :- r1(A,B), r2(B,C), r3(C,D), r4(D,E), r5(E,F), r6(F,G)
query q(A) :- r1(A,B), r2(B,C), r3(C,D), r4(D,E), r5(E,F), r6(F,G), A <= 8
EOF
"$build/tools/cqacc" --unix "$sock2" --load 16 --concurrency 1 \
  > "$work/slow_load.json" &
load_pid=$!
heavy_status=0
"$build/tools/cqacc" --unix "$sock2" --deadline-ms 40 < "$work/heavy.txt" \
  > "$work/heavy.out" 2>&1 || heavy_status=$?
wait "$load_pid" || { echo "error: concurrent load client failed" >&2; exit 1; }
[ "$heavy_status" != 0 ] || {
  echo "error: heavy request finished under a 40 ms deadline?" >&2
  cat "$work/heavy.out" >&2
  exit 1
}
grep -q 'deadline' "$work/heavy.out" || {
  echo "error: heavy request did not report a deadline error:" >&2
  cat "$work/heavy.out" >&2
  exit 1
}

# The server appends the slow-log record after it sent the response, so
# drain the daemon (which waits for every job to finish) before reading.
kill -TERM "$daemon_pid"
wait "$daemon_pid" || {
  echo "error: cqacd --slow-log exited non-zero on SIGTERM" >&2
  cat "$work/cqacd_slow.out" >&2
  exit 1
}

for key in '"event": "slow_request"' '"trace_id": "' '"phase1_ns": ' \
           '"enumeration_ns": ' '"latency_ns": '; do
  grep -qF "$key" "$slow_log" || {
    echo "error: slow log missing $key:" >&2
    cat "$slow_log" >&2
    exit 1
  }
done
if grep -qF '"tier' "$slow_log"; then
  echo "error: slow log still carries tier fields:" >&2
  cat "$slow_log" >&2
  exit 1
fi
if [ "$compiled_in" = true ]; then
  grep -q '"event": "span"' "$slow_log" || {
    echo "error: slow log carries no flight-recorder spans:" >&2
    cat "$slow_log" >&2
    exit 1
  }
  grep -q '"name": "prepare.work"' "$slow_log" || {
    echo "error: slow log excerpt lost the prepare.work span:" >&2
    cat "$slow_log" >&2
    exit 1
  }
fi

echo "server smoke: OK (cold/warm parity, 8-way load, set_catalog," \
     "graceful drain, metrics scrape, telemetry dump, slow-request log)"
