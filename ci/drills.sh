#!/usr/bin/env bash
# ci/drills.sh {obs|burn|crash|examples|bench} — what CI runs beyond
# `go test` (.github/workflows/ci.yml), the same way from anywhere in the
# repo on a developer's machine. Three operational drills each boot a real
# resdsrv, drive it with resload and judge it from the outside with obscheck
# and curl:
#
#   ci/drills.sh obs     # the whole observability surface under live traffic
#   ci/drills.sh burn    # an SLO page must fire under a burn and clear after it
#   ci/drills.sh crash   # SIGKILL under traffic, restart on the same WAL, twice more idle, then a refused boot
#
# and two need no server:
#
#   ci/drills.sh examples                  # go run every examples/*: executed, not just built
#   ci/drills.sh bench [ref] [metric@workload]
#
# bench runs ten alternating pairs of bench/bench.sh, all workloads, on a
# copy of the parent commit (ref; default the merge base with origin/main,
# or HEAD^ when that is HEAD itself) and on this tree, one run at a time,
# and hands the two result directories to cmd/benchgate, whose table and
# verdicts are the output. Run length is not a knob: 3 s a workload for the
# regression smoke, BENCHMARK.json's run_seconds when a claim is given.
#
# Binaries, logs, results, WAL and flight-recorder directories land in
# $DRILL_DIR (an absolute path; default: a fresh temp dir, printed); after a
# failed server drill $DRILL_DIR/flight is the black box — journal tail,
# goroutine dump, heap profile, metrics snapshot.
# DRILL_WIRE and DRILL_OBS move the two listeners off their default ports.
set -euo pipefail

usage='usage: ci/drills.sh obs|burn|crash|examples|bench [parent-ref] [metric@workload]'
drill=${1:?$usage}
cd "$(dirname "$0")/.."
dir=${DRILL_DIR:-$(mktemp -d)}
mkdir -p "$dir"
echo "drill $drill: working in $dir"

case $drill in
examples)
  for example in examples/*/; do
    echo "+ go run ./$example"
    go run "./$example" > "$dir/example.out" 2>&1 || { cat "$dir/example.out" >&2; exit 1; }
  done
  echo "drill $drill: ok"
  exit 0
  ;;

bench)
  base=$(git merge-base HEAD origin/main 2>/dev/null || true)
  if [ -z "$base" ] || [ "$base" = "$(git rev-parse HEAD)" ]; then base=HEAD^; fi
  ref=${2:-$base}
  claim=${3:-}
  seconds=3
  if [ -n "$claim" ]; then
    seconds=$(sed -n 's/^ *"run_seconds": *\([0-9.]*\),*$/\1/p' BENCHMARK.json)
  fi
  # The parent is an export of the commit, not a worktree: nothing is
  # registered in .git, and removing the directory is all the cleaning up.
  rm -rf "$dir/parent" "$dir/change" "$dir/parent-tree"
  trap 'rm -rf "$dir/parent-tree"' EXIT
  trap 'exit 143' INT TERM # so that the EXIT trap runs, once the current run returns
  mkdir -p "$dir/parent-tree"
  git archive "$ref" | tar -x -C "$dir/parent-tree"
  echo "drill bench: parent $(git rev-parse --short "$ref"), ${seconds} s a workload${claim:+, claim $claim}"
  for pair in $(seq 1 10); do
    order="parent change"
    if (( pair % 2 == 0 )); then order="change parent"; fi
    for side in $order; do
      tree=$PWD
      if [ "$side" = parent ]; then tree=$dir/parent-tree; fi
      out=$dir/$side/$(printf '%02d' "$pair")
      mkdir -p "$out"
      bash "$tree/bench/bench.sh" --workload all --seed "$pair" --trace 0 --seconds "$seconds" \
        --out "$out" > "$out/bench.log" 2>&1 || { cat "$out/bench.log" >&2; exit 1; }
    done
    echo "drill bench: pair $pair of 10 done at ${SECONDS} s"
  done
  go run ./cmd/benchgate -parent "$dir/parent" -change "$dir/change" ${claim:+-claim "$claim"}
  echo "drill $drill: ok (${SECONDS} s)"
  exit 0
  ;;

obs | burn | crash) ;;

*)
  echo "$usage" >&2
  exit 2
  ;;
esac

wire=${DRILL_WIRE:-127.0.0.1:7433}
obs=${DRILL_OBS:-127.0.0.1:9090}
mkdir -p "$dir/bin"
go build -o "$dir/bin/" ./cmd/resdsrv ./cmd/resload ./cmd/obscheck
PATH="$dir/bin:$PATH"
cd "$dir"

# Whatever is still running when the script ends, however it ends.
trap 'kill -9 $(jobs -p) 2>/dev/null || true; wait 2>/dev/null || true' EXIT
srv=

# serve <log> <resdsrv flags...> starts the server and waits for /healthz.
serve() {
  local log=$1
  shift
  resdsrv -addr "$wire" -obs "$obs" -flightdir "$dir/flight" "$@" > "$log" 2>&1 &
  srv=$!
  for _ in $(seq 1 100); do
    if curl -sf "http://$obs/healthz" > /dev/null; then return; fi
    sleep 0.1
  done
  cat "$log" >&2
  echo "drill $drill: resdsrv did not come up" >&2
  exit 1
}

# stop drains the server with SIGTERM and returns its exit status.
stop() {
  local pid=$srv
  srv=
  kill -TERM "$pid"
  wait "$pid"
}

# poll <tries> <sleep> <command...> retries the command until it succeeds.
poll() {
  local tries=$1 pause=$2
  shift 2
  for _ in $(seq 1 "$tries"); do
    if "$@"; then return 0; fi
    sleep "$pause"
  done
  return 1
}

set -x
case $drill in

# A durable server (so the WAL families are live) with the obs listener,
# quotas, tracing, an SLO engine and the flight recorder; live traffic
# through it while obscheck -watch holds a Watch subscription against the
# wire port — the pushed frames must keep arriving, monotone, and show the
# traffic, without a single Stats poll. Then the scrape must strict-parse
# with every headline family present and every objective green, /healthz
# and pprof must answer, a clean run must carry zero stall evidence and an
# on-demand bundle must validate, and SIGTERM must print the final stats.
obs)
  echo '{"mode":"hard","tenants":[{"name":"t0","share":0.5},{"name":"t1","share":0.5}]}' > quotas.json
  # Lenient targets (0.5 caps the burn rate at 2x, far under the 14.4x
  # rule): the traffic's expected load shedding must never trip an alert
  # here — the burn drill is where alerts fire. The sub-second period makes
  # the windowed families answer within the run.
  cat > slo.json <<'JSON'
{
  "period": "500ms",
  "budget_window": "2m",
  "objectives": [
    {"name": "deadline", "signal": "deadline_attainment", "target": 0.5,
     "rules": [{"severity": "page", "burn": 14.4, "short": "5s", "long": "1m"}]},
    {"name": "slack", "signal": "slack", "target": 0.5, "bound": 1099511627775,
     "rules": [{"severity": "page", "burn": 14.4, "short": "5s", "long": "1m"}]},
    {"name": "success", "signal": "error_rate", "target": 0.5,
     "rules": [{"severity": "page", "burn": 14.4, "short": "5s", "long": "1m"}]}
  ]
}
JSON
  serve server.out -shards 4 -m 64 -quotas quotas.json -trace 16 -slow 50ms \
    -waldir "$dir/wal" -slo slo.json
  curl -sf "http://$obs/healthz" | grep -q ok
  # resload's own progress rows come from a Watch subscription too;
  # obscheck -watch independently verifies the stream sees the admissions.
  resload -addr "$wire" -n 20000 -clients 4 -tenants 2 -statsevery 200ms > resload.out 2>&1 &
  load=$!
  obscheck -watch "$wire" -frames 5 -interval 200ms -min 500 -v
  wait "$load"
  cat resload.out
  grep -q 'server:' resload.out
  obscheck -url "http://$obs/metrics" -v -slo ok -require \
    resd_shard_queue_depth,resd_shard_ops_per_batch,resd_admitted_total,resd_rejected_total,resd_slack_ticks,resd_traces_sampled_total,tenant_quota_budget,tenant_quota_used,reswire_op_ns,reswire_responses_total,reswire_writes_total,resd_wal_records_total,resd_wal_fsync_ns,resd_wal_replay_seconds,resd_wal_replayed_records,resd_wal_torn_tails,resd_wal_corrupt_records,resd_wal_dropped_bytes,resd_build_info,resd_uptime_seconds,resd_goroutines,resd_gc_pause_p99_seconds,resd_heap_inuse_bytes,resd_health_state,flight_events_total,resd_slow_log_dropped_total,resd_slo_attainment,resd_slo_error_budget_remaining,resd_slo_burn_rate,resd_slo_alert_state,resd_slo_alert_transitions_total,resd_slack_ticks_window,resd_loop_turn_ns_window
  curl -sf "http://$obs/debug/pprof/goroutine?debug=1" > /dev/null
  obscheck -flight "http://$obs" -nostall -capture -v
  stop
  cat server.out
  grep -q 'resdsrv: final:' server.out
  grep -q 'admitted=' server.out
  ;;

# A deliberately tiny server with a tight SLO spec is saturated, then hit
# with sustained deadline-bounded traffic it cannot start in time. The page
# must fire while the burn runs — resd_slo_alert_state=2, /healthz
# 200-with-warning, a journaled transition with its bundle on disk, the
# stderr line — and, once the bad traffic stops, clear on its own as the
# short window drains: both directions of the multi-window rule.
burn)
  cat > slo.json <<'JSON'
{
  "period": "250ms",
  "budget_window": "30s",
  "objectives": [
    {"name": "deadline", "signal": "deadline_attainment", "target": 0.95,
     "rules": [{"severity": "page", "burn": 2, "short": "2s", "long": "6s"}]},
    {"name": "t0-deadline", "signal": "deadline_attainment", "tenant": "t0", "target": 0.95,
     "rules": [{"severity": "page", "burn": 2, "short": "2s", "long": "6s"}]},
    {"name": "success", "signal": "error_rate", "target": 0.95,
     "rules": [{"severity": "warn", "burn": 2, "short": "2s", "long": "6s"}]}
  ]
}
JSON
  serve server.out -shards 1 -m 8 -slo slo.json
  # Saturate: fill the one shard's books far into the future (-m 8 keeps
  # the generated widths inside the server's capacity). All green after
  # it: no deadline traffic has been seen yet.
  resload -addr "$wire" -m 8 -n 4000 -clients 4 -cancelfrac 0
  obscheck -url "http://$obs/metrics" -slo ok -v
  # Burn: ~10s of requests that must start within a tick of their ready
  # time, against the saturated books — nearly every decision misses.
  resload -addr "$wire" -m 8 -n 20000 -clients 4 -cancelfrac 0 \
    -slack 1 -tenants 2 -rate 2000 > burn.out 2>&1 &
  burn=$!
  poll 40 0.25 obscheck -url "http://$obs/metrics" -slo page
  obscheck -url "http://$obs/metrics" -slo page -v
  curl -sf "http://$obs/healthz" | grep -q 'warning: slo'
  wait "$burn" || true
  cat burn.out
  # The page is long visible by now, so its evidence must be on disk: the
  # recorder journals a bundle only after the rename.
  obscheck -flight "http://$obs" -v > flightdump.out
  grep -q 'slo alert state changed' flightdump.out
  grep -q 'diagnostic bundle written' flightdump.out
  poll 60 0.5 obscheck -url "http://$obs/metrics" -slo ok
  curl -sf "http://$obs/healthz" | grep -q '^ok'
  stop || true
  cat server.out
  grep -q 'slo: "deadline" ok -> page' server.out
  grep -q 'slo: "deadline" page -> ok' server.out
  ;;

# A WAL-backed server under live traffic is killed with SIGKILL — no signal
# handler, no seal, no snapshot — and restarted on the same log directory:
# it must print the replay banner with a non-zero record count and nothing
# torn, corrupt or dropped (the unwritten rest of a mapped segment is not
# damage), and keep taking traffic on top of the recovered state. Then,
# with no traffic, it is restarted, SIGKILLed and restarted again: both
# boots must report the same per-shard state, and the killed idle boot
# must have left each shard's newest log at most one first chunk long.
# Once per sync mode: without fsync, the page cache alone carries the
# records.
crash)
  for sync in batch none; do
    wal=$dir/wal-$sync
    serve "server1-$sync.out" -shards 4 -m 64 -waldir "$wal" -walsync "$sync" -snapevery 4096
    curl -sf "http://$obs/healthz" | grep -q ok
    resload -addr "$wire" -n 20000 -clients 4
    kill -9 "$srv"
    wait "$srv" || true
    srv=
    cat "server1-$sync.out"
    ls -l "$wal"
    serve "server2-$sync.out" -shards 4 -m 64 -waldir "$wal" -walsync "$sync" -snapevery 4096
    curl -sf "http://$obs/healthz" | grep -q '^ok'
    grep -E 'wal .*replayed [0-9]+ records' "server2-$sync.out"
    if grep -q 'replayed 0 records' "server2-$sync.out"; then exit 1; fi
    grep -q 'torn=0 corrupt=0 dropped=0B' "server2-$sync.out"
    resload -addr "$wire" -n 5000 -clients 4
    stop
    cat "server2-$sync.out"
    grep -q 'resdsrv: final:' "server2-$sync.out"
    # Recovery is idempotent: server3 replays what server2 sealed, is
    # SIGKILLed with no traffic, and server4 replays again; both must come
    # back as the same set, shard by shard. Rejection counters restart at
    # zero and are left out.
    for n in 3 4; do
      serve "server$n-$sync.out" -shards 4 -m 64 -waldir "$wal" -walsync "$sync" -snapevery 4096
      curl -sf "http://$obs/metrics" |
        grep -E '^(resd_shard_active|resd_shard_committed_area|resd_admitted_total|resd_cancelled_total)\{' |
        sort > "state$n-$sync.txt"
      if [ "$n" = 3 ]; then
        kill -9 "$srv"
        wait "$srv" || true
        srv=
        # An idle boot's live segment is one first chunk (64 KiB), not a
        # whole 4 MiB one: each shard's newest log is at most that.
        for s in 0 1 2 3; do
          newest=$(ls -v "$wal"/shard-$s.*.wal | tail -n 1)
          size=$(wc -c < "$newest")
          echo "idle boot: $newest is $size bytes"
          test "$size" -le 65536
        done
      fi
    done
    stop
    cat "state3-$sync.txt"
    test "$(wc -l < "state3-$sync.txt")" -eq 16
    diff "state3-$sync.txt" "state4-$sync.txt"
    # A refused boot writes nothing. Shard 2's newest snapshot gets one
    # byte flipped (its older logs are gone, so nothing can rebuild it)
    # and shard 3's newest log a cut frame header: resdsrv must exit
    # non-zero naming shard 2, and leave shard 3's torn tail on disk with
    # every other byte of the directory.
    snap=$(ls -v "$wal"/shard-2.*.snap | tail -n 1)
    off=$(($(wc -c < "$snap") / 2))
    byte=$(od -An -tu1 -j "$off" -N1 "$snap" | tr -d ' ')
    printf "\\$(printf '%03o' $((byte ^ 1)))" | dd of="$snap" bs=1 seek="$off" conv=notrunc status=none
    printf '\x10\x00\x00\x00\x01' >> "$(ls -v "$wal"/shard-3.*.wal | tail -n 1)"
    sha256sum "$wal"/* > "before-$sync.txt"
    if resdsrv -addr "$wire" -shards 4 -m 64 -waldir "$wal" -walsync "$sync" -snapevery 4096 > "server5-$sync.out" 2>&1; then
      cat "server5-$sync.out"
      exit 1
    fi
    cat "server5-$sync.out"
    grep -q 'shard 2' "server5-$sync.out"
    sha256sum "$wal"/* | diff "before-$sync.txt" -
  done
  ;;

esac
set +x
echo "drill $drill: ok"
