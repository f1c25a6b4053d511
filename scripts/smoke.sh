#!/usr/bin/env bash
# Warm-cache restart smoke for redpatchd, runnable locally or in CI.
#
# Boots the daemon with -cache-dir, evaluates a design, registers a
# fleet system, shuts down gracefully, restarts on the same cache dir
# and asserts the design is served from the persisted memo cache (zero
# solves, one hit, straight off /metrics), that the fleet registry
# survived the restart, that ?explain=1 and /debug/traces surface
# provenance, and that the mixed-version rollout endpoint streams a
# frontier whose done trailer is byte-identical across repeat runs.
# Leaves traces.json in the working directory for artifact upload.
#
# Then the cluster smoke: a coordinator sharding a sweep over two
# worker processes, one of which is SIGKILLed mid-sweep — the stream
# must still end in a done trailer byte-identical to a single-process
# run of the same sweep.
set -euo pipefail

ADDR=${ADDR:-127.0.0.1:18080}
W1=${W1:-127.0.0.1:18081}
W2=${W2:-127.0.0.1:18082}
BIN=${BIN:-/tmp/redpatchd}

go build -o "$BIN" ./cmd/redpatchd
CACHE=$(mktemp -d)
BODY='{"spec":{"tiers":[{"role":"dns","replicas":1},{"role":"web","replicas":2},{"role":"app","replicas":2},{"role":"db","replicas":1}]}}'

wait_healthz() {
  for _ in $(seq 1 50); do
    curl -sf "$ADDR/healthz" >/dev/null && return 0
    sleep 0.2
  done
  echo "daemon on $ADDR never became healthy" >&2
  return 1
}

# Readiness, not liveness: workers must pass /readyz (cache restored,
# scenarios registered, listener bound) before the coordinator may
# dispatch to them.
wait_ready() {
  for _ in $(seq 1 50); do
    curl -sf "$1/readyz" >/dev/null && return 0
    sleep 0.2
  done
  echo "daemon on $1 never became ready" >&2
  return 1
}

# wait_solving polls a daemon's /metrics every 50ms until its engine
# has started at least one solve, for at most 10s.
wait_solving() {
  for _ in $(seq 1 200); do
    curl -s "$1/metrics" \
      | grep -E 'redpatchd_engine_solves_total\{scenario="default"\} [1-9]' >/dev/null \
      && return 0
    sleep 0.05
  done
  echo "daemon on $1 never started solving" >&2
  return 1
}

"$BIN" -addr "$ADDR" -cache-dir "$CACHE" &
PID=$!
wait_healthz
curl -sf -X POST "$ADDR/api/v2/evaluate" -d "$BODY" >/dev/null
curl -s "$ADDR/metrics" | grep -F 'redpatchd_engine_solves_total{scenario="default"} 1'
curl -sf -X POST "$ADDR/api/v2/fleet/register" -d '{"systems":[{
  "id":"smoke-1","role":"app","windowMinutes":60,
  "tiers":[{"role":"dns","replicas":1},{"role":"web","replicas":2},{"role":"app","replicas":2},{"role":"db","replicas":1}]}]}' >/dev/null
kill -TERM "$PID"
wait "$PID"
test -s "$CACHE/default.cache.json"
test -s "$CACHE/fleet.json"

"$BIN" -addr "$ADDR" -cache-dir "$CACHE" -pprof -log-format json &
PID=$!
wait_healthz
curl -sf -X POST "$ADDR/api/v2/evaluate" -d "$BODY" >/dev/null
METRICS=$(curl -s "$ADDR/metrics")
echo "$METRICS" | grep -F 'redpatchd_engine_solves_total{scenario="default"} 0'
echo "$METRICS" | grep -F 'redpatchd_engine_cache_hits_total{scenario="default"} 1'
echo "$METRICS" | grep -F 'redpatchd_cache_restored_entries_total 1'
# The fleet registry rode the restart: the registered system is back
# and planning it runs on the restored warm cache.
echo "$METRICS" | grep -F 'redpatchd_fleet_systems 1'
curl -sf -X POST "$ADDR/api/v2/fleet/plan" -d '{}' \
  | grep -F '"smoke-1"' >/dev/null
curl -s "$ADDR/metrics" | grep -F 'redpatchd_fleet_plans_total 1'

# Provenance surfaces: ?explain=1 names the solver that answered (a
# design the restored cache has not seen, so the solvers actually
# run), /debug/traces (behind -pprof) retains the request trace with
# its root http.request span.
curl -sf -X POST "$ADDR/api/v2/evaluate?explain=1" \
  -d '{"spec":{"tiers":[{"role":"dns","replicas":1},{"role":"web","replicas":3},{"role":"app","replicas":2},{"role":"db","replicas":1}]}}' \
  | grep -F '"availabilitySolver"'
curl -sf "$ADDR/debug/traces" | tee traces.json \
  | grep -F '"http.request"'

# Mixed-version rollout: a one-shot schedule streams NDJSON ending in
# a done trailer that carries the security-availability frontier.
ROLLOUT=$(curl -sf -X POST "$ADDR/api/v2/rollout/sweep" \
  -d '{"spec":{"tiers":[{"role":"dns","replicas":1},{"role":"web","replicas":2},{"role":"app","replicas":2},{"role":"db","replicas":1}]},"schedule":{"strategy":"one-shot"}}')
echo "$ROLLOUT" | grep -F '"done":true' >/dev/null
echo "$ROLLOUT" | grep -F '"frontier"' >/dev/null
# The frontier is a pure function of the points: a rolling schedule
# whose fractions ceil to the same patched counts ties exactly, and the
# same rollout streamed twice (points in completion order) must end in
# byte-identical done trailers.
RBODY='{"spec":{"tiers":[{"role":"dns","replicas":1},{"role":"web","replicas":2},{"role":"app","replicas":2},{"role":"db","replicas":1}]},"schedule":{"strategy":"rolling","steps":6}}'
R1=$(curl -sf -X POST "$ADDR/api/v2/rollout/sweep" -d "$RBODY" | tail -n 1)
R2=$(curl -sf -X POST "$ADDR/api/v2/rollout/sweep" -d "$RBODY" | tail -n 1)
echo "$R1" | grep -F '"frontier"' >/dev/null
if [ "$R1" != "$R2" ]; then
  echo "rollout trailer differs between two identical streams:" >&2
  echo "first: $R1" >&2
  echo "second: $R2" >&2
  exit 1
fi

kill -TERM "$PID"
wait "$PID"
echo "warm-cache restart + trace + rollout surfaces verified"

# ── Cluster smoke: coordinator + 2 workers, one SIGKILLed mid-sweep ──

# 256 designs; each worker's evaluator is slowed by 50ms of injected
# latency per design so the sweep is reliably still in flight when the
# worker dies.
SWEEP='{"tiers":[{"role":"web","min":1,"max":16},{"role":"app","min":1,"max":16}]}'

# Single-process baseline trailer for the same sweep.
"$BIN" -addr "$ADDR" &
PID=$!
wait_ready "$ADDR"
BASE=$(curl -sf -X POST "$ADDR/api/v2/sweep/stream" -d "$SWEEP" | tail -n 1)
kill -TERM "$PID"
wait "$PID"
echo "$BASE" | grep -F '"done":true' >/dev/null

"$BIN" -worker -addr "$W1" -chaos-seed 1 -chaos-site "evaluate,0,1,50,0" &
WPID1=$!
"$BIN" -worker -addr "$W2" -chaos-seed 2 -chaos-site "evaluate,0,1,50,0" &
WPID2=$!
"$BIN" -addr "$ADDR" -cluster-workers "$W1,$W2" -cluster-shards 8 &
PID=$!
wait_ready "$W1"
wait_ready "$W2"
wait_ready "$ADDR"

curl -sf -X POST "$ADDR/api/v2/sweep/stream" -d "$SWEEP" >cluster_sweep.out &
CURL=$!
# Kill worker 1 mid-shard, not after a guessed delay: once its engine
# has started a solve (each takes 50ms there), a shard is in flight on
# it, so losing it must force a retry or a local fallback.
wait_solving "$W1"
kill -KILL "$WPID1"
wait "$WPID1" || true
wait "$CURL"

CLUSTER=$(tail -n 1 cluster_sweep.out)
echo "$CLUSTER" | grep -F '"done":true' >/dev/null
if [ "$CLUSTER" != "$BASE" ]; then
  echo "cluster trailer diverged from single-process baseline:" >&2
  echo " cluster: $CLUSTER" >&2
  echo "baseline: $BASE" >&2
  exit 1
fi
# The fleet actually did the work before the kill: shards were
# dispatched, and losing a worker mid-shard forced a retry or a local
# fallback.
CMETRICS=$(curl -s "$ADDR/metrics")
echo "$CMETRICS" | grep -E 'redpatchd_cluster_dispatches_total [1-9]' >/dev/null
echo "$CMETRICS" | grep -E 'redpatchd_cluster_(retries|local_fallbacks)_total [1-9]' >/dev/null

kill -TERM "$PID"
wait "$PID"
kill -TERM "$WPID2"
wait "$WPID2"
rm -f cluster_sweep.out
echo "cluster sweep survived a worker SIGKILL byte-identical to single-process"
