#!/usr/bin/env bash
# obs_smoke.sh — end-to-end smoke test of the live ops surface.
#
# Boots a real lookup service and a replicated two-shard master
# (-shards 2 -replicas 1 -max-inflight 64) with -obs, then scrapes the
# ops endpoint while the master is mid-run (planning keeps it busy for
# tens of seconds, so histograms are live):
#
#   /metrics          must serve Prometheus text with framework gauges,
#                     at least one latency histogram and the per-shard
#                     gauges (entries, dead entries, ops)
#   /healthz          must serve the JSON health report with one entry
#                     per shard (role, epoch, replication lag, WAL
#                     position), the overload block carrying the
#                     configured max_inflight, and the flight-recorder
#                     vitals (depth/dropped/clk)
#   /debug/flight     must serve the flight-recorder dump with at least
#                     the master's node:start event
#   /debug/pprof/heap must serve a heap profile
#   /tracez           must serve the slow-span listing
#
# Exits non-zero on any failure. Used by the CI bench job; run locally
# with: ./scripts/obs_smoke.sh
set -euo pipefail

LOOKUP_ADDR=127.0.0.1:7001
MASTER_ADDR=127.0.0.1:7002
OBS_ADDR=127.0.0.1:6060
OBS_URL="http://$OBS_ADDR"

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
pids=()
cleanup() {
    for pid in "${pids[@]:-}"; do
        kill "$pid" 2>/dev/null || true
    done
    wait 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

echo "obs_smoke: building lookup and master"
go build -o "$workdir/lookup" ./cmd/lookup
go build -o "$workdir/master" ./cmd/master

"$workdir/lookup" -addr "$LOOKUP_ADDR" >"$workdir/lookup.log" 2>&1 &
pids+=($!)

# The master dials the lookup exactly once at boot: wait for the lookup
# to actually listen or the whole smoke races process startup.
for i in $(seq 1 50); do
    if (exec 3<>"/dev/tcp/${LOOKUP_ADDR%:*}/${LOOKUP_ADDR#*:}") 2>/dev/null; then
        exec 3>&- 3<&-
        break
    fi
    if [ "$i" = 50 ]; then
        echo "obs_smoke: FAIL — lookup never listened on $LOOKUP_ADDR" >&2
        cat "$workdir/lookup.log" >&2
        exit 1
    fi
    sleep 0.1
done

"$workdir/master" -addr "$MASTER_ADDR" -lookup "$LOOKUP_ADDR" \
    -job montecarlo -shards 2 -replicas 1 -max-inflight 64 \
    -obs "$OBS_ADDR" >"$workdir/master.log" 2>&1 &
pids+=($!)

# Wait for the ops surface to come up and for planning to record its
# first latencies (the plan histogram appears once a task is written).
echo "obs_smoke: waiting for $OBS_URL/metrics to show live histograms"
for i in $(seq 1 60); do
    if curl -fsS "$OBS_URL/metrics" 2>/dev/null | grep -q 'gospaces_master_plan_seconds'; then
        break
    fi
    if [ "$i" = 60 ]; then
        echo "obs_smoke: FAIL — no live histogram after 30s" >&2
        cat "$workdir/master.log" >&2
        exit 1
    fi
    sleep 0.5
done

metrics=$(curl -fsS "$OBS_URL/metrics")
# No worker joins during the smoke, so only master-side series are live:
# the shard serve histogram fills from worker RPCs and stays empty here.
for want in \
    'gospaces_master_tasks_planned' \
    'gospaces_master_tasks_pending' \
    'gospaces_shard0_ops' \
    'gospaces_flight_depth' \
    'gospaces_flight_clk' \
    'gospaces_master_plan_seconds histogram' \
    'gospaces_space_write_seconds histogram'; do
    if ! grep -q "$want" <<<"$metrics"; then
        echo "obs_smoke: FAIL — /metrics lacks \"$want\":" >&2
        echo "$metrics" >&2
        exit 1
    fi
done
echo "obs_smoke: /metrics OK ($(grep -c ' histogram' <<<"$metrics") histograms)"

healthz=$(curl -fsS "$OBS_URL/healthz")
for want in '"status":"ok"' '"role":"primary"' '"replication_lag"' '"wal_position"' \
    '"shard":0' '"shard":1' '"epoch":1' '"brownout_level"' '"max_inflight":64' \
    '"flight_depth"' '"flight_dropped"' '"flight_clk"'; do
    if ! grep -q "$want" <<<"$healthz"; then
        echo "obs_smoke: FAIL — /healthz lacks $want: $healthz" >&2
        exit 1
    fi
done
# The master records node:start at boot, so an empty recorder here means
# the control plane never reached it.
depth=$(grep -oE '"flight_depth":[0-9]+' <<<"$healthz" | cut -d: -f2)
clk=$(grep -oE '"flight_clk":[0-9]+' <<<"$healthz" | cut -d: -f2)
if [ "${depth:-0}" -lt 1 ] || [ "${clk:-0}" -lt 1 ]; then
    echo "obs_smoke: FAIL — /healthz flight vitals empty (depth=$depth clk=$clk): $healthz" >&2
    exit 1
fi
shards=$(grep -oE '"shard":[0-9]+' <<<"$healthz" | wc -l)
if [ "$shards" -ne 2 ]; then
    echo "obs_smoke: FAIL — /healthz lists $shards shards, want 2: $healthz" >&2
    exit 1
fi
echo "obs_smoke: /healthz OK ($healthz)"

flight=$(curl -fsS "$OBS_URL/debug/flight")
if ! grep -q '"kind": "node:start"' <<<"$flight"; then
    echo "obs_smoke: FAIL — /debug/flight lacks the master's node:start event: $flight" >&2
    exit 1
fi
echo "obs_smoke: /debug/flight OK ($(grep -c '"kind"' <<<"$flight") events)"

# Per-shard vitals are gauges on /metrics, read off whichever node serves
# the ring position.
metrics=$(curl -fsS "$OBS_URL/metrics")
for want in 'gospaces_shard0_entries' 'gospaces_shard0_dead_entries' 'gospaces_shard0_ops'; do
    if ! grep -q "^$want " <<<"$metrics"; then
        echo "obs_smoke: FAIL — /metrics lacks \"$want\":" >&2
        echo "$metrics" >&2
        exit 1
    fi
done
echo "obs_smoke: per-shard gauges on /metrics OK"

heap=$(curl -fsS -o "$workdir/heap.pprof" -w '%{size_download}' "$OBS_URL/debug/pprof/heap")
if [ "$heap" -le 0 ]; then
    echo "obs_smoke: FAIL — empty heap profile" >&2
    exit 1
fi
echo "obs_smoke: /debug/pprof/heap OK ($heap bytes)"

curl -fsS "$OBS_URL/tracez" | head -3
echo "obs_smoke: /tracez OK"
echo "obs_smoke: PASS"
