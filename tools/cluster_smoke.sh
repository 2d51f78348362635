#!/usr/bin/env bash
# cluster_smoke.sh — 3-process replication smoke (docs/REPLICATION.md).
#
#   tools/cluster_smoke.sh /path/to/harmonyd
#
# Boots a leader (--leader 3 --quorum-ack) and two followers (--join) as
# independent processes on loopback, drives the leader with `harmonyd load`
# (exactly-once receipt ledger: any lost or duplicated receipt fails the
# run), waits for both followers to reach the leader's height, then shuts
# everything down and compares the three `state_digest=` lines — the
# replica-consistency check across real process boundaries.
#
# Registered as the cluster_smoke ctest (tier-1).
set -euo pipefail

HARMONYD=${1:?usage: cluster_smoke.sh /path/to/harmonyd}
TXNS=${CLUSTER_SMOKE_TXNS:-2000}

TMP=$(mktemp -d "${TMPDIR:-/tmp}/cluster_smoke.XXXXXX")
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do
    kill -9 "$pid" 2>/dev/null || true
  done
  rm -rf "$TMP"
}
trap cleanup EXIT

# Loopback ports; randomized base so parallel ctest runs rarely collide.
BASE=$((20000 + RANDOM % 30000))
P_LEADER=$BASE
P_F1=$((BASE + 1))
P_F2=$((BASE + 2))

wait_serving() { # port name
  local port=$1 name=$2
  for _ in $(seq 1 100); do
    if "$HARMONYD" health --port "$port" >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.1
  done
  echo "FAIL: $name never started on port $port" >&2
  cat "$TMP/$name.log" >&2 || true
  return 1
}

height_of() { # port
  "$HARMONYD" health --port "$1" 2>/dev/null |
    sed -n 's/.* height=\([0-9]*\) .*/\1/p'
}

echo "== boot leader (:$P_LEADER) + 2 followers (:$P_F1 :$P_F2)"
"$HARMONYD" serve --dir "$TMP/leader" --port "$P_LEADER" \
  --leader 3 --quorum-ack --block-size 25 --delay-us 2000 \
  >"$TMP/leader.log" 2>&1 &
PIDS+=($!)
wait_serving "$P_LEADER" leader

for i in 1 2; do
  port_var="P_F$i"
  "$HARMONYD" serve --dir "$TMP/follower$i" --port "${!port_var}" \
    --join "127.0.0.1:$P_LEADER" --node "follower$i" \
    >"$TMP/follower$i.log" 2>&1 &
  PIDS+=($!)
done
wait_serving "$P_F1" follower1
wait_serving "$P_F2" follower2

echo "== load $TXNS txns through the leader (exactly-once ledger)"
"$HARMONYD" load --port "$P_LEADER" --conns 4 --txns "$TXNS" |
  tee "$TMP/load.out"
grep -q ' lost=0 duplicated=0 ' "$TMP/load.out" || {
  echo "FAIL: receipts lost or duplicated" >&2
  exit 1
}

echo "== wait for followers to reach the leader's height"
# The leader's height can still tick up for a beat after the load's last
# receipt resolves (the commit thread publishes height after the receipt
# callbacks), so re-read it each pass and require a stable value that both
# followers have reached.
H_LEADER=$(height_of "$P_LEADER")
[ -n "$H_LEADER" ] && [ "$H_LEADER" -gt 0 ] || {
  echo "FAIL: leader height unreadable" >&2
  exit 1
}
for _ in $(seq 1 200); do
  H_NOW=$(height_of "$P_LEADER" || true)
  if [ -n "${H_NOW:-}" ] && [ "$H_NOW" != "$H_LEADER" ]; then
    H_LEADER=$H_NOW
    sleep 0.1
    continue
  fi
  H1=$(height_of "$P_F1" || true)
  H2=$(height_of "$P_F2" || true)
  if [ "${H1:-0}" -ge "$H_LEADER" ] && [ "${H2:-0}" -ge "$H_LEADER" ]; then
    break
  fi
  sleep 0.1
done
[ "${H1:-0}" -ge "$H_LEADER" ] && [ "${H2:-0}" -ge "$H_LEADER" ] || {
  echo "FAIL: followers stalled (leader=$H_LEADER f1=${H1:-?} f2=${H2:-?})" >&2
  cat "$TMP"/follower*.log >&2 || true
  exit 1
}

echo "== scrape cluster-status from all 3 nodes"
NODES="127.0.0.1:$P_LEADER,127.0.0.1:$P_F1,127.0.0.1:$P_F2"
STATUS_RC=0
"$HARMONYD" cluster-status --nodes "$NODES" >"$TMP/cluster.out" 2>&1 ||
  STATUS_RC=$?
cat "$TMP/cluster.out"
[ "$STATUS_RC" -eq 0 ] || {
  echo "FAIL: cluster-status exited $STATUS_RC" >&2
  exit 1
}
grep -q 'consistent=yes' "$TMP/cluster.out" || {
  echo "FAIL: cluster-status reports height divergence" >&2
  exit 1
}
grep -q 'error_events=0' "$TMP/cluster.out" || {
  echo "FAIL: a healthy cluster logged error-severity events" >&2
  exit 1
}

echo "== clean shutdown, compare state digests"
for pid in "${PIDS[@]}"; do
  kill -TERM "$pid" 2>/dev/null || true
done
for pid in "${PIDS[@]}"; do
  wait "$pid" || true
done
PIDS=()

digest_of() { sed -n 's/^state_digest=\([0-9a-f]*\).*/\1/p' "$1" | tail -1; }
D_LEADER=$(digest_of "$TMP/leader.log")
D_F1=$(digest_of "$TMP/follower1.log")
D_F2=$(digest_of "$TMP/follower2.log")
[ -n "$D_LEADER" ] || {
  echo "FAIL: leader printed no state digest" >&2
  cat "$TMP/leader.log" >&2
  exit 1
}
if [ "$D_LEADER" != "$D_F1" ] || [ "$D_LEADER" != "$D_F2" ]; then
  echo "FAIL: digest divergence" >&2
  echo "  leader    $D_LEADER" >&2
  echo "  follower1 $D_F1" >&2
  echo "  follower2 $D_F2" >&2
  exit 1
fi
echo "PASS: 3-node cluster, exactly-once receipts, identical digests"
echo "  digest $D_LEADER @ height $H_LEADER"
