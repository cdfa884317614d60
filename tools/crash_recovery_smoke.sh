#!/usr/bin/env bash
# End-to-end crash recovery smoke over the real `ivory` binary.
#
#   1. Start a 2-worker supervised fleet with a durable store.
#   2. Send a slow request, kill -9 every worker while it is in flight, and
#      assert the client gets a structured *retryable* error — not a hang,
#      not a dropped connection.
#   3. Assert the supervisor restarts the workers (a plain retry succeeds).
#   4. Evaluate a reference request, SIGTERM the whole fleet (graceful
#      drain), start a fresh fleet over the same store directory, and assert
#      the warm answer is byte-identical to the cold one without
#      re-evaluation (store hit visible in the stats op).
#
# Usage: crash_recovery_smoke.sh /path/to/ivory
set -u

IVORY="${1:?usage: crash_recovery_smoke.sh /path/to/ivory}"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/ivory-crash-smoke-XXXXXX")"
SOCK="$WORK/sock"
STORE="$WORK/store"
FLEET_PID=""

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

cleanup() {
  if [ -n "$FLEET_PID" ] && kill -0 "$FLEET_PID" 2>/dev/null; then
    kill -TERM "$FLEET_PID" 2>/dev/null
    wait "$FLEET_PID" 2>/dev/null
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

start_fleet() {
  "$IVORY" serve --socket "$SOCK" --workers 2 --cache-dir "$STORE" \
    --backoff-ms 50 --health-ms 50 </dev/null 2>"$WORK/fleet.log" &
  FLEET_PID=$!
  # The public socket accepts only after every worker is up.
  for _ in $(seq 1 100); do
    if echo '{"op":"stats","id":0}' | "$IVORY" client --socket "$SOCK" \
        >/dev/null 2>&1; then
      return 0
    fi
    kill -0 "$FLEET_PID" 2>/dev/null || fail "fleet died during startup: $(cat "$WORK/fleet.log")"
    sleep 0.1
  done
  fail "fleet did not come up: $(cat "$WORK/fleet.log")"
}

stop_fleet() {
  kill -TERM "$FLEET_PID"
  wait "$FLEET_PID" 2>/dev/null
  FLEET_PID=""
}

worker_pids() {
  # Workers were exec'd as `<ivory> serve --socket <sock>.wN --worker 1 ...`.
  pgrep -f "serve --socket $SOCK\.w" || true
}

# A transient long enough (~3.2M implicit-Euler steps, about 0.35-0.4 s of
# solve in a RelWithDebInfo build on a shared 4-vCPU x86 host, longer under
# load or a sanitizer) that kill -9 lands while it is still being computed.
# The step count is near the per-request sample budget, so the kill comes
# early instead of the request growing.
SLOW_REQ='{"op":"transient","id":7,"topology":"spice","netlist":"vin in 0 DC 3.3\ns1 in fly 0.01 1e8 CLOCK(20meg 2 0.48 0)\ns2 fly out 0.01 1e8 CLOCK(20meg 2 0.48 1)\ncfly fly 0 100n IC=1.65\ncout out 0 100n IC=1.65\nrl out 0 3.3\n.end\n","tstop":4e-4,"dt":1.25e-10,"method":"be","uic":true,"record":["out"]}'
REF_REQ='{"op":"sc_static","id":1,"n":3,"m":1,"cfly":4e-6,"gtot":15e3,"fsw":80e6,"iload":20}'

# --- 1. fleet up -----------------------------------------------------------
start_fleet
[ "$(worker_pids | wc -l)" -ge 2 ] || fail "expected 2 worker processes"

# --- 2. kill -9 mid-request -> structured retryable error ------------------
( echo "$SLOW_REQ" | "$IVORY" client --socket "$SOCK" > "$WORK/killed.out" ) &
CLIENT_PID=$!
sleep 0.2  # the worker is now deep inside the transient solve
for pid in $(worker_pids); do kill -KILL "$pid" 2>/dev/null; done
wait "$CLIENT_PID" 2>/dev/null
grep -q '"retryable":true' "$WORK/killed.out" ||
  fail "no retryable error after worker kill: $(cat "$WORK/killed.out")"
grep -q '"worker_unavailable"' "$WORK/killed.out" ||
  fail "wrong error code after worker kill: $(cat "$WORK/killed.out")"
echo "ok: kill -9 mid-request produced a structured retryable error"

# --- 3. supervisor restarts the workers ------------------------------------
RECOVERED=""
for _ in $(seq 1 150); do
  if echo "$REF_REQ" | "$IVORY" client --socket "$SOCK" 2>/dev/null |
      grep -q '"ok":true'; then
    RECOVERED=yes
    break
  fi
  sleep 0.1
done
[ -n "$RECOVERED" ] || fail "fleet did not recover after worker kill"
echo "ok: fleet recovered (retry of the same contract succeeded)"

# --- 4. warm restart is byte-identical and served from the store -----------
echo "$REF_REQ" | "$IVORY" client --socket "$SOCK" > "$WORK/cold.out"
grep -q '"ok":true' "$WORK/cold.out" || fail "cold reference request failed"
stop_fleet

start_fleet
echo "$REF_REQ" | "$IVORY" client --socket "$SOCK" > "$WORK/warm.out"
cmp -s "$WORK/cold.out" "$WORK/warm.out" ||
  fail "warm response differs from cold response after fleet restart"
# The answer must have come from the durable tier, not a re-evaluation:
# the worker that served it reports a warm-loaded store and zero evaluations
# for this key (cache hit or store hit, never n_evaluations for it).
STATS="$(echo '{"op":"stats","id":9}' | "$IVORY" client --socket "$SOCK")"
echo "$STATS" | grep -q '"store":{' || fail "stats response lacks store section: $STATS"
echo "$STATS" | grep -Eq '"warm_loaded":[1-9]' ||
  fail "restarted worker warm-loaded nothing: $STATS"
echo "ok: warm restart byte-identical, store warm-loaded"
stop_fleet

echo "PASS: crash recovery smoke"
