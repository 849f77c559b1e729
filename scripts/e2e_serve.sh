#!/usr/bin/env bash
# End-to-end gate for the relayserve service: build the binary, check
# that it refuses a world tier no campaign can run, boot it against the
# small world, wait for readiness, exercise the query and resource
# endpoints, hot-swap the serving world, and verify the swap took. Any
# non-200, bad JSON, or timeout fails the script (and the CI job that
# runs it).
#
# Usage: scripts/e2e_serve.sh
# Env:   E2E_ROUNDS (default 2)  warm-campaign rounds for the boot world
set -euo pipefail
cd "$(dirname "$0")/.."

ROUNDS="${E2E_ROUNDS:-2}"
WORKDIR="$(mktemp -d)"
BIN="$WORKDIR/relayserve"
LOG="$WORKDIR/serve.log"
PID=""

cleanup() {
  if [ -n "$PID" ] && kill -0 "$PID" 2>/dev/null; then
    kill "$PID" 2>/dev/null || true
    wait "$PID" 2>/dev/null || true
  fi
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

fail() {
  echo "e2e-serve: FAIL: $*" >&2
  echo "--- server log ---" >&2
  cat "$LOG" >&2 || true
  exit 1
}

echo "e2e-serve: building cmd/relayserve"
go build -o "$BIN" ./cmd/relayserve

# Negative boot: a scale world without a pair budget is a selection no
# campaign can run (its exhaustive pair universe is quadratic). The
# server must refuse it before binding: exit non-zero within 10 s,
# name PairBudget on stderr, and never print its listen address.
echo "e2e-serve: negative boot (-scale 1000 without -pairbudget)"
CODE=0
timeout 10 "$BIN" -scale 1000 -addr 127.0.0.1:0 >"$WORKDIR/neg.out" 2>"$WORKDIR/neg.err" || CODE=$?
cat "$WORKDIR/neg.out" "$WORKDIR/neg.err" >"$LOG"
[ "$CODE" -ne 0 ] || fail "-scale without -pairbudget booted (exit 0)"
[ "$CODE" -ne 124 ] || fail "-scale without -pairbudget still running after 10s"
grep -q PairBudget "$WORKDIR/neg.err" || fail "negative boot stderr does not name PairBudget"
! grep -q "listening on" "$WORKDIR/neg.out" || fail "negative boot printed its listen address"
echo "e2e-serve: negative boot refused (exit $CODE)"
: >"$LOG"

# Port 0: the kernel picks a free port and the server prints it on
# stdout as "relayserve: listening on http://HOST:PORT".
"$BIN" -small -rounds "$ROUNDS" -addr 127.0.0.1:0 >"$LOG" 2>&1 &
PID=$!

ADDR=""
for _ in $(seq 1 50); do
  ADDR="$(sed -n 's#^relayserve: listening on http://##p' "$LOG" | head -n 1)"
  [ -n "$ADDR" ] && break
  kill -0 "$PID" 2>/dev/null || fail "server exited before binding"
  sleep 0.2
done
[ -n "$ADDR" ] || fail "server never printed its listen address"
BASE="http://$ADDR"
echo "e2e-serve: server up at $BASE (pid $PID)"

# Readiness: /healthz must answer immediately; /readyz flips to 200
# when the warm campaign publishes. 60s is ~100x the small-world build.
# The first connect retries briefly: the server prints its address
# after Listen returns, but the accept loop may not be scheduled yet
# on a loaded CI host.
HEALTHY=""
for _ in $(seq 1 25); do
  if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then HEALTHY=1; break; fi
  kill -0 "$PID" 2>/dev/null || fail "server exited before /healthz answered"
  sleep 0.2
done
[ -n "$HEALTHY" ] || fail "/healthz refused while building"
READY=""
for _ in $(seq 1 300); do
  if curl -fsS "$BASE/readyz" >/dev/null 2>&1; then READY=1; break; fi
  kill -0 "$PID" 2>/dev/null || fail "server died during warm-up"
  sleep 0.2
done
[ -n "$READY" ] || fail "/readyz never turned 200 within 60s"
echo "e2e-serve: ready"

# get PATH [JQ_ASSERT]: curl an endpoint, require 200 + valid JSON, and
# optionally require a python expression over the parsed body (bound to
# j) to be truthy.
get() {
  local path="$1" assert="${2:-True}" body
  body="$(curl -fsS "$BASE$path")" || fail "GET $path did not return 200"
  python3 -c '
import json, sys
j = json.loads(sys.stdin.read())
assert eval(sys.argv[1]), f"assertion {sys.argv[1]!r} failed on {j!r}"
' "$assert" <<<"$body" || fail "GET $path: bad JSON or failed assertion: $assert"
  printf '%s' "$body"
}

# Resource endpoints answer with populated listings.
get "/v1/facilities" 'j["count"] > 0 and len(j["facilities"]) == j["count"]' >/dev/null
echo "e2e-serve: /v1/facilities ok"
get "/v1/relays?limit=5" 'j["count"] > 0 and len(j["relays"]) == 5' >/dev/null
echo "e2e-serve: /v1/relays ok"

# Relay show: the first relay of each type, shown by its listed ID,
# answers with the same index, ID and type.
for TYPE in COR PLR RAR_eye RAR_other; do
  LISTED="$(get "/v1/relays?type=$TYPE&limit=1" 'len(j["relays"]) == 1 and j["relays"][0]["type"] == "'"$TYPE"'"')"
  ID="$(python3 -c 'import json,sys; print(json.load(sys.stdin)["relays"][0]["id"])' <<<"$LISTED")"
  INDEX="$(python3 -c 'import json,sys; print(json.load(sys.stdin)["relays"][0]["index"])' <<<"$LISTED")"
  get "/v1/relays/$ID" \
    'j["index"] == '"$INDEX"' and j["id"] == "'"$ID"'" and j["type"] == "'"$TYPE"'"' >/dev/null
  echo "e2e-serve: /v1/relays/$ID ok ($TYPE, index $INDEX)"
done

# Pick a measured corridor from the plan listing, then query it.
PLANS="$(get "/v1/plans?limit=1" 'j["count"] > 0 and j["seed"] == 1')"
SRC="$(python3 -c 'import json,sys; print(json.load(sys.stdin)["plans"][0]["src"])' <<<"$PLANS")"
DST="$(python3 -c 'import json,sys; print(json.load(sys.stdin)["plans"][0]["dst"])' <<<"$PLANS")"
echo "e2e-serve: querying corridor $SRC-$DST"
get "/v1/relays/best?src=$SRC&dst=$DST" \
  'j["seed"] == 1 and j["plan"]["src"] == "'"$SRC"'" and j["plan"]["observations"] > 0' >/dev/null
echo "e2e-serve: /v1/relays/best ok (seed 1)"

# Hot swap to seed 2 and verify the next answer serves the new world.
SWAP="$(curl -fsS -X POST "$BASE/v1/admin/swap?seed=2")" || fail "POST /v1/admin/swap did not return 200"
python3 -c '
import json, sys
j = json.loads(sys.stdin.read())
assert j["swapped"] is True and j["state"]["seed"] == 2, j
' <<<"$SWAP" || fail "swap response malformed: $SWAP"
echo "e2e-serve: swap to seed 2 ok"

get "/readyz" 'j["ready"] is True and j["seed"] == 2' >/dev/null
PLANS2="$(get "/v1/plans?limit=1" 'j["count"] > 0 and j["seed"] == 2')"
SRC2="$(python3 -c 'import json,sys; print(json.load(sys.stdin)["plans"][0]["src"])' <<<"$PLANS2")"
DST2="$(python3 -c 'import json,sys; print(json.load(sys.stdin)["plans"][0]["dst"])' <<<"$PLANS2")"
get "/v1/relays/best?src=$SRC2&dst=$DST2" 'j["seed"] == 2' >/dev/null
echo "e2e-serve: post-swap query serves seed 2"

# Disruption detection: the calm world must report a clean bill of
# health, and the endpoint must answer with the serving scenario.
get "/v1/disruptions" 'j["count"] == 0 and j["scenario"] == "calm" and j["degraded"] is False' >/dev/null
echo "e2e-serve: /v1/disruptions clean on calm world"

echo "e2e-serve: PASS"

# Second boot: self-heal mode under the outage scenario. The warm
# campaign runs through the disruption window, so the detector must
# confirm and localize at least one event, the healer must exclude
# relays, and /readyz must carry the degraded-mode fields.
kill "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true
PID=""
: >"$LOG"

HEAL_ROUNDS=$(( ROUNDS > 12 ? ROUNDS : 12 ))
echo "e2e-serve: rebooting with -selfheal -scenario outage ($HEAL_ROUNDS rounds)"
"$BIN" -small -selfheal -scenario outage -rounds "$HEAL_ROUNDS" -addr 127.0.0.1:0 >"$LOG" 2>&1 &
PID=$!

ADDR=""
for _ in $(seq 1 50); do
  ADDR="$(sed -n 's#^relayserve: listening on http://##p' "$LOG" | head -n 1)"
  [ -n "$ADDR" ] && break
  kill -0 "$PID" 2>/dev/null || fail "self-heal server exited before binding"
  sleep 0.2
done
[ -n "$ADDR" ] || fail "self-heal server never printed its listen address"
BASE="http://$ADDR"

READY=""
for _ in $(seq 1 600); do
  if curl -fsS "$BASE/readyz" >/dev/null 2>&1; then READY=1; break; fi
  kill -0 "$PID" 2>/dev/null || fail "self-heal server died during warm-up"
  sleep 0.2
done
[ -n "$READY" ] || fail "self-heal /readyz never turned 200 within 120s"

get "/v1/disruptions" \
  'j["count"] > 0 and j["self_heal"] is True and j["relays_healed"] > 0 and all(d["confirmed_round"] >= d["onset_round"] and d["corridors"] for d in j["disruptions"])' >/dev/null
echo "e2e-serve: /v1/disruptions reports localized events under outage"
get "/readyz" 'j["ready"] is True and j["self_heal"] is True and j["scenario"] == "outage"' >/dev/null
echo "e2e-serve: degraded-mode readiness fields ok"

echo "e2e-serve: PASS (self-heal)"
