#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke test of the real youtiao-serve
# binary (race-enabled build): health probes, a design request, an
# overload burst that must shed with 429 + Retry-After, a /metrics
# scrape, and a SIGTERM drain that must exit 0 after logging
# "drained cleanly". See DESIGN.md, "The serving contract".
set -euo pipefail

cd "$(dirname "$0")/.."

TMP=$(mktemp -d)
PID=""
cleanup() {
    if [ -n "$PID" ] && kill -0 "$PID" 2>/dev/null; then
        kill -KILL "$PID" 2>/dev/null || true
    fi
    rm -rf "$TMP"
}
trap cleanup EXIT

fail() {
    echo "serve-smoke: FAIL: $*" >&2
    echo "--- server log ---" >&2
    cat "$TMP/serve.log" >&2 || true
    exit 1
}

echo "serve-smoke: building race-enabled binary"
go build -race -o "$TMP/youtiao-serve" ./cmd/youtiao-serve

PORT=$(python3 -c 'import socket; s=socket.socket(); s.bind(("127.0.0.1",0)); print(s.getsockname()[1]); s.close()')
BASE="http://127.0.0.1:$PORT"

# Tight admission limits so a small burst reliably overflows:
# 1 executing + 1 queued, everything else shed. The persistent cache
# dir is shared with the restarted server below, which must warm-start
# from it.
CACHE_DIR="$TMP/cache"
"$TMP/youtiao-serve" \
    -addr "127.0.0.1:$PORT" \
    -max-inflight 1 -max-queue 1 -queue-wait 30s \
    -request-timeout 60s -cache-mb 64 -cache-dir "$CACHE_DIR" \
    -drain-timeout 60s \
    > "$TMP/serve.log" 2>&1 &
PID=$!

echo "serve-smoke: waiting for readiness on $BASE"
for i in $(seq 1 100); do
    if curl -sf "$BASE/readyz" > /dev/null 2>&1; then break; fi
    kill -0 "$PID" 2>/dev/null || fail "server exited during startup"
    [ "$i" -eq 100 ] && fail "server never became ready"
    sleep 0.1
done

code=$(curl -s -o "$TMP/health.json" -w '%{http_code}' "$BASE/healthz")
[ "$code" = 200 ] || fail "/healthz returned $code"

echo "serve-smoke: single design request"
code=$(curl -s -o "$TMP/design.json" -w '%{http_code}' \
    -d '{"topology":"square","qubits":16,"seed":1,"timeoutMs":50000}' \
    "$BASE/v1/design")
[ "$code" = 200 ] || fail "/v1/design returned $code: $(cat "$TMP/design.json")"
grep -q '"design"' "$TMP/design.json" || fail "design response missing design"
grep -q '"manifest"' "$TMP/design.json" || fail "design response missing manifest"

code=$(curl -s -o /dev/null -w '%{http_code}' -d 'not json' "$BASE/v1/design")
[ "$code" = 400 ] || fail "malformed request returned $code, want 400"

echo "serve-smoke: overload burst (8 concurrent, capacity 2)"
# Distinct seeds defeat coalescing, so every request competes for a
# slot; with 1 executing + 1 queued, most of the burst must shed.
burst_pids=()
for i in $(seq 1 8); do
    curl -s -D "$TMP/burst.$i.hdr" -o "$TMP/burst.$i.body" \
        -w '%{http_code}' --max-time 70 \
        -d "{\"topology\":\"square\",\"qubits\":36,\"seed\":$i}" \
        "$BASE/v1/design" > "$TMP/burst.$i.code" &
    burst_pids+=($!)
done
for p in "${burst_pids[@]}"; do wait "$p" || true; done

ok=0 shed=0 other=0
for i in $(seq 1 8); do
    c=$(cat "$TMP/burst.$i.code")
    case "$c" in
    200) ok=$((ok + 1)) ;;
    429)
        shed=$((shed + 1))
        grep -qi '^retry-after:' "$TMP/burst.$i.hdr" || fail "429 without Retry-After"
        ;;
    *) other=$((other + 1)) ;;
    esac
done
echo "serve-smoke: burst outcome: $ok ok, $shed shed, $other other"
[ "$other" -eq 0 ] || fail "burst produced unexpected status codes"
[ "$ok" -ge 1 ] || fail "burst produced no successes"
[ "$shed" -ge 1 ] || fail "burst produced no 429s"

echo "serve-smoke: scraping /metrics"
curl -s "$BASE/metrics" > "$TMP/metrics.json"
for counter in serve/requests serve/ok serve/shed serve/bad_request stage/misses stage/evictions \
    crosstalk/fits faults/pairs parallel/tasks; do
    grep -q "\"$counter\"" "$TMP/metrics.json" || fail "/metrics missing $counter"
done
python3 - "$TMP/metrics.json" "$ok" "$shed" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))
counters = m["counters"]
ok, shed = int(sys.argv[2]), int(sys.argv[3])
assert counters["serve/ok"] >= ok + 1, counters
assert counters["serve/shed"] == shed, counters
assert counters["serve/bad_request"] == 1, counters
assert counters["stage/misses"] > 0, counters
# The request builds carry the server's registry, so the package
# counters of the work they executed arrive too.
for name in ("crosstalk/fits", "faults/pairs", "parallel/tasks"):
    assert counters[name] > 0, (name, counters)
EOF

echo "serve-smoke: SIGTERM drain"
kill -TERM "$PID"
status=0
wait "$PID" || status=$?
PID=""
[ "$status" -eq 0 ] || fail "server exited $status after SIGTERM"
grep -q 'drained cleanly' "$TMP/serve.log" || fail "server log missing 'drained cleanly'"

echo "serve-smoke: warm restart against the persisted cache dir"
# A freshly started server pointed at the same cache dir must serve
# the repeated design from the disk tier: /readyz's diskHits climbs
# above zero and the design request re-executes no stages.
"$TMP/youtiao-serve" \
    -addr "127.0.0.1:$PORT" \
    -max-inflight 1 -max-queue 1 -queue-wait 30s \
    -request-timeout 60s -cache-mb 64 -cache-dir "$CACHE_DIR" \
    -drain-timeout 60s \
    > "$TMP/serve2.log" 2>&1 &
PID=$!
for i in $(seq 1 100); do
    if curl -sf "$BASE/readyz" > /dev/null 2>&1; then break; fi
    kill -0 "$PID" 2>/dev/null || fail "restarted server exited during startup"
    [ "$i" -eq 100 ] && fail "restarted server never became ready"
    sleep 0.1
done
code=$(curl -s -o "$TMP/design2.json" -w '%{http_code}' \
    -d '{"topology":"square","qubits":16,"seed":1,"timeoutMs":50000}' \
    "$BASE/v1/design")
[ "$code" = 200 ] || fail "warm-restart design returned $code: $(cat "$TMP/design2.json")"
curl -s "$BASE/readyz" > "$TMP/ready2.json"
python3 - "$TMP/ready2.json" <<'EOF'
import json, sys
cache = json.load(open(sys.argv[1]))["cache"]
assert cache["diskHits"] > 0, f"warm restart took no disk hits: {cache}"
assert cache["diskEntries"] > 0, f"warm restart sees no disk entries: {cache}"
assert cache["decodeErrors"] == 0, f"warm restart hit decode errors: {cache}"
EOF
kill -TERM "$PID"
status=0
wait "$PID" || status=$?
PID=""
[ "$status" -eq 0 ] || fail "restarted server exited $status after SIGTERM"

echo "serve-smoke: PASS"
