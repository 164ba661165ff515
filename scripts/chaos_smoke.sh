#!/usr/bin/env bash
# Chaos smoke test for bwwalld under deterministic fault injection.
#
# Usage: scripts/chaos_smoke.sh BWWALLD_BINARY [CLIENT_BINARY]
#
# Starts the daemon with --faults arming every wired fault point at
# >= 1 %, hammers it with a mixed curl
# workload, and asserts the robustness contract:
# the process never crashes, every response carries a deliberate
# status (200/400/424/500/503/504 — nothing else), no request hangs,
# every armed fault point actually fired, and metrics stay coherent.
# Finally SIGTERMs the daemon and requires a clean drain (exit 0).
# CI runs this against an AddressSanitizer build.
set -euo pipefail

bwwalld="${1:?usage: chaos_smoke.sh BWWALLD_BINARY [CLIENT_BINARY]}"
client="${2:-}"

work=$(mktemp -d)
server_pid=""
cleanup() {
    if [ -n "$server_pid" ] && kill -0 "$server_pid" 2>/dev/null; then
        kill -9 "$server_pid" 2>/dev/null || true
    fi
    rm -rf "$work"
}
trap cleanup EXIT

fail() {
    echo "FAIL: $*" >&2
    echo "--- server log ---" >&2
    cat "$work/server.log" >&2 || true
    exit 1
}

# Every fault point wired into the serving path, each at >= 1 %.
# (trace.read/trace.write/mem.event_dispatch are wired in library
# code the daemon does not execute; their unit tests cover them.)
plan='seed=7'
plan="$plan;http.read=prob:0.02"
plan="$plan;http.write=prob:0.01"
plan="$plan;http.write.short=prob:0.05"
plan="$plan;server.accept=prob:0.02"
plan="$plan;cache.compute=prob:0.05"
plan="$plan;model.solve=prob:0.05"
# Higher than the rest: only appends that reach an open session's
# sink hit these points (budget/lifecycle refusals short-circuit).
plan="$plan;ingest.append=prob:0.2"
plan="$plan;ingest.snapshot=prob:0.1"

"$bwwalld" --port 0 --threads 4 \
    --max-sessions 8 --max-session-bytes 65536 \
    --ingest-ttl-seconds 30 \
    --faults "$plan" \
    --metrics-json "$work/final_metrics.json" \
    >"$work/server.out" 2>"$work/server.log" &
server_pid=$!

port=""
for _ in $(seq 1 100); do
    if ! kill -0 "$server_pid" 2>/dev/null; then
        fail "server exited before binding"
    fi
    port=$(sed -n 's/^bwwalld listening on .*:\([0-9]*\)$/\1/p' \
        "$work/server.out" | head -n1)
    [ -n "$port" ] && break
    sleep 0.1
done
[ -n "$port" ] || fail "could not parse the listening port"
base="http://127.0.0.1:$port"
echo "== chaos bwwalld up on port $port (plan: $plan)"

# --- the storm --------------------------------------------------------
# A mixed workload; every curl has a hard timeout so a hung
# connection fails the run instead of wedging it.  Injected faults
# make individual requests fail (dropped connections read as curl
# exit != 0 — expected); what must hold is that every *status* the
# server does send is deliberate.
rounds=60
: >"$work/statuses.txt"
for i in $(seq 1 "$rounds"); do
    # Distinct solve, traffic and batch bodies every round (the
    # second pass of 30 rounds moves alpha), so they miss the cache
    # and exercise the compute-side fault points (cache.compute,
    # model.solve).  The first pass's 4 sweep bodies repeat, so hits
    # happen too; the second pass sends a fresh sweep each round.
    n=$((i % 30))
    alpha="0.$((5 + (i - 1) / 30))"
    solve="{\"alpha\":$alpha,\"total_ceas\":$((32 + n))}"
    traffic="{\"cores\":$((8 + n)),\"alpha\":$alpha,\"total_ceas\":32}"
    sweep="{\"kind\":\"scaling\",\"generations\":$((2 + n % 4))}"
    if [ "$i" -gt 30 ]; then
        sweep="{\"kind\":\"scaling\",\"alpha\":0.$((60 + n)),\"generations\":$((2 + n % 4))}"
    fi
    batch="{\"requests\":[{\"path\":\"/v1/solve\",\"body\":$solve},{\"path\":\"/v1/traffic\",\"body\":$traffic}]}"
    pids=()
    for spec in "/v1/solve $solve" "/v1/traffic $traffic" \
        "/v1/sweep $sweep" "/v1/batch $batch" "/healthz"; do
        (
            path=${spec%% *}
            body=${spec#* }
            if [ "$path" = "$spec" ]; then
                curl -s -o /dev/null -m 10 -w '%{http_code}\n' \
                    "$base$path" >>"$work/statuses.txt" || true
            else
                curl -s -o /dev/null -m 10 -w '%{http_code}\n' \
                    -X POST -d "$body" "$base$path" \
                    >>"$work/statuses.txt" || true
            fi
        ) &
        pids+=($!)
    done
    wait "${pids[@]}"
done

kill -0 "$server_pid" || fail "server crashed during the storm"
total=$(wc -l <"$work/statuses.txt")
[ "$total" -ge $((rounds * 2)) ] ||
    fail "only $total/$((rounds * 5)) requests produced a status"

# curl prints 000 when the transport died (injected read/write/accept
# faults); every real status must be a deliberate one.
bad=$(grep -cvE '^(000|200|400|424|500|503|504)$' \
    "$work/statuses.txt" || true)
[ "$bad" -eq 0 ] || {
    sort "$work/statuses.txt" | uniq -c >&2
    fail "$bad responses had an unexpected status"
}
ok=$(grep -c '^200$' "$work/statuses.txt" || true)
[ "$ok" -gt 0 ] || fail "no request succeeded under chaos"
echo "== storm OK: $total statuses, $ok x 200, 0 unexpected"

# --- ingest storm -----------------------------------------------------
# Streaming-ingest lifecycle under the same armed fault plan: session
# creates up to (and past) the --max-sessions cap, appends that
# organically blow the 64 KiB --max-session-bytes budget, snapshots,
# finalizes, appends to finalized and unknown sessions.  Every status
# must be deliberate — the ingest taxonomy adds 404 (unknown id),
# 409 (lifecycle conflict), and 413 (budget) to the storm set — and
# every 500 body must name the injected-fault category.
python3 - "$work" <<'EOF'
import random, sys
random.seed(11)
lines = []
for _ in range(2200):
    kind = "W" if random.random() < 0.3 else "R"
    lines.append(f"{kind} {random.randrange(1, 1 << 20) * 64}")
with open(sys.argv[1] + "/ingest_append.txt", "w") as out:
    out.write("\n".join(lines) + "\n")
EOF
echo '{"format":"text","sample_rate":0.5,"size_kib":256}' \
    >"$work/ingest_create.json"

mkdir "$work/ingest_bodies"
ingest_req=0
ingest_curl() { # METHOD PATH [DATA_FILE]
    ingest_req=$((ingest_req + 1))
    local out="$work/ingest_bodies/$ingest_req"
    if [ -n "${3:-}" ]; then
        curl -s -m 10 -o "$out" -w '%{http_code}\n' -X "$1" \
            --data-binary @"$3" "$base$2" \
            >>"$work/ingest_statuses.txt" || true
    else
        curl -s -m 10 -o "$out" -w '%{http_code}\n' -X "$1" \
            "$base$2" >>"$work/ingest_statuses.txt" || true
    fi
}

: >"$work/ingest_statuses.txt"
ids=()
for i in $(seq 1 10); do
    # Two past the --max-sessions cap: 503s are part of the contract.
    ingest_curl POST /v1/trace/ingest "$work/ingest_create.json"
    id=$(python3 -c 'import json, sys
try:
    print(json.load(open(sys.argv[1])).get("id", ""))
except Exception:
    print("")' "$work/ingest_bodies/$ingest_req")
    [ -n "$id" ] && ids+=("$id")
done
[ "${#ids[@]}" -ge 1 ] || fail "no ingest session survived creation"

for i in $(seq 1 40); do
    id=${ids[$((i % ${#ids[@]}))]}
    ingest_curl POST "/v1/trace/ingest/$id" "$work/ingest_append.txt"
    ingest_curl GET "/v1/trace/ingest/$id"
    if [ $((i % 7)) -eq 0 ]; then
        ingest_curl POST /v1/trace/ingest/ingest-9999 \
            "$work/ingest_append.txt"
    fi
    if [ $((i % 10)) -eq 0 ]; then
        ingest_curl DELETE "/v1/trace/ingest/$id"
        ingest_curl POST "/v1/trace/ingest/$id" \
            "$work/ingest_append.txt"
    fi
done
kill -0 "$server_pid" || fail "server crashed during the ingest storm"

bad=$(grep -cvE '^(000|200|400|404|409|413|500|503)$' \
    "$work/ingest_statuses.txt" || true)
[ "$bad" -eq 0 ] || {
    sort "$work/ingest_statuses.txt" | uniq -c >&2
    fail "$bad ingest responses had an unexpected status"
}
for want in 200 404 409 413; do
    grep -q "^$want\$" "$work/ingest_statuses.txt" ||
        fail "ingest storm never produced a $want"
done
# Zero unexpected 5xx: every 500 is the injected fault, by name.
for body in "$work/ingest_bodies"/*; do
    if grep -q '"status":500' "$body" 2>/dev/null; then
        grep -q '"category":"faulted"' "$body" ||
            fail "a 500 body was not the injected fault: $(cat "$body")"
    fi
done
ingest_total=$(wc -l <"$work/ingest_statuses.txt")
echo "== ingest storm OK: $ingest_total statuses, taxonomy complete"

# --- connection churn: sockets killed mid-request ---------------------
# Sub-second client timeouts abort connections while their sweeps are
# still computing, so responses come back to connections that no
# longer exist, and fresh connections churn in behind them — all with
# the fault plan still armed.  The reactor must drop the stale
# completions without crashing or wedging.
for i in $(seq 1 30); do
    pids=()
    for j in 1 2 3; do
        churn_sweep="{\"kind\":\"miss_curve\",\"estimator\":\"stack\",\"size_kib\":128,\"warm\":0,\"accesses\":60000,\"seed\":$((i * 10 + j))}"
        (
            curl -s -o /dev/null -m 0.08 -X POST -d "$churn_sweep" \
                "$base/v1/sweep" || true
        ) &
        pids+=($!)
    done
    # Plus connections dropped right after the handshake.
    (exec 3<>"/dev/tcp/127.0.0.1/$port" && exec 3>&-) \
        2>/dev/null || true
    wait "${pids[@]}"
done
kill -0 "$server_pid" || fail "server crashed during connection churn"
churn_alive=""
for _ in $(seq 1 20); do
    if [ "$(curl -s -m 5 -o /dev/null -w '%{http_code}' \
        "$base/healthz")" = 200 ]; then
        churn_alive=yes
        break
    fi
done
[ -n "$churn_alive" ] || fail "server unresponsive after connection churn"
echo "== connection churn OK (stale completions dropped)"

# --- liveness after the storm -----------------------------------------
# The server must still serve cleanly (faults are probabilistic, so
# allow a few tries).
alive=""
for _ in $(seq 1 20); do
    if [ "$(curl -s -m 5 -o /dev/null -w '%{http_code}' \
        "$base/healthz")" = 200 ]; then
        alive=yes
        break
    fi
done
[ -n "$alive" ] || fail "server unresponsive after the storm"

# --- metrics coherence ------------------------------------------------
# The fault plan is still armed, so an injected accept, read, or
# write fault can drop one scrape: retry it like the liveness check.
scraped=""
for _ in $(seq 1 20); do
    if [ "$(curl -s -m 10 -o "$work/metrics.json" -w '%{http_code}' \
        "$base/metrics?format=json")" = 200 ]; then
        scraped=yes
        break
    fi
done
[ -n "$scraped" ] || fail "/metrics unreachable after the storm"
metrics_value() {
    python3 - "$1" "$2" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
print(report.get("counters", {}).get(sys.argv[2], 0))
EOF
}
for point in http.read http.write http.write.short server.accept \
    cache.compute model.solve ingest.append ingest.snapshot; do
    fired=$(metrics_value "$work/metrics.json" \
        "faults.fired.$point")
    [ "$fired" -gt 0 ] ||
        fail "armed fault point '$point' never fired"
done
echo "== every armed fault point fired"

requests=$(metrics_value "$work/metrics.json" server.requests)
errors=$(metrics_value "$work/metrics.json" server.handler_errors)
[ "$requests" -gt 0 ] || fail "server.requests is zero"
[ "$errors" -gt 0 ] ||
    fail "no handler errors despite injected compute faults"
[ "$errors" -le "$requests" ] ||
    fail "handler_errors ($errors) exceeds requests ($requests)"
# Cheap misses compute on the io shard: the storm must have sent
# some there, so the armed cache.compute and model.solve faults
# also land on shard-computed misses, not only on the pool.
inline_computes=$(metrics_value "$work/metrics.json" \
    server.inline_computes)
[ "$inline_computes" -gt 0 ] ||
    fail "no miss was computed on an io shard during the storm"
echo "== $inline_computes misses computed on the io shards"

# --- retrying client rides out the chaos ------------------------------
if [ -n "$client" ]; then
    "$client" --port "$port" --path /v1/traffic --body "$traffic" \
        --retries 8 --retry-posts --deadline-ms 20000 \
        >"$work/client.json" ||
        fail "retrying bwwall_client failed under chaos"
    grep -q '"relative_traffic"' "$work/client.json" ||
        fail "client response malformed"
    echo "== retrying bwwall_client OK"
fi

# --- graceful drain under chaos ---------------------------------------
kill -TERM "$server_pid"
drain_status=0
wait "$server_pid" || drain_status=$?
[ "$drain_status" -eq 0 ] || fail "drain exited $drain_status, want 0"
server_pid=""
[ -s "$work/final_metrics.json" ] ||
    fail "--metrics-json was not written on drain"
python3 -c "import json,sys; json.load(open(sys.argv[1]))" \
    "$work/final_metrics.json" || fail "final metrics are not JSON"
echo "== graceful drain OK"
echo "chaos smoke: all checks passed"
