#!/usr/bin/env bash
# End-to-end smoke test for the bwwalld cluster (docs/CLUSTER.md).
#
# Usage: scripts/cluster_smoke.sh BWWALLD_BINARY ROUTER_BINARY
#
# Starts three bwwalld nodes formed into a consistent-hash cluster, a
# bwwall_router in front of them, and one single-node reference
# daemon, then checks the cluster invariants over the wire:
#
#   - /v1/cluster reports the membership on every node and the router
#   - the router's HEAD /healthz carries no body, so a GET after it on
#     the same keep-alive socket still parses, and a wrong method on
#     its control routes answers 405
#   - the same query answered via any node, the router, and the
#     single reference daemon is byte-identical
#   - exactly one node (the owner) answers without the peer-fill
#     marker; the other two fill from it
#   - a hot-key storm across all nodes and the router computes
#     exactly once cluster-wide
#   - a SIGSTOPped node (a "gray failure": the kernel still accepts,
#     nothing answers) is ejected by the health probers on its peers
#     and the router, traffic through the router stays 100% 200s,
#     and SIGCONT reinstates it
#   - killing a node mid-storm produces zero 5xx through the router
#     (failover) and zero 5xx on the survivors (local fallback)
#   - a SIGTERMed node drains cleanly, and a restart on the same
#     port recomputes the pre-restart answer byte for byte in a
#     fresh process; the router reconnects to the restarted node
#   - pooled keep-alive upstream connections survive the nodes'
#     idle sweep: after outwaiting --idle-timeout-ms, a routed
#     answer is still the reference bytes and a fill still hits
#   - a client's X-BWWall-Deadline-Ms reaches a scripted upstream
#     behind a router as exactly one deadline header, no larger than
#     the client's budget
#   - the router drains in under a second with an idle keep-alive
#     client connected
#   - the survivors and the router drain cleanly on SIGTERM
#
# CI runs this against an AddressSanitizer build.
set -euo pipefail

bwwalld="${1:?usage: cluster_smoke.sh BWWALLD_BINARY ROUTER_BINARY}"
router_bin="${2:?usage: cluster_smoke.sh BWWALLD_BINARY ROUTER_BINARY}"

work=$(mktemp -d)
pids=()
cleanup() {
    for pid in "${pids[@]}"; do
        kill -9 "$pid" 2>/dev/null || true
    done
    rm -rf "$work"
}
trap cleanup EXIT

fail() {
    echo "FAIL: $*" >&2
    for log in "$work"/*.log; do
        echo "--- $log ---" >&2
        cat "$log" >&2 || true
    done
    exit 1
}

# Reserve three ports up front: unlike the single-node smoke, every
# member must know the full peer list (including its own address)
# before it binds, so --port 0 scraping cannot work here.
read -r -a node_ports <<<"$(python3 - <<'EOF'
import socket
socks = [socket.socket() for _ in range(3)]
for sock in socks:
    sock.bind(("127.0.0.1", 0))
print(" ".join(str(sock.getsockname()[1]) for sock in socks))
for sock in socks:
    sock.close()
EOF
)"
peers="127.0.0.1:${node_ports[0]},127.0.0.1:${node_ports[1]},127.0.0.1:${node_ports[2]}"

probe_ms=200
# Short enough that every phase below outlives it, so the nodes'
# idle sweep keeps closing pooled upstream connections under it.
idle_ms=500
for i in 0 1 2; do
    "$bwwalld" --port "${node_ports[$i]}" --threads 2 \
        --peers "$peers" --self "127.0.0.1:${node_ports[$i]}" \
        --peer-probe-interval-ms "$probe_ms" \
        --idle-timeout-ms "$idle_ms" \
        >"$work/node$i.out" 2>"$work/node$i.log" &
    pids+=($!)
done

# The single-node reference: same solver, no cluster.
"$bwwalld" --port 0 --threads 2 \
    >"$work/single.out" 2>"$work/single.log" &
pids+=($!)

"$router_bin" --port 0 --peers "$peers" \
    --peer-probe-interval-ms "$probe_ms" \
    >"$work/router.out" 2>"$work/router.log" &
router_pid=$!
pids+=($!)

wait_port() { # wait_port OUT_FILE PROGRAM -> prints the port
    local port=""
    for _ in $(seq 1 100); do
        port=$(sed -n \
            "s/^$2 listening on .*:\([0-9]*\).*$/\1/p" \
            "$1" | head -n1)
        [ -n "$port" ] && break
        sleep 0.1
    done
    [ -n "$port" ] || fail "could not parse the port from $1"
    echo "$port"
}
for i in 0 1 2; do
    wait_port "$work/node$i.out" bwwalld >/dev/null
done
single_port=$(wait_port "$work/single.out" bwwalld)
router_port=$(wait_port "$work/router.out" bwwall_router)
single="http://127.0.0.1:$single_port"
router="http://127.0.0.1:$router_port"
node() { echo "http://127.0.0.1:${node_ports[$1]}"; }
echo "== cluster up: nodes ${node_ports[*]}, router $router_port, single $single_port"

# --- membership -------------------------------------------------------
for i in 0 1 2; do
    curl -sf "$(node $i)/v1/cluster" >"$work/cluster$i.json"
    grep -q '"enabled":true' "$work/cluster$i.json" ||
        fail "node $i reports cluster disabled"
    grep -q '"node_count":3' "$work/cluster$i.json" ||
        fail "node $i does not see 3 members"
done
curl -sf "$router/v1/cluster" >"$work/cluster_router.json"
grep -q '"node_count":3' "$work/cluster_router.json" ||
    fail "router does not see 3 members"
body=$(curl -sf "$router/healthz")
[ "$body" = '{"kind":"router","status":"ok"}' ] ||
    fail "router /healthz said: $body"
echo "== membership OK"

# --- router control routes: HEAD framing and wrong methods ------------
# A HEAD answer must carry no body bytes: on one keep-alive socket a
# HEAD /healthz and then a GET /healthz must both parse.
python3 - "$router_port" <<'EOF' ||
import socket
import sys

sock = socket.create_connection(("127.0.0.1", int(sys.argv[1])), timeout=5)
reader = sock.makefile("rb")


def exchange(method):
    sock.sendall(f"{method} /healthz HTTP/1.1\r\nHost: router\r\n\r\n".encode())
    status = reader.readline().decode("latin-1")
    if not status.startswith("HTTP/1.1 "):
        sys.exit(f"{method} /healthz: unparsable status line {status!r}")
    headers = {}
    for line in iter(reader.readline, b"\r\n"):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    # A HEAD response has no body, whatever its Content-Length says.
    length = 0 if method == "HEAD" else int(headers.get("content-length", 0))
    return int(status.split()[1]), reader.read(length)


for method, want in (("HEAD", b""),
                     ("GET", b'{"kind":"router","status":"ok"}\n')):
    status, body = exchange(method)
    if status != 200 or body != want:
        sys.exit(f"{method} /healthz answered {status} {body!r}")
EOF
    fail "router HEAD /healthz broke keep-alive framing"
for path in /healthz /metrics /v1/cluster; do
    code=$(curl -s -o "$work/post_control.json" -w '%{http_code}' \
        -X POST "$router$path")
    [ "$code" = 405 ] || fail "router POST $path answered $code, not 405"
    grep -q '"category":"invalid_input"' "$work/post_control.json" ||
        fail "router POST $path 405 lacks the taxonomy body"
done
echo "== router control routes OK (HEAD /healthz bodiless, POST answers 405)"

# --- byte identity and peer fill --------------------------------------
# The same solve via every node, the router, and the single-node
# reference must be byte-identical; exactly one node (the owner)
# answers without the X-BWWall-Peer-Filled marker.
solve='{"alpha":0.55,"total_ceas":32}'
curl -sf -X POST -d "$solve" "$single/v1/solve" >"$work/ref.json"
grep -q '"supportable_cores"' "$work/ref.json" ||
    fail "reference /v1/solve failed"
filled=0
for i in 0 1 2; do
    curl -sf -D "$work/head$i.txt" -X POST -d "$solve" \
        "$(node $i)/v1/solve" >"$work/solve$i.json"
    cmp -s "$work/ref.json" "$work/solve$i.json" ||
        fail "node $i bytes differ from the single-node reference"
    if grep -qi '^x-bwwall-peer-filled:' "$work/head$i.txt"; then
        filled=$((filled + 1))
        filler=$i
    fi
done
[ "$filled" -eq 2 ] ||
    fail "expected 2 peer-filled answers out of 3, saw $filled"
curl -sf -X POST -d "$solve" "$router/v1/solve" \
    >"$work/solve_router.json"
cmp -s "$work/ref.json" "$work/solve_router.json" ||
    fail "router bytes differ from the single-node reference"
grep -qi '^x-bwwall-routed-to:' <(curl -sf -D - -o /dev/null \
    -X POST -d "$solve" "$router/v1/solve") ||
    fail "router did not stamp X-BWWall-Routed-To"
echo "== byte identity OK (owner + 2 fills, router agrees)"

# --- stale pooled connections: outwait the idle sweep -----------------
# The router and the nodes keep keep-alive upstream connections.  A
# node's idle sweep writes an unsolicited 408 into each one it finds
# idle and closes it; the next exchange must notice before reuse and
# reconnect.  Route, wait past --idle-timeout-ms, route again: the
# answer must still be the reference bytes.  A fill over such a
# connection must still hit the owner, not fall back to a local
# compute.
routed_to() { # routed_to BODY -> the node the router forwarded to
    curl -sf -D - -o /dev/null -X POST -d "$1" "$router/v1/solve" |
        tr -d '\r' | sed -n 's/^[Xx]-[Bb][Ww][Ww]all-[Rr]outed-[Tt]o: //p'
}
owner=$(routed_to "$solve")
[ -n "$owner" ] || fail "router did not say where it routed"
# A second key with the same owner, which node $filler must fill.
stale_fill=""
for k in $(seq 1 60); do
    candidate="{\"alpha\":0.$((600 + k))}"
    if [ "$(routed_to "$candidate")" = "$owner" ]; then
        stale_fill=$candidate
        break
    fi
done
[ -n "$stale_fill" ] || fail "no second key owned by $owner"
sleep 1 # past idle_ms plus one 250 ms sweep period
code=$(curl -s -o "$work/stale_router.json" -w '%{http_code}' \
    -X POST -d "$solve" "$router/v1/solve")
[ "$code" = 200 ] ||
    fail "routing after the idle sweep answered $code"
cmp -s "$work/ref.json" "$work/stale_router.json" ||
    fail "routed bytes after the idle sweep differ from the reference"
curl -sf -D "$work/stale_head.txt" -o /dev/null -X POST \
    -d "$stale_fill" "$(node "$filler")/v1/solve" ||
    fail "fill after the idle sweep failed"
grep -qi '^x-bwwall-peer-filled:' "$work/stale_head.txt" ||
    fail "node $filler fell back to a local compute after the idle sweep"
echo "== stale pooled connections OK (routed and filled after the idle sweep)"

# --- the router's upstream deadline ----------------------------------
# A client's X-BWWall-Deadline-Ms only tightens the router's own
# per-node budget (--peer-deadline-ms): the forward carries exactly
# one deadline header, no larger than the client's budget.  A
# scripted upstream behind a second router records what arrives.
python3 - "$work/upstream.port" "$work/upstream_heads.txt" \
    2>"$work/upstream.log" <<'PY' &
import os, socket, sys, threading
port_file, heads_file = sys.argv[1], sys.argv[2]
listener = socket.socket()
listener.bind(("127.0.0.1", 0))
listener.listen(8)
with open(port_file + ".tmp", "w") as f:
    f.write(f"{listener.getsockname()[1]}\n")
os.rename(port_file + ".tmp", port_file)
lock = threading.Lock()
def serve(conn):
    data = b""
    while True:
        while b"\r\n\r\n" not in data:
            chunk = conn.recv(4096)
            if not chunk:
                return
            data += chunk
        head, data = data.split(b"\r\n\r\n", 1)
        lines = head.decode().split("\r\n")
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        while len(data) < length:
            data += conn.recv(4096)
        data = data[length:]
        if lines[0].startswith("POST "):
            with lock, open(heads_file, "a") as f:
                f.write("\n".join(lines[1:]) + "\n\n")
        conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Type: application/json"
                     b"\r\nContent-Length: 3\r\n\r\n{}\n")
while True:
    conn, _ = listener.accept()
    threading.Thread(target=serve, args=(conn,), daemon=True).start()
PY
upstream_pid=$!
pids+=("$upstream_pid")
for _ in $(seq 1 100); do
    [ -s "$work/upstream.port" ] && break
    sleep 0.1
done
upstream_port=$(cat "$work/upstream.port" 2>/dev/null)
[ -n "$upstream_port" ] || fail "the scripted upstream did not start"
"$router_bin" --port 0 --peers "127.0.0.1:$upstream_port" \
    --peer-probe-interval-ms 0 \
    >"$work/router_deadline.out" 2>"$work/router_deadline.log" &
deadline_router_pid=$!
pids+=("$deadline_router_pid")
deadline_router_port=$(wait_port "$work/router_deadline.out" bwwall_router)
code=$(curl -s -o /dev/null -w '%{http_code}' \
    -H 'X-BWWall-Deadline-Ms: 500' -X POST -d "$solve" \
    "http://127.0.0.1:$deadline_router_port/v1/solve")
[ "$code" = 200 ] || fail "routing to the scripted upstream answered $code"
grep -i '^x-bwwall-deadline-ms:' "$work/upstream_heads.txt" \
    >"$work/upstream_deadlines.txt" || true
[ "$(wc -l <"$work/upstream_deadlines.txt")" -eq 1 ] ||
    fail "the forward carried $(wc -l <"$work/upstream_deadlines.txt")" \
        "deadline headers, want one: $(cat "$work/upstream_deadlines.txt")"
deadline=$(sed 's/^[^:]*: *//' "$work/upstream_deadlines.txt")
[ "$deadline" -ge 1 ] && [ "$deadline" -le 500 ] ||
    fail "the forwarded deadline $deadline exceeds the client's 500 ms"
kill -TERM "$deadline_router_pid" "$upstream_pid" 2>/dev/null || true
wait "$deadline_router_pid" "$upstream_pid" 2>/dev/null || true
echo "== router deadline OK (one header upstream: $deadline ms <= 500 ms)"

# --- hot-key storm: one compute cluster-wide --------------------------
metrics_value() { # metrics_value FILE COUNTER
    python3 - "$1" "$2" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
print(report.get("counters", {}).get(sys.argv[2], 0))
EOF
}
cluster_computes() {
    local total=0
    for i in 0 1 2; do
        curl -sf "$(node $i)/metrics?format=json" \
            >"$work/m$i.json" || return 1
        local owned fallback
        owned=$(metrics_value "$work/m$i.json" \
            cluster.requests.owned)
        fallback=$(metrics_value "$work/m$i.json" \
            cluster.local_fallback_computes)
        total=$((total + owned + fallback))
    done
    echo "$total"
}
before=$(cluster_computes)
sweep='{"kind":"miss_curve","estimator":"stack","size_kib":64,"warm":1000,"accesses":5000,"seed":77}'
(
    curl_pids=()
    for round in 1 2; do
        for i in 0 1 2; do
            curl -sf -X POST -d "$sweep" "$(node $i)/v1/sweep" \
                >"$work/storm_n${i}_$round.json" &
            curl_pids+=($!)
        done
        curl -sf -X POST -d "$sweep" "$router/v1/sweep" \
            >"$work/storm_r_$round.json" &
        curl_pids+=($!)
    done
    wait "${curl_pids[@]}"
)
for out in "$work"/storm_*.json; do
    cmp -s "$work/storm_n0_1.json" "$out" ||
        fail "hot-key storm answers diverged ($out)"
done
after=$(cluster_computes)
[ $((after - before)) -eq 1 ] ||
    fail "hot-key storm computed $((after - before)) times cluster-wide, want 1"
echo "== hot-key storm OK (1 compute for 8 concurrent duplicates)"

# --- gray failure: SIGSTOP, ejection, zero 5xx, reinstatement ---------
# A stopped process is the nastiest failure mode: the kernel still
# completes TCP handshakes into the listen backlog, so only a probe
# read-timeout (not a connect refusal) can unmask it.  The health
# probers on the peers and the router must eject the node, traffic
# through the router must stay 100% 200s while it is down, and
# SIGCONT must reinstate it via the same probes.
peer_state() { # peer_state BASE_URL PEER -> prints the health state
    curl -sf "$1/v1/cluster" |
        python3 -c '
import json, sys
report = json.load(sys.stdin)
health = report.get("health") or {}
print((health.get(sys.argv[1]) or {}).get("state", "closed"))
' "$2"
}
wait_state() { # wait_state BASE_URL PEER STATE
    for _ in $(seq 1 50); do
        [ "$(peer_state "$1" "$2")" = "$3" ] && return 0
        sleep 0.1
    done
    return 1
}
gray_peer="127.0.0.1:${node_ports[1]}"
kill -STOP "${pids[1]}"
wait_state "$(node 0)" "$gray_peer" open ||
    fail "node 0 never ejected the stopped node"
wait_state "$(node 2)" "$gray_peer" open ||
    fail "node 2 never ejected the stopped node"
wait_state "$router" "$gray_peer" open ||
    fail "the router never ejected the stopped node"
(
    curl_pids=()
    for k in $(seq 1 20); do
        curl -s -o "$work/gray$k.json" -w '%{http_code}\n' \
            -X POST -d "{\"alpha\":0.$((300 + k))}" \
            "$router/v1/solve" >>"$work/gray_codes.txt" &
        curl_pids+=($!)
    done
    wait "${curl_pids[@]}"
)
[ "$(sort -u "$work/gray_codes.txt")" = "200" ] ||
    fail "gray-failure storm saw statuses: $(sort -u "$work/gray_codes.txt" | tr '\n' ' ')"
[ "$(wc -l <"$work/gray_codes.txt")" -eq 20 ] ||
    fail "gray-failure storm lost requests"
kill -CONT "${pids[1]}"
wait_state "$(node 0)" "$gray_peer" closed ||
    fail "node 0 never reinstated the resumed node"
wait_state "$router" "$gray_peer" closed ||
    fail "the router never reinstated the resumed node"
echo "== gray failure OK (ejected while stopped, 20/20 answered 200, reinstated on CONT)"

# --- node-kill drill: zero unexpected 5xx -----------------------------
# Distinct keys through the router while the owner of ~1/3 of them
# is SIGKILLed mid-storm: the router must fail over and the
# survivors must absorb the keyspace, so every answer is 200.
(
    curl_pids=()
    for k in $(seq 1 40); do
        curl -s -o "$work/drill$k.json" -w '%{http_code}\n' \
            -X POST -d "{\"alpha\":0.$((500 + k))}" \
            "$router/v1/solve" >>"$work/drill_codes.txt" &
        curl_pids+=($!)
        if [ "$k" -eq 8 ]; then
            kill -9 "${pids[2]}" 2>/dev/null || true
        fi
    done
    wait "${curl_pids[@]}"
)
wait "${pids[2]}" 2>/dev/null || true # reap the killed node
sort -u "$work/drill_codes.txt" >"$work/drill_unique.txt"
[ "$(cat "$work/drill_unique.txt")" = "200" ] ||
    fail "node-kill drill saw statuses: $(tr '\n' ' ' <"$work/drill_unique.txt")"
[ "$(wc -l <"$work/drill_codes.txt")" -eq 40 ] ||
    fail "node-kill drill lost requests"

# The survivors now own the dead node's keys and answer with the
# same bytes the single-node reference computes.
kill_probe='{"alpha":0.777}'
curl -sf -X POST -d "$kill_probe" "$single/v1/solve" \
    >"$work/kill_ref.json"
curl -sf -X POST -d "$kill_probe" "$(node 0)/v1/solve" \
    >"$work/kill_n0.json"
cmp -s "$work/kill_ref.json" "$work/kill_n0.json" ||
    fail "post-kill bytes differ from the single-node reference"
curl -sf "$router/metrics" >"$work/router_metrics.txt"
grep -q '^counter router.forwarded ' "$work/router_metrics.txt" ||
    fail "router metrics lack router.forwarded"
echo "== node-kill drill OK (40/40 answered 200 through the router)"

# --- restart: drain, relaunch on the same port, byte-identical answers --
# SIGTERM node 1 and relaunch it on the same port.  The new process
# starts with an empty cache, so its answer is a recompute that must
# match the pre-restart bytes exactly.
solve='{"alpha":0.888}'
curl -sf -X POST -d "$solve" "$(node 1)/v1/solve" \
    >"$work/restart_before.json"
grep -q '"supportable_cores"' "$work/restart_before.json" ||
    fail "pre-restart solve failed"
# Route a key node 1 owns first, so the router holds a pooled
# connection to the process about to go away.
node1="127.0.0.1:${node_ports[1]}"
restart_key=""
for k in $(seq 1 60); do
    candidate="{\"alpha\":0.$((700 + k))}"
    if [ "$(routed_to "$candidate")" = "$node1" ]; then
        restart_key=$candidate
        break
    fi
done
[ -n "$restart_key" ] || fail "no key routed to node 1"
kill -TERM "${pids[1]}"
status=0
wait "${pids[1]}" || status=$?
[ "$status" -eq 0 ] || fail "node 1 drained with status $status"
"$bwwalld" --port "${node_ports[1]}" --threads 2 \
    --peers "$peers" --self "127.0.0.1:${node_ports[1]}" \
    --peer-probe-interval-ms "$probe_ms" \
    --idle-timeout-ms "$idle_ms" \
    >"$work/node1_restart.out" 2>"$work/node1_restart.log" &
pids[1]=$!
wait_port "$work/node1_restart.out" bwwalld >/dev/null
curl -sf -X POST -d "$solve" "$(node 1)/v1/solve" \
    >"$work/restart_after.json"
cmp -s "$work/restart_before.json" "$work/restart_after.json" ||
    fail "post-restart bytes differ from the pre-restart answer"
# The router's pooled connection led to the old process: it must
# reconnect to the new one, never answer 502.
wait_state "$router" "$node1" closed ||
    fail "the router never reinstated the restarted node"
code=$(curl -s -D "$work/restart_head.txt" \
    -o "$work/restart_routed.json" -w '%{http_code}' \
    -X POST -d "$restart_key" "$router/v1/solve")
[ "$code" = 200 ] ||
    fail "routing to the restarted node answered $code"
grep -qi "^x-bwwall-routed-to: $node1" "$work/restart_head.txt" ||
    fail "the router did not route to the restarted node"
curl -sf -X POST -d "$restart_key" "$single/v1/solve" \
    >"$work/restart_ref.json"
cmp -s "$work/restart_ref.json" "$work/restart_routed.json" ||
    fail "routed bytes after the restart differ from the reference"
echo "== restart OK (byte-identical recompute, router reconnected)"

# --- router drain with an idle keep-alive client ---------------------
# A connected client that never sends a request must not hold the
# router's drain open.
exec {idle_client}<>"/dev/tcp/127.0.0.1/$router_port"
sleep 0.2 # let the router accept it
kill -TERM "$router_pid"
for _ in $(seq 1 20); do
    kill -0 "$router_pid" 2>/dev/null || break
    sleep 0.05
done
if kill -0 "$router_pid" 2>/dev/null; then
    fail "router still draining after 1 s with an idle client connected"
fi
status=0
wait "$router_pid" || status=$?
exec {idle_client}>&-
[ "$status" -eq 0 ] || fail "router drained with status $status"
echo "== router drain OK (under 1 s with an idle client connected)"

# --- graceful drain ---------------------------------------------------
for pid in "${pids[0]}" "${pids[1]}" "${pids[3]}"; do
    kill -TERM "$pid" 2>/dev/null || true
done
for pid in "${pids[0]}" "${pids[1]}" "${pids[3]}"; do
    status=0
    wait "$pid" || status=$?
    [ "$status" -eq 0 ] || fail "pid $pid drained with status $status"
done
pids=()
echo "cluster smoke: all checks passed"
