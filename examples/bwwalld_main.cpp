/**
 * @file
 * bwwalld: the bandwidth-wall model-query daemon.
 *
 * Serves the scaling model over HTTP/1.1 + JSON with a sharded
 * result cache (see docs/SERVER.md for the protocol).  Runs until
 * SIGINT/SIGTERM, then drains gracefully: stops accepting, finishes
 * queued and in-flight requests, optionally flushes the metrics
 * registry to JSON, and exits 0.
 *
 * Examples:
 *   bwwalld --port 8080 --threads 8
 *   bwwalld --port 0 --cache-mb 128 --deadline-ms 2000
 *   curl -s localhost:8080/healthz
 *   curl -s -X POST localhost:8080/v1/solve -d '{"alpha":0.5}'
 */

#include <algorithm>
#include <csignal>
#include <iostream>

#include "server/server.hh"
#include "util/cli.hh"
#include "util/fault.hh"
#include "util/logging.hh"
#include "util/metrics.hh"

using namespace bwwall;

int
main(int argc, char **argv)
{
    ServerConfig config;
    std::uint64_t port = 8080;
    std::uint32_t threads = 0;
    std::uint32_t io_shards = 0;
    std::uint64_t max_connections = 16384;
    std::uint64_t cache_mb = 64;
    std::uint64_t shards = 16;
    std::uint64_t deadline_ms = 10000;
    std::uint64_t idle_timeout_ms = 5000;
    std::uint64_t max_inflight = 256;
    std::uint64_t max_body_kib = 1024;
    std::uint64_t max_sessions = 64;
    std::uint64_t max_session_bytes = 64ull << 20;
    double ingest_ttl_seconds = 300.0;
    std::string peers;
    std::string self;
    std::uint64_t peer_deadline_ms = 1000;
    std::uint64_t peer_attempts = 2;
    std::uint64_t peer_probe_interval_ms = 1000;
    std::uint64_t peer_failure_threshold = 3;
    std::string faults;
    std::string metrics_json;
    bool log_requests = false;
    bool trace = false;
    bool trace_all = false;
    std::string trace_out;

    CliParser parser("bwwalld",
                     "bandwidth-wall model-query server (HTTP/1.1 "
                     "+ JSON, sharded result cache)");
    parser.addOption("--port", &port, "PORT",
                     "TCP port (0 = ephemeral)");
    parser.addOption("--bind", &config.bindAddress, "ADDR",
                     "bind address");
    parser.addOption("--threads", &threads, "N",
                     "worker threads (0 = BWWALL_JOBS / auto)");
    parser.addOption("--io-shards", &io_shards, "N",
                     "event-loop shards (0 = cores, capped at 8)");
    parser.addOption("--max-connections", &max_connections, "N",
                     "open-connection limit before 503 shedding "
                     "at accept (0 = unlimited)");
    parser.addOption("--cache-mb", &cache_mb, "MB",
                     "result-cache byte budget");
    parser.addOption("--shards", &shards, "N",
                     "result-cache shards");
    parser.addOption("--deadline-ms", &deadline_ms, "MS",
                     "per-request deadline (0 = none)");
    parser.addOption("--idle-timeout-ms", &idle_timeout_ms, "MS",
                     "socket receive timeout");
    parser.addOption("--max-inflight", &max_inflight, "N",
                     "admission limit before 503 shedding "
                     "(0 = unlimited)");
    parser.addOption("--max-body-kib", &max_body_kib, "KIB",
                     "largest accepted request body");
    parser.addOption("--max-sessions", &max_sessions, "N",
                     "concurrent trace-ingest sessions before "
                     "creates answer 503");
    parser.addOption("--max-session-bytes", &max_session_bytes,
                     "BYTES",
                     "per-ingest-session appended-byte budget "
                     "before 413 (0 = unlimited)");
    parser.addOption("--ingest-ttl-seconds", &ingest_ttl_seconds,
                     "S",
                     "idle seconds before an ingest session is "
                     "swept (0 = never)");
    parser.addOption("--peers", &peers, "LIST",
                     "cluster membership as host:port,host:port,"
                     "... (every node passes the same list; empty "
                     "= single-node)");
    parser.addOption("--self", &self, "HOST:PORT",
                     "this node's entry in --peers (spelled "
                     "identically)");
    parser.addOption("--peer-deadline-ms", &peer_deadline_ms,
                     "MS",
                     "wall-clock budget of one peer cache fill");
    parser.addOption("--peer-attempts", &peer_attempts, "N",
                     "attempts per peer fill, the first included");
    parser.addOption("--peer-probe-interval-ms",
                     &peer_probe_interval_ms, "MS",
                     "background /healthz probe cadence; a peer "
                     "whose probe fails is ejected from peer fill "
                     "until one succeeds (0 = off)");
    parser.addOption("--peer-failure-threshold",
                     &peer_failure_threshold, "N",
                     "consecutive fill failures that eject a "
                     "peer");
    parser.addOption("--faults", &faults, "PLAN",
                     "deterministic fault-injection plan, e.g. "
                     "'seed=7;http.read=prob:0.01' (also via "
                     "BWWALL_FAULTS)");
    parser.addOption("--metrics-json", &metrics_json, "FILE",
                     "flush the metrics registry here on exit");
    parser.addFlag("--log-requests", &log_requests,
                   "log one line per served request");
    parser.addFlag("--trace", &trace,
                   "serve GET /v1/trace; record requests that send "
                   "an X-BWWall-Trace header");
    parser.addFlag("--trace-all", &trace_all,
                   "with --trace: record every request");
    parser.addOption("--trace-out", &trace_out, "FILE",
                     "write the Chrome trace here on drain "
                     "(implies --trace)");
    parser.parseOrExit(argc, argv);

    if (port > 65535)
        parser.usageError("--port must be at most 65535");
    config.port = static_cast<std::uint16_t>(port);
    config.threads = threads;
    config.ioShards = io_shards;
    config.maxConnections =
        static_cast<unsigned>(max_connections);
    config.cacheBytes =
        static_cast<std::size_t>(cache_mb) << 20;
    config.cacheShards = static_cast<std::size_t>(shards);
    config.deadlineMs = static_cast<unsigned>(deadline_ms);
    config.idleTimeoutMs = static_cast<unsigned>(idle_timeout_ms);
    config.maxInflight = static_cast<unsigned>(max_inflight);
    config.maxBodyBytes =
        static_cast<std::size_t>(max_body_kib) << 10;
    config.maxIngestSessions =
        static_cast<std::size_t>(max_sessions);
    config.maxSessionBytes =
        static_cast<std::size_t>(max_session_bytes);
    config.ingestTtlSeconds = ingest_ttl_seconds;
    if (!peers.empty()) {
        std::string peer_error;
        if (!parsePeerList(peers, &config.cluster.peers,
                           &peer_error))
            parser.usageError("--peers: " + peer_error);
        if (self.empty())
            parser.usageError(
                "--peers requires --self HOST:PORT");
        if (std::find(config.cluster.peers.begin(),
                      config.cluster.peers.end(),
                      self) == config.cluster.peers.end())
            parser.usageError("--self '" + self +
                              "' is not in --peers");
        config.cluster.self = self;
        config.cluster.peerDeadlineMs =
            static_cast<unsigned>(peer_deadline_ms);
        config.cluster.peerAttempts =
            static_cast<unsigned>(peer_attempts);
        config.cluster.probeIntervalMs =
            static_cast<unsigned>(peer_probe_interval_ms);
        config.cluster.peerFailureThreshold =
            static_cast<unsigned>(peer_failure_threshold);
    } else if (!self.empty()) {
        parser.usageError("--self requires --peers");
    }
    config.logRequests = log_requests;
    config.trace = trace || trace_all || !trace_out.empty();
    config.traceAll = trace_all;

    // Route SIGINT/SIGTERM to sigwait below: block them before the
    // server spawns its threads so every thread inherits the mask.
    sigset_t signals;
    sigemptyset(&signals);
    sigaddset(&signals, SIGINT);
    sigaddset(&signals, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &signals, nullptr);

    BwwallServer server(config);
    // Arm fault injection before any request can hit a point;
    // --faults wins over the BWWALL_FAULTS environment variable.
    if (!faults.empty()) {
        FaultConfig fault_config;
        std::string fault_error;
        if (!parseFaultConfig(faults, &fault_config, &fault_error))
            parser.usageError("--faults: " + fault_error);
        installFaults(fault_config, &server.metrics());
        inform("fault injection armed: ", faults);
    } else if (installFaultsFromEnv(&server.metrics())) {
        inform("fault injection armed from BWWALL_FAULTS");
    }
    server.start();
    // Machine-readable port line for scripts driving --port 0.
    std::cout << "bwwalld listening on " << config.bindAddress
              << ":" << server.port() << std::endl;

    int signal_number = 0;
    sigwait(&signals, &signal_number);
    inform("received ",
           signal_number == SIGTERM ? "SIGTERM" : "SIGINT",
           "; draining");
    server.stop();
    uninstallFaults();
    if (!metrics_json.empty())
        server.metrics().writeJsonFile(metrics_json);
    if (!trace_out.empty() && server.traceRecorder() != nullptr) {
        server.traceRecorder()->writeChromeTraceFile(trace_out);
        inform("trace: wrote ",
               server.traceRecorder()->collect().size(),
               " event(s) to ", trace_out);
    }
    return 0;
}
