/**
 * @file
 * perf_server: closed-loop load generator for the bwwalld server.
 *
 * Starts an in-process BwwallServer on an ephemeral loopback port
 * and drives it over keep-alive connections, one HttpClient per
 * client thread.  Not a paper artifact — server performance.
 *
 * Phase 1 (cache-hit /v1/traffic): every thread posts the same body,
 * so after the first compute all requests are served from the result
 * cache.  Local target: >= 5000 qps at 8 client threads with
 * p99 < 10 ms.
 *
 * Phase 2 (/v1/sweep miss-curve, cold vs warm): distinct bodies are
 * posted once each against an empty cache (every request computes),
 * then the same bodies are replayed (every request hits).  Local
 * target: warm >= 10x cold qps.
 *
 * Phase 3 (keep-alive connection capacity): opens --connections
 * keep-alive connections — far more than the server has compute
 * threads — holds every one open, and probes cache-hit /v1/traffic
 * latency across the whole fleet.  The blocking thread-per-connection
 * server parked one connection per worker, so this fleet would have
 * starved it; the epoll reactor serves it with the same p99 as
 * phase 1.  CI gates server.max_keepalive_connections and the
 * fleet-vs-threads capacity ratio (>= 5x).
 *
 * Phase 4 (three-node cluster, docs/CLUSTER.md): starts three more
 * in-process servers, forms them into a consistent-hash cluster
 * (configureCluster after start(), once the ephemeral ports are
 * known), and gates the cluster invariants under load: every
 * remote-owned miss fills from its owner (peer-fill hit ratio 1),
 * a hot key stormed across all three nodes computes exactly once
 * cluster-wide, every node's answer is byte-identical to the
 * single-node reference, and the warm cluster p99 stays in the
 * single-node cache-hit band.
 *
 * CI gates all phases with slack through the --json MetricsRegistry
 * report (see .github/workflows/ci.yml, bench-smoke).
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hh"
#include "server/cluster.hh"
#include "server/http_client.hh"
#include "server/reactor.hh"
#include "server/server.hh"
#include "trace/hashing.hh"
#include "util/fault.hh"
#include "util/logging.hh"
#include "util/number_text.hh"

namespace bwwall {
namespace {

/** One finished load phase. */
struct LoadResult
{
    double seconds = 0.0;
    std::uint64_t requests = 0;
    /** Per-request wall latency, seconds, unsorted. */
    std::vector<double> latencies;
};

/**
 * Closed loop: @p threads clients round-robin over @p bodies until
 * @p totalRequests have been sent (0 = unlimited) or @p maxSeconds
 * elapse.  Every response must be HTTP 200.  Thread t drives
 * @p ports [t % size], so a multi-port fleet spreads the clients
 * across every node at once (single-node phases pass one port).
 */
LoadResult
runLoad(const std::vector<std::uint16_t> &ports, unsigned threads,
        const std::string &path,
        const std::vector<std::string> &bodies,
        std::uint64_t totalRequests, double maxSeconds)
{
    std::atomic<std::uint64_t> next{0};
    std::vector<std::vector<double>> latencies(threads);
    std::vector<std::uint64_t> counts(threads, 0);
    const auto start = std::chrono::steady_clock::now();
    const auto deadline =
        start + std::chrono::duration<double>(maxSeconds);

    std::vector<std::thread> clients;
    clients.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
        clients.emplace_back([&, t] {
            HttpClient client("127.0.0.1",
                              ports[t % ports.size()]);
            HttpClient::Request probe;
            probe.method = "POST";
            probe.target = path;
            HttpClientResponse response;
            std::string error;
            for (;;) {
                const std::uint64_t index =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (totalRequests != 0 && index >= totalRequests)
                    break;
                if (std::chrono::steady_clock::now() >= deadline)
                    break;
                probe.body = bodies[index % bodies.size()];
                const auto before =
                    std::chrono::steady_clock::now();
                if (!client.perform(probe, &response, &error))
                    fatal("perf_server transport: ", error);
                if (response.status != 200) {
                    fatal("perf_server: ", path, " -> ",
                          response.status, ": ", response.body);
                }
                const std::chrono::duration<double> took =
                    std::chrono::steady_clock::now() - before;
                latencies[t].push_back(took.count());
                ++counts[t];
            }
        });
    }
    for (std::thread &client : clients)
        client.join();

    LoadResult result;
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    result.seconds = elapsed.count();
    for (unsigned t = 0; t < threads; ++t) {
        result.requests += counts[t];
        result.latencies.insert(result.latencies.end(),
                                latencies[t].begin(),
                                latencies[t].end());
    }
    return result;
}

double
qps(const LoadResult &result)
{
    return result.seconds > 0.0
               ? static_cast<double>(result.requests) /
                     result.seconds
               : 0.0;
}

/** Exact quantile (nearest-rank) over a phase's latencies. */
double
latencyQuantile(const std::vector<double> &latencies, double q)
{
    if (latencies.empty())
        return 0.0;
    std::vector<double> sorted = latencies;
    std::sort(sorted.begin(), sorted.end());
    const double position =
        q * static_cast<double>(sorted.size() - 1);
    return sorted[static_cast<std::size_t>(position + 0.5)];
}

/** Distinct /v1/sweep miss-curve bodies (seed varies). */
std::vector<std::string>
sweepBodies(std::size_t count, std::uint64_t accesses)
{
    std::vector<std::string> bodies;
    bodies.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        bodies.push_back(
            "{\"kind\":\"miss_curve\",\"estimator\":\"stack\","
            "\"size_kib\":128,\"warm\":0,\"accesses\":" +
            std::to_string(accesses) +
            ",\"seed\":" + std::to_string(i + 1) + "}");
    }
    return bodies;
}

/** Probe latencies measured while a connection fleet stays open. */
struct CapacityResult
{
    unsigned connections = 0;
    std::vector<double> latencies;
};

/**
 * Opens @p connections keep-alive connections, keeps all of them
 * open, and probes cache-hit latency on @p path across the fleet:
 * one warm-up pass establishes every connection, then @p rounds
 * recorded passes post on each connection in turn.  @p drivers
 * threads partition the fleet; no connection is ever closed, so
 * from the second pass on the server is holding the entire fleet
 * while it answers.
 */
CapacityResult
runCapacity(std::uint16_t port, unsigned connections,
            unsigned drivers, const std::string &path,
            const std::string &body, unsigned rounds)
{
    std::vector<std::unique_ptr<HttpClient>> fleet;
    fleet.reserve(connections);
    for (unsigned i = 0; i < connections; ++i) {
        fleet.push_back(
            std::make_unique<HttpClient>("127.0.0.1", port));
    }

    std::vector<std::vector<double>> latencies(drivers);
    std::vector<std::thread> threads;
    threads.reserve(drivers);
    for (unsigned t = 0; t < drivers; ++t) {
        threads.emplace_back([&, t] {
            HttpClient::Request probe;
            probe.method = "POST";
            probe.target = path;
            probe.body = body;
            HttpClientResponse response;
            std::string error;
            for (unsigned round = 0; round <= rounds; ++round) {
                for (unsigned i = t; i < connections;
                     i += drivers) {
                    const auto before =
                        std::chrono::steady_clock::now();
                    if (!fleet[i]->perform(probe, &response,
                                           &error))
                        fatal("perf_server capacity transport: ",
                              error);
                    if (response.status != 200) {
                        fatal("perf_server capacity: ", path,
                              " -> ", response.status, ": ",
                              response.body);
                    }
                    // Round 0 only establishes the fleet; later
                    // rounds run against every socket held open.
                    if (round == 0)
                        continue;
                    const std::chrono::duration<double> took =
                        std::chrono::steady_clock::now() - before;
                    latencies[t].push_back(took.count());
                }
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    CapacityResult result;
    result.connections = connections;
    for (unsigned i = 0; i < connections; ++i) {
        if (!fleet[i]->connected())
            fatal("perf_server capacity: connection ", i,
                  " did not survive keep-alive probing");
    }
    for (unsigned t = 0; t < drivers; ++t) {
        result.latencies.insert(result.latencies.end(),
                                latencies[t].begin(),
                                latencies[t].end());
    }
    return result;
}

/** Tallies from one chaos phase (see runChaos). */
struct ChaosResult
{
    double seconds = 0.0;
    std::uint64_t requests = 0;
    std::uint64_t transportErrors = 0;
    std::uint64_t ok = 0;
    std::uint64_t shed = 0;
    /**
     * Injected faults answered deliberately: a faulted 500, a 424,
     * or the 400 of a request stream corrupted mid-read.
     */
    std::uint64_t faulted = 0;
    std::uint64_t deadlineExceeded = 0;
    /** Responses no deliberate failure mode explains: must be 0. */
    std::uint64_t unexpected = 0;
    std::vector<double> latencies;
};

/** One chaos round in this many sends fresh cheap bodies. */
constexpr std::uint64_t kFreshChaosRounds = 16;

/**
 * A /v1/traffic or /v1/solve body no other request of the storm
 * sends: its alpha is drawn from a stream seeded like the fault plan
 * (7), keyed by @p index, so the key misses and its compute runs
 * under the armed cache.compute and model.solve fault points.
 */
std::string
freshChaosBody(bool solve, std::uint64_t index)
{
    const double unit =
        static_cast<double>(mix64(7, index) >> 11) * 0x1.0p-53;
    std::string body = solve ? "{\"total_ceas\":32,\"alpha\":"
                             : "{\"cores\":16,\"total_ceas\":32,"
                               "\"alpha\":";
    appendDoubleText(body, 0.3 + 0.4 * unit, "null");
    body += '}';
    return body;
}

/**
 * Fault-tolerant closed loop: every response is classified rather
 * than asserted.  Deliberate outcomes under an armed fault plan are
 * 200, 503 sheds, 424 solver faults, 500
 * bodies naming category "faulted", and 504 deadline misses;
 * anything else counts as unexpected and fails the chaos gate.
 */
ChaosResult
runChaos(std::uint16_t port, unsigned threads,
         const std::vector<std::string> &trafficBodies,
         const std::vector<std::string> &solveBodies,
         const std::vector<std::string> &sweepBodies,
         double maxSeconds)
{
    std::atomic<std::uint64_t> next{0};
    std::vector<ChaosResult> partial(threads);
    const auto start = std::chrono::steady_clock::now();
    const auto deadline =
        start + std::chrono::duration<double>(maxSeconds);

    std::vector<std::thread> clients;
    clients.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
        clients.emplace_back([&, t] {
            HttpClient client("127.0.0.1", port);
            HttpClient::Request probe;
            probe.method = "POST";
            HttpClientResponse response;
            std::string error;
            ChaosResult &mine = partial[t];
            while (std::chrono::steady_clock::now() < deadline) {
                const std::uint64_t index =
                    next.fetch_add(1, std::memory_order_relaxed);
                // Mostly cheap traffic queries, with solves (the
                // model.solve point) and sweeps (the expensive
                // endpoint class) under fire too.  The cheap bodies
                // hit, except in fresh rounds, whose misses keep the
                // compute-side fault points firing after warm-up.
                const std::uint64_t turn = index % 8;
                const bool sweep = turn == 7;
                const bool solve = turn == 5 || turn == 6;
                const bool fresh = (index / 8) % kFreshChaosRounds == 0;
                probe.body =
                    sweep ? sweepBodies[index % sweepBodies.size()]
                    : fresh ? freshChaosBody(solve, index)
                    : solve
                        ? solveBodies[index % solveBodies.size()]
                        : trafficBodies[index %
                                        trafficBodies.size()];
                probe.target = sweep    ? "/v1/sweep"
                               : solve ? "/v1/solve"
                                       : "/v1/traffic";
                const auto before =
                    std::chrono::steady_clock::now();
                ++mine.requests;
                if (!client.perform(probe, &response, &error)) {
                    // An injected read/write/accept fault killed
                    // the connection; reconnect on the next turn.
                    ++mine.transportErrors;
                    continue;
                }
                const std::chrono::duration<double> took =
                    std::chrono::steady_clock::now() - before;
                mine.latencies.push_back(took.count());
                switch (response.status) {
                  case 200:
                    ++mine.ok;
                    break;
                  case 400:
                    // An injected http.read fault corrupts the
                    // request stream mid-read; the server answers
                    // 400 and closes.  Our bodies are valid, so
                    // any other 400 is a real bug.
                    if (response.body.find(
                            "malformed HTTP request") !=
                        std::string::npos)
                        ++mine.faulted;
                    else
                        ++mine.unexpected;
                    break;
                  case 503:
                    ++mine.shed;
                    break;
                  case 424:
                    ++mine.faulted;
                    break;
                  case 500:
                    if (response.body.find(
                            "\"category\":\"faulted\"") !=
                        std::string::npos)
                        ++mine.faulted;
                    else
                        ++mine.unexpected;
                    break;
                  case 504:
                    ++mine.deadlineExceeded;
                    break;
                  default:
                    ++mine.unexpected;
                }
            }
        });
    }
    for (std::thread &client : clients)
        client.join();

    ChaosResult result;
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    result.seconds = elapsed.count();
    for (const ChaosResult &mine : partial) {
        result.requests += mine.requests;
        result.transportErrors += mine.transportErrors;
        result.ok += mine.ok;
        result.shed += mine.shed;
        result.faulted += mine.faulted;
        result.deadlineExceeded += mine.deadlineExceeded;
        result.unexpected += mine.unexpected;
        result.latencies.insert(result.latencies.end(),
                                mine.latencies.begin(),
                                mine.latencies.end());
    }
    return result;
}

} // namespace
} // namespace bwwall

int
main(int argc, char **argv)
{
    using namespace bwwall;

    std::uint64_t seconds_flag = 0;
    std::uint64_t sweeps_flag = 0;
    std::uint64_t connections_flag = 0;
    bool chaos = false;
    CliParser parser("perf_server",
                     "closed-loop load generator for the bwwalld "
                     "model-query server");
    parser.addOption("--seconds", &seconds_flag, "S",
                     "cache-hit phase duration "
                     "(default 2, quick 1)");
    parser.addOption("--sweeps", &sweeps_flag, "N",
                     "distinct miss-curve sweeps in the cold/warm "
                     "phase (default 24, quick 8)");
    parser.addOption("--connections", &connections_flag, "N",
                     "keep-alive connections held open in the "
                     "capacity phase (default 512, quick 256)");
    parser.addFlag("--chaos", &chaos,
                   "drive the server under an armed fault plan and "
                   "report shed and faulted rates instead of the "
                   "throughput phases");
    // scripts/reproduce_all.sh treats every perf_* binary as a
    // google-benchmark main and passes --benchmark_min_time in
    // quick mode; accept and ignore that family only.
    BenchOptions options;
    options.registerWith(parser);
    CliParser::Status status = CliParser::Status::Ok;
    argc = parser.parseKnown(argc, argv, &status);
    if (status != CliParser::Status::Ok)
        return status == CliParser::Status::Help ? 0 : 1;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]).rfind("--benchmark_", 0) != 0) {
            std::cerr << "perf_server: unknown argument "
                      << argv[i] << "\n";
            return 1;
        }
    }
    options.startTraceExport();

    const unsigned threads =
        options.jobs == 0 ? 8 : options.jobs;
    const double seconds =
        seconds_flag != 0 ? static_cast<double>(seconds_flag)
                          : (quickMode() ? 1.0 : 2.0);
    const std::size_t sweeps =
        sweeps_flag != 0 ? static_cast<std::size_t>(sweeps_flag)
                         : (quickMode() ? 8 : 24);
    const unsigned connections =
        connections_flag != 0
            ? static_cast<unsigned>(connections_flag)
            : (quickMode() ? 256u : 512u);
    const std::uint64_t accesses = quickScaled(100000, 5);

    // The fleet needs one fd per connection on each side; the
    // default 1024 soft limit is too small for both ends at once.
    raiseOpenFileLimit();

    ServerConfig config;
    config.port = 0;
    config.threads = threads;
    config.deadlineMs = 0;
    BwwallServer server(config);

    if (chaos) {
        FaultConfig fault_config;
        std::string fault_error;
        if (!parseFaultConfig(
                "seed=7;http.read=prob:0.004;"
                "http.write=prob:0.004;http.write.short=prob:0.01;"
                "server.accept=prob:0.01;cache.compute=prob:0.02;"
                "model.solve=prob:0.02;mem.event_dispatch="
                "prob:0.0005",
                &fault_config, &fault_error))
            fatal("chaos fault plan: ", fault_error);
        installFaults(fault_config, &server.metrics());
    }

    server.start();
    const std::uint16_t port = server.port();
    std::cout << "perf_server: bwwalld on 127.0.0.1:" << port
              << ", " << threads << " client threads\n";

    if (chaos) {
        const std::vector<std::string> traffic_bodies = {
            "{\"cores\":16,\"alpha\":0.5,\"total_ceas\":32}",
            "{\"cores\":32,\"alpha\":0.6,\"total_ceas\":64}",
        };
        const std::vector<std::string> solve_bodies = {
            "{\"alpha\":0.5,\"total_ceas\":32}",
            "{\"alpha\":0.6,\"total_ceas\":64,"
            "\"traffic_budget\":1.5}",
        };
        const std::vector<std::string> chaos_sweeps =
            sweepBodies(sweeps, quickScaled(20000, 4));
        ChaosResult storm =
            runChaos(port, threads, traffic_bodies, solve_bodies,
                     chaos_sweeps, seconds);
        server.stop();
        uninstallFaults();

        const double p99_ms =
            latencyQuantile(storm.latencies, 0.99) * 1e3;
        const double shed_rate =
            storm.requests > 0
                ? static_cast<double>(storm.shed) /
                      static_cast<double>(storm.requests)
                : 0.0;
        std::cout << "chaos: " << storm.requests << " requests in "
                  << storm.seconds << " s: " << storm.ok << " ok, "
                  << storm.shed << " shed, " << storm.faulted
                  << " faulted, " << storm.transportErrors
                  << " transport errors, " << storm.unexpected
                  << " unexpected, p99 " << p99_ms
                  << " ms; " << server.metrics().counter("cache.misses")
                  << " misses, fired cache.compute "
                  << server.metrics().counter(
                         "faults.fired.cache.compute")
                  << ", model.solve "
                  << server.metrics().counter("faults.fired.model.solve")
                  << "\n";

        MetricsRegistry metrics;
        metrics.setGauge("perf_server.chaos.threads",
                         static_cast<double>(threads));
        metrics.addCounter("perf_server.chaos.requests",
                           storm.requests);
        metrics.addCounter("perf_server.chaos.ok", storm.ok);
        metrics.addCounter("perf_server.chaos.shed", storm.shed);
        metrics.addCounter("perf_server.chaos.faulted",
                           storm.faulted);
        metrics.addCounter("perf_server.chaos.transport_errors",
                           storm.transportErrors);
        metrics.addCounter("perf_server.chaos.deadline_exceeded",
                           storm.deadlineExceeded);
        metrics.addCounter("perf_server.chaos.unexpected_5xx",
                           storm.unexpected);
        metrics.setGauge("perf_server.chaos.shed_rate", shed_rate);
        metrics.setGauge("perf_server.chaos.p99_ms", p99_ms);
        emitMetricsJson(metrics, options);
        return storm.unexpected == 0 ? 0 : 1;
    }

    // Phase 1: identical /v1/traffic bodies -> result-cache hits.
    const std::vector<std::string> traffic_body = {
        "{\"cores\":16,\"alpha\":0.5,\"total_ceas\":32,"
        "\"techniques\":[{\"label\":\"CC\","
        "\"assumption\":\"realistic\"}]}"};
    const LoadResult hits = runLoad(
        {port}, threads, "/v1/traffic", traffic_body, 0, seconds);
    const double hit_qps = qps(hits);
    const double hit_p50_ms =
        latencyQuantile(hits.latencies, 0.50) * 1e3;
    const double hit_p99_ms =
        latencyQuantile(hits.latencies, 0.99) * 1e3;
    std::cout << "cache-hit /v1/traffic: " << hits.requests
              << " requests in " << hits.seconds << " s, "
              << hit_qps << " qps, p50 " << hit_p50_ms
              << " ms, p99 " << hit_p99_ms << " ms\n";

    // Phase 2: distinct sweeps cold, then the same sweeps warm.
    const std::vector<std::string> bodies =
        sweepBodies(sweeps, accesses);
    server.cache().invalidateAll();
    const LoadResult cold = runLoad(
        {port}, threads, "/v1/sweep", bodies, bodies.size(),
        600.0);
    const std::uint64_t warm_rounds = 20;
    const LoadResult warm =
        runLoad({port}, threads, "/v1/sweep", bodies,
                bodies.size() * warm_rounds, 600.0);
    const double cold_qps = qps(cold);
    const double warm_qps = qps(warm);
    const double ratio =
        cold_qps > 0.0 ? warm_qps / cold_qps : 0.0;
    std::cout << "/v1/sweep miss-curve: cold " << cold_qps
              << " qps (" << cold.requests << " sweeps), warm "
              << warm_qps << " qps, warm/cold " << ratio
              << "x\n";

    // Phase 3: the whole connection fleet held open at once.  The
    // blocking server held at most one connection per worker
    // thread, so threads is its capacity and the fleet-vs-threads
    // ratio is the reactor's step-up.
    const CapacityResult capacity = runCapacity(
        port, connections, threads, "/v1/traffic",
        traffic_body.front(), 3);
    const double capacity_p99_ms =
        latencyQuantile(capacity.latencies, 0.99) * 1e3;
    const double capacity_vs_blocking =
        static_cast<double>(capacity.connections) /
        static_cast<double>(threads);
    std::cout << "keep-alive capacity: " << capacity.connections
              << " connections held open ("
              << capacity_vs_blocking
              << "x the blocking server's " << threads
              << "), probe p99 " << capacity_p99_ms << " ms\n";

    // Phase 4: a three-node consistent-hash cluster over the same
    // model queries, with the phase-1 server as the single-node
    // reference (docs/CLUSTER.md).
    std::vector<std::unique_ptr<BwwallServer>> nodes;
    std::vector<std::uint16_t> node_ports;
    std::vector<std::string> members;
    for (int i = 0; i < 3; ++i) {
        ServerConfig node_config;
        node_config.port = 0;
        node_config.threads = threads;
        nodes.push_back(
            std::make_unique<BwwallServer>(node_config));
        nodes.back()->start();
        node_ports.push_back(nodes.back()->port());
        members.push_back(
            "127.0.0.1:" +
            std::to_string(nodes.back()->port()));
    }
    ClusterConfig cluster_config;
    cluster_config.peers = members;
    cluster_config.peerDeadlineMs = 5000;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        cluster_config.self = members[i];
        nodes[i]->configureCluster(cluster_config);
    }

    // 4a: distinct solves posted to node 0 only.  Roughly 2/3 of
    // the keys are owned elsewhere, so they must fill from their
    // owners; with every peer up the fill hit ratio is 1.
    std::vector<std::string> fill_bodies;
    for (std::size_t i = 0; i < sweeps * 4; ++i) {
        fill_bodies.push_back("{\"alpha\":0." +
                              std::to_string(100 + i) + "}");
    }
    runLoad({node_ports[0]}, threads, "/v1/solve", fill_bodies,
            fill_bodies.size(), 600.0);
    const std::uint64_t fill_attempts =
        nodes[0]->metrics().counter("cluster.peer_fill.attempts");
    const std::uint64_t fill_hits =
        nodes[0]->metrics().counter("cluster.peer_fill.hits");
    const double fill_hit_ratio =
        fill_attempts > 0
            ? static_cast<double>(fill_hits) /
                  static_cast<double>(fill_attempts)
            : 0.0;
    const double remote_share =
        static_cast<double>(fill_attempts) /
        static_cast<double>(fill_bodies.size());

    // 4b: one hot key stormed across all three nodes at once.  The
    // owner computes; the other two fill from it; the cluster-wide
    // compute count (owned + local fallbacks) must be exactly 1.
    const std::string hot_body =
        "{\"kind\":\"miss_curve\",\"estimator\":\"stack\","
        "\"size_kib\":128,\"warm\":0,\"accesses\":" +
        std::to_string(accesses) + ",\"seed\":9001}";
    const auto clusterComputes = [&nodes] {
        std::uint64_t total = 0;
        for (const auto &node : nodes) {
            total +=
                node->metrics().counter(
                    "cluster.requests.owned") +
                node->metrics().counter(
                    "cluster.local_fallback_computes");
        }
        return total;
    };
    const std::uint64_t computes_before = clusterComputes();
    runLoad(node_ports, threads, "/v1/sweep", {hot_body},
            static_cast<std::uint64_t>(threads) * 8, 600.0);
    const std::uint64_t hot_key_computes =
        clusterComputes() - computes_before;

    // 4c: byte identity — every node's answer for the hot key and
    // a sample of the solves must equal the single-node reference.
    double value_identity = 1.0;
    {
        std::vector<std::string> probes = {hot_body};
        for (std::size_t i = 0;
             i < fill_bodies.size() && i < 8; ++i)
            probes.push_back(fill_bodies[i]);
        HttpClient reference("127.0.0.1", port);
        HttpClientResponse expected;
        HttpClientResponse got;
        std::string error;
        for (const std::string &probe : probes) {
            const HttpClient::Request request{
                .method = "POST",
                .target = probe.find("miss_curve") != std::string::npos
                              ? "/v1/sweep"
                              : "/v1/solve",
                .body = probe};
            if (!reference.perform(request, &expected, &error))
                fatal("perf_server cluster reference: ", error);
            for (const std::uint16_t node_port : node_ports) {
                HttpClient client("127.0.0.1", node_port);
                if (!client.perform(request, &got, &error))
                    fatal("perf_server cluster probe: ", error);
                if (got.status != 200 ||
                    got.body != expected.body)
                    value_identity = 0.0;
            }
        }
    }

    // 4d: warm cluster latency — the hot key is cached on every
    // node now, so cache-hit p99 across the fleet must stay in the
    // single-node band.
    const LoadResult cluster_hits = runLoad(
        node_ports, threads, "/v1/sweep", {hot_body}, 0, seconds);
    const double cluster_p99_ms =
        latencyQuantile(cluster_hits.latencies, 0.99) * 1e3;
    const double cluster_p99_vs_single =
        hit_p99_ms > 0.0 ? cluster_p99_ms / hit_p99_ms : 0.0;
    std::cout << "cluster: 3 nodes, fill hit ratio "
              << fill_hit_ratio << " (" << fill_attempts
              << " fills, remote share " << remote_share
              << "), hot-key computes " << hot_key_computes
              << ", value identity " << value_identity
              << ", warm p99 " << cluster_p99_ms << " ms ("
              << cluster_p99_vs_single << "x single-node)\n";

    // 4e: peer death.  Re-form the cluster with a live health
    // prober, take a healthy baseline of distinct solves through
    // two nodes, then kill the third.  Once the prober ejects it,
    // fills to the corpse are skipped (local fallback) instead of
    // burning the peer deadline, so steady-state p99 through the
    // survivors must stay inside the healthy band.  runLoad()
    // fatals on any non-200, so the survivors also must not shed
    // a single request.
    const unsigned probe_interval_ms = 100;
    cluster_config.probeIntervalMs = probe_interval_ms;
    cluster_config.probeTimeoutMs = 250;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        cluster_config.self = members[i];
        nodes[i]->configureCluster(cluster_config);
    }
    const std::vector<std::uint16_t> survivor_ports = {
        node_ports[0], node_ports[1]};
    std::vector<std::string> healthy_bodies;
    std::vector<std::string> dead_bodies;
    for (std::size_t i = 0; i < sweeps * 4; ++i) {
        healthy_bodies.push_back(
            "{\"alpha\":0." + std::to_string(5000 + i) + "}");
        dead_bodies.push_back(
            "{\"alpha\":0." + std::to_string(7000 + i) + "}");
    }
    const LoadResult healthy_load =
        runLoad(survivor_ports, threads, "/v1/solve",
                healthy_bodies, healthy_bodies.size(), 600.0);
    const double healthy_p99_ms =
        latencyQuantile(healthy_load.latencies, 0.99) * 1e3;

    nodes[2]->stop();
    const auto eject_deadline =
        std::chrono::steady_clock::now() +
        std::chrono::seconds(10);
    bool ejected = false;
    while (!ejected &&
           std::chrono::steady_clock::now() < eject_deadline) {
        ejected =
            nodes[0]->clusterSnapshot()->peerState(members[2]) ==
                BreakerState::Open &&
            nodes[1]->clusterSnapshot()->peerState(members[2]) ==
                BreakerState::Open;
        if (!ejected)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
    }
    if (!ejected)
        fatal("perf_server: prober never ejected the dead peer");

    const LoadResult dead_load =
        runLoad(survivor_ports, threads, "/v1/solve",
                dead_bodies, dead_bodies.size(), 600.0);
    const double dead_p99_ms =
        latencyQuantile(dead_load.latencies, 0.99) * 1e3;
    const double dead_peer_p99_vs_healthy =
        healthy_p99_ms > 0.0 ? dead_p99_ms / healthy_p99_ms
                             : 0.0;
    const std::uint64_t dead_peer_skips =
        nodes[0]->metrics().counter(
            "cluster.peer_fill.peer_down") +
        nodes[1]->metrics().counter(
            "cluster.peer_fill.peer_down");
    std::cout << "dead peer: healthy p99 " << healthy_p99_ms
              << " ms, one node down p99 " << dead_p99_ms
              << " ms (" << dead_peer_p99_vs_healthy
              << "x healthy), " << dead_peer_skips
              << " fills skipped without a connect\n";

    for (const auto &node : nodes)
        node->stop();
    nodes.clear();

    server.stop();

    MetricsRegistry metrics;
    metrics.setGauge("perf_server.threads",
                     static_cast<double>(threads));
    metrics.setGauge("server.max_keepalive_connections",
                     static_cast<double>(capacity.connections));
    metrics.setGauge("perf_server.connections.p99_ms",
                     capacity_p99_ms);
    metrics.setGauge("perf_server.connections.capacity_vs_blocking",
                     capacity_vs_blocking);
    metrics.addCounter("perf_server.hit.requests",
                       hits.requests);
    metrics.setGauge("perf_server.hit.qps", hit_qps);
    metrics.setGauge("perf_server.hit.p50_ms", hit_p50_ms);
    metrics.setGauge("perf_server.hit.p99_ms", hit_p99_ms);
    metrics.addCounter("perf_server.sweep.bodies", sweeps);
    metrics.setGauge("perf_server.sweep.cold_qps", cold_qps);
    metrics.setGauge("perf_server.sweep.warm_qps", warm_qps);
    metrics.setGauge("perf_server.sweep.warm_over_cold", ratio);
    metrics.setGauge("perf_server.cluster.nodes", 3.0);
    metrics.addCounter("perf_server.cluster.fill.attempts",
                       fill_attempts);
    metrics.addCounter("perf_server.cluster.fill.hits",
                       fill_hits);
    metrics.setGauge("perf_server.cluster.fill.hit_ratio",
                     fill_hit_ratio);
    metrics.setGauge("perf_server.cluster.fill.remote_share",
                     remote_share);
    metrics.setGauge("perf_server.cluster.hot_key_computes",
                     static_cast<double>(hot_key_computes));
    metrics.setGauge("perf_server.cluster.value_identity",
                     value_identity);
    metrics.setGauge("perf_server.cluster.p99_ms",
                     cluster_p99_ms);
    metrics.setGauge("perf_server.cluster.p99_vs_single",
                     cluster_p99_vs_single);
    metrics.setGauge("perf_server.cluster.healthy_p99_ms",
                     healthy_p99_ms);
    metrics.setGauge("perf_server.cluster.dead_peer_p99_ms",
                     dead_p99_ms);
    metrics.setGauge(
        "perf_server.cluster.dead_peer_p99_vs_healthy",
        dead_peer_p99_vs_healthy);
    metrics.addCounter("perf_server.cluster.dead_peer_skips",
                       dead_peer_skips);
    emitMetricsJson(metrics, options);
    return 0;
}
