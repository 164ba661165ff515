/**
 * @file
 * perfbench_layers: the traced run of one workload (--trace 1).
 *
 * 1. Replays every layer's public entry points with the workload's
 *    seeded inputs, timed by spans the benchmark records itself.
 * 2. Runs the workload twice for the same fixed work: untraced, and
 *    with the server recording every request's spans (traceAll),
 *    which it then fetches from GET /v1/trace.
 * 3. Prints the per-layer table (each layer's share of the untraced
 *    p50 and the unexplained residual), the tracing overhead, and
 *    one JSON result line holding every per-layer metric.
 *
 * Both Chrome trace exports are written to --out-dir and must parse
 * back with JsonValue::parse.
 */

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "layers.hh"
#include "server/json.hh"
#include "util/logging.hh"

namespace {

using namespace perfbench;

/** The per-layer metrics, in BENCHMARK.json order, with units. */
const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"http.parse_us", "us"},
    {"http.serialize_us", "us"},
    {"json.parse_us", "us"},
    {"json.canonical_key_us", "us"},
    {"json.dump_batch_us", "us"},
    {"result_cache.hit_us", "us"},
    {"result_cache.insert_us", "us"},
    {"result_cache.hit_ratio", "ratio"},
    {"result_cache.evictions", "count"},
    {"metrics.counter_ns_1t", "ns"},
    {"metrics.counter_ns_2t", "ns"},
    {"metrics.histogram_ns_1t", "ns"},
    {"metrics.histogram_ns_2t", "ns"},
    {"mpmc.round_trip_us", "us"},
    {"reactor.residual_us", "us"},
    {"model_service.batch_ms", "ms"},
    {"model_service.figure15_ms", "ms"},
    {"model.kernel_ns_per_point", "ns"},
    {"trace_io.decode_mb_per_s", "MB/s"},
    {"streaming.append_ns_per_record", "ns"},
    {"streaming.snapshot_ms", "ms"},
    {"ingest_session.append_us", "us"},
    {"ingest_session.snapshot_ms", "ms"},
    {"router.hop_us", "us"},
    {"rendezvous.owner_ns", "ns"},
    {"process.cpu_ms_per_op", "ms"},
    {"process.ctx_switches_per_op", "count"},
    {"process.threads", "count"},
    {"server_span.request_us", "us"},
    {"server_span.parse_us", "us"},
    {"server_span.cache_us", "us"},
    {"server_span.serialize_us", "us"},
    {"trace.overhead_pct", "%"},
};

bool
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
    return static_cast<bool>(out);
}

/** True when the file at @p path holds a parseable JSON document. */
bool
parsesBack(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream text;
    text << in.rdbuf();
    bwwall::JsonValue document;
    return in && bwwall::JsonValue::parse(text.str(), &document);
}

double
opsPerSecond(const PhaseResult &phase)
{
    return static_cast<double>(phase.attempted - phase.failed) /
           phase.wallSeconds;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    if (!parseOptions(argc, argv, &options))
        return 2;
    bwwall::setLogLevel(bwwall::LogLevel::Warn);
    const std::string &workload = options.workload;
    const std::string layer_trace =
        options.outputDir + "/perfbench_layers_" + workload + ".trace.json";
    const std::string server_trace =
        options.outputDir + "/perfbench_server_" + workload + ".trace.json";

    LayerValues values;
    std::string error;
    if (!replayLayers(options, layer_trace, &values, &error)) {
        std::cerr << "perfbench_layers: " << error << "\n";
        return 1;
    }

    // The same fixed work untraced and traced.  Short enough that
    // the server's per-thread trace buffers (64k events) hold every
    // request's spans.
    const std::uint64_t ops =
        opsForSeconds(workload, std::min(options.seconds, 1.5));
    WorkloadRun plain;
    WorkloadRun traced;
    if (!runWorkload(options, ops, 1, false, &plain, &error) ||
        !runWorkload(options, ops, 1, true, &traced, &error)) {
        std::cerr << "perfbench_layers: " << error << "\n";
        return 1;
    }
    std::cout << "# untraced phase\n";
    printProvenance(std::cout, options, true, plain);
    std::cout << "# traced phase (traceAll on the first node)\n";
    printProvenance(std::cout, options, true, traced);

    const auto delta = [&plain](const char *name) {
        const auto it = plain.counterDelta.find(name);
        return it == plain.counterDelta.end() ? 0.0 : it->second;
    };
    const double lookups = delta("cache.hits") + delta("cache.misses");
    values["result_cache.hit_ratio"] =
        lookups > 0.0 ? delta("cache.hits") / lookups : 0.0;
    values["result_cache.evictions"] = delta("cache.evictions");
    const auto attempted = static_cast<double>(plain.rounds.front().attempted);
    values["process.cpu_ms_per_op"] =
        plain.rounds.front().usage.cpuSeconds * 1e3 / attempted;
    values["process.ctx_switches_per_op"] =
        static_cast<double>(plain.rounds.front().usage.contextSwitches) / attempted;
    values["process.threads"] = plain.rounds.front().threads;

    std::map<std::string, double> spans;
    const bool server_trace_ok =
        chromeSpanMedians(traced.serverTrace, &spans) &&
        writeFile(server_trace, traced.serverTrace);
    // No server_span.compute_us: hot_hits and routed_cluster answer
    // every timed request from the cache, so it would always read 0
    // there.  The printed server spans line still shows it.
    for (const char *name : {"request", "parse", "cache", "serialize"}) {
        const auto it = spans.find(std::string("server.") + name);
        values[std::string("server_span.") + name + "_us"] =
            it == spans.end() ? 0.0 : it->second;
    }
    const double plain_rate = opsPerSecond(plain.rounds.front());
    const double traced_rate = opsPerSecond(traced.rounds.front());
    values["trace.overhead_pct"] =
        (plain_rate - traced_rate) / plain_rate * 100.0;

    const double p50_us = percentile(plain.rounds.front().mainMs, 0.50).value * 1e3;
    const auto path = pathLayers(workload, values);
    double explained = 0.0;
    for (const auto &[name, us] : path)
        explained += us;
    values["reactor.residual_us"] = p50_us - explained;

    std::cout << std::fixed << std::setprecision(3);
    std::cout << "# per-layer breakdown of " << workload << " p50 "
              << p50_us << " us (untraced, " << plain.rounds.front().mainMs.size()
              << " samples)\n";
    for (const auto &[name, us] : path) {
        std::cout << "#   " << std::left << std::setw(44) << name
                  << std::right << std::setw(12) << us << " us "
                  << std::setw(7) << 100.0 * us / p50_us << " %\n";
    }
    std::cout << "#   " << std::left << std::setw(44)
              << "residual (reactor, kernel, client)" << std::right
              << std::setw(12) << values["reactor.residual_us"] << " us "
              << std::setw(7) << 100.0 * values["reactor.residual_us"] / p50_us
              << " %\n";
    std::cout << "# tracing overhead: " << plain_rate << " req/s untraced, "
              << traced_rate << " req/s traced ("
              << values["trace.overhead_pct"] << " %)\n";
    std::cout << "# server spans (traced run, p50 us):";
    for (const auto &[name, us] : spans)
        std::cout << " " << name << "=" << us;
    std::cout << "\n# per-layer values:\n";
    std::vector<Metric> metrics;
    for (const auto &[name, unit] : kLayerMetrics) {
        metrics.push_back({name, values[name], unit});
        std::cout << "#   " << std::left << std::setw(34) << name
                  << std::right << std::setw(14) << values[name] << " "
                  << unit << "\n";
    }
    std::cout << std::defaultfloat << std::setprecision(6);

    const bool exports_ok = server_trace_ok && parsesBack(layer_trace) &&
                            parsesBack(server_trace);
    std::cout << "# chrome traces: " << layer_trace << ", " << server_trace
              << (exports_ok ? " (parse ok)" : " (DO NOT PARSE)") << "\n";
    const std::uint64_t failed =
        plain.failed() + traced.failed() + (exports_ok ? 0 : 1);
    printResult(std::cout, failed == 0,
                plain.attempted() + traced.attempted(), failed, metrics);
    return 0;
}
