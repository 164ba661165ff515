#include "workloads.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <iostream>
#include <thread>

#include "cache/miss_curve.hh"
#include "cache/miss_curve_estimator.hh"
#include "server/json.hh"
#include "server/model_service.hh"
#include "trace/trace_source.hh"
#include "util/units.hh"

namespace perfbench {

using bwwall::BwwallServer;
using bwwall::JsonValue;
using bwwall::ServerConfig;

bool
parseOptions(int argc, char **argv, Options *options)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            std::cerr << "perfbench: " << flag << " needs a value\n";
            return false;
        }
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                options->workload = value;
            } else if (flag == "--seed") {
                options->seed = std::stoull(value);
            } else if (flag == "--seconds") {
                options->seconds = std::stod(value);
            } else if (flag == "--router") {
                options->routerBinary = value;
            } else if (flag == "--out-dir") {
                options->outputDir = value;
            } else if (flag == "--git-sha") {
                options->gitSha = value;
            } else if (flag == "--build-type") {
                options->buildType = value;
            } else {
                std::cerr << "perfbench: unknown argument " << flag
                          << "\n";
                return false;
            }
        } catch (const std::exception &) {
            std::cerr << "perfbench: bad value for " << flag << ": "
                      << value << "\n";
            return false;
        }
    }
    if (!knownWorkload(options->workload)) {
        std::cerr << "perfbench: --workload must be one of";
        for (const std::string &name : workloadNames())
            std::cerr << " " << name;
        std::cerr << "\n";
        return false;
    }
    if (!(options->seconds > 0.0 && options->seconds <= 600.0)) {
        std::cerr << "perfbench: --seconds must be in (0, 600]\n";
        return false;
    }
    return true;
}

std::uint64_t
opsForSeconds(const std::string &workload, double seconds)
{
    // Nominal timed operations per second over both connections,
    // fixed here so the work never depends on how fast it runs.
    double rate = 0.0;
    if (workload == "hot_hits")
        rate = 22000.0;
    else if (workload == "cold_compute")
        rate = 800.0;
    else if (workload == "ingest_stream")
        rate = 900.0;
    else
        rate = 8000.0;
    const double total = std::ceil(seconds * rate);
    return static_cast<std::uint64_t>(total) / kConnections + 1;
}

ServerConfig
serverConfig(const std::string &workload)
{
    ServerConfig config;
    config.port = 0;
    config.threads = 2;
    config.ioShards = 1;
    if (workload == "cold_compute") {
        // Below the run's distinct-response footprint: inserts
        // evict from the first timed request on.
        config.cacheBytes = std::size_t{2} << 20;
    } else if (workload == "ingest_stream") {
        // One shard thread per session connection; appends never
        // touch the compute pool.
        config.ioShards = 2;
        config.maxSessionBytes = 0;
    } else if (workload == "routed_cluster") {
        config.threads = 1;
    }
    return config;
}

Deployment::~Deployment()
{
    // The router joins its connection threads on shutdown, so it
    // stops before the nodes, after every client has closed.
    if (router_ != nullptr)
        router_->stop();
    for (auto &server : servers_)
        server->stop();
}

std::unique_ptr<Deployment>
Deployment::start(const std::string &workload, const Stream &stream,
                  const Options &options, bool traced, std::string *error)
{
    std::unique_ptr<Deployment> deployment(new Deployment());
    deployment->workload_ = workload;
    const bool routed = workload == "routed_cluster";
    const int nodes = routed ? 3 : 1;
    std::vector<std::string> members;
    for (int i = 0; i < nodes; ++i) {
        ServerConfig config = serverConfig(workload);
        if (traced && i == 0) {
            config.trace = true;
            config.traceAll = true;
        }
        deployment->servers_.push_back(
            std::make_unique<BwwallServer>(config));
        deployment->servers_.back()->start();
        members.push_back("127.0.0.1:" +
                          std::to_string(deployment->servers_.back()->port()));
    }
    if (routed) {
        bwwall::ClusterConfig cluster;
        cluster.peers = members;
        for (int i = 0; i < nodes; ++i) {
            cluster.self = members[static_cast<std::size_t>(i)];
            deployment->servers_[static_cast<std::size_t>(i)]
                ->configureCluster(cluster);
        }
        std::string peers;
        for (const std::string &member : members)
            peers += (peers.empty() ? "" : ",") + member;
        deployment->router_ = std::make_unique<RouterProcess>();
        if (!deployment->router_->start(options.routerBinary, peers,
                                        error))
            return nullptr;
    }

    const std::vector<Op> setup = stream.setup();
    std::uint64_t failed = 0;
    const bool ingest = workload == "ingest_stream";
    const std::vector<std::string> bodies =
        sendAll(deployment->clientPorts().front(), setup,
                ingest ? 1 : kConnections, &failed, error);
    if (failed != 0) {
        *error = "setup: " + std::to_string(failed) +
                 " request(s) failed: " + *error;
        return nullptr;
    }
    if (ingest) {
        for (const std::string &body : bodies) {
            JsonValue created;
            const JsonValue *id = nullptr;
            if (JsonValue::parse(body, &created))
                id = created.find("id");
            if (id == nullptr || !id->isString()) {
                *error = "setup: no session id in '" + body + "'";
                return nullptr;
            }
            deployment->sessions_.push_back(id->asString());
        }
    }
    if (stream.warmupOpsPerConnection != 0) {
        const PhaseResult warmup = runPhase(
            stream, deployment->clientPorts(), deployment->sessions_, {}, 0,
            stream.warmupOpsPerConnection);
        if (warmup.failed != 0) {
            *error = "warm-up: " + warmup.firstError;
            return nullptr;
        }
    }
    return deployment;
}

std::vector<std::uint16_t>
Deployment::clientPorts() const
{
    const std::uint16_t port =
        router_ != nullptr ? router_->port() : servers_.front()->port();
    return std::vector<std::uint16_t>(kConnections, port);
}

std::map<std::string, double>
Deployment::counters() const
{
    std::map<std::string, double> total;
    for (const auto &server : servers_) {
        for (const auto &[name, value] : scrapeCounters(server->port()))
            total[name] += value;
    }
    return total;
}

unsigned
Deployment::serverThreads() const
{
    return static_cast<unsigned>(servers_.size()) *
           serverConfig(workload_).threads;
}

unsigned
Deployment::serverIoShards() const
{
    return static_cast<unsigned>(servers_.size()) *
           serverConfig(workload_).ioShards;
}

namespace {

/** A session's record stream from its start, made on demand. */
class IngestSource : public bwwall::TraceSource
{
  public:
    IngestSource(std::uint64_t seed, unsigned session)
        : seed_(seed), session_(session)
    {}

    bwwall::MemoryAccess
    next() override
    {
        if (position_ % kIngestChunkRecords == 0) {
            chunk_ = ingestRecords(seed_, session_, position_,
                                   kIngestChunkRecords);
        }
        return chunk_[position_++ % kIngestChunkRecords];
    }

    void reset() override { position_ = 0; }

    std::string name() const override { return "perfbench-ingest"; }

  private:
    std::uint64_t seed_;
    unsigned session_;
    std::uint64_t position_ = 0;
    std::vector<bwwall::MemoryAccess> chunk_;
};

double
numberOr(const JsonValue &object, const std::string &key, double fallback)
{
    const JsonValue *value = object.find(key);
    return value != nullptr && value->isNumber() ? value->asNumber()
                                                 : fallback;
}

/**
 * Model responses: every kept body must equal executeModelQuery on
 * the same request, byte for byte (the single-node reference).
 */
void
checkModelSamples(const Stream &stream, const PhaseResult &phase,
                  WorkloadRun *run)
{
    for (const Sample &sample : phase.samples) {
        const Op op = stream.op(sample.conn, sample.index);
        JsonValue body;
        std::string expected;
        try {
            if (!JsonValue::parse(op.body, &body))
                throw std::runtime_error("unparseable request");
            expected = bwwall::executeModelQuery(op.target, body).body;
        } catch (const std::exception &e) {
            expected = std::string("error: ") + e.what();
        }
        if (expected != sample.body) {
            ++run->checkFailures;
            run->checkNotes.push_back("response of conn " +
                                      std::to_string(sample.conn) +
                                      " op " + std::to_string(sample.index) +
                                      " differs from executeModelQuery");
        }
    }
}

/**
 * Ingest: finalize each session and require its final curve to equal
 * the one-shot SHARDS estimate over the same records.
 */
void
checkIngest(const Options &options, const Stream &stream,
            const Deployment &deployment, std::uint16_t port,
            WorkloadRun *run)
{
    for (unsigned c = 0; c < kConnections; ++c) {
        const std::string &id = deployment.sessions()[c];
        std::string final_body;
        const int status = request(port, "DELETE",
                                   "/v1/trace/ingest/" + id, "", &final_body);
        JsonValue final_curve;
        if (status != 200 || !JsonValue::parse(final_body, &final_curve)) {
            ++run->checkFailures;
            run->checkNotes.push_back("finalize " + id + " -> " +
                                      std::to_string(status));
            continue;
        }
        // Every snapshotEvery-th op is a snapshot; the rest appended.
        const std::uint64_t end =
            stream.warmupOpsPerConnection + stream.opsPerConnection;
        const std::uint64_t records =
            (end - end / stream.snapshotEvery) * kIngestChunkRecords;

        JsonValue create;
        JsonValue::parse(ingestCreateBody(c), &create);
        bwwall::MissCurveSpec spec;
        spec.cache.lineBytes = 64;
        spec.cache.associativity =
            static_cast<std::uint32_t>(numberOr(create, "assoc", 8));
        spec.capacities = bwwall::capacityLadder(
            4 * bwwall::kKiB,
            static_cast<std::uint64_t>(numberOr(create, "size_kib", 256)) *
                bwwall::kKiB);
        spec.warmupAccesses = 0;
        spec.measuredAccesses = records;
        spec.kind = bwwall::MissCurveEstimatorKind::SampledStackDistance;
        spec.sampleRate = numberOr(create, "sample_rate", 0.1);
        spec.maxSampledLines = static_cast<std::size_t>(
            numberOr(create, "max_sampled_lines", 0));
        spec.seed = static_cast<std::uint64_t>(numberOr(create, "seed", 1));
        IngestSource source(options.seed, c);
        const bwwall::MissCurve expected =
            bwwall::estimateMissCurve(source, spec);

        const JsonValue *points = final_curve.find("points");
        bool same = points != nullptr && points->isArray() &&
                    points->items().size() == expected.points.size() &&
                    numberOr(final_curve, "records", -1.0) ==
                        static_cast<double>(records);
        for (std::size_t i = 0; same && i < expected.points.size(); ++i) {
            const JsonValue &row = points->items()[i];
            same = numberOr(row, "miss_rate", -1.0) ==
                       expected.points[i].missRate &&
                   numberOr(row, "writeback_ratio", -1.0) ==
                       expected.points[i].writebackRatio &&
                   numberOr(row, "traffic_bytes_per_access", -1.0) ==
                       expected.points[i].trafficBytesPerAccess;
        }
        if (!same) {
            ++run->checkFailures;
            run->checkNotes.push_back("session " + id +
                                      ": streamed curve differs from "
                                      "the one-shot estimate");
        }
    }
}

/** Counter deltas of one timed phase must show the intended path. */
void
checkCacheCounters(const std::string &workload,
                   const std::map<std::string, double> &delta,
                   WorkloadRun *run)
{
    const auto at = [&delta](const char *name) {
        const auto it = delta.find(name);
        return it == delta.end() ? 0.0 : it->second;
    };
    std::string problem;
    if (workload == "hot_hits" || workload == "routed_cluster") {
        if (at("cache.misses") != 0.0)
            problem = "cache misses in the timed phase";
    } else if (workload == "cold_compute") {
        if (at("cache.hits") != 0.0)
            problem = "cache hits in the timed phase";
        else if (at("cache.evictions") == 0.0)
            problem = "no evictions in the timed phase";
    }
    if (!problem.empty()) {
        ++run->checkFailures;
        run->checkNotes.push_back(problem);
    }
}

} // namespace

std::uint64_t
WorkloadRun::attempted() const
{
    std::uint64_t total = 0;
    for (const auto *phases : {&rounds, &scrapes}) {
        for (const PhaseResult &phase : *phases)
            total += phase.attempted;
    }
    return total;
}

std::uint64_t
WorkloadRun::failed() const
{
    std::uint64_t total = checkFailures;
    for (const auto *phases : {&rounds, &scrapes}) {
        for (const PhaseResult &phase : *phases)
            total += phase.failed;
    }
    return total;
}

const PhaseResult &
WorkloadRun::snapshotPhase(std::size_t r) const
{
    return scrapes.empty() ? rounds[r] : scrapes[r];
}

std::vector<std::size_t>
WorkloadRun::quietRounds() const
{
    std::vector<std::size_t> order(stealTicks.size());
    for (std::size_t r = 0; r < order.size(); ++r)
        order[r] = r;
    std::stable_sort(order.begin(), order.end(),
                     [this](std::size_t a, std::size_t b) {
                         return stealTicks[a] < stealTicks[b];
                     });
    order.resize((order.size() + 1) / 2);
    std::sort(order.begin(), order.end());
    return order;
}

bool
runWorkload(const Options &options, std::uint64_t opsPerConnection,
            unsigned rounds, bool traced, WorkloadRun *run,
            std::string *error)
{
    run->harnessRssMb = peakRssMb();
    for (unsigned r = 0; r < rounds; ++r) {
        const Clock::time_point start = Clock::now();
        const std::unique_ptr<Stream> stream =
            makeStream(options.workload, options.seed, opsPerConnection);
        const std::unique_ptr<Deployment> deployment = Deployment::start(
            options.workload, *stream, options, traced, error);
        if (deployment == nullptr)
            return false;
        run->setupSeconds.push_back(secondsSince(start));
        run->serverThreads = deployment->serverThreads();
        run->serverIoShards = deployment->serverIoShards();

        // A seeded sample of timed model queries whose responses are
        // checked (ingest is checked by its final curves instead).
        const bool ingest = options.workload == "ingest_stream";
        const std::uint64_t first = stream->warmupOpsPerConnection;
        std::set<std::pair<unsigned, std::uint64_t>> keep;
        SplitMix pick(subSeed(options.seed, 9));
        for (unsigned c = 0; c < kConnections && !ingest; ++c) {
            for (int k = 0; k < 16; ++k)
                keep.insert({c, first + pick.below(opsPerConnection)});
        }

        const std::map<std::string, double> before = deployment->counters();
        if (traced) {
            // Only the timed phase's spans: setup requests computed.
            deployment->servers().front()->traceRecorder()->clear();
        }
        const std::uint64_t stealBefore = stealTicks();
        run->rounds.push_back(runPhase(*stream, deployment->clientPorts(),
                                       deployment->sessions(), keep, first,
                                       opsPerConnection));
        std::map<std::string, double> delta;
        for (const auto &[name, value] : deployment->counters()) {
            const auto it = before.find(name);
            delta[name] = value - (it == before.end() ? 0.0 : it->second);
            run->counterDelta[name] += delta[name];
        }
        if (traced) {
            request(deployment->servers().front()->port(), "GET",
                    "/v1/trace", "", &run->serverTrace);
        }
        if (!ingest) {
            const std::unique_ptr<Stream> scrape =
                makeScrapeStream(kScrapesPerRound);
            run->scrapes.push_back(runPhase(*scrape,
                                            deployment->clientPorts(), {},
                                            {}, 0, kScrapesPerRound));
        }
        run->stealTicks.push_back(stealTicks() - stealBefore);
        // Before the checks: the one-shot ingest replay is the
        // harness's own work, not the server's.
        if (r + 1 == rounds)
            run->peakRssMb = peakRssMb();

        if (ingest) {
            // The one-shot replay costs as much as the streamed fold,
            // so only the last round's sessions are replayed.
            if (r + 1 == rounds) {
                checkIngest(options, *stream, *deployment,
                            deployment->servers().front()->port(), run);
            }
        } else {
            checkModelSamples(*stream, run->rounds.back(), run);
        }
        checkCacheCounters(options.workload, delta, run);
    }
    return true;
}

std::vector<Metric>
endToEndMetrics(const std::string &workload, const WorkloadRun &run)
{
    // Each timing is the median over the quiet rounds of its
    // per-round value.
    const std::vector<std::size_t> quiet = run.quietRounds();
    const auto overRounds = [&run, &quiet](auto &&of) {
        std::vector<double> values;
        for (std::size_t r : quiet)
            values.push_back(of(run.rounds[r]));
        return median(values);
    };
    const auto snapshotMs = [&run, &quiet](double q) {
        std::vector<double> values;
        for (std::size_t r : quiet)
            values.push_back(
                percentile(run.snapshotPhase(r).snapshotMs, q).value);
        return median(values);
    };
    std::vector<Metric> metrics = {
        {"setup_s", median(run.setupSeconds), "s"},
        {"req_per_s", overRounds([](const PhaseResult &r) {
             return static_cast<double>(r.attempted - r.failed) /
                    r.wallSeconds;
         }),
         "1/s"},
        {"p50_ms", overRounds([](const PhaseResult &r) {
             return percentile(r.mainMs, 0.50).value;
         }),
         "ms"},
        {"p99_ms", overRounds([](const PhaseResult &r) {
             return percentile(r.mainMs, 0.99).value;
         }),
         "ms"},
        {"peak_rss_mb", run.peakRssMb, "MB"},
        {"snapshot_p50_ms", snapshotMs(0.50), "ms"},
        {"snapshot_p90_ms", snapshotMs(0.90), "ms"},
    };
    if (workload == "cold_compute" || workload == "ingest_stream") {
        const auto recordsPerS = [](const PhaseResult &r) {
            return static_cast<double>(r.records) / r.wallSeconds;
        };
        metrics.push_back({"records_per_s", overRounds(recordsPerS), "1/s"});
    }
    return metrics;
}

namespace {

std::string
numberText(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buffer[64];
    const auto result =
        std::to_chars(buffer, buffer + sizeof(buffer), value);
    return std::string(buffer, result.ptr);
}

void
printPercentile(std::ostream &os, const char *name,
                const std::vector<double> &sorted, double q)
{
    const Percentile p = percentile(sorted, q);
    os << " " << name << "=" << p.value << "ms (" << p.samples
       << " samples, " << p.beyond << " beyond)";
}

} // namespace

void
printProvenance(std::ostream &os, const Options &options, bool trace,
                const WorkloadRun &run)
{
    os << "# perfbench " << options.workload << " seed=" << options.seed
       << " seconds=" << options.seconds << " trace=" << (trace ? 1 : 0)
       << "\n";
    os << "# git_sha=" << options.gitSha
       << " build_type=" << options.buildType
       << " nproc=" << std::thread::hardware_concurrency()
       << " cpu=\"" << cpuModel() << "\"\n";
    os << "# client: " << kConnections << " threads, " << kConnections
       << " keep-alive connections, closed loop; server: "
       << run.serverThreads << " compute threads, " << run.serverIoShards
       << " io shards; " << run.rounds.size()
       << " rounds, each on a fresh deployment\n";
    const std::vector<std::size_t> quiet = run.quietRounds();
    os << "# timings: median over the " << quiet.size()
       << " quiet rounds (fewest steal ticks); setup_s: median over all "
       << run.setupSeconds.size() << " setups\n";
    for (std::size_t r = 0; r < run.rounds.size(); ++r) {
        const PhaseResult &phase = run.rounds[r];
        const bool kept =
            std::find(quiet.begin(), quiet.end(), r) != quiet.end();
        os << "# round " << r << (kept ? " (quiet)" : "")
           << ": setup " << run.setupSeconds[r]
           << " s; timed " << phase.attempted << " attempted, "
           << phase.failed << " failed, " << phase.wallSeconds
           << " s wall, " << phase.records << " records, "
           << run.stealTicks[r] << " steal ticks\n#  ";
        printPercentile(os, "p50", phase.mainMs, 0.50);
        printPercentile(os, "p99", phase.mainMs, 0.99);
        const PhaseResult &snapshots = run.snapshotPhase(r);
        printPercentile(os, "snapshot_p50", snapshots.snapshotMs, 0.50);
        printPercentile(os, "snapshot_p90", snapshots.snapshotMs, 0.90);
        os << "\n";
        if (!run.scrapes.empty()) {
            os << "#   scrapes: " << snapshots.attempted << " attempted, "
               << snapshots.failed << " failed\n";
        }
        for (const PhaseResult *failing : {&phase, &snapshots}) {
            if (!failing->firstError.empty())
                os << "#   first failure: " << failing->firstError << "\n";
        }
    }
    os << "# memory: VmHWM " << run.harnessRssMb
       << " MB before the first deployment (harness and binary), "
       << run.peakRssMb << " MB after the last timed phase\n";
    std::size_t samples = 0;
    for (const PhaseResult &phase : run.rounds)
        samples += phase.samples.size();
    os << "# checks: " << samples << " sampled responses, "
       << run.checkFailures << " failed";
    for (const std::string &note : run.checkNotes)
        os << "; " << note;
    os << "\n";
}

void
printResult(std::ostream &os, bool correct, std::uint64_t attempted,
            std::uint64_t failed, const std::vector<Metric> &metrics)
{
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        os << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
           << "\": {\"value\": " << numberText(metrics[i].value)
           << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    os << "}}" << std::endl;
}

} // namespace perfbench
