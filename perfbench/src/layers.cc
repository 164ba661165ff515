#include "layers.hh"

#include <sys/eventfd.h>
#include <unistd.h>

#include <memory>
#include <thread>

#include "cache/miss_curve.hh"
#include "model/batch_solver.hh"
#include "server/http.hh"
#include "server/http_client.hh"
#include "server/ingest_session.hh"
#include "server/json.hh"
#include "server/model_service.hh"
#include "server/result_cache.hh"
#include "trace/streaming_estimator.hh"
#include "trace/trace_io.hh"
#include "util/metrics.hh"
#include "util/mpmc_queue.hh"
#include "util/rendezvous.hh"
#include "util/trace_span.hh"
#include "util/units.hh"

namespace perfbench {

using bwwall::JsonValue;

namespace {

/**
 * Runs @p reps spans named @p name, each around @p batch calls of
 * @p call(i) with a running call index; per-call cost is read back
 * from the recorded spans.
 */
class SpanTimer
{
  public:
    template <typename Call>
    void
    time(const char *name, int reps, int batch, Call &&call)
    {
        noteBatch(name, batch);
        spans(name, reps, batch, call);
    }

    /** Records the batch size of @p name before threads run spans(). */
    void noteBatch(const char *name, int batch) { batches_[name] = batch; }

    /** The spans alone: touches no timer state, so threads may share. */
    template <typename Call>
    static void
    spans(const char *name, int reps, int batch, Call &&call)
    {
        std::uint64_t index = 0;
        for (int r = 0; r < reps; ++r) {
            bwwall::Span span(name);
            for (int k = 0; k < batch; ++k)
                call(index++);
        }
    }

    /** Median per-call nanoseconds of every span name. */
    std::map<std::string, double>
    perCallNs(const bwwall::TraceRecorder &recorder) const
    {
        std::map<std::string, std::vector<double>> spans;
        for (const bwwall::TraceEvent &event : recorder.collect()) {
            if (event.kind == bwwall::TraceEvent::Kind::Span)
                spans[event.name].push_back(
                    static_cast<double>(event.durationNs));
        }
        std::map<std::string, double> out;
        for (auto &[name, durations] : spans) {
            const auto it = batches_.find(name);
            const double batch =
                it == batches_.end() ? 1.0 : static_cast<double>(it->second);
            out[name] = median(durations) / batch;
        }
        return out;
    }

  private:
    std::map<std::string, int> batches_;
};

std::string
requestWire(const Op &op)
{
    std::string wire = op.method + " " + op.target +
                       " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                       "Content-Type: application/json\r\n"
                       "Content-Length: " +
                       std::to_string(op.body.size()) + "\r\n\r\n";
    return wire + op.body;
}

/** The first @p count main operations of a stream, connection 0. */
std::vector<Op>
mainOps(const Stream &stream, std::size_t count)
{
    std::vector<Op> ops;
    for (std::uint64_t i = 0; ops.size() < count; ++i) {
        Op op = stream.op(0, i);
        if (op.kind == OpKind::Main)
            ops.push_back(std::move(op));
    }
    return ops;
}

/** Two threads ping-ponging one value through the reactor's pair of
 * MPMC queue + eventfd semaphore hand-offs. */
void
timeMpmcRoundTrips(SpanTimer *timer)
{
    bwwall::MpmcQueue<std::uint64_t> to_worker(1024);
    bwwall::MpmcQueue<std::uint64_t> to_loop(1024);
    const int worker_sem = eventfd(0, EFD_SEMAPHORE | EFD_CLOEXEC);
    const int loop_sem = eventfd(0, EFD_SEMAPHORE | EFD_CLOEXEC);
    constexpr int kReps = 41;
    constexpr int kBatch = 64;
    std::thread worker([&] {
        std::uint64_t token = 0;
        for (int i = 0; i < kReps * kBatch; ++i) {
            if (read(worker_sem, &token, sizeof(token)) != sizeof(token))
                return;
            std::uint64_t value = 0;
            while (!to_worker.tryPop(&value)) {
            }
            while (!to_loop.tryPush(value + 1)) {
            }
            token = 1;
            if (write(loop_sem, &token, sizeof(token)) != sizeof(token))
                return;
        }
    });
    timer->time("mpmc.round_trip", kReps, kBatch, [&](std::uint64_t i) {
        std::uint64_t value = i;
        while (!to_worker.tryPush(std::move(value))) {
        }
        std::uint64_t token = 1;
        if (write(worker_sem, &token, sizeof(token)) != sizeof(token))
            return;
        if (read(loop_sem, &token, sizeof(token)) != sizeof(token))
            return;
        while (!to_loop.tryPop(&value)) {
        }
    });
    worker.join();
    close(worker_sem);
    close(loop_sem);
}

/** One registry call at one and at two threads. */
void
timeMetrics(SpanTimer *timer)
{
    bwwall::MetricsRegistry registry;
    const auto counter = [&registry](std::uint64_t) {
        registry.addCounter("server.endpoint./v1/traffic.requests");
    };
    const auto histogram = [&registry](std::uint64_t i) {
        registry.observeHistogram(
            "server.endpoint./v1/traffic.latency_seconds",
            1e-5 * static_cast<double>(1 + i % 97));
    };
    timer->time("metrics.counter_1t", 41, 1000, counter);
    timer->time("metrics.histogram_1t", 41, 1000, histogram);
    timer->noteBatch("metrics.counter_2t", 1000);
    timer->noteBatch("metrics.histogram_2t", 1000);
    for (const bool is_counter : {true, false}) {
        std::vector<std::thread> threads;
        for (int t = 0; t < 2; ++t) {
            threads.emplace_back([&, is_counter] {
                if (is_counter)
                    SpanTimer::spans("metrics.counter_2t", 41, 1000, counter);
                else
                    SpanTimer::spans("metrics.histogram_2t", 41, 1000,
                                     histogram);
            });
        }
        for (std::thread &thread : threads)
            thread.join();
    }
}

/** The ingest layers, standalone and behind the session manager. */
bool
timeIngest(const Options &options, SpanTimer *timer,
           std::vector<std::string> *snapshots, std::string *error)
{
    constexpr int kChunks = 64;
    std::vector<std::vector<bwwall::MemoryAccess>> records;
    std::vector<std::string> chunks;
    for (int c = 0; c < kChunks; ++c) {
        records.push_back(ingestRecords(options.seed, 0,
                                        c * kIngestChunkRecords,
                                        kIngestChunkRecords));
        chunks.push_back(bwtrRecords(records.back()));
    }
    {
        bwwall::StreamingTraceDecoder decoder(
            bwwall::StreamingTraceDecoder::Format::Binary);
        std::vector<bwwall::MemoryAccess> out;
        const std::string header = bwtrHeader();
        decoder.feed(header.data(), header.size(), &out);
        timer->time("trace_io.decode_chunk", kChunks, 1,
                    [&](std::uint64_t i) {
                        out.clear();
                        decoder.feed(chunks[i].data(), chunks[i].size(),
                                     &out);
                    });
    }

    JsonValue create;
    JsonValue::parse(ingestCreateBody(0), &create);
    bwwall::StreamingEstimatorConfig config;
    config.lineBytes = 64;
    config.associativity =
        static_cast<std::uint32_t>(create.find("assoc")->asNumber());
    config.capacities = bwwall::capacityLadder(
        4 * bwwall::kKiB,
        static_cast<std::uint64_t>(create.find("size_kib")->asNumber()) *
            bwwall::kKiB);
    config.sampleRate = create.find("sample_rate")->asNumber();
    config.maxSampledLines = static_cast<std::size_t>(
        create.find("max_sampled_lines")->asNumber());
    config.seed =
        static_cast<std::uint64_t>(create.find("seed")->asNumber());
    {
        bwwall::StreamingMissCurveEstimator estimator(config);
        timer->time("streaming.append_chunk", kChunks, 1,
                    [&](std::uint64_t i) {
                        estimator.append(records[i].data(),
                                         records[i].size());
                    });
        timer->time("streaming.snapshot", 9, 1, [&](std::uint64_t) {
            const bwwall::StreamingSnapshot snapshot =
                estimator.snapshot();
            if (snapshot.points.empty())
                *error = "empty streaming snapshot";
        });
    }

    bwwall::MetricsRegistry metrics;
    bwwall::IngestSessionManager manager(bwwall::IngestConfig{}, &metrics);
    const bwwall::HttpResponse created = manager.create(create);
    JsonValue created_body;
    if (created.status != 200 ||
        !JsonValue::parse(created.body, &created_body)) {
        *error = "ingest create failed: " + created.body;
        return false;
    }
    const std::string id = created_body.find("id")->asString();
    bool ok = true;
    const std::string header = bwtrHeader();
    timer->time("ingest_session.append", kChunks, 1, [&](std::uint64_t i) {
        bwwall::HttpResponse refusal;
        std::unique_ptr<bwwall::HttpStreamSink> sink =
            manager.openAppend(id, &refusal);
        bwwall::HttpResponse failure;
        if (sink == nullptr ||
            (i == 0 && !sink->onData(header.data(), header.size(),
                                     &failure)) ||
            !sink->onData(chunks[i].data(), chunks[i].size(), &failure)) {
            ok = false;
            return;
        }
        sink->onComplete();
    });
    timer->time("ingest_session.snapshot", 9, 1, [&](std::uint64_t) {
        const bwwall::HttpResponse snapshot = manager.snapshot(id, false);
        ok = ok && snapshot.status == 200;
        snapshots->push_back(snapshot.body);
    });
    if (!ok)
        *error = "ingest session replay failed";
    return ok && error->empty();
}

/** Routed minus direct-to-owner latency on prefilled keys. */
bool
timeRouterHop(const Options &options, SpanTimer *timer,
              std::string *error)
{
    Options routed = options;
    routed.workload = "routed_cluster";
    const std::unique_ptr<Stream> stream = makeStream(routed.workload,
                                                      options.seed, 1);
    std::unique_ptr<Deployment> deployment =
        Deployment::start(routed.workload, *stream, routed, false, error);
    if (deployment == nullptr)
        return false;
    const std::shared_ptr<bwwall::Cluster> cluster =
        deployment->servers().front()->clusterSnapshot();
    const std::vector<Op> keys = stream->setup();
    std::vector<std::uint16_t> owners;
    for (const Op &op : keys) {
        JsonValue body;
        JsonValue::parse(op.body, &body);
        const std::string owner =
            cluster->owner(bwwall::canonicalCacheKey(op.target, body));
        owners.push_back(static_cast<std::uint16_t>(
            std::stoul(owner.substr(owner.rfind(':') + 1))));
    }
    bool ok = true;
    {
        // One keep-alive connection to the router and one per node.
        std::map<std::uint16_t, std::unique_ptr<bwwall::HttpClient>>
            clients;
        const std::uint16_t router_port = deployment->clientPorts().front();
        for (const std::uint16_t port : owners)
            clients.emplace(port, nullptr);
        clients[router_port] = nullptr;
        for (auto &[port, client] : clients)
            client = std::make_unique<bwwall::HttpClient>("127.0.0.1", port);
        const auto send = [&](std::uint16_t port, const Op &op) {
            bwwall::HttpClient::Request exchange;
            exchange.method = op.method;
            exchange.target = op.target;
            exchange.body = op.body;
            bwwall::HttpClientResponse response;
            ok = clients[port]->perform(exchange, &response) &&
                 response.status == 200 && ok;
        };
        // Warm every connection, then alternate routed and direct.
        for (std::size_t i = 0; i < keys.size(); ++i)
            send(owners[i], keys[i]);
        for (int round = 0; round < 8; ++round) {
            timer->time("router.routed", 64, 1, [&](std::uint64_t i) {
                send(router_port, keys[i % keys.size()]);
            });
            timer->time("router.direct", 64, 1, [&](std::uint64_t i) {
                send(owners[i % keys.size()], keys[i % keys.size()]);
            });
        }
    }
    deployment.reset();
    if (!ok)
        *error = "router hop replay: a request failed";
    return ok;
}

} // namespace

bool
replayLayers(const Options &options, const std::string &tracePath,
             LayerValues *values, std::string *error)
{
    bwwall::TraceRecorder recorder;
    recorder.install(true);
    SpanTimer timer;

    const std::unique_ptr<Stream> stream =
        makeStream(options.workload, options.seed, 4096);
    const bool ingest = options.workload == "ingest_stream";
    const std::vector<Op> ops = mainOps(*stream, 256);
    std::vector<std::string> ingest_snapshots;
    if (!timeIngest(options, &timer, &ingest_snapshots, error))
        return false;

    // HTTP framing of the workload's own requests.
    std::vector<std::string> wires;
    for (const Op &op : ops)
        wires.push_back(requestWire(op));
    bwwall::HttpLimits limits;
    limits.maxBodyBytes = 64u << 20;
    timer.time("http.parse", 41, 64, [&](std::uint64_t i) {
        bwwall::HttpParser parser(limits);
        const std::string &wire = wires[i % wires.size()];
        parser.append(wire.data(), wire.size());
        bwwall::HttpRequest request;
        if (parser.poll(&request) != bwwall::HttpParseStatus::Ok)
            *error = "http parse failed";
    });

    // JSON: the workload's bodies (ingest: its snapshot documents).
    std::vector<std::string> documents;
    std::vector<std::string> paths;
    if (ingest) {
        documents = ingest_snapshots;
        paths.assign(documents.size(), "/v1/trace/ingest");
    } else {
        for (const Op &op : ops) {
            documents.push_back(op.body);
            paths.push_back(op.target);
        }
    }
    std::vector<JsonValue> parsed(documents.size());
    timer.time("json.parse", 41, 32, [&](std::uint64_t i) {
        const std::size_t k = i % documents.size();
        if (!JsonValue::parse(documents[k], &parsed[k]))
            *error = "json parse failed";
    });
    timer.time("json.canonical_key", 41, 32, [&](std::uint64_t i) {
        const std::size_t k = i % documents.size();
        if (bwwall::canonicalCacheKey(paths[k], parsed[k]).empty())
            *error = "empty cache key";
    });

    // The model, on the cold workload's batch and figure15 inputs.
    std::vector<JsonValue> batches(16);
    std::vector<JsonValue> sweeps(16);
    for (std::size_t i = 0; i < batches.size(); ++i) {
        JsonValue::parse(coldBatchBody(options.seed, i), &batches[i]);
        JsonValue::parse(coldFigure15Body(options.seed, i), &sweeps[i]);
    }
    std::vector<std::string> batch_answers(batches.size());
    timer.time("model_service.batch", 32, 1, [&](std::uint64_t i) {
        batch_answers[i % batches.size()] =
            bwwall::executeModelQuery("/v1/batch", batches[i % batches.size()])
                .body;
    });
    timer.time("model_service.figure15", 32, 1, [&](std::uint64_t i) {
        bwwall::executeModelQuery("/v1/sweep", sweeps[i % sweeps.size()]);
    });
    {
        bwwall::BatchGrid grid;
        SplitMix rng(subSeed(options.seed, 21));
        std::vector<double> cores;
        for (int p = 0; p < 4096; ++p) {
            grid.push(0.2 + 0.6 * rng.uniform(),
                      32.0 + static_cast<double>(rng.below(96)), 1.0);
            cores.push_back(static_cast<double>(1 + rng.below(16)));
        }
        std::vector<double> traffic(grid.points());
        timer.time("model.kernel_4096", 41, 1, [&](std::uint64_t) {
            bwwall::evaluateTrafficBatch(grid, cores.data(), traffic.data());
        });
    }
    std::vector<JsonValue> answers(batch_answers.size());
    for (std::size_t i = 0; i < answers.size(); ++i)
        JsonValue::parse(batch_answers[i], &answers[i]);
    timer.time("json.dump_batch", 41, 8, [&](std::uint64_t i) {
        if (answers[i % answers.size()].dump().empty())
            *error = "empty dump";
    });

    // HTTP serialization of the workload's own responses.
    std::vector<bwwall::HttpResponse> responses;
    for (std::size_t i = 0; i < 32; ++i) {
        bwwall::HttpResponse response;
        if (ingest) {
            response.body = ingest_snapshots[i % ingest_snapshots.size()];
        } else {
            response.body =
                bwwall::executeModelQuery(paths[i], parsed[i]).body;
        }
        responses.push_back(std::move(response));
    }
    timer.time("http.serialize", 41, 32, [&](std::uint64_t i) {
        if (bwwall::serializeHttpResponse(responses[i % responses.size()])
                .empty())
            *error = "empty response";
    });

    // The result cache: hits on hot keys, inserts of cold answers
    // into a budget they overflow.
    {
        const std::vector<HotQuery> hot = hotQueries(options.seed, 512, 1);
        std::vector<std::string> keys;
        for (const HotQuery &query : hot) {
            JsonValue body;
            JsonValue::parse(query.spellings.front(), &body);
            keys.push_back(bwwall::canonicalCacheKey(query.path, body));
        }
        bwwall::ResultCache cache(bwwall::ResultCacheConfig{});
        const auto answer = [] {
            bwwall::CachedResponse response;
            response.body = std::string(400, 'x');
            return response;
        };
        for (const std::string &key : keys)
            cache.getOrCompute(key, answer);
        timer.time("result_cache.hit", 41, 64, [&](std::uint64_t i) {
            if (!cache.getOrCompute(keys[i % keys.size()], answer).hit)
                *error = "result cache replay missed";
        });

        bwwall::ResultCacheConfig small;
        small.maxBytes = serverConfig("cold_compute").cacheBytes;
        bwwall::ResultCache cold(small);
        bwwall::CachedResponse cold_answer;
        cold_answer.body = batch_answers.front();
        timer.time("result_cache.insert", 41, 64, [&](std::uint64_t i) {
            cold.getOrCompute("/v1/batch\n" + std::to_string(i),
                              [&] { return cold_answer; });
        });
    }

    timeMetrics(&timer);
    timeMpmcRoundTrips(&timer);
    {
        const std::vector<std::string> nodes = {
            "127.0.0.1:40001", "127.0.0.1:40002", "127.0.0.1:40003"};
        timer.time("rendezvous.owner", 41, 256, [&](std::uint64_t i) {
            const std::string &key = documents[i % documents.size()];
            if (bwwall::rendezvousOwner(nodes, key) >= nodes.size())
                *error = "owner out of range";
        });
    }
    if (!timeRouterHop(options, &timer, error))
        return false;
    recorder.uninstall();
    if (!error->empty())
        return false;

    recorder.writeChromeTraceFile(tracePath);
    const std::map<std::string, double> ns = timer.perCallNs(recorder);
    const auto at = [&ns](const char *name) {
        const auto it = ns.find(name);
        return it == ns.end() ? 0.0 : it->second;
    };
    LayerValues &v = *values;
    v["http.parse_us"] = at("http.parse") / 1e3;
    v["http.serialize_us"] = at("http.serialize") / 1e3;
    v["json.parse_us"] = at("json.parse") / 1e3;
    v["json.canonical_key_us"] = at("json.canonical_key") / 1e3;
    v["json.dump_batch_us"] = at("json.dump_batch") / 1e3;
    v["result_cache.hit_us"] = at("result_cache.hit") / 1e3;
    v["result_cache.insert_us"] = at("result_cache.insert") / 1e3;
    v["metrics.counter_ns_1t"] = at("metrics.counter_1t");
    v["metrics.counter_ns_2t"] = at("metrics.counter_2t");
    v["metrics.histogram_ns_1t"] = at("metrics.histogram_1t");
    v["metrics.histogram_ns_2t"] = at("metrics.histogram_2t");
    v["mpmc.round_trip_us"] = at("mpmc.round_trip") / 1e3;
    v["model_service.batch_ms"] = at("model_service.batch") / 1e6;
    v["model_service.figure15_ms"] = at("model_service.figure15") / 1e6;
    v["model.kernel_ns_per_point"] = at("model.kernel_4096") / 4096.0;
    v["trace_io.decode_mb_per_s"] =
        at("trace_io.decode_chunk") > 0.0
            ? static_cast<double>(kIngestChunkRecords * 12) /
                  at("trace_io.decode_chunk") * 1e3
            : 0.0;
    v["streaming.append_ns_per_record"] =
        at("streaming.append_chunk") / kIngestChunkRecords;
    v["streaming.snapshot_ms"] = at("streaming.snapshot") / 1e6;
    v["ingest_session.append_us"] = at("ingest_session.append") / 1e3;
    v["ingest_session.snapshot_ms"] = at("ingest_session.snapshot") / 1e6;
    v["router.hop_us"] = (at("router.routed") - at("router.direct")) / 1e3;
    v["rendezvous.owner_ns"] = at("rendezvous.owner");
    return true;
}

bool
chromeSpanMedians(const std::string &json,
                  std::map<std::string, double> *medians)
{
    JsonValue document;
    if (!JsonValue::parse(json, &document) || !document.isObject())
        return false;
    const JsonValue *events = document.find("traceEvents");
    if (events == nullptr || !events->isArray())
        return false;
    std::map<std::string, std::vector<double>> durations;
    for (const JsonValue &event : events->items()) {
        const JsonValue *phase = event.find("ph");
        const JsonValue *name = event.find("name");
        const JsonValue *dur = event.find("dur");
        if (phase != nullptr && phase->isString() &&
            phase->asString() == "X" && name != nullptr &&
            name->isString() && dur != nullptr && dur->isNumber())
            durations[name->asString()].push_back(dur->asNumber());
    }
    for (auto &[name, values] : durations)
        (*medians)[name] = median(values);
    return true;
}

std::vector<std::pair<std::string, double>>
pathLayers(const std::string &workload, const LayerValues &values)
{
    const auto at = [&values](const char *name) {
        const auto it = values.find(name);
        return it == values.end() ? 0.0 : it->second;
    };
    // The server makes about four counter calls and one histogram
    // call per request, at two compute threads.
    const double metrics_us =
        (4.0 * at("metrics.counter_ns_2t") + at("metrics.histogram_ns_2t")) /
        1e3;
    std::vector<std::pair<std::string, double>> path;
    if (workload == "ingest_stream") {
        path = {{"http.parse_us", at("http.parse_us")},
                {"ingest_session.append_us", at("ingest_session.append_us")},
                {"metrics (4 counters + 1 histogram)", metrics_us}};
        return path;
    }
    path = {{"http.parse_us", at("http.parse_us")},
            {"mpmc.round_trip_us", at("mpmc.round_trip_us")},
            {"json.parse_us", at("json.parse_us")},
            {"json.canonical_key_us", at("json.canonical_key_us")}};
    if (workload == "cold_compute") {
        // Half the operations are batches, half figure15 sweeps.
        path.push_back({"model_service (mean of batch, figure15) us",
                        500.0 * (at("model_service.batch_ms") +
                                 at("model_service.figure15_ms"))});
        path.push_back({"result_cache.insert_us", at("result_cache.insert_us")});
    } else {
        path.push_back({"result_cache.hit_us", at("result_cache.hit_us")});
    }
    path.push_back({"http.serialize_us", at("http.serialize_us")});
    path.push_back({"metrics (4 counters + 1 histogram)", metrics_us});
    if (workload == "routed_cluster")
        path.push_back({"router.hop_us", at("router.hop_us")});
    return path;
}

} // namespace perfbench
