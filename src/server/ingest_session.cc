#include "server/ingest_session.hh"

#include <atomic>
#include <utility>
#include <vector>

#include "cache/miss_curve.hh"
#include "model/bandwidth_wall.hh"
#include "server/model_service.hh"
#include "util/fault.hh"
#include "util/metrics.hh"
#include "util/units.hh"

namespace bwwall {

namespace {

const char *
stateName(int state)
{
    switch (state) {
      case 0: return "open";
      case 1: return "finalized";
      default: return "failed";
    }
}

} // namespace

/** One live session; its own lock serializes appends against
 * snapshots. */
struct IngestSessionManager::Session
{
    enum State { Open = 0, Finalized = 1, Failed = 2 };

    explicit Session(const StreamingEstimatorConfig &config,
                     StreamingTraceDecoder::Format format)
        : decoder(format), estimator(config)
    {
    }

    std::mutex mutex;
    std::string id;
    int state = Open;
    /** One append streams at a time; a second concurrent one is 409. */
    bool appendInProgress = false;

    StreamingTraceDecoder decoder;
    StreamingMissCurveEstimator estimator;

    std::uint64_t bytesAppended = 0;
    std::uint64_t appendCount = 0;

    /** Advisor scenario knobs fixed at create time. */
    double advisorTotalCeas = 32.0;
    double advisorTrafficBudget = 1.0;

    /**
     * Last use, as a steady-clock tick count.  Atomic because the
     * sweep reads it under the manager's lock while appends and
     * snapshots write it under the session's own.
     */
    std::atomic<Clock::rep> lastTouched{0};

    void
    touch()
    {
        lastTouched.store(Clock::now().time_since_epoch().count());
    }
};

/**
 * The per-append HttpStreamSink: feeds decoded chunks into the
 * session on the owning shard thread.  Destruction before
 * onComplete() is the reactor's abort signal; the session then
 * moves to Failed because an unknown prefix of the append was
 * applied.
 */
class IngestSessionManager::AppendSink : public HttpStreamSink
{
  public:
    AppendSink(IngestSessionManager *manager,
               std::shared_ptr<Session> session)
        : manager_(manager), session_(std::move(session))
    {
    }

    ~AppendSink() override
    {
        std::lock_guard<std::mutex> lock(session_->mutex);
        session_->appendInProgress = false;
        if (!completed_ && session_->state == Session::Open) {
            session_->state = Session::Failed;
            manager_->metrics_->addCounter("ingest.aborts");
        }
    }

    bool
    onData(const char *data, std::size_t count,
           HttpResponse *error) override
    {
        std::lock_guard<std::mutex> lock(session_->mutex);
        if (FAULT_POINT("ingest.append")) {
            session_->state = Session::Failed;
            *error = httpErrorResponseFor(
                {ErrorCategory::Faulted,
                 "injected fault: ingest.append"});
            return false;
        }
        const std::size_t budget = manager_->config_.maxSessionBytes;
        if (budget != 0 &&
            session_->bytesAppended + count > budget) {
            session_->state = Session::Failed;
            *error = httpErrorResponse(
                413, "session byte budget exceeded (" +
                         std::to_string(budget) +
                         " bytes); the session is failed");
            return false;
        }
        std::vector<MemoryAccess> records;
        const Expected<std::size_t> decoded =
            session_->decoder.feed(data, count, &records);
        if (!decoded.ok()) {
            session_->state = Session::Failed;
            *error = httpErrorResponseFor(decoded.error());
            return false;
        }
        session_->estimator.append(records);
        session_->bytesAppended += count;
        appendedBytes_ += count;
        manager_->metrics_->addCounter("ingest.records",
                                       records.size());
        manager_->metrics_->addCounter("ingest.bytes", count);
        return true;
    }

    HttpResponse
    onComplete() override
    {
        completed_ = true;
        std::lock_guard<std::mutex> lock(session_->mutex);
        session_->appendCount += 1;
        session_->touch();
        manager_->metrics_->addCounter("ingest.appends");

        JsonValue payload = JsonValue::makeObject();
        payload.set("kind", JsonValue("ingest_append"));
        payload.set("id", JsonValue(session_->id));
        payload.set("state",
                    JsonValue(stateName(session_->state)));
        payload.set("appended_bytes",
                    JsonValue(static_cast<double>(appendedBytes_)));
        payload.set("records",
                    JsonValue(static_cast<double>(
                        session_->estimator.recordsSeen())));
        payload.set("bytes",
                    JsonValue(static_cast<double>(
                        session_->bytesAppended)));
        HttpResponse response;
        response.body = payload.dump();
        response.body += '\n';
        return response;
    }

  private:
    IngestSessionManager *manager_;
    std::shared_ptr<Session> session_;
    std::uint64_t appendedBytes_ = 0;
    bool completed_ = false;
};

IngestSessionManager::IngestSessionManager(IngestConfig config,
                                           MetricsRegistry *metrics)
    : config_(config), metrics_(metrics)
{
    publishActiveGauge(0);
}

IngestSessionManager::~IngestSessionManager() = default;

void
IngestSessionManager::publishActiveGauge(std::size_t count)
{
    metrics_->setGauge("ingest.active_sessions",
                       static_cast<double>(count));
}

void
IngestSessionManager::sweepExpired()
{
    if (config_.ttlSeconds <= 0.0)
        return;
    const Clock::time_point now = Clock::now();
    std::size_t swept = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto it = sessions_.begin();
             it != sessions_.end();) {
            const Clock::duration last(
                it->second->lastTouched.load());
            const double idle =
                std::chrono::duration<double>(
                    now - Clock::time_point(last))
                    .count();
            if (idle > config_.ttlSeconds) {
                it = sessions_.erase(it);
                ++swept;
            } else {
                ++it;
            }
        }
        if (swept != 0)
            publishActiveGauge(sessions_.size());
    }
    if (swept != 0)
        metrics_->addCounter("ingest.sessions_expired", swept);
}

std::shared_ptr<IngestSessionManager::Session>
IngestSessionManager::find(const std::string &id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = sessions_.find(id);
    return it == sessions_.end() ? nullptr : it->second;
}

std::size_t
IngestSessionManager::activeSessions()
{
    sweepExpired();
    std::lock_guard<std::mutex> lock(mutex_);
    return sessions_.size();
}

HttpResponse
IngestSessionManager::create(const JsonValue &request)
{
    sweepExpired();

    requireKnownKeys(request,
                     {"size_kib", "line_bytes", "assoc", "warm",
                      "sample_rate", "max_sampled_lines", "seed",
                      "format", "total_ceas", "traffic_budget"},
                     "request");

    StreamingEstimatorConfig config;
    const std::uint64_t capacity_bytes =
        integerField(request, "size_kib", 256, 8, 64 * 1024) *
        kKiB;
    config.lineBytes = static_cast<std::uint32_t>(
        integerField(request, "line_bytes", 64, 8, 1024));
    config.associativity = static_cast<std::uint32_t>(
        integerField(request, "assoc", 8, 0, 64));
    config.capacities = capacityLadder(4 * kKiB, capacity_bytes);
    config.warmupAccesses =
        integerField(request, "warm", 0, 0, 5000000);
    config.sampleRate =
        numberField(request, "sample_rate", 0.1, 1e-4, 1.0);
    config.maxSampledLines = static_cast<std::size_t>(
        integerField(request, "max_sampled_lines", 0, 0,
                     1u << 24));
    config.seed = integerField(request, "seed", 1, 1,
                               ~std::uint64_t{0} >> 1);

    const std::string format_name =
        stringField(request, "format", "auto");
    StreamingTraceDecoder::Format format;
    if (format_name == "auto")
        format = StreamingTraceDecoder::Format::Auto;
    else if (format_name == "binary")
        format = StreamingTraceDecoder::Format::Binary;
    else if (format_name == "text")
        format = StreamingTraceDecoder::Format::Text;
    else
        throw BadRequest("unknown format '" + format_name +
                         "'; expected auto | binary | text");

    const double total_ceas =
        numberField(request, "total_ceas", 32.0, 1.0, 4096.0);
    const double traffic_budget =
        numberField(request, "traffic_budget", 1.0, 0.01, 100.0);

    std::shared_ptr<Session> session;
    std::string id;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (config_.maxSessions != 0 &&
            sessions_.size() >= config_.maxSessions) {
            HttpResponse full = httpErrorResponseFor(
                {ErrorCategory::Overload,
                 "ingest session limit reached (" +
                     std::to_string(config_.maxSessions) +
                     "); finalize or retry later"});
            full.headers["Retry-After"] = std::string(kRetryAfterSeconds);
            return full;
        }
        id = "ingest-" + std::to_string(nextId_++);
        session = std::make_shared<Session>(config, format);
        session->id = id;
        session->advisorTotalCeas = total_ceas;
        session->advisorTrafficBudget = traffic_budget;
        session->touch();
        sessions_.emplace(id, session);
        publishActiveGauge(sessions_.size());
    }
    metrics_->addCounter("ingest.sessions_created");

    JsonValue payload = JsonValue::makeObject();
    payload.set("kind", JsonValue("ingest_session"));
    payload.set("id", JsonValue(id));
    payload.set("state", JsonValue("open"));
    payload.set("capacity_kib",
                JsonValue(static_cast<double>(capacity_bytes /
                                              kKiB)));
    payload.set("line_bytes",
                JsonValue(static_cast<double>(config.lineBytes)));
    payload.set("assoc", JsonValue(static_cast<double>(
                             config.associativity)));
    payload.set("warm", JsonValue(static_cast<double>(
                            config.warmupAccesses)));
    payload.set("sample_rate", JsonValue(config.sampleRate));
    payload.set("max_sampled_lines",
                JsonValue(static_cast<double>(
                    config.maxSampledLines)));
    payload.set("seed",
                JsonValue(static_cast<double>(config.seed)));
    payload.set("format", JsonValue(format_name));
    HttpResponse response;
    response.body = payload.dump();
    response.body += '\n';
    return response;
}

std::unique_ptr<HttpStreamSink>
IngestSessionManager::openAppend(const std::string &id,
                                 HttpResponse *refusal)
{
    sweepExpired();
    const std::shared_ptr<Session> session = find(id);
    if (session == nullptr) {
        *refusal = httpErrorResponse(
            404, "unknown ingest session '" + id + "'");
        return nullptr;
    }
    std::lock_guard<std::mutex> lock(session->mutex);
    if (session->state != Session::Open) {
        *refusal = httpErrorResponse(
            409, "ingest session '" + id + "' is " +
                     stateName(session->state) +
                     "; appends need an open session");
        return nullptr;
    }
    if (session->appendInProgress) {
        *refusal = httpErrorResponse(
            409, "another append to '" + id +
                     "' is in progress");
        return nullptr;
    }
    session->appendInProgress = true;
    session->touch();
    return std::make_unique<AppendSink>(this, session);
}

namespace {

/**
 * The snapshot payload: the same point/alpha shape as a
 * /v1/sweep miss_curve answer plus the session's live counters and
 * (full-resolution snapshots with a valid fit) the bandwidth-wall
 * advisor verdict at the fitted alpha.
 */
JsonValue
snapshotPayload(const StreamingSnapshot &snapshot,
                const std::string &id, const char *state,
                std::uint64_t bytes, std::uint64_t appends,
                bool degraded, double total_ceas,
                double traffic_budget)
{
    // A degraded snapshot serves every other grid point but always
    // keeps the last (largest-capacity) one.
    const std::size_t stride = degraded ? 2 : 1;
    std::vector<std::size_t> kept;
    for (std::size_t i = 0; i < snapshot.points.size(); i += stride)
        kept.push_back(i);
    if (!snapshot.points.empty() &&
        (kept.empty() || kept.back() != snapshot.points.size() - 1))
        kept.push_back(snapshot.points.size() - 1);

    JsonValue points = JsonValue::makeArray();
    for (const std::size_t i : kept) {
        const StreamingCurvePoint &point = snapshot.points[i];
        JsonValue row = JsonValue::makeObject();
        row.set("capacity_kib",
                JsonValue(static_cast<double>(
                    point.capacityBytes / kKiB)));
        row.set("miss_rate", JsonValue(point.missRate));
        row.set("writeback_ratio",
                JsonValue(point.writebackRatio));
        row.set("traffic_bytes_per_access",
                JsonValue(point.trafficBytesPerAccess));
        points.append(std::move(row));
    }

    JsonValue payload = JsonValue::makeObject();
    payload.set("kind", JsonValue("ingest_snapshot"));
    payload.set("id", JsonValue(id));
    payload.set("state", JsonValue(state));
    payload.set("records", JsonValue(static_cast<double>(
                               snapshot.recordsSeen)));
    payload.set("bytes",
                JsonValue(static_cast<double>(bytes)));
    payload.set("appends",
                JsonValue(static_cast<double>(appends)));
    payload.set("profiled_accesses",
                JsonValue(static_cast<double>(
                    snapshot.profiledAccesses)));
    payload.set("sampled_accesses",
                JsonValue(static_cast<double>(
                    snapshot.sampledAccesses)));
    payload.set("sample_rate",
                JsonValue(snapshot.currentSampleRate));
    payload.set("points", std::move(points));
    payload.set("fit_valid", JsonValue(snapshot.fitValid));
    if (snapshot.fitValid) {
        payload.set("alpha", JsonValue(snapshot.alpha));
        payload.set("fit_r_squared",
                    JsonValue(snapshot.fitRSquared));
    }
    if (snapshot.fitValid && !degraded) {
        ScalingScenario scenario;
        scenario.alpha = snapshot.alpha;
        scenario.totalCeas = total_ceas;
        scenario.trafficBudget = traffic_budget;
        JsonValue advisor = JsonValue::makeObject();
        advisor.set("total_ceas", JsonValue(total_ceas));
        advisor.set("traffic_budget",
                    JsonValue(traffic_budget));
        const Expected<SolveResult> solved =
            trySolveSupportableCores(scenario);
        if (solved.ok()) {
            advisor.set("supportable_cores",
                        JsonValue(static_cast<double>(
                            solved.value().supportableCores)));
            advisor.set("traffic_at_solution",
                        JsonValue(
                            solved.value().trafficAtSolution));
            advisor.set("core_area_fraction",
                        JsonValue(
                            solved.value().coreAreaFraction));
            advisor.set("cache_per_core",
                        JsonValue(solved.value().cachePerCore));
        } else {
            advisor.set("error",
                        JsonValue(solved.error().message));
        }
        payload.set("advisor", std::move(advisor));
    }
    return payload;
}

} // namespace

HttpResponse
IngestSessionManager::snapshot(const std::string &id,
                               bool degraded)
{
    sweepExpired();
    const std::shared_ptr<Session> session = find(id);
    if (session == nullptr)
        return httpErrorResponse(
            404, "unknown ingest session '" + id + "'");
    if (FAULT_POINT("ingest.snapshot"))
        return httpErrorResponseFor(
            {ErrorCategory::Faulted,
             "injected fault: ingest.snapshot"});

    std::lock_guard<std::mutex> lock(session->mutex);
    session->touch();
    metrics_->addCounter("ingest.snapshots");
    const StreamingSnapshot live = session->estimator.snapshot();
    JsonValue payload = snapshotPayload(
        live, session->id, stateName(session->state),
        session->bytesAppended, session->appendCount, degraded,
        session->advisorTotalCeas,
        session->advisorTrafficBudget);
    HttpResponse response;
    response.body = payload.dump();
    response.body += '\n';
    return response;
}

HttpResponse
IngestSessionManager::finalize(const std::string &id)
{
    sweepExpired();
    const std::shared_ptr<Session> session = find(id);
    if (session == nullptr)
        return httpErrorResponse(
            404, "unknown ingest session '" + id + "'");

    std::lock_guard<std::mutex> lock(session->mutex);
    if (session->state == Session::Finalized)
        return httpErrorResponse(
            409, "ingest session '" + id +
                     "' is already finalized");
    if (session->appendInProgress)
        return httpErrorResponse(
            409, "an append to '" + id +
                     "' is still in progress");

    if (session->state == Session::Open) {
        // Flush a trailing unterminated text line; a binary stream
        // cut mid-record fails the session instead of finalizing.
        std::vector<MemoryAccess> records;
        const Expected<std::size_t> flushed =
            session->decoder.finish(&records);
        if (!flushed.ok()) {
            session->state = Session::Failed;
            session->touch();
            return httpErrorResponseFor(flushed.error());
        }
        session->estimator.append(records);
        session->state = Session::Finalized;
    } else {
        session->state = Session::Finalized;
    }
    session->touch();
    metrics_->addCounter("ingest.sessions_finalized");

    const StreamingSnapshot live = session->estimator.snapshot();
    JsonValue payload = snapshotPayload(
        live, session->id, stateName(session->state),
        session->bytesAppended, session->appendCount, false,
        session->advisorTotalCeas,
        session->advisorTrafficBudget);
    HttpResponse response;
    response.body = payload.dump();
    response.body += '\n';
    return response;
}

} // namespace bwwall
