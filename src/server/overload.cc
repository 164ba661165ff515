#include "server/overload.hh"

#include <algorithm>
#include <cmath>

#include "server/routes.hh"
#include "util/metrics.hh"

namespace bwwall {

namespace {

/** Inflight fraction beyond which expensive work is pressed. */
constexpr double kExpensivePressure = 0.75;

} // namespace

OverloadController::OverloadController(OverloadConfig config,
                                       MetricsRegistry *metrics)
    : config_(config), metrics_(metrics)
{
    latencies_.resize(
        std::max<std::size_t>(config_.latencyWindow, 1));
    // Endpoint breakers keep their historical semantics: a fixed,
    // unjittered cooldown (tests drive the lifecycle with scripted
    // sleeps) and consecutive-failure counting only.
    breakerConfig_.failureThreshold = config_.breakerThreshold;
    breakerConfig_.cooldownSeconds =
        config_.breakerCooldownSeconds;
    breakerConfig_.cooldownGrowth = 1.0;
    breakerConfig_.jitter = 0.0;
}

Breaker &
OverloadController::breakerFor(const std::string &path)
{
    const auto it = breakers_.find(path);
    if (it != breakers_.end())
        return it->second;
    return breakers_.try_emplace(path, breakerConfig_)
        .first->second;
}

void
OverloadController::countEvent(BreakerEvent event)
{
    if (metrics_ == nullptr)
        return;
    switch (event) {
      case BreakerEvent::Opened:
        metrics_->addCounter("server.breaker_opened");
        break;
      case BreakerEvent::Reopened:
        metrics_->addCounter("server.breaker_reopened");
        break;
      case BreakerEvent::Closed:
        metrics_->addCounter("server.breaker_closed");
        break;
      case BreakerEvent::None:
        break;
    }
}

bool
OverloadController::isExpensive(const std::string &path)
{
    const Route *route = findRoute(path);
    return route != nullptr && route->cost == RouteCost::Expensive;
}

bool
OverloadController::isDegradable(const std::string &path)
{
    const Route *route = findRoute(path);
    return route != nullptr && route->degradable;
}

double
OverloadController::p99Locked(Clock::time_point now) const
{
    std::vector<double> sorted;
    sorted.reserve(latencyCount_);
    const auto horizon =
        std::chrono::duration<double>(
            config_.latencyHorizonSeconds);
    for (std::size_t i = 0; i < latencyCount_; ++i) {
        const Sample &sample = latencies_[i];
        if (now - sample.when <= horizon)
            sorted.push_back(sample.seconds);
    }
    if (sorted.empty())
        return 0.0;
    std::sort(sorted.begin(), sorted.end());
    // Nearest-rank p99, matching bench/perf_server's quantiles.
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(0.99 * static_cast<double>(sorted.size())));
    return sorted[std::min(rank == 0 ? 0 : rank - 1,
                           sorted.size() - 1)];
}

AdmitDecision
OverloadController::admit(const std::string &path, unsigned inflight)
{
    const bool expensive = isExpensive(path);
    // A batch body cannot be served at reduced resolution (its items
    // are the client's, verbatim), so only degradable routes trade
    // shedding for degradation.
    const bool degradable = isDegradable(path);
    std::lock_guard<std::mutex> lock(mutex_);

    // An open breaker sheds; after its cooldown allow() admits one
    // half-open probe, whose outcome (observe()) closes or re-opens.
    if (!breakerFor(path).allow(Clock::now()))
        return AdmitDecision::Shed;

    const double pressure = config_.maxInflight == 0
        ? 0.0
        : static_cast<double>(inflight) /
            static_cast<double>(config_.maxInflight);
    // Sorting the window costs microseconds and every model query
    // passes here, most on an io shard: only latency admission
    // needs it.
    const double p99 = config_.shedP99Seconds > 0.0
                           ? p99Locked(Clock::now())
                           : 0.0;
    const bool latency_pressed =
        config_.shedP99Seconds > 0.0 && p99 > config_.shedP99Seconds;
    if (latency_pressed && p99 > 2.0 * config_.shedP99Seconds) {
        // Far past the latency target: shed even cheap work.
        return AdmitDecision::Shed;
    }
    if (expensive && (latency_pressed ||
                      pressure >= kExpensivePressure)) {
        return config_.degradeSweeps && degradable
                   ? AdmitDecision::AdmitDegraded
                   : AdmitDecision::Shed;
    }
    if (expensive && degradable && config_.degradeSweeps &&
        pressure >= config_.degradePressure) {
        return AdmitDecision::AdmitDegraded;
    }
    return AdmitDecision::Admit;
}

void
OverloadController::observe(const std::string &path, double seconds,
                            bool failure)
{
    std::lock_guard<std::mutex> lock(mutex_);
    latencies_[latencyNext_] = {Clock::now(), seconds};
    latencyNext_ = (latencyNext_ + 1) % latencies_.size();
    latencyCount_ = std::min(latencyCount_ + 1, latencies_.size());

    Breaker &breaker = breakerFor(path);
    countEvent(failure ? breaker.recordFailure(Clock::now())
                       : breaker.recordSuccess(Clock::now()));
}

unsigned
OverloadController::retryAfterSeconds() const
{
    return config_.retryAfterSeconds;
}

double
OverloadController::recentP99Seconds() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return p99Locked(Clock::now());
}

bool
OverloadController::breakerOpen(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = breakers_.find(path);
    return it != breakers_.end() &&
           it->second.state() != BreakerState::Closed;
}

} // namespace bwwall
