#include "server/overload.hh"

#include <algorithm>
#include <cmath>

#include "server/routes.hh"

namespace bwwall {

namespace {

/** Inflight fraction beyond which expensive work is pressed. */
constexpr double kExpensivePressure = 0.75;

} // namespace

OverloadController::OverloadController(OverloadConfig config)
    : config_(config)
{
    latencies_.resize(
        std::max<std::size_t>(config_.latencyWindow, 1));
}

AdmitDecision
OverloadController::admit(const Route &route, unsigned inflight)
{
    const bool expensive = route.cost == RouteCost::Expensive;
    const double pressure = config_.maxInflight == 0
        ? 0.0
        : static_cast<double>(inflight) /
            static_cast<double>(config_.maxInflight);
    // Sorting the window costs microseconds and every model query
    // passes here, most on an io shard: only latency admission
    // needs it (and the lock).
    const double p99 = config_.shedP99Seconds > 0.0
                           ? recentP99Seconds()
                           : 0.0;
    const bool latency_pressed = p99 > config_.shedP99Seconds;
    if (latency_pressed && p99 > 2.0 * config_.shedP99Seconds) {
        // Far past the latency target: shed even cheap work.
        return AdmitDecision::Shed;
    }
    // A batch body cannot be served at reduced resolution (its items
    // are the client's, verbatim), so only degradable routes trade
    // shedding for degradation.
    if (expensive && (latency_pressed ||
                      pressure >= kExpensivePressure)) {
        return config_.degradeSweeps && route.degradable
                   ? AdmitDecision::AdmitDegraded
                   : AdmitDecision::Shed;
    }
    if (expensive && route.degradable && config_.degradeSweeps &&
        pressure >= config_.degradePressure) {
        return AdmitDecision::AdmitDegraded;
    }
    return AdmitDecision::Admit;
}

void
OverloadController::observe(double seconds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    latencies_[latencyNext_] = {Clock::now(), seconds};
    latencyNext_ = (latencyNext_ + 1) % latencies_.size();
    latencyCount_ = std::min(latencyCount_ + 1, latencies_.size());
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
    const Clock::time_point now = Clock::now();
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

} // namespace bwwall
