/**
 * @file
 * Admission control and degradation policy.
 *
 * bwwalld's reactor already sheds whole connections past
 * --max-connections and parsed requests past --max-inflight; this
 * controller adds the request-level layer that makes shedding
 * *selective*: endpoints the route table (server/routes.hh) marks
 * Expensive (/v1/sweep, /v1/batch) give way before cheap ones
 * (/v1/traffic) under inflight pressure, and a sliding-window p99
 * latency threshold sheds before queues grow unbounded.  Every shed
 * is a 503 with a Retry-After hint; with degradation enabled,
 * routes the table marks degradable (/v1/sweep) are admitted under
 * pressure at reduced resolution instead of shed (the server marks
 * them X-BWWall-Degraded).
 *
 * Decisions are deterministic functions of the inflight count and
 * the observed latencies — no randomness — so a test can drive
 * every decision with a scripted sequence.
 */

#ifndef BWWALL_SERVER_OVERLOAD_HH
#define BWWALL_SERVER_OVERLOAD_HH

#include <chrono>
#include <cstddef>
#include <mutex>
#include <vector>

namespace bwwall {

struct Route;

/** Tuning of the request-level overload policy. */
struct OverloadConfig
{
    /** Mirrors ServerConfig::maxInflight (the 100 % pressure mark). */
    unsigned maxInflight = 256;

    /**
     * Shed expensive endpoints once the recent p99 latency exceeds
     * this many seconds (0 disables latency-based admission);
     * everything sheds beyond twice this threshold.
     */
    double shedP99Seconds = 0.0;

    /** Completions in the sliding latency window. */
    std::size_t latencyWindow = 128;

    /**
     * Latency samples older than this many seconds stop counting
     * toward the p99, so a full latency shed (which starves the
     * window of new samples) clears itself instead of sticking
     * forever.
     */
    double latencyHorizonSeconds = 1.0;

    /** The Retry-After hint attached to every shed response. */
    unsigned retryAfterSeconds = 1;

    /** Admit expensive work degraded (not shed) when pressed. */
    bool degradeSweeps = false;

    /**
     * Inflight fraction of maxInflight beyond which admitted sweeps
     * are degraded (with degradeSweeps; 0 degrades every sweep).
     */
    double degradePressure = 0.5;
};

/** What to do with one arriving model query. */
enum class AdmitDecision
{
    Admit,         ///< serve normally
    AdmitDegraded, ///< serve at reduced resolution (sweeps only)
    Shed,          ///< 503 + Retry-After
};

/**
 * The server consults admit() before dispatching each model query
 * and reports every served request's latency through observe();
 * both are cheap relative to any model computation, and admit()
 * takes the lock only when latency admission is on.
 */
class OverloadController
{
  public:
    explicit OverloadController(OverloadConfig config);

    /**
     * Decides one arriving request on @p route (its cost class and
     * degradability) given the server's current inflight count.
     */
    AdmitDecision admit(const Route &route, unsigned inflight);

    /** Records one served request's latency in the p99 window. */
    void observe(double seconds);

    /** The Retry-After value for shed responses, in seconds. */
    unsigned retryAfterSeconds() const;

    /** The p99 over the sliding window (0 until it has samples). */
    double recentP99Seconds() const;

  private:
    using Clock = std::chrono::steady_clock;

    struct Sample
    {
        Clock::time_point when{};
        double seconds = 0.0;
    };

    OverloadConfig config_;
    mutable std::mutex mutex_;
    /** Ring buffer of recent request latencies. */
    std::vector<Sample> latencies_;
    std::size_t latencyNext_ = 0;
    std::size_t latencyCount_ = 0;
};

} // namespace bwwall

#endif // BWWALL_SERVER_OVERLOAD_HH
