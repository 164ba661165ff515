/**
 * @file
 * A reusable circuit breaker: closed / open / half-open.
 *
 * Guards a repeatedly failing dependency; its one holder is the
 * cluster's peer health (server/cluster.hh), one breaker per peer.
 * The state machine is the classic one:
 *
 *   Closed    every call allowed; consecutive failures count
 *             against the breaker, and reaching the threshold
 *             opens it.
 *   Open      calls denied while the cooldown runs.  The cooldown
 *             is capped-jitter exponential: each re-open stretches
 *             it by cooldownGrowth up to maxCooldownSeconds, with a
 *             deterministic jitter fraction so a fleet of breakers
 *             guarding one dead peer does not probe in lockstep.
 *   HalfOpen  after the cooldown one probe call is allowed; its
 *             success closes the breaker (and resets the cooldown
 *             ladder), its failure re-opens it on the next rung.
 *
 * Callers that do not want probabilistic recovery can drive the
 * breaker externally: trip() forces it open (a failed health
 * probe), reset() forces it closed (a successful one).  Every
 * mutator returns the transition it caused so callers can count
 * opened/reopened/closed events in their own metric namespace.
 *
 * Deliberately not thread-safe: the cluster's peer-health map
 * already serializes access under its own mutex, and time is passed
 * in so tests can drive the lifecycle without sleeping.
 */

#ifndef BWWALL_UTIL_BREAKER_HH
#define BWWALL_UTIL_BREAKER_HH

#include <chrono>
#include <cstdint>

namespace bwwall {

/** Tuning of one Breaker. */
struct BreakerConfig
{
    /** Consecutive failures that open the breaker. */
    unsigned failureThreshold = 5;

    /** Base cooldown before the first half-open probe, seconds. */
    double cooldownSeconds = 1.0;

    /**
     * Cooldown multiplier per re-open, so a flapping dependency is
     * probed less and less often (1.0 = fixed cooldown).
     */
    double cooldownGrowth = 2.0;

    /** Ceiling of the grown cooldown, seconds. */
    double maxCooldownSeconds = 30.0;

    /**
     * Jitter as a fraction of the cooldown, in [0, 1), drawn from a
     * deterministic per-breaker stream (seeded below) so runs are
     * reproducible but breakers do not re-probe in lockstep.
     */
    double jitter = 0.0;

    /** Jitter stream seed. */
    std::uint64_t seed = 1;
};

/** Where the breaker is in its lifecycle. */
enum class BreakerState
{
    Closed,   ///< calls flow; failures are being counted
    Open,     ///< calls denied until the cooldown elapses
    HalfOpen, ///< one probe is in flight; its outcome decides
};

/** The transition (if any) a mutator caused, for callers' metrics. */
enum class BreakerEvent
{
    None,
    Opened,   ///< Closed -> Open
    Reopened, ///< HalfOpen -> Open (a failed probe)
    Closed,   ///< Open/HalfOpen -> Closed
};

/** One circuit breaker.  Not thread-safe; callers lock. */
class Breaker
{
  public:
    using Clock = std::chrono::steady_clock;

    explicit Breaker(BreakerConfig config = BreakerConfig{});

    /**
     * True when a call may proceed now.  In the Open state this is
     * the transition point: once the cooldown has elapsed the
     * breaker moves to HalfOpen and admits exactly one probe;
     * further calls are denied until that probe reports back.
     */
    bool allow(Clock::time_point now);

    /**
     * Records one successful call: clears the consecutive-failure
     * count and closes the breaker from any state (the dependency
     * answered, whatever the breaker believed).
     */
    BreakerEvent recordSuccess(Clock::time_point now);

    /** Records one failed call. */
    BreakerEvent recordFailure(Clock::time_point now);

    /**
     * Forces the breaker open — an out-of-band signal (a failed
     * health probe) established the dependency is down.  Restarts
     * the cooldown when already open.
     */
    BreakerEvent trip(Clock::time_point now);

    /**
     * Forces the breaker closed and clears the failure count — an
     * out-of-band signal established the dependency is healthy.
     */
    BreakerEvent reset(Clock::time_point now);

    BreakerState state() const { return state_; }

    unsigned consecutiveFailures() const
    {
        return consecutiveFailures_;
    }

    /** The cooldown currently in force (grown and jittered). */
    double cooldownSeconds() const { return cooldown_; }

    const BreakerConfig &config() const { return config_; }

  private:
    BreakerEvent openNow(Clock::time_point now,
                         BreakerEvent event);
    double nextCooldown();

    BreakerConfig config_;
    BreakerState state_ = BreakerState::Closed;
    unsigned consecutiveFailures_ = 0;
    /** Re-opens since the last close (the cooldown ladder rung). */
    unsigned reopenCount_ = 0;
    Clock::time_point openedAt_{};
    double cooldown_ = 0.0;
    std::uint64_t jitterState_;
};

/** Human-readable state name ("closed" / "open" / "half_open"). */
const char *breakerStateName(BreakerState state);

} // namespace bwwall

#endif // BWWALL_UTIL_BREAKER_HH
