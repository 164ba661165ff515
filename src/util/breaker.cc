#include "util/breaker.hh"

#include <algorithm>

namespace bwwall {

Breaker::Breaker(BreakerConfig config)
    : config_(config), jitterState_(config.seed | 1)
{
    if (config_.failureThreshold == 0)
        config_.failureThreshold = 1;
}

const char *
breakerStateName(BreakerState state)
{
    switch (state) {
      case BreakerState::Closed:
        return "closed";
      case BreakerState::Open:
        return "open";
      case BreakerState::HalfOpen:
        return "half_open";
    }
    return "unknown";
}

double
Breaker::nextCooldown()
{
    double base = config_.cooldownSeconds;
    for (unsigned i = 0;
         i < reopenCount_ && base < config_.maxCooldownSeconds;
         ++i)
        base *= config_.cooldownGrowth;
    base = std::min(base, config_.maxCooldownSeconds);
    if (config_.jitter > 0.0) {
        jitterState_ = jitterState_ * 6364136223846793005ULL +
                       1442695040888963407ULL;
        const double unit =
            static_cast<double>(jitterState_ >> 11) * 0x1.0p-53;
        base *= 1.0 + config_.jitter * (2.0 * unit - 1.0);
    }
    return base;
}

BreakerEvent
Breaker::openNow(Clock::time_point now, BreakerEvent event)
{
    state_ = BreakerState::Open;
    openedAt_ = now;
    cooldown_ = nextCooldown();
    return event;
}

bool
Breaker::allow(Clock::time_point now)
{
    switch (state_) {
      case BreakerState::Closed:
        return true;
      case BreakerState::Open: {
        const double since =
            std::chrono::duration<double>(now - openedAt_)
                .count();
        if (since < cooldown_)
            return false;
        // Half-open: exactly one probe; its outcome
        // (recordSuccess/recordFailure) closes or re-opens.
        state_ = BreakerState::HalfOpen;
        return true;
      }
      case BreakerState::HalfOpen:
        return false;
    }
    return false;
}

BreakerEvent
Breaker::recordSuccess(Clock::time_point)
{
    consecutiveFailures_ = 0;
    if (state_ == BreakerState::Closed)
        return BreakerEvent::None;
    state_ = BreakerState::Closed;
    reopenCount_ = 0;
    return BreakerEvent::Closed;
}

BreakerEvent
Breaker::recordFailure(Clock::time_point now)
{
    ++consecutiveFailures_;
    switch (state_) {
      case BreakerState::HalfOpen:
        // Failed probe: back to cooling, one rung up the ladder.
        ++reopenCount_;
        return openNow(now, BreakerEvent::Reopened);
      case BreakerState::Closed:
        if (consecutiveFailures_ >= config_.failureThreshold)
            return openNow(now, BreakerEvent::Opened);
        return BreakerEvent::None;
      case BreakerState::Open:
        return BreakerEvent::None;
    }
    return BreakerEvent::None;
}

BreakerEvent
Breaker::trip(Clock::time_point now)
{
    consecutiveFailures_ =
        std::max(consecutiveFailures_, config_.failureThreshold);
    switch (state_) {
      case BreakerState::Closed:
        return openNow(now, BreakerEvent::Opened);
      case BreakerState::HalfOpen:
        ++reopenCount_;
        return openNow(now, BreakerEvent::Reopened);
      case BreakerState::Open:
        // Already down; restart the cooldown so a probe that
        // keeps failing keeps the breaker firmly open.
        openedAt_ = now;
        return BreakerEvent::None;
    }
    return BreakerEvent::None;
}

BreakerEvent
Breaker::reset(Clock::time_point now)
{
    return recordSuccess(now);
}

} // namespace bwwall
