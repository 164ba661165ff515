/**
 * @file
 * Unit tests for the reusable circuit breaker (util/breaker.hh).
 *
 * Time is injected, so every lifecycle is driven by arithmetic on
 * one fake "now" — no sleeps, no flakiness.
 */

#include "util/breaker.hh"

#include <gtest/gtest.h>

#include <chrono>

using namespace bwwall;

namespace {

using Clock = Breaker::Clock;

Clock::time_point
at(double seconds)
{
    return Clock::time_point() +
           std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
}

BreakerConfig
plainConfig()
{
    BreakerConfig config;
    config.failureThreshold = 3;
    config.cooldownSeconds = 1.0;
    config.cooldownGrowth = 1.0;
    config.jitter = 0.0;
    return config;
}

TEST(BreakerTest, StartsClosedAndAllows)
{
    Breaker breaker(plainConfig());
    EXPECT_EQ(breaker.state(), BreakerState::Closed);
    EXPECT_TRUE(breaker.allow(at(0.0)));
}

TEST(BreakerTest, OpensAfterConsecutiveFailures)
{
    Breaker breaker(plainConfig());
    EXPECT_EQ(breaker.recordFailure(at(0.0)),
              BreakerEvent::None);
    EXPECT_EQ(breaker.recordFailure(at(0.1)),
              BreakerEvent::None);
    EXPECT_EQ(breaker.recordFailure(at(0.2)),
              BreakerEvent::Opened);
    EXPECT_EQ(breaker.state(), BreakerState::Open);
    EXPECT_FALSE(breaker.allow(at(0.3)));
}

TEST(BreakerTest, SuccessResetsTheConsecutiveCount)
{
    Breaker breaker(plainConfig());
    breaker.recordFailure(at(0.0));
    breaker.recordFailure(at(0.1));
    EXPECT_EQ(breaker.recordSuccess(at(0.2)),
              BreakerEvent::None);
    breaker.recordFailure(at(0.3));
    breaker.recordFailure(at(0.4));
    EXPECT_EQ(breaker.state(), BreakerState::Closed);
}

TEST(BreakerTest, CooldownAdmitsExactlyOneProbe)
{
    Breaker breaker(plainConfig());
    for (int i = 0; i < 3; ++i)
        breaker.recordFailure(at(0.0));
    EXPECT_FALSE(breaker.allow(at(0.5)));
    // Past the cooldown: one probe, then denial until it reports.
    EXPECT_TRUE(breaker.allow(at(1.5)));
    EXPECT_EQ(breaker.state(), BreakerState::HalfOpen);
    EXPECT_FALSE(breaker.allow(at(1.6)));
}

TEST(BreakerTest, ProbeSuccessClosesProbeFailureReopens)
{
    Breaker breaker(plainConfig());
    for (int i = 0; i < 3; ++i)
        breaker.recordFailure(at(0.0));
    ASSERT_TRUE(breaker.allow(at(1.5)));
    EXPECT_EQ(breaker.recordSuccess(at(1.6)),
              BreakerEvent::Closed);
    EXPECT_EQ(breaker.state(), BreakerState::Closed);

    for (int i = 0; i < 3; ++i)
        breaker.recordFailure(at(2.0));
    ASSERT_TRUE(breaker.allow(at(3.5)));
    EXPECT_EQ(breaker.recordFailure(at(3.6)),
              BreakerEvent::Reopened);
    EXPECT_EQ(breaker.state(), BreakerState::Open);
}

TEST(BreakerTest, CooldownGrowsPerReopenAndCaps)
{
    BreakerConfig config = plainConfig();
    config.cooldownGrowth = 2.0;
    config.maxCooldownSeconds = 3.0;
    Breaker breaker(config);
    for (int i = 0; i < 3; ++i)
        breaker.recordFailure(at(0.0));
    EXPECT_DOUBLE_EQ(breaker.cooldownSeconds(), 1.0);

    double now = 0.0;
    for (const double expected : {2.0, 3.0, 3.0}) {
        now += breaker.cooldownSeconds() + 0.1;
        ASSERT_TRUE(breaker.allow(at(now)));
        breaker.recordFailure(at(now));
        EXPECT_DOUBLE_EQ(breaker.cooldownSeconds(), expected);
    }
}

TEST(BreakerTest, JitterStretchesWithinBoundDeterministically)
{
    BreakerConfig config = plainConfig();
    config.jitter = 0.25;
    config.seed = 42;
    Breaker a(config);
    Breaker b(config);
    for (int i = 0; i < 3; ++i) {
        a.recordFailure(at(0.0));
        b.recordFailure(at(0.0));
    }
    // Jitter is symmetric: the cooldown lands in [0.75, 1.25].
    EXPECT_GE(a.cooldownSeconds(), 0.75);
    EXPECT_LE(a.cooldownSeconds(), 1.25);
    // Same seed, same stream: breakers are reproducible.
    EXPECT_DOUBLE_EQ(a.cooldownSeconds(), b.cooldownSeconds());
}

TEST(BreakerTest, TripForcesOpenAndResetForcesClosed)
{
    Breaker breaker(plainConfig());
    EXPECT_EQ(breaker.trip(at(0.0)), BreakerEvent::Opened);
    EXPECT_EQ(breaker.state(), BreakerState::Open);
    EXPECT_FALSE(breaker.allow(at(0.1)));
    // A second trip restarts the cooldown without re-counting.
    EXPECT_EQ(breaker.trip(at(0.5)), BreakerEvent::None);
    EXPECT_FALSE(breaker.allow(at(1.2)));

    EXPECT_EQ(breaker.reset(at(1.3)), BreakerEvent::Closed);
    EXPECT_EQ(breaker.state(), BreakerState::Closed);
    EXPECT_TRUE(breaker.allow(at(1.4)));
    EXPECT_EQ(breaker.consecutiveFailures(), 0u);
}

TEST(BreakerTest, StateNames)
{
    EXPECT_STREQ(breakerStateName(BreakerState::Closed),
                 "closed");
    EXPECT_STREQ(breakerStateName(BreakerState::Open), "open");
    EXPECT_STREQ(breakerStateName(BreakerState::HalfOpen),
                 "half_open");
}

} // namespace
