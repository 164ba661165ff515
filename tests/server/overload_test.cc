/**
 * @file
 * Tests for the request-level overload policy: pressure-based
 * degradation and shedding of expensive endpoints, p99-latency
 * admission (including the everything-sheds threshold and the
 * sample horizon that lets a full shed recover, and no sooner), and
 * the per-endpoint breaker lifecycle (open -> half-open probe ->
 * close or re-open).
 */

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "server/overload.hh"
#include "util/metrics.hh"

namespace bwwall {
namespace {

constexpr const char *kSweep = "/v1/sweep";
constexpr const char *kTraffic = "/v1/traffic";

TEST(OverloadTest, SweepAndBatchAreTheExpensiveClass)
{
    EXPECT_TRUE(OverloadController::isExpensive(kSweep));
    EXPECT_TRUE(OverloadController::isExpensive("/v1/batch"));
    EXPECT_FALSE(OverloadController::isExpensive(kTraffic));
    EXPECT_FALSE(OverloadController::isExpensive("/v1/solve"));
}

TEST(OverloadTest, OnlySweepsAreDegradable)
{
    EXPECT_TRUE(OverloadController::isDegradable(kSweep));
    // Degrading a batch would rewrite its member requests, so the
    // batch endpoint sheds under pressure instead.
    EXPECT_FALSE(OverloadController::isDegradable("/v1/batch"));
    EXPECT_FALSE(OverloadController::isDegradable(kTraffic));
}

TEST(OverloadTest, PressedBatchesShedEvenWithDegradationOn)
{
    OverloadConfig config;
    config.maxInflight = 100;
    config.degradeSweeps = true;
    config.degradePressure = 0.5;
    OverloadController control(config);
    // Sweeps degrade under pressure; batches (expensive but not
    // degradable) shed at the expensive-pressure mark instead.
    EXPECT_EQ(control.admit(kSweep, 80),
              AdmitDecision::AdmitDegraded);
    EXPECT_EQ(control.admit("/v1/batch", 80),
              AdmitDecision::Shed);
    EXPECT_EQ(control.admit("/v1/batch", 50),
              AdmitDecision::Admit);
}

TEST(OverloadTest, IdleServerAdmitsEverything)
{
    OverloadController control(OverloadConfig{});
    EXPECT_EQ(control.admit(kSweep, 0), AdmitDecision::Admit);
    EXPECT_EQ(control.admit(kTraffic, 0), AdmitDecision::Admit);
}

TEST(OverloadTest, PressureShedsExpensiveBeforeCheap)
{
    OverloadConfig config;
    config.maxInflight = 100;
    OverloadController control(config);
    // 80 % pressure is past the expensive mark but cheap work and
    // lighter loads still flow.
    EXPECT_EQ(control.admit(kSweep, 80), AdmitDecision::Shed);
    EXPECT_EQ(control.admit(kTraffic, 80), AdmitDecision::Admit);
    EXPECT_EQ(control.admit(kSweep, 50), AdmitDecision::Admit);
}

TEST(OverloadTest, DegradationReplacesPressureShedding)
{
    OverloadConfig config;
    config.maxInflight = 100;
    config.degradeSweeps = true;
    config.degradePressure = 0.5;
    OverloadController control(config);
    EXPECT_EQ(control.admit(kSweep, 80),
              AdmitDecision::AdmitDegraded);
    EXPECT_EQ(control.admit(kSweep, 50),
              AdmitDecision::AdmitDegraded);
    EXPECT_EQ(control.admit(kSweep, 10), AdmitDecision::Admit);
    // Cheap endpoints never degrade.
    EXPECT_EQ(control.admit(kTraffic, 80), AdmitDecision::Admit);
}

TEST(OverloadTest, LatencyPressureShedsExpensiveThenEverything)
{
    OverloadConfig config;
    config.shedP99Seconds = 0.010;
    OverloadController control(config);

    // p99 in (1x, 2x]: expensive sheds, cheap still flows.
    for (int i = 0; i < 32; ++i)
        control.observe(kTraffic, 0.015, false);
    EXPECT_GT(control.recentP99Seconds(), 0.010);
    EXPECT_EQ(control.admit(kSweep, 0), AdmitDecision::Shed);
    EXPECT_EQ(control.admit(kTraffic, 0), AdmitDecision::Admit);

    // Far past the target: everything sheds.
    for (int i = 0; i < 32; ++i)
        control.observe(kTraffic, 0.050, false);
    EXPECT_EQ(control.admit(kTraffic, 0), AdmitDecision::Shed);
}

TEST(OverloadTest, LatencyShedRecoversAsSamplesAgeOut)
{
    OverloadConfig config;
    config.shedP99Seconds = 0.010;
    config.latencyHorizonSeconds = 0.05;
    OverloadController control(config);
    for (int i = 0; i < 32; ++i)
        control.observe(kTraffic, 0.100, false);
    EXPECT_EQ(control.admit(kTraffic, 0), AdmitDecision::Shed);
    // A full shed feeds no new samples; the stale ones must expire
    // or the server would never serve again.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_DOUBLE_EQ(control.recentP99Seconds(), 0.0);
    EXPECT_EQ(control.admit(kTraffic, 0), AdmitDecision::Admit);
}

TEST(OverloadTest, FullShedHoldsUntilTheNewestSlowSampleAges)
{
    // Pins the behaviour behind perf_server --chaos's bistable
    // shed_rate: past twice the target every query sheds, sheds are
    // never observed, so nothing displaces the slow samples and the
    // shed lasts until the newest of them is older than the horizon.
    OverloadConfig config;
    config.shedP99Seconds = 0.010;
    config.latencyHorizonSeconds = 0.2;
    OverloadController control(config);
    using Clock = std::chrono::steady_clock;
    control.observe(kTraffic, 0.100, false);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    // Taken before the newest sample's own stamp, so the shed must
    // last at least a horizon past it.
    const Clock::time_point newest = Clock::now();
    control.observe(kTraffic, 0.100, false);

    std::size_t sheds = 0;
    Clock::time_point admitted{};
    const Clock::time_point give_up = newest + std::chrono::seconds(5);
    while (Clock::now() < give_up) {
        const AdmitDecision decision = control.admit(kTraffic, 0);
        if (decision == AdmitDecision::Admit) {
            admitted = Clock::now(); // no earlier than admit()'s clock
            break;
        }
        ++sheds;
        // A shed leaves the window as it was.
        ASSERT_DOUBLE_EQ(control.recentP99Seconds(), 0.100);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_NE(admitted, Clock::time_point{});
    EXPECT_GT(sheds, 0u);
    // The older sample aged out 100 ms earlier; the shed held on.
    EXPECT_GE(admitted - newest, std::chrono::milliseconds(200));
    // Admission is back and stays back: the window is empty.
    EXPECT_DOUBLE_EQ(control.recentP99Seconds(), 0.0);
    EXPECT_EQ(control.admit(kSweep, 0), AdmitDecision::Admit);
    EXPECT_EQ(control.admit(kTraffic, 0), AdmitDecision::Admit);
}

TEST(OverloadTest, ZeroThresholdDisablesLatencyAdmission)
{
    OverloadController control(OverloadConfig{});
    for (int i = 0; i < 32; ++i)
        control.observe(kTraffic, 10.0, false);
    EXPECT_EQ(control.admit(kSweep, 0), AdmitDecision::Admit);
}

TEST(OverloadTest, BreakerOpensPerEndpointAfterThreshold)
{
    OverloadConfig config;
    config.breakerThreshold = 2;
    config.breakerCooldownSeconds = 60.0;
    MetricsRegistry metrics;
    OverloadController control(config, &metrics);

    control.observe(kSweep, 0.001, true);
    EXPECT_FALSE(control.breakerOpen(kSweep));
    control.observe(kSweep, 0.001, true);
    EXPECT_TRUE(control.breakerOpen(kSweep));
    EXPECT_EQ(metrics.counter("server.breaker_opened"), 1u);

    // The broken endpoint sheds; its neighbour is untouched.
    EXPECT_EQ(control.admit(kSweep, 0), AdmitDecision::Shed);
    EXPECT_EQ(control.admit(kTraffic, 0), AdmitDecision::Admit);
    EXPECT_FALSE(control.breakerOpen(kTraffic));
}

TEST(OverloadTest, SuccessBeforeThresholdResetsTheCount)
{
    OverloadConfig config;
    config.breakerThreshold = 2;
    OverloadController control(config);
    control.observe(kSweep, 0.001, true);
    control.observe(kSweep, 0.001, false);
    control.observe(kSweep, 0.001, true);
    EXPECT_FALSE(control.breakerOpen(kSweep));
}

TEST(OverloadTest, HalfOpenProbeClosesOnSuccess)
{
    OverloadConfig config;
    config.breakerThreshold = 1;
    config.breakerCooldownSeconds = 0.02;
    MetricsRegistry metrics;
    OverloadController control(config, &metrics);

    control.observe(kSweep, 0.001, true);
    ASSERT_TRUE(control.breakerOpen(kSweep));
    EXPECT_EQ(control.admit(kSweep, 0), AdmitDecision::Shed);

    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    // After the cooldown exactly one probe goes through...
    EXPECT_EQ(control.admit(kSweep, 0), AdmitDecision::Admit);
    EXPECT_EQ(control.admit(kSweep, 0), AdmitDecision::Shed);
    // ...and its success closes the breaker for good.
    control.observe(kSweep, 0.001, false);
    EXPECT_FALSE(control.breakerOpen(kSweep));
    EXPECT_EQ(control.admit(kSweep, 0), AdmitDecision::Admit);
    EXPECT_EQ(metrics.counter("server.breaker_closed"), 1u);
}

TEST(OverloadTest, HalfOpenProbeReopensOnFailure)
{
    OverloadConfig config;
    config.breakerThreshold = 1;
    config.breakerCooldownSeconds = 0.02;
    MetricsRegistry metrics;
    OverloadController control(config, &metrics);

    control.observe(kSweep, 0.001, true);
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    EXPECT_EQ(control.admit(kSweep, 0), AdmitDecision::Admit);
    control.observe(kSweep, 0.001, true);
    EXPECT_TRUE(control.breakerOpen(kSweep));
    EXPECT_EQ(metrics.counter("server.breaker_reopened"), 1u);
    // The fresh cooldown sheds again until it elapses.
    EXPECT_EQ(control.admit(kSweep, 0), AdmitDecision::Shed);
}

TEST(OverloadTest, RetryAfterHintComesFromConfig)
{
    OverloadConfig config;
    config.retryAfterSeconds = 7;
    OverloadController control(config);
    EXPECT_EQ(control.retryAfterSeconds(), 7u);
}

} // namespace
} // namespace bwwall
