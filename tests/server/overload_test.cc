/**
 * @file
 * Tests for the request-level overload policy: the route table's
 * cost classes, pressure-based degradation and shedding of
 * expensive endpoints, and p99-latency admission (including the
 * everything-sheds threshold and the sample horizon that lets a
 * full shed recover, and no sooner).
 */

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "server/overload.hh"
#include "server/routes.hh"

namespace bwwall {
namespace {

const Route &kSweep = *findRoute("/v1/sweep");
const Route &kBatch = *findRoute("/v1/batch");
const Route &kTraffic = *findRoute("/v1/traffic");

TEST(OverloadTest, SweepAndBatchAreTheExpensiveClass)
{
    EXPECT_EQ(kSweep.cost, RouteCost::Expensive);
    EXPECT_EQ(kBatch.cost, RouteCost::Expensive);
    EXPECT_EQ(kTraffic.cost, RouteCost::Cheap);
    EXPECT_EQ(findRoute("/v1/solve")->cost, RouteCost::Cheap);
}

TEST(OverloadTest, OnlySweepsAreDegradable)
{
    EXPECT_TRUE(kSweep.degradable);
    // Degrading a batch would rewrite its member requests, so the
    // batch endpoint sheds under pressure instead.
    EXPECT_FALSE(kBatch.degradable);
    EXPECT_FALSE(kTraffic.degradable);
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
    EXPECT_EQ(control.admit(kBatch, 80),
              AdmitDecision::Shed);
    EXPECT_EQ(control.admit(kBatch, 50),
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
        control.observe(0.015);
    EXPECT_GT(control.recentP99Seconds(), 0.010);
    EXPECT_EQ(control.admit(kSweep, 0), AdmitDecision::Shed);
    EXPECT_EQ(control.admit(kTraffic, 0), AdmitDecision::Admit);

    // Far past the target: everything sheds.
    for (int i = 0; i < 32; ++i)
        control.observe(0.050);
    EXPECT_EQ(control.admit(kTraffic, 0), AdmitDecision::Shed);
}

TEST(OverloadTest, LatencyShedRecoversAsSamplesAgeOut)
{
    OverloadConfig config;
    config.shedP99Seconds = 0.010;
    config.latencyHorizonSeconds = 0.05;
    OverloadController control(config);
    for (int i = 0; i < 32; ++i)
        control.observe(0.100);
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
    control.observe(0.100);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    // Taken before the newest sample's own stamp, so the shed must
    // last at least a horizon past it.
    const Clock::time_point newest = Clock::now();
    control.observe(0.100);

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
        control.observe(10.0);
    EXPECT_EQ(control.admit(kSweep, 0), AdmitDecision::Admit);
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
