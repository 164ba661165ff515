/**
 * @file
 * Tests for the request-level admission policy: the route table's
 * cost classes, and admit()'s pressure-based degradation and
 * shedding of expensive endpoints.
 */

#include <gtest/gtest.h>

#include "server/routes.hh"
#include "server/server.hh"

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
    ServerConfig config;
    config.maxInflight = 100;
    config.degradeSweeps = true;
    config.degradePressure = 0.5;
    // Sweeps degrade under pressure; batches (expensive but not
    // degradable) shed at the expensive-pressure mark instead.
    EXPECT_EQ(admit(kSweep, 80, config),
              AdmitDecision::AdmitDegraded);
    EXPECT_EQ(admit(kBatch, 80, config), AdmitDecision::Shed);
    EXPECT_EQ(admit(kBatch, 50, config), AdmitDecision::Admit);
}

TEST(OverloadTest, IdleServerAdmitsEverything)
{
    const ServerConfig config;
    EXPECT_EQ(admit(kSweep, 0, config), AdmitDecision::Admit);
    EXPECT_EQ(admit(kTraffic, 0, config), AdmitDecision::Admit);
}

TEST(OverloadTest, PressureShedsExpensiveBeforeCheap)
{
    ServerConfig config;
    config.maxInflight = 100;
    // 80 % pressure is past the expensive mark but cheap work and
    // lighter loads still flow.
    EXPECT_EQ(admit(kSweep, 80, config), AdmitDecision::Shed);
    EXPECT_EQ(admit(kTraffic, 80, config), AdmitDecision::Admit);
    EXPECT_EQ(admit(kSweep, 50, config), AdmitDecision::Admit);
}

TEST(OverloadTest, DegradationReplacesPressureShedding)
{
    ServerConfig config;
    config.maxInflight = 100;
    config.degradeSweeps = true;
    config.degradePressure = 0.5;
    EXPECT_EQ(admit(kSweep, 80, config),
              AdmitDecision::AdmitDegraded);
    EXPECT_EQ(admit(kSweep, 50, config),
              AdmitDecision::AdmitDegraded);
    EXPECT_EQ(admit(kSweep, 10, config), AdmitDecision::Admit);
    // Cheap endpoints never degrade.
    EXPECT_EQ(admit(kTraffic, 80, config), AdmitDecision::Admit);
}

} // namespace
} // namespace bwwall
