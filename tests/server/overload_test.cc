/**
 * @file
 * Tests for the request-level admission policy: the route table's
 * cost classes, and admit()'s pressure-based shedding of expensive
 * endpoints.
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

TEST(OverloadTest, PressedBatchesShedEvenWithDegradationOn)
{
    // Batches shed at the expensive-pressure mark like sweeps; no
    // setting turns expensive routes into a degraded admit.
    EXPECT_FALSE(admit(kBatch, 80, 100));
    EXPECT_TRUE(admit(kBatch, 50, 100));
}

TEST(OverloadTest, IdleServerAdmitsEverything)
{
    const unsigned max_inflight = ServerConfig().maxInflight;
    EXPECT_TRUE(admit(kSweep, 0, max_inflight));
    EXPECT_TRUE(admit(kTraffic, 0, max_inflight));
}

TEST(OverloadTest, PressureShedsExpensiveBeforeCheap)
{
    // 80 % pressure is past the expensive mark (75 %) but cheap work
    // and lighter loads still flow.
    EXPECT_FALSE(admit(kSweep, 80, 100));
    EXPECT_TRUE(admit(kTraffic, 80, 100));
    EXPECT_TRUE(admit(kSweep, 50, 100));
}

} // namespace
} // namespace bwwall
