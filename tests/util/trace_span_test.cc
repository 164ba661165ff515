/**
 * @file
 * Unit tests for the span tracer: RAII nesting, per-thread buffers
 * and lane merging, drop-newest overflow, the per-thread opt-in used
 * by bwwalld, Chrome trace export (validated with the server's
 * strict JSON parser), and determinism across --jobs counts.
 *
 * Every test installs its own TraceRecorder and uninstalls it before
 * returning, so tests compose in any order within the binary.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "server/json.hh"
#include "util/thread_pool.hh"
#include "util/trace_span.hh"

namespace bwwall {
namespace {

/** Events of one kind, in collect() order. */
std::vector<TraceEvent>
eventsOfKind(const TraceRecorder &recorder, TraceEvent::Kind kind)
{
    std::vector<TraceEvent> out;
    for (const TraceEvent &event : recorder.collect()) {
        if (event.kind == kind)
            out.push_back(event);
    }
    return out;
}

TEST(TraceSpanTest, InactiveWithoutRecorder)
{
    ASSERT_FALSE(tracingActive());
    {
        Span span("orphan");
        traceInstant("orphan.instant");
        traceCounter("orphan.counter", 1.0);
    }
    // Nothing crashed and a later recorder starts empty.
    TraceRecorder recorder;
    recorder.install();
    EXPECT_TRUE(tracingActive());
    recorder.uninstall();
    EXPECT_TRUE(recorder.collect().empty());
    EXPECT_FALSE(tracingActive());
}

TEST(TraceSpanTest, RecordsNestedSpansWithDepthAndContainment)
{
    TraceRecorder recorder;
    recorder.install();
    {
        Span outer("outer");
        {
            Span middle("middle", 7);
            Span inner("inner");
        }
        Span sibling("sibling");
    }
    recorder.uninstall();

    const std::vector<TraceEvent> events = recorder.collect();
    ASSERT_EQ(events.size(), 4u);

    std::map<std::string, TraceEvent> byName;
    for (const TraceEvent &event : events) {
        EXPECT_EQ(event.kind, TraceEvent::Kind::Span);
        byName[event.name] = event;
    }
    ASSERT_EQ(byName.size(), 4u);

    EXPECT_EQ(byName["outer"].depth, 0u);
    EXPECT_EQ(byName["middle"].depth, 1u);
    EXPECT_EQ(byName["inner"].depth, 2u);
    EXPECT_EQ(byName["sibling"].depth, 1u);

    EXPECT_FALSE(byName["outer"].hasArg);
    EXPECT_TRUE(byName["middle"].hasArg);
    EXPECT_EQ(byName["middle"].arg, 7u);

    // Children nest strictly inside their parent's interval.
    const auto end = [](const TraceEvent &event) {
        return event.startNs + event.durationNs;
    };
    EXPECT_LE(byName["outer"].startNs, byName["middle"].startNs);
    EXPECT_LE(end(byName["middle"]), end(byName["outer"]));
    EXPECT_LE(byName["middle"].startNs, byName["inner"].startNs);
    EXPECT_LE(end(byName["inner"]), end(byName["middle"]));
    EXPECT_LE(end(byName["middle"]), byName["sibling"].startNs);

    // collect() orders by start time: outer first, inner third.
    EXPECT_STREQ(events[0].name, "outer");
    EXPECT_STREQ(events[1].name, "middle");
    EXPECT_STREQ(events[2].name, "inner");
    EXPECT_STREQ(events[3].name, "sibling");
}

TEST(TraceSpanTest, InstantAndCounterEvents)
{
    TraceRecorder recorder;
    recorder.install();
    traceInstant("marker");
    traceInstant("indexed.marker", 42);
    traceCounter("queue.depth", 3.5);
    recorder.uninstall();

    const std::vector<TraceEvent> instants =
        eventsOfKind(recorder, TraceEvent::Kind::Instant);
    ASSERT_EQ(instants.size(), 2u);
    EXPECT_STREQ(instants[0].name, "marker");
    EXPECT_TRUE(instants[1].hasArg);
    EXPECT_EQ(instants[1].arg, 42u);

    const std::vector<TraceEvent> counters =
        eventsOfKind(recorder, TraceEvent::Kind::Counter);
    ASSERT_EQ(counters.size(), 1u);
    EXPECT_STREQ(counters[0].name, "queue.depth");
    EXPECT_DOUBLE_EQ(counters[0].value, 3.5);
}

TEST(TraceSpanTest, OverflowDropsNewestAndCounts)
{
    TraceRecorderConfig config;
    config.bufferCapacity = 4;
    TraceRecorder recorder(config);
    recorder.install();
    for (std::uint64_t i = 0; i < 10; ++i)
        Span span("overflow", i);
    recorder.uninstall();

    const std::vector<TraceEvent> events = recorder.collect();
    ASSERT_EQ(events.size(), 4u);
    // Drop-newest keeps the earliest spans.
    for (std::uint64_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(events[i].arg, i);
    EXPECT_EQ(recorder.droppedEvents(), 6u);

    recorder.clear();
    EXPECT_TRUE(recorder.collect().empty());
    EXPECT_EQ(recorder.droppedEvents(), 0u);
}

TEST(TraceSpanTest, SetEnabledGatesRecording)
{
    TraceRecorder recorder;
    recorder.install(false); // standby: installed but not armed
    EXPECT_TRUE(recorder.installed());
    EXPECT_FALSE(tracingActive());
    { Span span("standby"); }

    recorder.setEnabled(true);
    EXPECT_TRUE(tracingActive());
    { Span span("armed"); }

    recorder.setEnabled(false);
    { Span span("disarmed"); }
    recorder.uninstall();

    const std::vector<TraceEvent> events = recorder.collect();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_STREQ(events[0].name, "armed");
}

TEST(TraceSpanTest, RenamedSpanRecordsItsFinalName)
{
    TraceRecorder recorder;
    recorder.install();
    {
        Span outer("first");
        { Span inner("inner"); }
        outer.rename("second");
    }
    recorder.uninstall();

    const std::vector<TraceEvent> events = recorder.collect();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_STREQ(events[0].name, "second");
    EXPECT_EQ(events[0].depth, 0u);
    EXPECT_STREQ(events[1].name, "inner");
}

TEST(TraceSpanTest, ScopedThreadTraceArmsOnlyThisThread)
{
    TraceRecorder recorder;
    recorder.install(false); // bwwalld's standby mode

    {
        const ScopedThreadTrace opt_in(true);
        EXPECT_TRUE(tracingActive());
        Span span("opted.in");
    }
    EXPECT_FALSE(tracingActive());
    { Span span("after.scope"); }

    // A scope constructed with enable=false changes nothing.
    {
        const ScopedThreadTrace opt_out(false);
        EXPECT_FALSE(tracingActive());
        Span span("not.opted");
    }

    // Another thread without the scope records nothing.
    std::thread bystander([] {
        Span span("bystander");
        EXPECT_FALSE(tracingActive());
    });
    bystander.join();

    recorder.uninstall();
    const std::vector<TraceEvent> events = recorder.collect();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_STREQ(events[0].name, "opted.in");
}

TEST(TraceSpanTest, MergesEventsAcrossPoolThreads)
{
    TraceRecorder recorder;
    recorder.install();
    parallelFor(32, 4, [](std::size_t i) {
        Span span("merge.task", i);
    });
    recorder.uninstall();

    // Every index appears exactly once; parallel_for.task wraps each
    // body (the pool's own instrumentation), so 64 spans total.
    std::multiset<std::uint64_t> seen;
    std::set<std::uint32_t> lanes;
    for (const TraceEvent &event : recorder.collect()) {
        if (std::string(event.name) == "merge.task") {
            seen.insert(event.arg);
            lanes.insert(event.tid);
        }
    }
    ASSERT_EQ(seen.size(), 32u);
    for (std::uint64_t i = 0; i < 32; ++i)
        EXPECT_EQ(seen.count(i), 1u) << "index " << i;
    // Pool workers get deterministic lanes 1..4.
    for (const std::uint32_t lane : lanes)
        EXPECT_TRUE(lane >= 1 && lane <= 4) << "lane " << lane;
    EXPECT_GE(recorder.threadBufferCount(), lanes.size());
}

TEST(TraceSpanTest, SameSpanMultisetAtAnyJobsCount)
{
    const auto run = [](unsigned jobs) {
        TraceRecorder recorder;
        recorder.install();
        parallelFor(16, jobs, [](std::size_t i) {
            Span span("determinism.task", i);
            if (i % 4 == 0)
                traceInstant("determinism.mark", i);
        });
        recorder.uninstall();
        std::multiset<std::pair<std::string, std::uint64_t>> names;
        for (const TraceEvent &event : recorder.collect())
            names.insert({event.name, event.arg});
        return names;
    };
    const auto serial = run(1);
    EXPECT_EQ(run(2), serial);
    EXPECT_EQ(run(4), serial);
}

TEST(TraceSpanTest, SelfTimeSummaryRanksExclusiveTime)
{
    TraceRecorder recorder;
    recorder.install();
    {
        Span outer("summary.outer");
        for (int i = 0; i < 3; ++i)
            Span inner("summary.inner", static_cast<std::uint64_t>(i));
    }
    recorder.uninstall();

    const std::string summary = recorder.selfTimeSummary(10);
    EXPECT_NE(summary.find("summary.outer"), std::string::npos);
    EXPECT_NE(summary.find("summary.inner"), std::string::npos);
    EXPECT_NE(summary.find("self"), std::string::npos);

    // Requesting fewer rows trims the table.
    const std::string top_one = recorder.selfTimeSummary(1);
    const bool has_outer =
        top_one.find("summary.outer") != std::string::npos;
    const bool has_inner =
        top_one.find("summary.inner") != std::string::npos;
    EXPECT_NE(has_outer, has_inner);
}

TEST(ChromeTraceTest, ExportIsStrictParserCleanAndComplete)
{
    TraceRecorder recorder;
    recorder.install();
    {
        Span outer("chrome.outer");
        Span inner("chrome.inner", 3);
        traceInstant("chrome.instant");
        traceCounter("chrome.counter", 2.0);
    }
    recorder.uninstall();

    const std::string json = recorder.chromeTraceJson();
    JsonValue root;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(json, &root, &error)) << error;
    ASSERT_TRUE(root.isObject());

    const JsonValue *unit = root.find("displayTimeUnit");
    ASSERT_NE(unit, nullptr);
    EXPECT_EQ(unit->asString(), "ms");

    const JsonValue *events = root.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

    std::multiset<std::string> phases;
    std::set<std::string> names;
    for (const JsonValue &event : events->items()) {
        ASSERT_TRUE(event.isObject());
        const JsonValue *ph = event.find("ph");
        ASSERT_NE(ph, nullptr);
        phases.insert(ph->asString());
        const JsonValue *pid = event.find("pid");
        ASSERT_NE(pid, nullptr);
        EXPECT_EQ(pid->asNumber(), 1.0);
        const JsonValue *name = event.find("name");
        if (ph->asString() == "M") {
            // Thread-name metadata events label the lanes.
            ASSERT_NE(name, nullptr);
            EXPECT_EQ(name->asString(), "thread_name");
        } else {
            ASSERT_NE(name, nullptr);
            names.insert(name->asString());
            ASSERT_NE(event.find("ts"), nullptr);
        }
        if (ph->asString() == "X") {
            const JsonValue *dur = event.find("dur");
            ASSERT_NE(dur, nullptr);
            EXPECT_GE(dur->asNumber(), 0.0);
        }
    }
    EXPECT_EQ(phases.count("M"), 1u); // one lane -> one metadata row
    EXPECT_EQ(phases.count("X"), 2u);
    EXPECT_EQ(phases.count("i"), 1u);
    EXPECT_EQ(phases.count("C"), 1u);
    EXPECT_EQ(names.count("chrome.outer"), 1u);
    EXPECT_EQ(names.count("chrome.inner"), 1u);

    // The span arg rides in args.arg.
    bool found_arg = false;
    for (const JsonValue &event : events->items()) {
        const JsonValue *name = event.find("name");
        if (name == nullptr || name->asString() != "chrome.inner")
            continue;
        const JsonValue *args = event.find("args");
        ASSERT_NE(args, nullptr);
        const JsonValue *arg = args->find("arg");
        ASSERT_NE(arg, nullptr);
        EXPECT_EQ(arg->asNumber(), 3.0);
        found_arg = true;
    }
    EXPECT_TRUE(found_arg);
}

TEST(ChromeTraceTest, ExportIsCanonical)
{
    TraceRecorder recorder;
    recorder.install();
    parallelFor(8, 2, [](std::size_t i) {
        Span span("canonical.task", i);
    });
    recorder.uninstall();

    // Two exports of the same recorder are byte-identical: events
    // come out in canonical order with sorted keys, regardless of
    // which thread buffer they landed in.
    const std::string first = recorder.chromeTraceJson();
    const std::string second = recorder.chromeTraceJson();
    EXPECT_EQ(first, second);

    // And the canonical text is strict-parser clean.
    JsonValue root;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(first, &root, &error)) << error;
}

TEST(ScopedTraceFileTest, EmptyPathIsNoOp)
{
    ScopedTraceFile session("");
    EXPECT_EQ(session.recorder(), nullptr);
    EXPECT_FALSE(tracingActive());
}

TEST(ScopedTraceFileTest, WritesTraceOnDestruction)
{
    const std::string path =
        ::testing::TempDir() + "trace_span_test_session.json";
    {
        ScopedTraceFile session(path);
        ASSERT_NE(session.recorder(), nullptr);
        EXPECT_TRUE(tracingActive());
        Span span("session.span");
    }
    EXPECT_FALSE(tracingActive());

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buffer;
    buffer << in.rdbuf();
    JsonValue root;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(buffer.str(), &root, &error))
        << error;
    EXPECT_NE(buffer.str().find("session.span"), std::string::npos);
    std::remove(path.c_str());
}

} // namespace
} // namespace bwwall
