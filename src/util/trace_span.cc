#include "util/trace_span.hh"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

#include "util/logging.hh"
#include "util/number_text.hh"

namespace bwwall {

namespace trace_detail {

std::atomic<TraceRecorder *> g_recorder{nullptr};
std::atomic<bool> g_enabled{false};
thread_local bool t_threadEnabled = false;

namespace {

/** Sentinel for "no logical lane pinned yet". */
constexpr std::uint32_t kAutoTid = ~std::uint32_t{0};

/** First lane handed to threads that never pinned one. */
constexpr std::uint32_t kFirstAutoTid = 256;

thread_local std::uint32_t t_tid = kAutoTid;
thread_local std::uint32_t t_depth = 0;

/** Monotonically identifies recorder instances across reuse of the
 * same heap address, so per-thread buffer caches never go stale. */
std::atomic<std::uint64_t> g_recorderSerial{0};

std::uint64_t
steadyNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

std::uint64_t
beginSpan()
{
    ++t_depth;
    TraceRecorder *recorder =
        g_recorder.load(std::memory_order_acquire);
    return recorder == nullptr ? 0 : recorder->nanosSinceEpoch();
}

void
endSpan(const char *name, bool has_arg, std::uint64_t arg,
        std::uint64_t start_ns)
{
    --t_depth;
    TraceRecorder *recorder =
        g_recorder.load(std::memory_order_acquire);
    if (recorder == nullptr)
        return;
    TraceEvent event;
    event.kind = TraceEvent::Kind::Span;
    event.name = name;
    event.depth = t_depth;
    event.hasArg = has_arg;
    event.arg = arg;
    event.startNs = start_ns;
    const std::uint64_t now = recorder->nanosSinceEpoch();
    event.durationNs = now > start_ns ? now - start_ns : 0;
    recorder->append(event);
}

void
recordInstant(const char *name, bool has_arg, std::uint64_t arg)
{
    TraceRecorder *recorder =
        g_recorder.load(std::memory_order_acquire);
    if (recorder == nullptr)
        return;
    TraceEvent event;
    event.kind = TraceEvent::Kind::Instant;
    event.name = name;
    event.depth = t_depth;
    event.hasArg = has_arg;
    event.arg = arg;
    event.startNs = recorder->nanosSinceEpoch();
    recorder->append(event);
}

void
recordCounter(const char *name, double value)
{
    TraceRecorder *recorder =
        g_recorder.load(std::memory_order_acquire);
    if (recorder == nullptr)
        return;
    TraceEvent event;
    event.kind = TraceEvent::Kind::Counter;
    event.name = name;
    event.depth = t_depth;
    event.startNs = recorder->nanosSinceEpoch();
    event.value = value;
    recorder->append(event);
}

} // namespace trace_detail

ScopedThreadTrace::ScopedThreadTrace(bool enable)
    : previous_(trace_detail::t_threadEnabled)
{
    if (enable)
        trace_detail::t_threadEnabled = true;
}

ScopedThreadTrace::~ScopedThreadTrace()
{
    trace_detail::t_threadEnabled = previous_;
}

void
setTraceThreadId(std::uint32_t tid)
{
    trace_detail::t_tid = tid;
}

/**
 * Single-producer bounded event buffer.  Only the owning thread
 * appends; readers snapshot the published prefix.  A slot becomes
 * visible via the release store of count_, after which it is never
 * rewritten (drop-newest on overflow), so snapshots never tear.
 * Storage grows in fixed chunks so an idle thread costs nothing and
 * a deep capacity is never zeroed up front; chunk pointers are
 * stable, and the chunk list itself is the only shared mutable
 * state, guarded by a mutex the producer takes once per chunk.
 */
class TraceRecorder::ThreadBuffer
{
  public:
    ThreadBuffer(std::size_t capacity, std::uint32_t tid)
        : capacity_(capacity), tid_(tid)
    {}

    void
    append(const TraceEvent &event)
    {
        const std::size_t n = count_.load(std::memory_order_relaxed);
        if (n >= capacity_) {
            dropped_.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        const std::size_t offset = n % kChunkEvents;
        if (offset == 0 && n / kChunkEvents == chunks_.size()) {
            auto chunk = std::make_unique<std::vector<TraceEvent>>(
                kChunkEvents);
            std::lock_guard<std::mutex> lock(chunksMutex_);
            chunks_.push_back(std::move(chunk));
        }
        (*chunks_[n / kChunkEvents])[offset] = event;
        count_.store(n + 1, std::memory_order_release);
    }

    void
    snapshotInto(std::vector<TraceEvent> *out) const
    {
        std::lock_guard<std::mutex> lock(chunksMutex_);
        const std::size_t n = count_.load(std::memory_order_acquire);
        out->reserve(out->size() + n);
        for (std::size_t i = 0; i < n; ++i)
            out->push_back(
                (*chunks_[i / kChunkEvents])[i % kChunkEvents]);
    }

    std::uint64_t
    dropped() const
    {
        return dropped_.load(std::memory_order_relaxed);
    }

    void
    reset()
    {
        count_.store(0, std::memory_order_relaxed);
        dropped_.store(0, std::memory_order_relaxed);
    }

    std::uint32_t tid() const { return tid_; }

  private:
    static constexpr std::size_t kChunkEvents = 4096;

    std::size_t capacity_;
    std::uint32_t tid_;
    mutable std::mutex chunksMutex_;
    std::vector<std::unique_ptr<std::vector<TraceEvent>>> chunks_;
    std::atomic<std::size_t> count_{0};
    std::atomic<std::uint64_t> dropped_{0};
};

namespace {

/** Total order making collect() deterministic given equal inputs. */
bool
canonicalLess(const TraceEvent &a, const TraceEvent &b)
{
    if (a.startNs != b.startNs)
        return a.startNs < b.startNs;
    if (a.tid != b.tid)
        return a.tid < b.tid;
    if (a.depth != b.depth)
        return a.depth < b.depth;
    const int name_order = std::strcmp(a.name, b.name);
    if (name_order != 0)
        return name_order < 0;
    if (a.kind != b.kind)
        return static_cast<int>(a.kind) < static_cast<int>(b.kind);
    if (a.arg != b.arg)
        return a.arg < b.arg;
    return a.durationNs > b.durationNs;
}

/** The serial_ member lives here so ThreadBuffer stays header-free. */
thread_local std::uint64_t t_cachedSerial = 0;

std::string
traceThreadName(std::uint32_t tid)
{
    if (tid == 0)
        return "main";
    char buffer[32];
    if (tid < 256)
        std::snprintf(buffer, sizeof(buffer), "worker-%" PRIu32,
                      tid - 1);
    else
        std::snprintf(buffer, sizeof(buffer), "thread-%" PRIu32, tid);
    return buffer;
}

/** Nanoseconds rendered as plain-decimal microseconds ("12.345"). */
std::string
microsText(std::uint64_t ns)
{
    char buffer[40];
    std::snprintf(buffer, sizeof(buffer),
                  "%" PRIu64 ".%03" PRIu64, ns / 1000, ns % 1000);
    return buffer;
}

/** Span names are literals, but escape defensively anyway. */
std::string
jsonStringText(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buffer[8];
                std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buffer;
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

} // namespace

TraceRecorder::TraceRecorder(TraceRecorderConfig config)
    : config_(config),
      epochNs_(trace_detail::steadyNowNs()),
      nextAutoTid_(trace_detail::kFirstAutoTid)
{
    if (config_.bufferCapacity == 0)
        config_.bufferCapacity = 1;
    serial_ = trace_detail::g_recorderSerial.fetch_add(
                  1, std::memory_order_relaxed) +
              1;
}

TraceRecorder::~TraceRecorder()
{
    uninstall();
}

void
TraceRecorder::install(bool enabled)
{
    TraceRecorder *previous =
        trace_detail::g_recorder.exchange(this,
                                          std::memory_order_acq_rel);
    if (previous != nullptr && previous != this)
        warn("TraceRecorder::install replaced an installed recorder");
    trace_detail::g_enabled.store(enabled,
                                  std::memory_order_relaxed);
    if (trace_detail::t_tid == trace_detail::kAutoTid)
        trace_detail::t_tid = 0;
}

void
TraceRecorder::uninstall()
{
    TraceRecorder *expected = this;
    if (trace_detail::g_recorder.compare_exchange_strong(
            expected, nullptr, std::memory_order_acq_rel)) {
        trace_detail::g_enabled.store(false,
                                      std::memory_order_relaxed);
    }
}

void
TraceRecorder::setEnabled(bool enabled)
{
    if (installed())
        trace_detail::g_enabled.store(enabled,
                                      std::memory_order_relaxed);
}

bool
TraceRecorder::installed() const
{
    return trace_detail::g_recorder.load(
               std::memory_order_relaxed) == this;
}

std::uint64_t
TraceRecorder::nanosSinceEpoch() const
{
    const std::uint64_t now = trace_detail::steadyNowNs();
    return now > epochNs_ ? now - epochNs_ : 0;
}

void
TraceRecorder::append(TraceEvent event)
{
    static thread_local ThreadBuffer *cached_buffer = nullptr;
    if (t_cachedSerial != serial_ || cached_buffer == nullptr) {
        cached_buffer = registerThreadBuffer();
        t_cachedSerial = serial_;
    }
    event.tid = cached_buffer->tid();
    cached_buffer->append(event);
}

TraceRecorder::ThreadBuffer *
TraceRecorder::registerThreadBuffer()
{
    if (trace_detail::t_tid == trace_detail::kAutoTid) {
        trace_detail::t_tid =
            nextAutoTid_.fetch_add(1, std::memory_order_relaxed);
    }
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<ThreadBuffer>(
        config_.bufferCapacity, trace_detail::t_tid));
    return buffers_.back().get();
}

std::vector<TraceEvent>
TraceRecorder::collect() const
{
    std::vector<TraceEvent> events;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &buffer : buffers_)
            buffer->snapshotInto(&events);
    }
    std::sort(events.begin(), events.end(), canonicalLess);
    return events;
}

std::uint64_t
TraceRecorder::droppedEvents() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t total = 0;
    for (const auto &buffer : buffers_)
        total += buffer->dropped();
    return total;
}

std::size_t
TraceRecorder::threadBufferCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return buffers_.size();
}

void
TraceRecorder::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &buffer : buffers_)
        buffer->reset();
}

std::string
TraceRecorder::chromeTraceJson() const
{
    const std::vector<TraceEvent> events = collect();

    std::vector<std::uint32_t> tids;
    for (const TraceEvent &event : events)
        tids.push_back(event.tid);
    std::sort(tids.begin(), tids.end());
    tids.erase(std::unique(tids.begin(), tids.end()), tids.end());

    // Keys inside every event object are emitted in sorted order so
    // the output is byte-identical to a canonical JsonValue dump.
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const std::uint32_t tid : tids) {
        if (!first)
            out += ',';
        first = false;
        out += "{\"args\":{\"name\":";
        out += jsonStringText(traceThreadName(tid));
        out += "},\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
               "\"tid\":";
        out += std::to_string(tid);
        out += '}';
    }
    for (const TraceEvent &event : events) {
        if (!first)
            out += ',';
        first = false;
        out += '{';
        switch (event.kind) {
          case TraceEvent::Kind::Span:
            if (event.hasArg) {
                out += "\"args\":{\"arg\":";
                out += std::to_string(event.arg);
                out += "},";
            }
            out += "\"cat\":\"bwwall\",\"dur\":";
            out += microsText(event.durationNs);
            out += ",\"name\":";
            out += jsonStringText(event.name);
            out += ",\"ph\":\"X\",\"pid\":1,\"tid\":";
            out += std::to_string(event.tid);
            out += ",\"ts\":";
            out += microsText(event.startNs);
            break;
          case TraceEvent::Kind::Instant:
            if (event.hasArg) {
                out += "\"args\":{\"arg\":";
                out += std::to_string(event.arg);
                out += "},";
            }
            out += "\"cat\":\"bwwall\",\"name\":";
            out += jsonStringText(event.name);
            out += ",\"ph\":\"i\",\"pid\":1,\"s\":\"t\",\"tid\":";
            out += std::to_string(event.tid);
            out += ",\"ts\":";
            out += microsText(event.startNs);
            break;
          case TraceEvent::Kind::Counter:
            out += "\"args\":{\"value\":";
            appendDoubleText(out, event.value, "0");
            out += "},\"cat\":\"bwwall\",\"name\":";
            out += jsonStringText(event.name);
            out += ",\"ph\":\"C\",\"pid\":1,\"tid\":";
            out += std::to_string(event.tid);
            out += ",\"ts\":";
            out += microsText(event.startNs);
            break;
        }
        out += '}';
    }
    out += "]}";
    return out;
}

void
TraceRecorder::writeChromeTrace(std::ostream &os) const
{
    os << chromeTraceJson() << '\n';
}

void
TraceRecorder::writeChromeTraceFile(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot write trace file '", path, "'");
    writeChromeTrace(out);
    out.flush();
    if (!out)
        fatal("failed writing trace file '", path, "'");
}

std::string
TraceRecorder::selfTimeSummary(std::size_t top_n) const
{
    const std::vector<TraceEvent> events = collect();

    struct NameTotals
    {
        std::uint64_t count = 0;
        std::uint64_t inclusiveNs = 0;
        std::uint64_t exclusiveNs = 0;
    };
    std::map<std::string, NameTotals> totals;

    struct OpenSpan
    {
        std::uint64_t endNs;
        std::uint64_t childNs;
        const TraceEvent *event;
    };

    // collect() orders by start time then lane then depth, so within
    // one lane a parent precedes its children; a per-lane stack of
    // open spans attributes each child's time to its direct parent.
    std::map<std::uint32_t, std::vector<OpenSpan>> stacks;
    const auto close_top = [&totals](std::vector<OpenSpan> *stack) {
        const OpenSpan top = stack->back();
        stack->pop_back();
        const std::uint64_t inclusive = top.event->durationNs;
        const std::uint64_t child =
            std::min(top.childNs, inclusive);
        NameTotals &row = totals[top.event->name];
        ++row.count;
        row.inclusiveNs += inclusive;
        row.exclusiveNs += inclusive - child;
        if (!stack->empty())
            stack->back().childNs += inclusive;
    };

    for (const TraceEvent &event : events) {
        if (event.kind != TraceEvent::Kind::Span)
            continue;
        std::vector<OpenSpan> &stack = stacks[event.tid];
        while (!stack.empty() &&
               stack.back().endNs <= event.startNs) {
            close_top(&stack);
        }
        stack.push_back(
            {event.startNs + event.durationNs, 0, &event});
    }
    for (auto &[tid, stack] : stacks) {
        (void)tid;
        while (!stack.empty())
            close_top(&stack);
    }

    std::vector<std::pair<std::string, NameTotals>> rows(
        totals.begin(), totals.end());
    std::sort(rows.begin(), rows.end(),
              [](const auto &a, const auto &b) {
                  if (a.second.exclusiveNs != b.second.exclusiveNs)
                      return a.second.exclusiveNs >
                             b.second.exclusiveNs;
                  return a.first < b.first;
              });
    if (rows.size() > top_n)
        rows.resize(top_n);

    std::uint64_t total_exclusive = 0;
    for (const auto &[name, row] : totals) {
        (void)name;
        total_exclusive += row.exclusiveNs;
    }

    std::ostringstream os;
    char line[160];
    std::snprintf(line, sizeof(line), "%-32s %10s %12s %12s %7s\n",
                  "span", "count", "self ms", "total ms", "self%");
    os << line;
    for (const auto &[name, row] : rows) {
        const double self_ms =
            static_cast<double>(row.exclusiveNs) / 1e6;
        const double total_ms =
            static_cast<double>(row.inclusiveNs) / 1e6;
        const double share =
            total_exclusive == 0
                ? 0.0
                : 100.0 * static_cast<double>(row.exclusiveNs) /
                      static_cast<double>(total_exclusive);
        std::snprintf(line, sizeof(line),
                      "%-32s %10" PRIu64 " %12.3f %12.3f %6.1f%%\n",
                      name.c_str(), row.count, self_ms, total_ms,
                      share);
        os << line;
    }
    return os.str();
}

ScopedTraceFile::ScopedTraceFile(std::string path,
                                 TraceRecorderConfig config)
    : path_(std::move(path))
{
    if (path_.empty())
        return;
    recorder_ = std::make_unique<TraceRecorder>(config);
    recorder_->install(true);
}

ScopedTraceFile::~ScopedTraceFile()
{
    if (!recorder_)
        return;
    recorder_->uninstall();
    const std::uint64_t dropped = recorder_->droppedEvents();
    if (dropped > 0) {
        warn("trace: ", dropped, " event(s) dropped; raise "
             "TraceRecorderConfig::bufferCapacity");
    }
    recorder_->writeChromeTraceFile(path_);
    inform("trace: wrote ", recorder_->collect().size(),
           " event(s) to ", path_);
}

} // namespace bwwall
