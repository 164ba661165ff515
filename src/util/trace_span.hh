/**
 * @file
 * Low-overhead thread-aware span tracing with Chrome trace export.
 *
 * The sweep drivers, the miss-curve engine, and bwwalld all funnel
 * through a handful of hot loops; MetricsRegistry says how much total
 * time they took, this tracer says *where* it went.  A Span is an
 * RAII scope: construction stamps a start time, destruction appends a
 * completed event — name, thread lane, nesting depth, duration — to a
 * per-thread bounded buffer owned by the installed TraceRecorder.
 * Buffers are single-producer (the owning thread) and drop-newest on
 * overflow, so recording never blocks, never allocates on the hot
 * path after warm-up, and never loses the events that frame a run.
 *
 * The recorder exports two views: Chrome `trace_event` JSON (load the
 * file in chrome://tracing or https://ui.perfetto.dev) and a text
 * self-time summary ranking spans by *exclusive* time — the signal
 * that turns "the sweep took 3 s" into "readout is the bottleneck".
 *
 * Cost model: with no recorder installed, Span construction is one
 * relaxed atomic load and a branch (see bench/perf_trace_overhead.cc;
 * CI gates the disabled overhead at < 2 % of a full figure-15 study).
 * Tracing is armed per-process via TraceRecorder::install() and can
 * additionally be scoped to one thread (ScopedThreadTrace) so bwwalld
 * can trace a single opted-in request without paying for the rest.
 *
 * Determinism: span names are string literals and args are stable
 * task indices, thread lanes are logical ids (main = 0, pool worker
 * i = i + 1 via setTraceThreadId), and collect() orders events
 * canonically — so two runs of the same workload differ only in the
 * recorded wall times, at any --jobs count.
 */

#ifndef BWWALL_UTIL_TRACE_SPAN_HH
#define BWWALL_UTIL_TRACE_SPAN_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace bwwall {

class TraceRecorder;

namespace trace_detail {

/** The process-wide recorder; null when tracing is torn down. */
extern std::atomic<TraceRecorder *> g_recorder;

/** Process-wide arm switch, owned by the installed recorder. */
extern std::atomic<bool> g_enabled;

/** Per-thread arm switch (bwwalld's per-request opt-in). */
extern thread_local bool t_threadEnabled;

/** Stamps a span start: returns ns since the recorder epoch. */
std::uint64_t beginSpan();

/** Completes a span started by beginSpan() and records it. */
void endSpan(const char *name, bool has_arg, std::uint64_t arg,
             std::uint64_t start_ns);

void recordInstant(const char *name, bool has_arg, std::uint64_t arg);
void recordCounter(const char *name, double value);

} // namespace trace_detail

/**
 * True when a recorder is installed *and* armed for this thread —
 * the inlined guard every recording call sites checks first.
 */
inline bool
tracingActive()
{
    if (trace_detail::g_recorder.load(std::memory_order_relaxed) ==
        nullptr) {
        return false;
    }
    return trace_detail::g_enabled.load(std::memory_order_relaxed) ||
           trace_detail::t_threadEnabled;
}

/**
 * Pins the calling thread's logical trace lane.  The main thread is
 * lane 0 (claimed by TraceRecorder::install()), ThreadPool workers
 * are lanes 1..N in worker order, and threads that never call this
 * get automatic lanes from 256 up.  Call before recording any event
 * on the thread; later calls only affect future recorders.
 */
void setTraceThreadId(std::uint32_t tid);

/** One recorded event, in recorder-epoch-relative nanoseconds. */
struct TraceEvent
{
    enum class Kind : std::uint8_t
    {
        Span,    ///< closed interval with a duration
        Instant, ///< point-in-time marker
        Counter, ///< sampled value series
    };

    Kind kind = Kind::Span;
    /** Static-storage name (call sites pass string literals). */
    const char *name = "";
    std::uint32_t tid = 0;   ///< logical lane, see setTraceThreadId()
    std::uint32_t depth = 0; ///< nesting depth, outermost span = 0
    bool hasArg = false;
    std::uint64_t arg = 0;   ///< task/shard/point index when hasArg
    std::uint64_t startNs = 0;
    std::uint64_t durationNs = 0; ///< spans only
    double value = 0.0;           ///< counters only
};

/** Sizing knobs for a TraceRecorder. */
struct TraceRecorderConfig
{
    /**
     * Events retained per thread; appends beyond this are counted in
     * droppedEvents() and discarded (drop-newest), keeping the
     * earliest — structurally outermost — spans of a run.
     */
    std::size_t bufferCapacity = std::size_t{1} << 16;
};

/**
 * Owns the per-thread event buffers and the export paths.
 *
 * Lifecycle: construct, install() (arms the process-wide fast path),
 * run the workload, then collect()/chromeTraceJson()/
 * selfTimeSummary() any number of times, then uninstall() (or let the
 * destructor do it).  collect() and clear() may race with recording
 * threads only in the trivial sense: a concurrently-appended event is
 * either fully visible or not yet visible, never torn.  Destroying
 * the recorder while other threads still record is a data race —
 * uninstall() first and quiesce them, exactly like joining a thread.
 */
class TraceRecorder
{
  public:
    explicit TraceRecorder(TraceRecorderConfig config = {});
    ~TraceRecorder();

    TraceRecorder(const TraceRecorder &) = delete;
    TraceRecorder &operator=(const TraceRecorder &) = delete;

    /**
     * Makes this the process-wide recorder and claims lane 0 for the
     * calling thread if it has no lane yet.  @p enabled arms tracing
     * for every thread; pass false for standby mode, where only
     * threads inside a ScopedThreadTrace record (bwwalld's
     * per-request opt-in).  Replaces (with a warning) any previously
     * installed recorder.
     */
    void install(bool enabled = true);

    /** Detaches from the process-wide slot if currently installed. */
    void uninstall();

    /** Flips the process-wide arm switch (only while installed). */
    void setEnabled(bool enabled);

    bool installed() const;

    /**
     * All events recorded so far, canonically ordered: by start time,
     * then lane, then depth, then name.  Safe to call while threads
     * are still recording; late events simply miss the snapshot.
     */
    std::vector<TraceEvent> collect() const;

    /** Events discarded because a thread buffer filled up. */
    std::uint64_t droppedEvents() const;

    /** Number of per-thread buffers registered so far. */
    std::size_t threadBufferCount() const;

    /**
     * Discards all recorded events and the dropped counter.  Call
     * only while recording threads are quiescent (between batches):
     * a clear concurrent with an append may resurrect stale events.
     */
    void clear();

    /**
     * The trace as Chrome `trace_event` JSON — an object with
     * displayTimeUnit and a traceEvents array of thread-name
     * metadata, complete ("X"), instant ("i"), and counter ("C")
     * events, canonically ordered and strict-parser clean.  Load in
     * chrome://tracing or https://ui.perfetto.dev.
     */
    std::string chromeTraceJson() const;

    /** Writes chromeTraceJson() plus a trailing newline. */
    void writeChromeTrace(std::ostream &os) const;

    /** Writes the Chrome trace to @p path; fatal() when it cannot. */
    void writeChromeTraceFile(const std::string &path) const;

    /**
     * Text table of the top @p top_n span names by *exclusive* time
     * (total minus time inside child spans), with call counts and
     * inclusive totals — the profile view of the trace.
     */
    std::string selfTimeSummary(std::size_t top_n = 10) const;

  private:
    friend std::uint64_t trace_detail::beginSpan();
    friend void trace_detail::endSpan(const char *, bool,
                                      std::uint64_t, std::uint64_t);
    friend void trace_detail::recordInstant(const char *, bool,
                                            std::uint64_t);
    friend void trace_detail::recordCounter(const char *, double);

    class ThreadBuffer;

    /** Ns elapsed since this recorder's construction. */
    std::uint64_t nanosSinceEpoch() const;

    /** Appends to the calling thread's buffer, registering it once. */
    void append(TraceEvent event);

    ThreadBuffer *registerThreadBuffer();

    TraceRecorderConfig config_;
    std::uint64_t epochNs_;
    /** Process-unique instance id; keys per-thread buffer caches. */
    std::uint64_t serial_ = 0;
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
    std::atomic<std::uint32_t> nextAutoTid_;
};

/**
 * RAII span.  Construction is nearly free when tracing is off; when
 * on, the destructor records one complete event covering the scope.
 * Pass a string literal name; the optional arg labels the task/shard
 * index so parallel lanes stay tellable apart in the viewer.
 */
class Span
{
  public:
    explicit Span(const char *name) : Span(name, false, 0) {}

    Span(const char *name, std::uint64_t arg) : Span(name, true, arg)
    {}

    ~Span()
    {
        if (active_)
            trace_detail::endSpan(name_, hasArg_, arg_, startNs_);
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /**
     * Names the event this span records when it closes, for a scope
     * whose role is only known at its end.  Pass a string literal.
     */
    void rename(const char *name) { name_ = name; }

  private:
    Span(const char *name, bool has_arg, std::uint64_t arg)
        : name_(name), arg_(arg), hasArg_(has_arg)
    {
        if (tracingActive()) {
            startNs_ = trace_detail::beginSpan();
            active_ = true;
        }
    }

    const char *name_;
    std::uint64_t startNs_ = 0;
    std::uint64_t arg_;
    bool hasArg_;
    bool active_ = false;
};

/** Records a point-in-time marker (e.g. a cache hit). */
inline void
traceInstant(const char *name)
{
    if (tracingActive())
        trace_detail::recordInstant(name, false, 0);
}

/** Records a point-in-time marker with an index argument. */
inline void
traceInstant(const char *name, std::uint64_t arg)
{
    if (tracingActive())
        trace_detail::recordInstant(name, true, arg);
}

/** Records a sample of a named counter series. */
inline void
traceCounter(const char *name, double value)
{
    if (tracingActive())
        trace_detail::recordCounter(name, value);
}

/**
 * Arms tracing for the current thread for the enclosing scope —
 * bwwalld wraps each X-BWWall-Trace request in one of these so the
 * standby recorder captures exactly that request's spans.
 */
class ScopedThreadTrace
{
  public:
    // Defined beside t_threadEnabled, out of line: inlined elsewhere,
    // the linker's relaxation of the thread-local access turns the
    // flag-setting add that UBSan's null check reads into a lea, and
    // UBSan reports a store to a null pointer that is not there.
    explicit ScopedThreadTrace(bool enable = true);
    ~ScopedThreadTrace();

    ScopedThreadTrace(const ScopedThreadTrace &) = delete;
    ScopedThreadTrace &operator=(const ScopedThreadTrace &) = delete;

  private:
    bool previous_;
};

/**
 * Process-level trace session: installs a recorder on construction
 * and, on destruction, uninstalls it and writes the Chrome trace to
 * @p path (plus an informational log line).  An empty path makes the
 * whole object a no-op — which is how --trace-out wires through
 * BenchOptions without conditional code at every call site.
 */
class ScopedTraceFile
{
  public:
    explicit ScopedTraceFile(std::string path,
                             TraceRecorderConfig config = {});
    ~ScopedTraceFile();

    ScopedTraceFile(const ScopedTraceFile &) = delete;
    ScopedTraceFile &operator=(const ScopedTraceFile &) = delete;

    /** The owned recorder; null when constructed with "". */
    TraceRecorder *recorder() { return recorder_.get(); }

  private:
    std::string path_;
    std::unique_ptr<TraceRecorder> recorder_;
};

} // namespace bwwall

#endif // BWWALL_UTIL_TRACE_SPAN_HH
