/**
 * @file
 * The epoll reactor under bwwalld: C10k I/O for the model service.
 *
 * The blocking thread-per-connection layer capped bwwalld at one
 * keep-alive connection per worker thread — an idle client pinned a
 * whole worker.  The reactor decouples connections from threads:
 *
 *  - One accept thread blocks in poll()/accept() and deals accepted
 *    sockets (non-blocking, TCP_NODELAY) round-robin to a small
 *    fixed pool of event-loop *shards* (one epoll instance + thread
 *    each, sized to cores).
 *  - Each shard owns its connections outright: non-blocking reads
 *    feed an incremental HttpParser, and the owner's optional
 *    inline hook sees each parsed request first.  The hook may
 *    answer it right there on the shard, with no queue hop and no
 *    thread wake; bwwalld answers every request that needs no
 *    compute and no I/O this way (cache hits, health probes,
 *    metrics scrapes, 4xx errors, sheds).
 *  - Every request the hook declines goes to a compute pool over a
 *    lock-free MPMC queue (an eventfd semaphore carries the
 *    wakeups, one token per item), carrying what the hook already
 *    worked out, and its response comes back through a per-shard
 *    completion queue drained on an eventfd wake.  Both queues hold
 *    pointers to heap-allocated items, so their preallocated cells
 *    are 16 bytes each: only a request that crosses to the pool
 *    pays an allocation each way, and an idle one-shard node's
 *    rings take about 49 KiB.
 *  - Write-back is a per-connection output buffer flushed as far as
 *    the socket allows; EPOLLOUT is armed only while bytes remain,
 *    so a slow reader costs a buffer, not a thread.
 *
 * One request is in flight per connection at a time (EPOLLIN is
 * disarmed while its request computes, and nothing further is
 * parsed from it), which preserves the blocking server's serial
 * per-connection semantics — and therefore its byte-exact response
 * ordering — while tens of thousands of idle keep-alive connections
 * cost only their sockets.  Pipelined requests the shard answers
 * itself are drained in a loop, never by recursion.
 *
 * Admission is two-layered: a connection cap (maxConnections) sheds
 * at accept, and a request cap (maxInflight, counting parsed
 * requests queued or computing, and the one the shard is working
 * on) sheds at parse time, before the inline hook; both answer
 * 503 + Retry-After.  The request-level policy (expensive-first
 * shedding) belongs to the owner, which decides it once per request
 * in the hook.
 *
 * Chaos parity: the fault points fire in the same places as on
 * the blocking server — server.accept after the connection counter,
 * http.read per read-readiness (a peer reset: the connection closes
 * with no response), http.write once per response flush,
 * http.write.short capping each send() at one byte.
 */

#ifndef BWWALL_SERVER_REACTOR_HH
#define BWWALL_SERVER_REACTOR_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "server/http.hh"
#include "util/mpmc_queue.hh"

namespace bwwall {

class MetricsRegistry;

/** The I/O-layer slice of ServerConfig. */
struct ReactorConfig
{
    std::string bindAddress = "127.0.0.1";
    std::uint16_t port = 0;

    /** Event-loop shards; resolved by the caller (>= 1). */
    unsigned ioShards = 1;

    /** Compute-pool threads; resolved by the caller (>= 1). */
    unsigned computeThreads = 1;

    /** Open-connection cap before accept-time 503 (0 = unlimited). */
    unsigned maxConnections = 16384;

    /**
     * Parsed requests in service (queued, computing, or in the
     * inline hook) before parse-time 503 (0 = unlimited).
     */
    unsigned maxInflight = 256;

    /** Connections idle this long answer 408 and close (0 = never). */
    unsigned idleTimeoutMs = 5000;

    std::size_t maxBodyBytes = 1u << 20;
};

/**
 * Receives one streamed request body, chunk by chunk, on the shard
 * thread that owns the connection — a streaming upload therefore
 * never occupies a compute thread between chunks and never counts
 * toward maxInflight.  Contract: if the sink is destroyed before
 * onComplete() was called, the stream was aborted (peer vanished,
 * fault, drain); implementations treat destruction-without-complete
 * as the abort notification.
 */
class HttpStreamSink
{
  public:
    virtual ~HttpStreamSink() = default;

    /**
     * Consumes one decoded body chunk.  Returning false fails the
     * stream: *error is sent and the connection closes (the body
     * framing is out of sync once a chunk is refused).
     */
    virtual bool onData(const char *data, std::size_t count,
                        HttpResponse *error) = 0;

    /** The body completed; produce the response. */
    virtual HttpResponse onComplete() = 0;
};

/**
 * The event-loop core.  The owner supplies the request handler
 * (invoked on a compute thread; must not throw), an optional
 * shard-side hook that may answer a request without the compute
 * pool, and an optional trace predicate deciding which requests
 * record spans.
 */
class HttpReactor
{
  public:
    using Clock = std::chrono::steady_clock;

    /**
     * What the shard-side hook already computed for a request it
     * did not answer (a parsed body, a cache key, an admission
     * decision), handed to the Handler so nothing is done twice.
     * Opaque to the reactor; the owner derives its own type.
     */
    struct Prepared
    {
        Prepared() = default;
        Prepared(const Prepared &) = delete;
        Prepared &operator=(const Prepared &) = delete;
        virtual ~Prepared() = default;
    };

    /**
     * Serves one request.  `received` is when the request finished
     * parsing; `inflight` is the request-level inflight count for
     * overload pressure; `prepared` is what the shard-side hook
     * left for this request, or null.
     */
    using Handler = std::function<HttpResponse(
        const HttpRequest &request, Clock::time_point received,
        unsigned inflight, Prepared *prepared)>;

    /**
     * Runs on the shard thread for each parsed request that passed
     * the maxInflight check, with the same arguments the Handler
     * would get.  Returns true with *response filled to answer the
     * request right there, with no compute-pool hop; returns false
     * to send it to the compute pool, with *prepared (if set)
     * passed on to the Handler.  Must be fast, must not block, and
     * must not throw.
     */
    using InlineFn = std::function<bool(
        const HttpRequest &request, Clock::time_point received,
        unsigned inflight, HttpResponse *response,
        std::unique_ptr<Prepared> *prepared)>;

    using TracePredicate =
        std::function<bool(const HttpRequest &request)>;

    /**
     * Decides from the head whether a request body streams (see
     * HttpParser::StreamPredicate; the server derives this from the
     * route table's streaming flag).
     */
    using StreamPredicate = HttpParser::StreamPredicate;

    /**
     * Opens a sink for a streaming request, or returns nullptr and
     * fills *refusal (e.g. 404 unknown session, 413 budget).  Runs
     * on the shard thread; must be fast and must not block.
     */
    using StreamOpenFn = std::function<std::unique_ptr<HttpStreamSink>(
        const HttpRequest &request, HttpResponse *refusal)>;

    HttpReactor(ReactorConfig config, MetricsRegistry *metrics,
                Handler handler,
                TracePredicate traced = nullptr,
                StreamPredicate streamed = nullptr,
                StreamOpenFn streamOpen = nullptr,
                InlineFn answerInline = nullptr);

    /** Drains and joins if still running. */
    ~HttpReactor();

    HttpReactor(const HttpReactor &) = delete;
    HttpReactor &operator=(const HttpReactor &) = delete;

    /**
     * Binds, listens, and spawns the accept thread, the shards, and
     * the compute pool.  Fatal on unusable bind configuration.
     */
    void start();

    /** The bound port (resolves port 0 after start()). */
    std::uint16_t port() const { return boundPort_; }

    /**
     * Begins a graceful drain: stop accepting, close idle
     * connections immediately, finish queued and computing
     * requests.  Safe to call from any thread, more than once.
     */
    void requestStop();

    /** Blocks until the drain completes and every thread is joined. */
    void join();

    bool
    stopping() const
    {
        return stopping_.load(std::memory_order_acquire);
    }

    /** Parsed requests currently in service (see maxInflight). */
    unsigned
    inflight() const
    {
        return inflight_.load(std::memory_order_relaxed);
    }

  private:
    struct Conn;
    struct Shard;

    /** One parsed request on its way to the compute pool. */
    struct WorkItem
    {
        unsigned shard = 0;
        std::uint64_t connId = 0;
        HttpRequest request;
        Clock::time_point received{};
        bool traced = false;
        std::unique_ptr<Prepared> prepared;
    };

    /** One serialized response on its way back to a shard. */
    struct Completion
    {
        std::uint64_t connId = 0;
        std::string wire;
        bool close = false;
    };

    void acceptLoop();
    void shardLoop(unsigned index);
    void computeLoop();

    void adoptConnections(Shard &shard);
    void handleReadable(Shard &shard, Conn *conn);

    /**
     * Parses buffered bytes into requests, answering inline ones
     * in a loop, until a request goes to the compute pool, the
     * input runs dry, or the connection closes.
     */
    void pumpRequests(Shard &shard, Conn *conn, bool eof);

    /**
     * One step of pumpRequests(): parses and serves or hands off
     * one request (or one stream's buffered body); true when the
     * connection can go straight on to its next request.
     */
    bool pumpRequest(Shard &shard, Conn *conn, bool eof);

    /**
     * Feeds buffered streaming-body bytes into the open sink; true
     * when the stream completed and the connection can parse its
     * next request.
     */
    bool pumpStreamBody(Shard &shard, Conn *conn, bool eof);

    /**
     * Offers a parsed request to the inline hook under its trace
     * scope.  True with *wire and *close set when the shard
     * answered it; false leaves item.prepared for the pool.
     */
    bool answerInline(WorkItem &item, std::string *wire, bool *close);

    /**
     * The response's final close flag and wire bytes, under a
     * "server.serialize" span — the last step of both paths.
     */
    std::string finishResponse(const WorkItem &item,
                               HttpResponse &response, bool *close);

    void processCompletions(Shard &shard);
    void sweepIdle(Shard &shard);

    /**
     * Serializes + enqueues a response (evaluating the http.write
     * fault) and flushes; false when the connection was closed.
     */
    bool respond(Shard &shard, Conn *conn, std::string wire,
                 bool close_after);

    /** Flushes pending output; false when the connection was closed. */
    bool flushOutput(Shard &shard, Conn *conn);

    /**
     * The closing 503 "server at capacity" (counted in server.shed)
     * for a connection or request past a reactor cap, serialized.
     */
    std::string capacityShed();

    /** Counts and answers a closing 400 "malformed HTTP request". */
    void rejectMalformed(Shard &shard, Conn *conn);

    void updateInterest(Shard &shard, Conn *conn);
    void closeConn(Shard &shard, Conn *conn);

    ReactorConfig config_;
    MetricsRegistry *metrics_;
    Handler handler_;
    TracePredicate traced_;
    StreamPredicate streamed_;
    StreamOpenFn streamOpen_;
    InlineFn answerInline_;

    int listenFd_ = -1;
    /** Self-pipe waking the accept poll() on requestStop(). */
    int wakePipe_[2] = {-1, -1};
    std::uint16_t boundPort_ = 0;

    std::vector<std::unique_ptr<Shard>> shards_;
    std::vector<std::thread> computeThreads_;
    std::thread acceptThread_;

    /** Boxed so a ring cell is a pointer, not a whole WorkItem. */
    std::unique_ptr<MpmcQueue<std::unique_ptr<WorkItem>>> computeQueue_;
    /** EFD_SEMAPHORE eventfd: one token per queued item (or stop). */
    int computeSem_ = -1;

    std::atomic<bool> started_{false};
    std::atomic<bool> stopping_{false};
    std::atomic<bool> joined_{false};
    std::atomic<unsigned> connCount_{0};
    std::atomic<unsigned> inflight_{0};
    /** Work items pushed (or being pushed) and not yet popped. */
    std::atomic<std::size_t> queued_{0};
    std::atomic<std::uint64_t> nextConnId_{1};
    std::atomic<unsigned> nextShard_{0};
};

/**
 * Raises RLIMIT_NOFILE's soft limit to its hard limit (tens of
 * thousands of sockets need more than the usual 1024 default) and
 * returns the resulting soft limit.  Used by the reactor at start()
 * and by load generators opening large connection fleets.
 */
unsigned raiseOpenFileLimit();

} // namespace bwwall

#endif // BWWALL_SERVER_REACTOR_HH
