/**
 * @file
 * bwwalld: the concurrent model-query server.
 *
 * Architecture: an HttpReactor (server/reactor.hh) owns all I/O —
 * an accept thread deals non-blocking keep-alive sockets to a small
 * pool of epoll event-loop shards, and the shard that parsed a
 * request answers it whenever the answer needs no wait and no I/O:
 * /healthz, /metrics, /v1/cluster, 404s and 405s, sheds, malformed
 * bodies, cache hits, and misses on the Cheap routes (/v1/traffic,
 * /v1/solve) that this node computes itself and no flight holds,
 * which compute in microseconds.  Only Expensive misses (sweeps,
 * batches), joins of an in-flight key, misses another node owns
 * (a peer fill is network I/O), ingest calls, and /v1/trace exports
 * cross a lock-free queue to a compute pool, whose responses come
 * back through a per-shard completion queue — so one daemon holds
 * tens of thousands of concurrent connections instead of one per
 * worker thread, and cheap traffic never leaves its shard.  This
 * layer owns the policy on top: the route table (server/routes.hh)
 * mapping method + path to a handler and a cost class, admission,
 * the model-service handlers, and the result cache.
 *
 * Robustness is first-class:
 *  - admission control: beyond --max-connections open sockets or
 *    --max-inflight parsed requests in flight, new arrivals get an
 *    immediate 503 (with a Retry-After hint) and close;
 *  - selective shedding: admit() (server/routes.hh) sheds expensive
 *    endpoints (/v1/sweep, /v1/batch) and ingest snapshots under
 *    inflight pressure while cheap ones keep serving;
 *  - error taxonomy: handler failures map through bwwall::Error
 *    categories to structured JSON bodies and precise statuses;
 *  - per-request deadline: requests that overrun --deadline-ms
 *    answer 504 (the computed result still lands in the cache, so
 *    a retry is a hit);
 *  - bounded request bodies (413) and header blocks;
 *  - malformed JSON and bad model parameters become structured
 *    400s, never daemon exits;
 *  - graceful drain: requestStop() stops accepting, closes idle
 *    connections, lets queued and in-flight requests finish, then
 *    joins every thread.
 *
 * All answers flow through the sharded single-flight ResultCache,
 * and everything observable lands in a MetricsRegistry served by
 * GET /metrics.
 */

#ifndef BWWALL_SERVER_SERVER_HH
#define BWWALL_SERVER_SERVER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "server/cluster.hh"
#include "server/http.hh"
#include "server/ingest_session.hh"
#include "server/reactor.hh"
#include "server/result_cache.hh"
#include "util/metrics.hh"
#include "util/trace_span.hh"

namespace bwwall {

struct Route;

/** Everything tunable about one bwwalld instance. */
struct ServerConfig
{
    /** Listen address; loopback by default. */
    std::string bindAddress = "127.0.0.1";

    /** TCP port; 0 asks the kernel for an ephemeral port. */
    std::uint16_t port = 0;

    /** Compute-pool threads (0 = BWWALL_JOBS / hardware). */
    unsigned threads = 0;

    /** Event-loop shards (0 = hardware, capped at 8). */
    unsigned ioShards = 0;

    /** Open-connection cap before accept-time 503 (0 = unlimited). */
    unsigned maxConnections = 16384;

    /** Result-cache byte budget. */
    std::size_t cacheBytes = 64u << 20;

    /** Result-cache shards. */
    std::size_t cacheShards = 16;

    /** Per-request deadline in milliseconds (0 = none). */
    unsigned deadlineMs = 10000;

    /** Connections idle this long answer 408 and close (0 = never). */
    unsigned idleTimeoutMs = 5000;

    /** Admission limit: parsed requests queued + computing before 503. */
    unsigned maxInflight = 256;

    /** Largest accepted request body. */
    std::size_t maxBodyBytes = 1u << 20;

    /** Concurrent ingest sessions before create answers 503. */
    std::size_t maxIngestSessions = 64;

    /**
     * Per-ingest-session appended-byte budget; streamed append
     * bodies are exempt from maxBodyBytes and capped by this
     * instead (413; 0 = unlimited).
     */
    std::size_t maxSessionBytes = 64u << 20;

    /** Seconds an idle ingest session lives before being swept. */
    double ingestTtlSeconds = 300.0;

    /** inform() one line per served request. */
    bool logRequests = false;

    /**
     * Own a TraceRecorder and serve GET /v1/trace.  Requests carrying
     * an X-BWWall-Trace header record their lifecycle spans (parse →
     * cache → compute → serialize); everything else stays untraced.
     */
    bool trace = false;

    /** With trace: record every request, opt-in header or not. */
    bool traceAll = false;

    /**
     * Cluster membership (docs/CLUSTER.md): peers + self + the
     * peer-fill budget.  An empty peer list is single-node mode;
     * configureCluster() can also (re)install membership after
     * start, for harnesses whose ports are only known then.
     */
    ClusterConfig cluster;
};

/** The daemon: listen, serve, drain. */
class BwwallServer
{
  public:
    explicit BwwallServer(ServerConfig config);

    /** Drains and joins if still running. */
    ~BwwallServer();

    BwwallServer(const BwwallServer &) = delete;
    BwwallServer &operator=(const BwwallServer &) = delete;

    /**
     * Binds, listens, and spawns the reactor (accept thread, epoll
     * shards, compute pool).  Fatal on unusable bind configuration
     * (that is a user error, not a runtime condition).
     */
    void start();

    /** The bound port (resolves port 0 after start()). */
    std::uint16_t
    port() const
    {
        return reactor_ == nullptr ? 0 : reactor_->port();
    }

    /**
     * Begins a graceful drain: stop accepting, close idle
     * connections, finish queued and in-flight requests.  Safe to
     * call from any thread, more than once.  (Not async-signal-safe:
     * call it from a normal thread after observing a signal flag,
     * not from the handler itself.)
     */
    void requestStop();

    /** Blocks until the drain completes and every thread is joined. */
    void join();

    /** requestStop() + join(). */
    void stop();

    MetricsRegistry &metrics() { return metrics_; }
    ResultCache &cache() { return *cache_; }
    IngestSessionManager &ingest() { return *ingest_; }

    /**
     * Installs (or replaces) cluster membership.  Thread-safe:
     * in-flight requests finish on the snapshot they started with.
     * Throws BadRequest on an unusable configuration.
     */
    void configureCluster(ClusterConfig config);

    /** The live membership snapshot; null in single-node mode. */
    std::shared_ptr<Cluster> clusterSnapshot() const
    {
        std::lock_guard<std::mutex> lock(clusterMutex_);
        return cluster_;
    }

    /** The owned recorder; null unless config.trace. */
    TraceRecorder *traceRecorder() { return recorder_.get(); }

    /** Served requests so far (for tests and the load generator). */
    std::uint64_t requestCount() const
    {
        return requestCount_.load(std::memory_order_relaxed);
    }

  private:
    using Clock = std::chrono::steady_clock;

    struct ModelQuery;

    /**
     * Serves one request the io shard handed over (a model query
     * the shard may not compute: an Expensive one, a held flight,
     * a stale entry, a peer fill; a trace export; or an ingest
     * call) on the compute pool; never throws.
     * @param prepared What answerInline() worked out for a model
     *                 query (null for the other routes).
     */
    HttpResponse dispatch(const HttpRequest &request,
                          Clock::time_point received,
                          unsigned inflight, ModelQuery *prepared);

    /**
     * The io shard's hook (HttpReactor::InlineFn): answers every
     * request whose answer needs no wait and no I/O right there
     * (/healthz, /metrics, /v1/cluster, 404, 405, any model query
     * prepareModelQuery() answers, and an admitted Cheap miss that
     * handleModelQuery() computes on the shard, counted in
     * server.inline_computes); everything else goes to dispatch()
     * on the compute pool, a model query with its prepared state
     * attached.
     */
    bool answerInline(const HttpRequest &request,
                      Clock::time_point received, unsigned inflight,
                      HttpResponse *response,
                      std::unique_ptr<HttpReactor::Prepared> *prepared);

    /**
     * Admits, parses, keys, and probes one model query on its
     * already-matched @p route: the single admit() call, the single
     * parse, and the single cache-key build.  Returns true with
     * *answer set when no compute is needed: a shed, a malformed or
     * non-object body, or a fresh admitted hit (a 504 once past the
     * deadline).
     */
    bool prepareModelQuery(const HttpRequest &request,
                           const Route &route, unsigned inflight,
                           Clock::time_point received,
                           ModelQuery *query, HttpResponse *answer);

    /**
     * Serves a prepared model query through the cache into
     * *response: a peer fill for a key another node owns, else the
     * compute, with the deadline 504 and the error taxonomy.  On the
     * io shard (@p on_shard) it never waits: it returns false with
     * nothing counted when the answer needs a peer fill or a held
     * flight (ResultCache::tryCompute()), and the query goes to the
     * pool instead.
     */
    bool handleModelQuery(const HttpRequest &request,
                          Clock::time_point received, ModelQuery &query,
                          bool on_shard, HttpResponse *response);

    /** The response for a cached answer, with its marker headers. */
    HttpResponse cachedResponse(const CachedResponse &cached,
                                bool peer_filled);

    /** The 504 for an answer that came after the caller's deadline. */
    HttpResponse deadlineExceeded();

    /** A shed's 503 + Retry-After, counted in server.shed. */
    HttpResponse shedResponse();

    /**
     * The bookkeeping every request passes through once, on
     * whichever thread answered it: request and status counters,
     * the endpoint's count and latency, and the --log-requests line.
     */
    void recordRequest(const HttpRequest &request, const Route *route,
                       Clock::time_point received,
                       const HttpResponse &response);

    /** POST /v1/trace/ingest: parse the body, open a session. */
    HttpResponse handleIngestCreate(const HttpRequest &request);

    /** GET (snapshot) / DELETE (finalize) on /v1/trace/ingest/{id}. */
    HttpResponse handleIngestSession(const HttpRequest &request,
                                     const Route &route,
                                     unsigned inflight);

    HttpResponse handleMetrics(const HttpRequest &request) const;

    HttpResponse handleTrace() const;

    /** GET /v1/cluster: membership + per-node peer-fill stats. */
    HttpResponse handleCluster() const;

    /** True when this request opted into (or is forced into) tracing. */
    bool requestTraced(const HttpRequest &request) const;

    ServerConfig config_;
    MetricsRegistry metrics_;
    std::unique_ptr<ResultCache> cache_;
    std::unique_ptr<IngestSessionManager> ingest_;
    std::unique_ptr<TraceRecorder> recorder_;
    std::unique_ptr<HttpReactor> reactor_;

    mutable std::mutex clusterMutex_;
    std::shared_ptr<Cluster> cluster_;

    std::atomic<bool> started_{false};
    std::atomic<bool> drained_{false};
    std::atomic<std::uint64_t> requestCount_{0};
};

} // namespace bwwall

#endif // BWWALL_SERVER_SERVER_HH
