/**
 * @file
 * Streaming trace-ingestion sessions: live miss curves as a service.
 *
 * A client creates a session (POST /v1/trace/ingest with the
 * estimator configuration), streams access records into it in as
 * many appends as it likes (POST /v1/trace/ingest/{id}, binary BWTR
 * or text format, chunked or Content-Length framed), reads the live
 * curve and fitted alpha at any point (GET), and finalizes when done
 * (DELETE).  Appends run entirely on the reactor's shard threads
 * through the HttpStreamSink interface — they never occupy a compute
 * thread and never count toward --max-inflight, so ingestion is
 * shed-resistant by construction while snapshots stay subject to
 * normal overload admission.
 *
 * Resource bounds, all enforced here:
 *  - session count: creates beyond --max-sessions answer 503;
 *  - per-session bytes: appends that would exceed
 *    --max-session-bytes answer 413 and fail the session (the body
 *    framing is unrecoverable mid-stream);
 *  - idle lifetime: sessions untouched for --ingest-ttl-seconds are
 *    swept (lazily, on the next manager operation).
 *
 * Session state machine: Open -> (append | snapshot)* -> Finalized
 * (DELETE; snapshots still served) -> swept by TTL.  A decode error,
 * budget overflow, injected fault, or client abort mid-append moves
 * the session to Failed: appends then answer 409, snapshots still
 * report the last consistent curve.  Unknown ids answer 404.
 *
 * Chaos points: ingest.append (fails an append chunk with 500) and
 * ingest.snapshot (fails a snapshot with 500).
 */

#ifndef BWWALL_SERVER_INGEST_SESSION_HH
#define BWWALL_SERVER_INGEST_SESSION_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "server/http.hh"
#include "server/json.hh"
#include "server/reactor.hh"
#include "trace/streaming_estimator.hh"
#include "trace/trace_io.hh"

namespace bwwall {

class MetricsRegistry;

/** The ingestion slice of ServerConfig. */
struct IngestConfig
{
    /** Concurrent (live) sessions before create answers 503. */
    std::size_t maxSessions = 64;

    /** Per-session appended-byte budget before 413 (0 = unlimited). */
    std::size_t maxSessionBytes = 64u << 20;

    /** Idle seconds before a session is swept (0 = never). */
    double ttlSeconds = 300.0;
};

/**
 * Owns every live ingest session.  Thread-safe: creates, appends
 * (shard threads), snapshots and finalizes (compute threads) may all
 * run concurrently; the manager lock covers only map operations and
 * each session carries its own lock.
 */
class IngestSessionManager
{
  public:
    IngestSessionManager(IngestConfig config,
                         MetricsRegistry *metrics);

    ~IngestSessionManager();

    IngestSessionManager(const IngestSessionManager &) = delete;
    IngestSessionManager &
    operator=(const IngestSessionManager &) = delete;

    /**
     * POST /v1/trace/ingest: parses the estimator configuration out
     * of @p request (strict: unknown keys are 400) and opens a
     * session.  503 when maxSessions are live.
     */
    HttpResponse create(const JsonValue &request);

    /**
     * Opens the streaming sink for one append (the reactor's
     * StreamOpenFn).  Returns nullptr and fills *refusal on 404
     * (unknown id), 409 (finalized / failed / concurrent append).
     * Runs on a shard thread; only takes the map and session locks.
     */
    std::unique_ptr<HttpStreamSink>
    openAppend(const std::string &id, HttpResponse *refusal);

    /**
     * GET /v1/trace/ingest/{id}: the live curve, fit, and advisor
     * verdict.  @p degraded serves a reduced-resolution curve
     * (every other grid point, no advisor solve); the server always
     * asks for the full curve and sheds a pressed snapshot instead.
     */
    HttpResponse snapshot(const std::string &id, bool degraded);

    /**
     * DELETE /v1/trace/ingest/{id}: flushes the decoder, marks the
     * session Finalized, and returns the final snapshot.  The
     * session stays readable until the TTL sweeps it; 409 on a
     * second DELETE.
     */
    HttpResponse finalize(const std::string &id);

    /** Live sessions right now (post-sweep; tests and metrics). */
    std::size_t activeSessions();

  private:
    struct Session;
    class AppendSink;

    using Clock = std::chrono::steady_clock;

    /** Drops sessions idle past the TTL; callers hold no locks. */
    void sweepExpired();

    std::shared_ptr<Session> find(const std::string &id);

    void publishActiveGauge(std::size_t count);

    IngestConfig config_;
    MetricsRegistry *metrics_;

    std::mutex mutex_;
    std::map<std::string, std::shared_ptr<Session>> sessions_;
    std::uint64_t nextId_ = 1;
};

} // namespace bwwall

#endif // BWWALL_SERVER_INGEST_SESSION_HH
