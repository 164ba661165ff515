/**
 * @file
 * The declarative route table shared by dispatch and admission.
 *
 * bwwalld's endpoints used to live in an if/else chain in server.cc
 * with the overload policy keeping its own idea of which paths are
 * expensive.  Both now read this one table: each route names its
 * path, the method it accepts, the handler that serves it, a cost
 * class (what admit() sheds first), and whether the endpoint
 * supports degraded (reduced-resolution) service.  Adding an
 * endpoint is one table row; the 405 hint, the admission policy,
 * and the dispatch switch all follow from it.
 */

#ifndef BWWALL_SERVER_ROUTES_HH
#define BWWALL_SERVER_ROUTES_HH

#include <cstddef>
#include <string>

namespace bwwall {

struct ServerConfig;

/** Which server code path serves a route. */
enum class RouteHandler
{
    Health,        ///< GET /healthz liveness probe
    Metrics,       ///< GET /metrics registry dump
    Trace,         ///< GET /v1/trace span export
    Cluster,       ///< GET /v1/cluster membership + shard stats
    ModelQuery,    ///< POST model-query endpoints (cache + overload)
    IngestCreate,  ///< POST /v1/trace/ingest session creation
    IngestSession, ///< per-session append / snapshot / finalize
};

/**
 * Admission cost class.  Control routes bypass admit() entirely,
 * Cheap routes are always admitted (only the reactor's
 * --max-inflight cap sheds them), and Expensive routes give way
 * under pressure.
 */
enum class RouteCost
{
    Control,
    Cheap,
    Expensive,
};

/** One row of the table. */
struct Route
{
    /**
     * Either an exact path or a pattern whose final segment is the
     * literal "{id}" (e.g. "/v1/trace/ingest/{id}"), matching any
     * single non-empty segment there.
     */
    const char *path;

    /** Space-separated accepted methods ("POST", "POST GET DELETE"). */
    const char *method;

    bool allowHead; ///< also accept HEAD (health probes)
    RouteHandler handler;
    RouteCost cost;

    /**
     * Under pressure this route may be admitted at reduced
     * resolution instead of shed (/v1/sweep and ingest snapshots:
     * both have a well-defined cheaper form; batch bodies do not).
     */
    bool degradable;

    /**
     * POST bodies on this route are streamed: the reactor hands the
     * body to a stream sink chunk by chunk instead of buffering it,
     * and the per-request maxBodyBytes limit is replaced by the
     * sink's own byte budget (for ingest appends, the session's
     * --max-session-bytes — enforced with the same 413 taxonomy).
     */
    bool streaming;

    /** The 405 body for a wrong-method request. */
    const char *methodHint;
};

/** The table; terminated by count, not a sentinel. */
const Route *routeTable(std::size_t *count);

/** The route serving @p path, or nullptr (a 404). */
const Route *findRoute(const std::string &path);

/** True when @p method is acceptable for @p route. */
bool routeAllowsMethod(const Route &route,
                       const std::string &method);

/**
 * The concrete text matched by a pattern route's "{id}" segment
 * (empty for exact routes or a non-matching path).
 */
std::string routePathParam(const Route &route,
                           const std::string &path);

/** What to do with one arriving model query or ingest snapshot. */
enum class AdmitDecision
{
    Admit,         ///< serve normally
    AdmitDegraded, ///< serve at reduced resolution (degradable only)
    Shed,          ///< 503 + Retry-After
};

/**
 * The request-level admission policy, a pure function of @p route
 * and the server's @p inflight count against config.maxInflight:
 * Expensive routes shed from 75 % pressure on; with
 * config.degradeSweeps, degradable ones are instead admitted
 * degraded from 75 % or config.degradePressure, whichever is lower.
 * Other routes are always admitted.  No randomness and no shared
 * state, so every decision is reproducible from its arguments.
 */
AdmitDecision admit(const Route &route, unsigned inflight,
                    const ServerConfig &config);

} // namespace bwwall

#endif // BWWALL_SERVER_ROUTES_HH
