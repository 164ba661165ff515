/**
 * @file
 * The declarative route table shared by dispatch and admission.
 *
 * bwwalld's endpoints used to live in an if/else chain in server.cc
 * with the overload policy keeping its own idea of which paths are
 * expensive.  Both now read this one table: each route names its
 * path, the method it accepts, the handler that serves it, and a
 * cost class (what admit() sheds first).  Adding an endpoint is one
 * table row; the 405 hint, the admission policy, and the dispatch
 * switch all follow from it.
 */

#ifndef BWWALL_SERVER_ROUTES_HH
#define BWWALL_SERVER_ROUTES_HH

#include <cstddef>
#include <string>

namespace bwwall {

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

/**
 * The request-level admission policy for one arriving model query
 * or ingest snapshot, a pure function of @p route and the server's
 * @p inflight count against @p maxInflight (0 = no cap): false (shed
 * with 503 + Retry-After) for an Expensive route from 75 % pressure
 * on, true otherwise.  No randomness and no shared state, so every
 * decision is reproducible from its arguments.
 */
bool admit(const Route &route, unsigned inflight, unsigned maxInflight);

} // namespace bwwall

#endif // BWWALL_SERVER_ROUTES_HH
