#include "server/routes.hh"

#include <cstring>

namespace bwwall {

namespace {

/** Inflight fraction beyond which expensive work is pressed. */
constexpr double kExpensivePressure = 0.75;

const Route kRoutes[] = {
    {"/healthz", "GET", true, RouteHandler::Health,
     RouteCost::Control, false, "use GET /healthz"},
    {"/metrics", "GET", false, RouteHandler::Metrics,
     RouteCost::Control, false, "use GET /metrics"},
    {"/v1/trace", "GET", false, RouteHandler::Trace,
     RouteCost::Control, false, "use GET /v1/trace"},
    {"/v1/cluster", "GET", false, RouteHandler::Cluster,
     RouteCost::Control, false, "use GET /v1/cluster"},
    {"/v1/traffic", "POST", false, RouteHandler::ModelQuery,
     RouteCost::Cheap, false, "model queries are POST requests"},
    {"/v1/solve", "POST", false, RouteHandler::ModelQuery,
     RouteCost::Cheap, false, "model queries are POST requests"},
    {"/v1/sweep", "POST", false, RouteHandler::ModelQuery,
     RouteCost::Expensive, false, "model queries are POST requests"},
    {"/v1/batch", "POST", false, RouteHandler::ModelQuery,
     RouteCost::Expensive, false, "model queries are POST requests"},
    {"/v1/trace/ingest", "POST", false, RouteHandler::IngestCreate,
     RouteCost::Control, false,
     "create ingest sessions with POST /v1/trace/ingest"},
    // Appends stream on the shard threads and bypass admission
    // entirely; the Expensive class governs only GET snapshots.
    {"/v1/trace/ingest/{id}", "POST GET DELETE", false,
     RouteHandler::IngestSession, RouteCost::Expensive, true,
     "use POST (append records), GET (snapshot), or DELETE "
     "(finalize) on an ingest session"},
};

/** Offset of the "{id}" placeholder in @p route, or npos. */
std::size_t
patternBrace(const Route &route)
{
    const char *brace = std::strstr(route.path, "{id}");
    return brace == nullptr
               ? std::string::npos
               : static_cast<std::size_t>(brace - route.path);
}

/** True when @p path matches @p route (exact or "{id}" pattern). */
bool
routeMatches(const Route &route, const std::string &path)
{
    const std::size_t brace = patternBrace(route);
    if (brace == std::string::npos)
        return path == route.path;
    // Pattern: literal prefix + one non-empty final segment.
    if (path.size() <= brace ||
        path.compare(0, brace, route.path, 0, brace) != 0)
        return false;
    return path.find('/', brace) == std::string::npos;
}

} // namespace

const Route *
routeTable(std::size_t *count)
{
    *count = sizeof(kRoutes) / sizeof(kRoutes[0]);
    return kRoutes;
}

const Route *
findRoute(const std::string &path)
{
    for (const Route &route : kRoutes) {
        if (routeMatches(route, path))
            return &route;
    }
    return nullptr;
}

bool
routeAllowsMethod(const Route &route, const std::string &method)
{
    if (route.allowHead && method == "HEAD")
        return true;
    // The method field is a space-separated token list.
    const char *cursor = route.method;
    while (*cursor != '\0') {
        const char *end = cursor;
        while (*end != '\0' && *end != ' ')
            ++end;
        if (method.compare(0, std::string::npos, cursor,
                           static_cast<std::size_t>(end - cursor)) ==
            0)
            return true;
        cursor = *end == ' ' ? end + 1 : end;
    }
    return false;
}

std::string
routePathParam(const Route &route, const std::string &path)
{
    const std::size_t brace = patternBrace(route);
    if (brace == std::string::npos || !routeMatches(route, path))
        return std::string();
    return path.substr(brace);
}

bool
admit(const Route &route, unsigned inflight, unsigned maxInflight)
{
    if (route.cost != RouteCost::Expensive || maxInflight == 0)
        return true;
    return static_cast<double>(inflight) /
               static_cast<double>(maxInflight) <
           kExpensivePressure;
}

} // namespace bwwall
