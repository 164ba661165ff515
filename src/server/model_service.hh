/**
 * @file
 * The model-query service: JSON requests in, JSON answers out.
 *
 * This is the bridge between the HTTP layer and the bandwidth-wall
 * library: each POST endpoint's body is parsed into model structures
 * (strictly — unknown keys, wrong types, and out-of-range values are
 * BadRequest, never silently ignored), evaluated through the same
 * entry points the batch binaries use (relativeTraffic,
 * solveSupportableCores, runScalingStudy, figure15Study,
 * estimateMissCurve), and serialized back canonically so responses
 * are byte-identical across runs, processes, and cache hits.
 *
 * Endpoints:
 *  - POST /v1/traffic  relative traffic of one configuration
 *  - POST /v1/solve    supportable core count under a budget
 *  - POST /v1/sweep    scaling study / technique comparison /
 *                      miss-curve estimation
 *  - POST /v1/batch    up to 64 of the above in one body; solve and
 *                      traffic items sharing a (baseline,
 *                      techniques) pair dispatch through the SoA
 *                      batch solver in contiguous buffers, and each
 *                      embedded response body is byte-identical to
 *                      the single-request endpoint's answer
 */

#ifndef BWWALL_SERVER_MODEL_SERVICE_HH
#define BWWALL_SERVER_MODEL_SERVICE_HH

#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>

#include "server/json.hh"
#include "server/result_cache.hh"

namespace bwwall {

/** A client error in the request body; becomes an HTTP 400. */
class BadRequest : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Strict request-field access shared by the model-query and ingest
 * parsers: unknown keys, wrong types, and out-of-range values throw
 * BadRequest, never get silently ignored.
 */
void requireKnownKeys(const JsonValue &object,
                      const std::set<std::string> &known,
                      const std::string &where);

double numberField(const JsonValue &object, const std::string &key,
                   double fallback, double min, double max);

std::uint64_t integerField(const JsonValue &object,
                           const std::string &key,
                           std::uint64_t fallback,
                           std::uint64_t min, std::uint64_t max);

std::string stringField(const JsonValue &object,
                        const std::string &key,
                        const std::string &fallback);

/** True for the cacheable POST model-query paths (/v1/...). */
bool isModelQueryPath(const std::string &path);

/**
 * The result-cache key of a request: the path plus the canonical
 * dump of the parsed body, so key order and whitespace in the
 * client's JSON never cause duplicate cache entries.
 */
std::string canonicalCacheKey(const std::string &path,
                              const JsonValue &request);

/**
 * Evaluates one model query.  Deterministic: equal (path, request)
 * pairs produce byte-identical bodies.  Throws BadRequest for
 * semantic errors in the request and Errored (see util/error.hh)
 * when the model itself fails.
 */
CachedResponse executeModelQuery(const std::string &path,
                                 const JsonValue &request);

} // namespace bwwall

#endif // BWWALL_SERVER_MODEL_SERVICE_HH
