#include "server/model_service.hh"

#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "cache/miss_curve_estimator.hh"
#include "model/assumptions.hh"
#include "model/bandwidth_wall.hh"
#include "model/batch_solver.hh"
#include "model/scaling_study.hh"
#include "server/http.hh"
#include "trace/profiles.hh"
#include "util/error.hh"
#include "util/units.hh"

namespace bwwall {

// ---------------------------------------------------------------
// Strict request-field access (shared with server/ingest_session.cc).

void
requireKnownKeys(const JsonValue &object,
                 const std::set<std::string> &known,
                 const std::string &where)
{
    if (!object.isObject())
        throw BadRequest(where + " must be a JSON object");
    for (const auto &[key, value] : object.members()) {
        if (known.count(key) == 0)
            throw BadRequest("unknown key '" + key + "' in " +
                             where);
    }
}

double
numberField(const JsonValue &object, const std::string &key,
            double fallback, double min, double max)
{
    const JsonValue *value = object.find(key);
    if (value == nullptr)
        return fallback;
    if (!value->isNumber())
        throw BadRequest("'" + key + "' must be a number");
    const double parsed = value->asNumber();
    if (!(parsed >= min && parsed <= max))
        throw BadRequest("'" + key + "' out of range [" +
                         jsonNumberText(min) + ", " +
                         jsonNumberText(max) + "]");
    return parsed;
}

std::uint64_t
integerField(const JsonValue &object, const std::string &key,
             std::uint64_t fallback, std::uint64_t min,
             std::uint64_t max)
{
    const double parsed = numberField(
        object, key, static_cast<double>(fallback),
        static_cast<double>(min), static_cast<double>(max));
    if (parsed != std::floor(parsed))
        throw BadRequest("'" + key + "' must be an integer");
    return static_cast<std::uint64_t>(parsed);
}

std::string
stringField(const JsonValue &object, const std::string &key,
            const std::string &fallback)
{
    const JsonValue *value = object.find(key);
    if (value == nullptr)
        return fallback;
    if (!value->isString())
        throw BadRequest("'" + key + "' must be a string");
    return value->asString();
}

namespace {

bool
boolField(const JsonValue &object, const std::string &key,
          bool fallback)
{
    const JsonValue *value = object.find(key);
    if (value == nullptr)
        return fallback;
    if (!value->isBool())
        throw BadRequest("'" + key + "' must be a boolean");
    return value->asBool();
}

// ---------------------------------------------------------------
// Model-structure parsing.

Assumption
parseAssumption(const std::string &name)
{
    if (name == "pessimistic")
        return Assumption::Pessimistic;
    if (name == "realistic")
        return Assumption::Realistic;
    if (name == "optimistic")
        return Assumption::Optimistic;
    throw BadRequest("unknown assumption '" + name +
                     "'; expected pessimistic | realistic | "
                     "optimistic");
}

Technique
parseTechnique(const JsonValue &item)
{
    if (!item.isObject())
        throw BadRequest("each technique must be a JSON object");
    if (item.find("label") != nullptr) {
        requireKnownKeys(item, {"label", "assumption"},
                         "technique");
        const std::string label = stringField(item, "label", "");
        const Assumption assumption = parseAssumption(
            stringField(item, "assumption", "realistic"));
        for (const TechniqueAssumption &row : table2Assumptions()) {
            if (row.label == label)
                return row.make(assumption);
        }
        throw BadRequest("unknown technique label '" + label + "'");
    }

    const std::string type = stringField(item, "type", "");
    if (type.empty())
        throw BadRequest(
            "technique needs either a Table 2 'label' or a 'type'");
    if (type == "cache_compression") {
        requireKnownKeys(item, {"type", "ratio"}, "technique");
        return cacheCompression(
            numberField(item, "ratio", 2.0, 1.0, 64.0));
    }
    if (type == "dram_cache") {
        requireKnownKeys(item, {"type", "density"}, "technique");
        return dramCache(
            numberField(item, "density", 8.0, 1.0, 128.0));
    }
    if (type == "stacked_cache") {
        requireKnownKeys(item, {"type", "density", "layers"},
                         "technique");
        return stackedCache(
            numberField(item, "density", 1.0, 1.0, 128.0),
            numberField(item, "layers", 1.0, 0.0, 8.0));
    }
    if (type == "unused_data_filter") {
        requireKnownKeys(item, {"type", "unused_fraction"},
                         "technique");
        return unusedDataFilter(
            numberField(item, "unused_fraction", 0.4, 0.0, 1.0));
    }
    if (type == "smaller_cores") {
        requireKnownKeys(item, {"type", "area_fraction"},
                         "technique");
        return smallerCores(
            numberField(item, "area_fraction", 0.5, 0.01, 1.0));
    }
    if (type == "link_compression") {
        requireKnownKeys(item, {"type", "ratio"}, "technique");
        return linkCompression(
            numberField(item, "ratio", 2.0, 1.0, 64.0));
    }
    if (type == "sectored_cache") {
        requireKnownKeys(item, {"type", "unused_fraction"},
                         "technique");
        return sectoredCache(
            numberField(item, "unused_fraction", 0.4, 0.0, 1.0));
    }
    if (type == "small_cache_lines") {
        requireKnownKeys(item, {"type", "unused_fraction"},
                         "technique");
        return smallCacheLines(
            numberField(item, "unused_fraction", 0.4, 0.0, 1.0));
    }
    if (type == "cache_link_compression") {
        requireKnownKeys(item, {"type", "ratio"}, "technique");
        return cacheLinkCompression(
            numberField(item, "ratio", 2.0, 1.0, 64.0));
    }
    if (type == "data_sharing") {
        requireKnownKeys(item,
                         {"type", "shared_fraction", "pooled"},
                         "technique");
        const double fraction =
            numberField(item, "shared_fraction", 0.5, 0.0, 1.0);
        return boolField(item, "pooled", true)
                   ? dataSharing(fraction)
                   : dataSharingPrivateCaches(fraction);
    }
    throw BadRequest("unknown technique type '" + type + "'");
}

std::vector<Technique>
parseTechniques(const JsonValue &request)
{
    std::vector<Technique> techniques;
    const JsonValue *list = request.find("techniques");
    if (list == nullptr)
        return techniques;
    if (!list->isArray())
        throw BadRequest("'techniques' must be an array");
    if (list->items().size() > 16)
        throw BadRequest("at most 16 techniques per request");
    for (const JsonValue &item : list->items())
        techniques.push_back(parseTechnique(item));
    return techniques;
}

CmpConfig
parseBaseline(const JsonValue &request)
{
    const JsonValue *baseline = request.find("baseline");
    if (baseline == nullptr)
        return niagara2Baseline();
    requireKnownKeys(*baseline, {"total_ceas", "core_ceas"},
                     "'baseline'");
    CmpConfig config;
    config.totalCeas =
        numberField(*baseline, "total_ceas", 16.0, 0.25, 65536.0);
    config.coreCeas = numberField(*baseline, "core_ceas", 8.0,
                                  0.0625, config.totalCeas);
    return config;
}

/** The shared scenario keys of /v1/traffic and /v1/solve. */
const std::set<std::string> kScenarioKeys = {
    "baseline", "alpha", "total_ceas", "traffic_budget",
    "techniques",
};

ScalingScenario
parseScenario(const JsonValue &request)
{
    ScalingScenario scenario;
    scenario.baseline = parseBaseline(request);
    scenario.alpha =
        numberField(request, "alpha", 0.5, 0.01, 2.0);
    scenario.totalCeas =
        numberField(request, "total_ceas", 32.0, 1.0, 1.0e6);
    scenario.trafficBudget =
        numberField(request, "traffic_budget", 1.0, 0.01, 1000.0);
    scenario.techniques = parseTechniques(request);
    return scenario;
}

// ---------------------------------------------------------------
// Response building.

JsonValue
baselineJson(const CmpConfig &config)
{
    JsonValue value = JsonValue::makeObject();
    value.set("total_ceas", JsonValue(config.totalCeas));
    value.set("core_ceas", JsonValue(config.coreCeas));
    return value;
}

JsonValue
generationsJson(const std::vector<GenerationResult> &results)
{
    JsonValue list = JsonValue::makeArray();
    for (const GenerationResult &result : results) {
        JsonValue row = JsonValue::makeObject();
        row.set("scale", JsonValue(result.scale));
        row.set("total_ceas", JsonValue(result.totalCeas));
        row.set("cores",
                JsonValue(static_cast<double>(result.cores)));
        row.set("core_area_fraction",
                JsonValue(result.coreAreaFraction));
        list.append(std::move(row));
    }
    return list;
}

CachedResponse
jsonResponse(const JsonValue &payload)
{
    CachedResponse response;
    response.body = payload.dump();
    response.body += '\n';
    return response;
}

// ---------------------------------------------------------------
// Endpoint handlers.

/**
 * The /v1/traffic payload for one evaluated point — shared by the
 * single-request handler and /v1/batch so the two are
 * byte-identical for identical inputs.
 */
JsonValue
trafficResultPayload(const ScalingScenario &scenario, double cores,
                     double traffic)
{
    JsonValue payload = JsonValue::makeObject();
    payload.set("cores", JsonValue(cores));
    payload.set("alpha", JsonValue(scenario.alpha));
    payload.set("total_ceas", JsonValue(scenario.totalCeas));
    payload.set("baseline", baselineJson(scenario.baseline));
    payload.set("relative_traffic",
                std::isfinite(traffic) ? JsonValue(traffic)
                                       : JsonValue());
    payload.set("feasible", JsonValue(std::isfinite(traffic)));
    payload.set("within_budget",
                JsonValue(std::isfinite(traffic) &&
                          traffic <= scenario.trafficBudget));
    payload.set("max_placeable_cores",
                JsonValue(maxPlaceableCores(scenario)));
    return payload;
}

/** The /v1/solve payload for one solved point (see above). */
JsonValue
solveResultPayload(const ScalingScenario &scenario,
                   const SolveResult &result)
{
    JsonValue payload = JsonValue::makeObject();
    payload.set("alpha", JsonValue(scenario.alpha));
    payload.set("total_ceas", JsonValue(scenario.totalCeas));
    payload.set("traffic_budget",
                JsonValue(scenario.trafficBudget));
    payload.set("baseline", baselineJson(scenario.baseline));
    payload.set("supportable_cores",
                JsonValue(
                    static_cast<double>(result.supportableCores)));
    payload.set("fractional_cores",
                JsonValue(result.fractionalCores));
    payload.set("traffic_at_solution",
                JsonValue(result.trafficAtSolution));
    payload.set("core_area_fraction",
                JsonValue(result.coreAreaFraction));
    payload.set("cache_per_core", JsonValue(result.cachePerCore));
    return payload;
}

/** Validates a /v1/traffic body and parses its scenario + cores. */
ScalingScenario
parseTrafficRequest(const JsonValue &request, double *cores)
{
    std::set<std::string> known = kScenarioKeys;
    known.insert("cores");
    requireKnownKeys(request, known, "request");
    if (request.find("cores") == nullptr)
        throw BadRequest("'cores' is required");
    *cores = numberField(request, "cores", 1.0, 0.0625, 1.0e6);
    return parseScenario(request);
}

CachedResponse
handleTraffic(const JsonValue &request)
{
    double cores = 1.0;
    const ScalingScenario scenario =
        parseTrafficRequest(request, &cores);
    const double traffic = relativeTraffic(scenario, cores);
    return jsonResponse(
        trafficResultPayload(scenario, cores, traffic));
}

CachedResponse
handleSolve(const JsonValue &request)
{
    requireKnownKeys(request, kScenarioKeys, "request");
    const ScalingScenario scenario = parseScenario(request);
    Expected<SolveResult> solved =
        trySolveSupportableCores(scenario);
    if (!solved.ok())
        throw Errored(solved.error());
    return jsonResponse(
        solveResultPayload(scenario, solved.value()));
}

JsonValue
scalingSweepPayload(const JsonValue &request)
{
    ScalingStudyParams params;
    params.baseline = parseBaseline(request);
    params.alpha = numberField(request, "alpha", 0.5, 0.01, 2.0);
    params.generations = static_cast<int>(
        integerField(request, "generations", 4, 1, 12));
    params.bandwidthGrowthPerGeneration = numberField(
        request, "bandwidth_growth", 1.0, 0.25, 8.0);
    params.techniques = parseTechniques(request);
    params.jobs = 1; // request-level parallelism only

    JsonValue payload = JsonValue::makeObject();
    payload.set("kind", JsonValue("scaling"));
    payload.set("alpha", JsonValue(params.alpha));
    payload.set("generations", generationsJson(
                                   runScalingStudy(params)));
    if (boolField(request, "include_ideal", true))
        payload.set("ideal",
                    generationsJson(idealScaling(
                        params.baseline, params.generations)));
    return payload;
}

JsonValue
figure15SweepPayload(const JsonValue &request)
{
    ScalingStudyParams params;
    params.baseline = parseBaseline(request);
    params.alpha = numberField(request, "alpha", 0.5, 0.01, 2.0);
    params.generations = static_cast<int>(
        integerField(request, "generations", 4, 1, 12));
    params.bandwidthGrowthPerGeneration = numberField(
        request, "bandwidth_growth", 1.0, 0.25, 8.0);
    params.jobs = 1;

    JsonValue candles = JsonValue::makeArray();
    for (const TechniqueCandle &candle : figure15Study(params)) {
        JsonValue row = JsonValue::makeObject();
        row.set("label", JsonValue(candle.label));
        row.set("pessimistic",
                generationsJson(candle.pessimistic));
        row.set("realistic", generationsJson(candle.realistic));
        row.set("optimistic", generationsJson(candle.optimistic));
        candles.append(std::move(row));
    }
    JsonValue payload = JsonValue::makeObject();
    payload.set("kind", JsonValue("figure15"));
    payload.set("alpha", JsonValue(params.alpha));
    payload.set("techniques", std::move(candles));
    return payload;
}

const WorkloadProfileSpec &
profileByName(const std::string &name)
{
    static const std::vector<WorkloadProfileSpec> profiles =
        figure1Profiles();
    for (const WorkloadProfileSpec &profile : profiles) {
        if (profile.name == name)
            return profile;
    }
    throw BadRequest("unknown profile '" + name + "'");
}

JsonValue
missCurveSweepPayload(const JsonValue &request)
{
    MissCurveSpec spec;
    spec.cache.capacityBytes =
        integerField(request, "size_kib", 256, 8, 64 * 1024) *
        kKiB;
    spec.cache.lineBytes = static_cast<std::uint32_t>(
        integerField(request, "line_bytes", 64, 8, 1024));
    spec.cache.associativity = static_cast<std::uint32_t>(
        integerField(request, "assoc", 8, 0, 64));
    spec.capacities =
        capacityLadder(4 * kKiB, spec.cache.capacityBytes);
    spec.warmupAccesses =
        integerField(request, "warm", 100000, 0, 5000000);
    spec.measuredAccesses =
        integerField(request, "accesses", 200000, 1000, 10000000);
    spec.sampleRate =
        numberField(request, "sample_rate", 0.1, 1e-4, 1.0);
    spec.seed = integerField(request, "seed", 1, 1,
                             ~std::uint64_t{0} >> 1);
    const std::string estimator =
        stringField(request, "estimator", "stack");
    if (!parseMissCurveEstimatorKind(estimator, &spec.kind))
        throw BadRequest("unknown estimator '" + estimator +
                         "'; expected exact | stack | sampled");

    const WorkloadProfileSpec &profile =
        profileByName(stringField(request, "profile", "OLTP-2"));
    const std::unique_ptr<TraceSource> trace =
        makeProfileTrace(profile, spec.seed,
                         spec.cache.lineBytes);
    const MissCurve curve = estimateMissCurve(*trace, spec);

    JsonValue points = JsonValue::makeArray();
    for (const MissCurvePoint &point : curve.points) {
        JsonValue row = JsonValue::makeObject();
        row.set("capacity_kib",
                JsonValue(static_cast<double>(
                    point.capacityBytes / kKiB)));
        row.set("miss_rate", JsonValue(point.missRate));
        row.set("writeback_ratio",
                JsonValue(point.writebackRatio));
        row.set("traffic_bytes_per_access",
                JsonValue(point.trafficBytesPerAccess));
        points.append(std::move(row));
    }
    const PowerLawFit fit = curve.fit();
    JsonValue payload = JsonValue::makeObject();
    payload.set("kind", JsonValue("miss_curve"));
    payload.set("profile", JsonValue(profile.name));
    payload.set("estimator", JsonValue(curve.estimator));
    payload.set("trace_passes",
                JsonValue(static_cast<double>(curve.tracePasses)));
    payload.set("points", std::move(points));
    payload.set("alpha", JsonValue(-fit.exponent));
    payload.set("fit_r_squared", JsonValue(fit.rSquared));
    return payload;
}

JsonValue
sweepPayload(const JsonValue &request)
{
    const std::string kind =
        stringField(request, "kind", "scaling");
    if (kind == "scaling") {
        requireKnownKeys(request,
                         {"kind", "baseline", "alpha",
                          "generations", "bandwidth_growth",
                          "techniques", "include_ideal"},
                         "request");
        return scalingSweepPayload(request);
    }
    if (kind == "figure15") {
        requireKnownKeys(request,
                         {"kind", "baseline", "alpha",
                          "generations", "bandwidth_growth"},
                         "request");
        return figure15SweepPayload(request);
    }
    if (kind == "miss_curve") {
        requireKnownKeys(request,
                         {"kind", "profile", "estimator",
                          "size_kib", "line_bytes", "assoc",
                          "warm", "accesses", "sample_rate",
                          "seed"},
                         "request");
        return missCurveSweepPayload(request);
    }
    throw BadRequest("unknown sweep kind '" + kind +
                     "'; expected scaling | figure15 | "
                     "miss_curve");
}

CachedResponse
handleSweep(const JsonValue &request)
{
    return jsonResponse(sweepPayload(request));
}

// ---------------------------------------------------------------
// POST /v1/batch: many model queries in one body, one parse, one
// contiguous dispatch through the SoA batch solver.

/**
 * Groups /v1/solve and /v1/traffic batch items that share a
 * (baseline, techniques) pair into one BatchGrid, so the SoA solver
 * binds the grid invariants once and evaluates every point of the
 * group in contiguous buffers.
 */
struct BatchGroup
{
    BatchGrid grid;
    /** Indices into the batch's item array, one per grid point. */
    std::vector<std::size_t> members;
    /** Per-point scenarios for payload building. */
    std::vector<ScalingScenario> scenarios;
    /** Per-point core counts (traffic groups only). */
    std::vector<double> cores;
};

/**
 * The grouping key of one parsed item: the canonical baseline plus
 * the raw techniques spec.  Items with equal keys share grid
 * invariants by construction.
 */
std::string
batchGroupKey(const ScalingScenario &scenario,
              const JsonValue &body)
{
    const JsonValue *techniques = body.find("techniques");
    return baselineJson(scenario.baseline).dump() + '\n' +
           (techniques == nullptr ? std::string()
                                  : techniques->dump());
}

/** One item of a batch on its way to a response entry. */
struct BatchItem
{
    std::string path;
    const JsonValue *body = nullptr;
    JsonValue result;
    int status = 200;
    bool done = false;
};

/**
 * Renders a per-item failure into the item's response slot — the
 * same {"error", "category", "status"} body the single-request
 * endpoint would have answered.  Faulted errors abort the whole
 * batch instead (rethrown as Errored) so a fault-injected answer is
 * never embedded in a cacheable 200.
 */
void
embedItemError(BatchItem *item, const Error &error)
{
    if (error.category == ErrorCategory::Faulted)
        throw Errored(error);
    item->result = httpErrorBody(error);
    item->status = httpStatusFor(error.category);
    item->done = true;
}

CachedResponse
handleBatch(const JsonValue &request)
{
    requireKnownKeys(request, {"requests"}, "request");
    const JsonValue *list = request.find("requests");
    if (list == nullptr)
        throw BadRequest("'requests' is required");
    if (!list->isArray())
        throw BadRequest("'requests' must be an array");
    const std::size_t count = list->items().size();
    if (count == 0)
        throw BadRequest("'requests' must not be empty");
    if (count > 64)
        throw BadRequest("at most 64 requests per batch");

    // Envelope validation is strict and batch-fatal; per-item
    // semantic errors below degrade to per-item error entries.
    const JsonValue empty_body = JsonValue::makeObject();
    std::vector<BatchItem> items(count);
    for (std::size_t i = 0; i < count; ++i) {
        const JsonValue &entry = list->items()[i];
        const std::string where =
            "requests[" + std::to_string(i) + "]";
        requireKnownKeys(entry, {"path", "body"}, where);
        const JsonValue *path_value = entry.find("path");
        if (path_value == nullptr || !path_value->isString())
            throw BadRequest(where +
                             " needs a string 'path'");
        const std::string path = path_value->asString();
        if (path == "/v1/batch")
            throw BadRequest(where +
                             ": batches do not nest");
        if (!isModelQueryPath(path))
            throw BadRequest(where + ": unknown path '" + path +
                             "'");
        const JsonValue *body = entry.find("body");
        if (body != nullptr && !body->isObject())
            throw BadRequest(where +
                             ": 'body' must be a JSON object");
        items[i].path = path;
        items[i].body = body == nullptr ? &empty_body : body;
    }

    // Parse phase: sweeps evaluate per item; solve and traffic
    // items accumulate into SoA grids keyed by shared invariants.
    std::map<std::string, BatchGroup> solve_groups;
    std::map<std::string, BatchGroup> traffic_groups;
    for (std::size_t i = 0; i < count; ++i) {
        BatchItem &item = items[i];
        try {
            if (item.path == "/v1/sweep") {
                item.result = sweepPayload(*item.body);
                item.done = true;
                continue;
            }
            if (item.path == "/v1/traffic") {
                double cores = 1.0;
                ScalingScenario scenario =
                    parseTrafficRequest(*item.body, &cores);
                BatchGroup &group = traffic_groups[batchGroupKey(
                    scenario, *item.body)];
                if (group.members.empty()) {
                    group.grid.baseline = scenario.baseline;
                    group.grid.techniques = scenario.techniques;
                }
                group.grid.push(scenario.alpha,
                                scenario.totalCeas,
                                scenario.trafficBudget);
                group.members.push_back(i);
                group.cores.push_back(cores);
                group.scenarios.push_back(std::move(scenario));
                continue;
            }
            requireKnownKeys(*item.body, kScenarioKeys,
                             "request");
            ScalingScenario scenario = parseScenario(*item.body);
            BatchGroup &group = solve_groups[batchGroupKey(
                scenario, *item.body)];
            if (group.members.empty()) {
                group.grid.baseline = scenario.baseline;
                group.grid.techniques = scenario.techniques;
            }
            group.grid.push(scenario.alpha, scenario.totalCeas,
                            scenario.trafficBudget);
            group.members.push_back(i);
            group.scenarios.push_back(std::move(scenario));
        } catch (const BadRequest &e) {
            embedItemError(&item,
                           {ErrorCategory::InvalidInput,
                            e.what()});
        } catch (const Errored &e) {
            embedItemError(&item, e.error());
        }
    }

    // Dispatch phase: one contiguous batch-solver call per group.
    for (auto &[key, group] : traffic_groups) {
        std::vector<double> traffic(group.grid.points());
        evaluateTrafficBatch(group.grid, group.cores.data(),
                             traffic.data());
        for (std::size_t j = 0; j < group.members.size(); ++j) {
            BatchItem &item = items[group.members[j]];
            item.result = trafficResultPayload(
                group.scenarios[j], group.cores[j], traffic[j]);
            item.done = true;
        }
    }
    for (auto &[key, group] : solve_groups) {
        const std::size_t points = group.grid.points();
        std::vector<int> supportable(points);
        std::vector<double> fractional(points);
        std::vector<double> traffic_at(points);
        std::vector<double> core_area(points);
        std::vector<double> cache_per(points);
        std::vector<std::uint8_t> ok(points);
        std::vector<Error> errors(points);
        SupportableBatchOut out;
        out.supportableCores = supportable.data();
        out.fractionalCores = fractional.data();
        out.trafficAtSolution = traffic_at.data();
        out.coreAreaFraction = core_area.data();
        out.cachePerCore = cache_per.data();
        BatchPointStatus status{ok.data(), errors.data()};
        trySolveSupportableBatch(group.grid, out, status);
        for (std::size_t j = 0; j < group.members.size(); ++j) {
            BatchItem &item = items[group.members[j]];
            if (ok[j] == 0) {
                embedItemError(&item, errors[j]);
                continue;
            }
            SolveResult result;
            result.supportableCores = supportable[j];
            result.fractionalCores = fractional[j];
            result.trafficAtSolution = traffic_at[j];
            result.coreAreaFraction = core_area[j];
            result.cachePerCore = cache_per[j];
            item.result = solveResultPayload(group.scenarios[j],
                                             result);
            item.done = true;
        }
    }

    // One canonical response array, original order preserved.
    JsonValue responses = JsonValue::makeArray();
    for (BatchItem &item : items) {
        JsonValue row = JsonValue::makeObject();
        row.set("body", std::move(item.result));
        row.set("status",
                JsonValue(static_cast<double>(item.status)));
        responses.append(std::move(row));
    }
    JsonValue payload = JsonValue::makeObject();
    payload.set("count",
                JsonValue(static_cast<double>(count)));
    payload.set("kind", JsonValue("batch"));
    payload.set("responses", std::move(responses));
    return jsonResponse(payload);
}

} // namespace

bool
isModelQueryPath(const std::string &path)
{
    return path == "/v1/traffic" || path == "/v1/solve" ||
           path == "/v1/sweep" || path == "/v1/batch";
}

std::string
canonicalCacheKey(const std::string &path,
                  const JsonValue &request)
{
    return path + '\n' + request.dump();
}

CachedResponse
executeModelQuery(const std::string &path,
                  const JsonValue &request)
{
    if (path == "/v1/traffic")
        return handleTraffic(request);
    if (path == "/v1/solve")
        return handleSolve(request);
    if (path == "/v1/sweep")
        return handleSweep(request);
    if (path == "/v1/batch")
        return handleBatch(request);
    throw BadRequest("unknown model-query path '" + path + "'");
}

} // namespace bwwall
