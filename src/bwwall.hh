/**
 * @file
 * Umbrella header: the whole bwwall public API.
 *
 * Fine-grained headers (e.g. "model/bandwidth_wall.hh") keep builds
 * lean; include this one for exploratory code and examples.
 *
 * 2.0 removed the pre-2.0 MissCurveSweepParams / measureMissCurve
 * shims; use the MissCurveSpec / estimateMissCurve engine in
 * cache/miss_curve_estimator.hh.  The HttpClient method-per-shape
 * overloads remain for one release as wrappers over perform().
 */

#ifndef BWWALL_BWWALL_HH
#define BWWALL_BWWALL_HH

// Library version.
#define BWWALL_VERSION_MAJOR 3
#define BWWALL_VERSION_MINOR 0
#define BWWALL_VERSION_PATCH 0

#include "cache/coherent_system.hh"
#include "cache/compressed_cache.hh"
#include "cache/hierarchy.hh"
#include "cache/miss_curve.hh"
#include "cache/miss_curve_estimator.hh"
#include "cache/prefetcher.hh"
#include "cache/set_assoc_cache.hh"
#include "cache/trace_sim.hh"
#include "compress/bdi.hh"
#include "compress/fpc.hh"
#include "compress/link.hh"
#include "mem/core_model.hh"
#include "mem/dram.hh"
#include "mem/dram_system.hh"
#include "mem/event_queue.hh"
#include "mem/memory_channel.hh"
#include "mem/multicore_system.hh"
#include "mem/system_sim.hh"
#include "model/assumptions.hh"
#include "model/bandwidth_wall.hh"
#include "model/batch_solver.hh"
#include "model/cmp_config.hh"
#include "model/extensions.hh"
#include "model/heterogeneous.hh"
#include "model/power_law.hh"
#include "model/scaling_study.hh"
#include "model/technique.hh"
#include "model/throughput.hh"
#include "server/cluster.hh"
#include "server/http.hh"
#include "server/http_client.hh"
#include "server/json.hh"
#include "server/model_service.hh"
#include "server/reactor.hh"
#include "server/result_cache.hh"
#include "server/routes.hh"
#include "server/server.hh"
#include "trace/power_law_trace.hh"
#include "trace/profiles.hh"
#include "trace/reuse_analyzer.hh"
#include "trace/shared_trace.hh"
#include "trace/stack_distance.hh"
#include "trace/trace_io.hh"
#include "trace/trace_source.hh"
#include "trace/value_pattern.hh"
#include "trace/working_set_trace.hh"
#include "util/cli.hh"
#include "util/config.hh"
#include "util/distributions.hh"
#include "util/error.hh"
#include "util/fault.hh"
#include "util/linear_fit.hh"
#include "util/metrics.hh"
#include "util/mpmc_queue.hh"
#include "util/rendezvous.hh"
#include "util/rng.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"
#include "util/trace_span.hh"
#include "util/units.hh"

#endif // BWWALL_BWWALL_HH
