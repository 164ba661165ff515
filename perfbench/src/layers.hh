/**
 * @file
 * The traced run's per-layer replays.
 *
 * Each layer is timed by calling its public entry points from the
 * benchmark's own files, inside util/trace_span spans recorded by a
 * TraceRecorder the benchmark owns; nothing inside src/ is traced
 * beyond the spans the server already records.  Inputs come from the
 * workload's seeded streams, so a layer sees the bytes it sees in the
 * end-to-end run.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <map>
#include <string>
#include <vector>

#include "workloads.hh"

namespace perfbench {

/** Per-layer values by metric name. */
using LayerValues = std::map<std::string, double>;

/**
 * Replays every layer with inputs from @p options' workload and seed.
 * Writes the benchmark's spans as a Chrome trace to @p tracePath.
 * Returns false with *error when a replay fails.
 */
bool replayLayers(const Options &options, const std::string &tracePath,
                  LayerValues *values, std::string *error);

/**
 * Per-span-name median duration in microseconds of "ph":"X" events
 * in a Chrome trace JSON document; false when it does not parse.
 */
bool chromeSpanMedians(const std::string &json,
                       std::map<std::string, double> *medians);

/**
 * The layers on @p workload's critical path and each one's cost per
 * operation in microseconds, built from @p values.
 */
std::vector<std::pair<std::string, double>>
pathLayers(const std::string &workload, const LayerValues &values);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
