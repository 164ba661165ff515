/**
 * @file
 * perfbench: the end-to-end run of one workload (--trace 0).
 *
 * Runs kRounds rounds, each on a fresh deployment: set up (setup_s
 * is the median over rounds), drive it with a fixed, seeded list of
 * operations, check the outputs.  Every other timing is the median of
 * its values over the quieter half of the rounds, those that lost the
 * fewest host steal ticks.  Prints a provenance header followed by one
 * JSON result line.
 *
 *   perfbench --workload hot_hits --seed 1 --seconds 10 \
 *       --router build/bwwall_router
 */

#include <iostream>

#include "util/logging.hh"
#include "workloads.hh"

namespace {

/** Rounds per run, each a fresh deployment with its own setup. */
constexpr unsigned kRounds = 20;

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options options;
    if (!parseOptions(argc, argv, &options))
        return 2;
    bwwall::setLogLevel(bwwall::LogLevel::Warn);

    WorkloadRun run;
    std::string error;
    const std::uint64_t ops =
        opsForSeconds(options.workload, options.seconds) / kRounds;
    if (!runWorkload(options, ops, kRounds, false, &run, &error)) {
        std::cerr << "perfbench: " << error << "\n";
        return 1;
    }
    printProvenance(std::cout, options, false, run);
    printResult(std::cout, run.failed() == 0, run.attempted(), run.failed(),
                endToEndMetrics(options.workload, run));
    return 0;
}
