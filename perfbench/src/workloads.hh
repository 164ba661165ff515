/**
 * @file
 * The four perfbench workloads: how each one is deployed (servers,
 * router), brought to its starting state, driven for a fixed amount
 * of work, and checked for correct outputs.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "harness.hh"
#include "inputs.hh"
#include "server/server.hh"

namespace perfbench {

/** Command-line settings shared by both benchmark binaries. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    /** The bwwall_router binary (routed_cluster and the hop layer). */
    std::string routerBinary;
    /** Where the traced run writes its Chrome trace files. */
    std::string outputDir = ".";
    std::string gitSha = "unknown";
    std::string buildType = "unknown";
};

/**
 * Parses --workload --seed --seconds --router --out-dir
 * --git-sha --build-type; false (with a message on stderr) on a bad
 * or missing argument.
 */
bool parseOptions(int argc, char **argv, Options *options);

/**
 * Timed operations per connection for @p seconds of nominal work.
 * Fixed per workload: a slower program runs longer, never less.
 */
std::uint64_t opsForSeconds(const std::string &workload, double seconds);

/** One server configuration of a workload's deployment. */
bwwall::ServerConfig serverConfig(const std::string &workload);

/** A workload's servers and router, at its starting state. */
class Deployment
{
  public:
    ~Deployment();

    /**
     * Starts the servers (and router) of @p workload, with tracing
     * of every request on the first node when @p traced, and sends
     * the stream's setup requests.  Returns null with *error set.
     */
    static std::unique_ptr<Deployment>
    start(const std::string &workload, const Stream &stream,
          const Options &options, bool traced, std::string *error);

    /** Where client connection c sends its operations. */
    std::vector<std::uint16_t> clientPorts() const;

    /** Session ids per connection (ingest_stream; else empty). */
    const std::vector<std::string> &sessions() const { return sessions_; }

    /** The servers; [0] carries the trace recorder when traced. */
    std::vector<std::unique_ptr<bwwall::BwwallServer>> &servers()
    {
        return servers_;
    }

    /** Summed counters over every server's /metrics page. */
    std::map<std::string, double> counters() const;

    /** Server compute threads and io shards, summed over servers. */
    unsigned serverThreads() const;
    unsigned serverIoShards() const;

  private:
    Deployment() = default;

    std::string workload_;
    std::vector<std::unique_ptr<bwwall::BwwallServer>> servers_;
    std::unique_ptr<RouterProcess> router_;
    std::vector<std::string> sessions_;
};

/** One named metric value. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one measured workload run produced. */
struct WorkloadRun
{
    /** Per round: the setup time and the timed phase. */
    std::vector<double> setupSeconds;
    std::vector<PhaseResult> rounds;
    /**
     * Per round: host steal ticks over the timed phase and the
     * scrapes after it.
     */
    std::vector<std::uint64_t> stealTicks;
    /**
     * Per round, the /metrics scrapes sent after the timed phase;
     * empty on ingest_stream, whose snapshot reads are in the mix.
     */
    std::vector<PhaseResult> scrapes;
    /** VmHWM before the first deployment: the harness and binary. */
    double harnessRssMb = 0.0;
    /** VmHWM after the last timed phase, before the output checks. */
    double peakRssMb = 0.0;
    /** Failed correctness checks (counted as failed operations). */
    std::uint64_t checkFailures = 0;
    std::vector<std::string> checkNotes;
    /** Server counters over the timed phases, summed over rounds. */
    std::map<std::string, double> counterDelta;
    unsigned serverThreads = 0;
    unsigned serverIoShards = 0;
    /** /v1/trace of the first server when traced, else empty. */
    std::string serverTrace;

    std::uint64_t attempted() const;
    /** Failed operations plus failed checks. */
    std::uint64_t failed() const;

    /** The phase whose snapshot reads round @p r reports. */
    const PhaseResult &snapshotPhase(std::size_t r) const;

    /**
     * The quieter half of the rounds (half rounded up): those that
     * lost the fewest host steal ticks, the earlier round first on a
     * tie.  Ascending round indices.  The choice never looks at a
     * timing, only at how much CPU time the host took away.
     */
    std::vector<std::size_t> quietRounds() const;
};

/**
 * Runs @p rounds rounds, each on a fresh deployment: set up (timed),
 * run the timed phase of @p opsPerConnection ops per connection,
 * scrape /metrics kScrapesPerRound times per connection (all but
 * ingest_stream),
 * check the outputs, tear down.  Rounds even out where the scheduler
 * happens to place the client and server threads of one deployment.
 * Returns false with *error when a setup fails.
 */
bool runWorkload(const Options &options, std::uint64_t opsPerConnection,
                 unsigned rounds, bool traced, WorkloadRun *run,
                 std::string *error);

/**
 * The end-to-end metrics of a run of @p workload: those of
 * BENCHMARK.json in its order, then records_per_s on cold_compute and
 * ingest_stream.  Where a record is a request (hot_hits,
 * routed_cluster) records_per_s would only repeat req_per_s.
 * setup_s is the median over every round; each other timing is the
 * median over the quiet rounds.
 */
std::vector<Metric> endToEndMetrics(const std::string &workload,
                                    const WorkloadRun &run);

/** The provenance header every run prints. */
void printProvenance(std::ostream &os, const Options &options,
                     bool trace, const WorkloadRun &run);

/** The final result line: {"correct", "attempted", "failed", "metrics"}. */
void printResult(std::ostream &os, bool correct, std::uint64_t attempted,
                 std::uint64_t failed, const std::vector<Metric> &metrics);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
