/**
 * @file
 * The measuring side of perfbench: a fixed-work closed-loop client,
 * percentiles with their sample counts, process counters, /metrics
 * scraping, and the bwwall_router child process.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "inputs.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start);

/** Nearest-rank percentile of one latency class, with its support. */
struct Percentile
{
    double value = 0.0;
    /** Samples in the class. */
    std::size_t samples = 0;
    /** Samples strictly above the percentile's rank. */
    std::size_t beyond = 0;
};

/** @p q in (0, 1]; @p sorted ascending. */
Percentile percentile(const std::vector<double> &sorted, double q);

/** Median of an unsorted list (copy). */
double median(std::vector<double> values);

/** CPU time, context switches and threads of this process. */
struct ProcessUsage
{
    double cpuSeconds = 0.0;
    std::uint64_t contextSwitches = 0;
};

ProcessUsage processUsage();

/** Threads of this process right now (/proc/self/task). */
unsigned processThreads();

/** VmHWM of this process in MB. */
double peakRssMb();

/** First "model name" line of /proc/cpuinfo. */
std::string cpuModel();

/**
 * Host steal time summed over every CPU since boot, in clock ticks
 * (the "steal" column of /proc/stat); 0 where it is not reported.
 */
std::uint64_t stealTicks();

/** One response kept for the correctness checks. */
struct Sample
{
    unsigned conn = 0;
    std::uint64_t index = 0;
    std::string body;
};

/** What one fixed-work phase did. */
struct PhaseResult
{
    double wallSeconds = 0.0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Work records carried by completed main ops. */
    std::uint64_t records = 0;
    /** Per-op latency in ms, sorted ascending after the run. */
    std::vector<double> mainMs;
    std::vector<double> snapshotMs;
    std::vector<Sample> samples;
    ProcessUsage usage;
    unsigned threads = 0;
    /** First failure, for the report. */
    std::string firstError;
};

/**
 * Runs a fixed list of operations over @p ports.size() keep-alive
 * connections, one client thread each, closed loop: connection c
 * sends stream.op(c, first .. first + count - 1) in order, each after
 * the previous reply.  "{session}" in a target becomes @p sessions[c].  Keeps the
 * response bodies of the (conn, index) pairs in @p keep.  A non-200
 * status or a transport error is a failed operation.
 */
PhaseResult runPhase(const Stream &stream,
                     const std::vector<std::uint16_t> &ports,
                     const std::vector<std::string> &sessions,
                     const std::set<std::pair<unsigned, std::uint64_t>>
                         &keep,
                     std::uint64_t first, std::uint64_t count);

/**
 * Sends @p ops split round-robin over @p connections connections to
 * @p port and returns their bodies in order; a non-200 is a failure
 * counted into *failed with its first message in *error.
 */
std::vector<std::string> sendAll(std::uint16_t port,
                                 const std::vector<Op> &ops,
                                 unsigned connections,
                                 std::uint64_t *failed,
                                 std::string *error);

/** One GET or POST on a fresh connection; status 0 on transport error. */
int request(std::uint16_t port, const std::string &method,
            const std::string &target, const std::string &body,
            std::string *response);

/** The counters of a /metrics text page ("counter NAME VALUE"). */
std::map<std::string, double> scrapeCounters(std::uint16_t port);

/**
 * A bwwall_router child process fronting a cluster.  Ready when
 * start() returns: it blocks on reading the router's
 * "bwwall_router listening on" line, with no polling.
 */
class RouterProcess
{
  public:
    RouterProcess() = default;
    ~RouterProcess();

    RouterProcess(const RouterProcess &) = delete;
    RouterProcess &operator=(const RouterProcess &) = delete;

    /** Spawns @p binary on port 0; returns false with *error. */
    bool start(const std::string &binary, const std::string &peers,
               std::string *error);

    std::uint16_t port() const { return port_; }

    /** SIGTERM and wait; clients must have closed their sockets. */
    void stop();

  private:
    pid_t pid_ = -1;
    int stdoutFd_ = -1;
    std::uint16_t port_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
