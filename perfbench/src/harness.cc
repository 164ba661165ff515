#include "harness.hh"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <thread>

#include "server/http_client.hh"

extern char **environ;

namespace perfbench {

using bwwall::HttpClient;
using bwwall::HttpClientResponse;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

Percentile
percentile(const std::vector<double> &sorted, double q)
{
    Percentile result;
    result.samples = sorted.size();
    if (sorted.empty())
        return result;
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    const std::size_t index = std::max<std::size_t>(rank, 1) - 1;
    result.value = sorted[index];
    result.beyond = sorted.size() - index - 1;
    return result;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

ProcessUsage
processUsage()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    ProcessUsage out;
    out.cpuSeconds =
        static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
        static_cast<double>(usage.ru_utime.tv_usec +
                            usage.ru_stime.tv_usec) *
            1e-6;
    out.contextSwitches = static_cast<std::uint64_t>(usage.ru_nvcsw) +
                          static_cast<std::uint64_t>(usage.ru_nivcsw);
    return out;
}

unsigned
processThreads()
{
    unsigned count = 0;
    DIR *dir = opendir("/proc/self/task");
    if (dir == nullptr)
        return 0;
    while (const dirent *entry = readdir(dir)) {
        if (entry->d_name[0] != '.')
            ++count;
    }
    closedir(dir);
    return count;
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB -> MB
    }
    return 0.0;
}

std::string
cpuModel()
{
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    }
    return "unknown";
}

std::uint64_t
stealTicks()
{
    std::ifstream stat("/proc/stat");
    std::string cpu;
    std::uint64_t field = 0;
    stat >> cpu;
    // user nice system idle iowait irq softirq steal
    for (int i = 0; i < 8 && (stat >> field); ++i) {
    }
    return cpu == "cpu" && stat ? field : 0;
}

namespace {

/**
 * Bound on reading one response.  A request the server never answers
 * becomes a failed operation with its error, instead of a client that
 * waits until the whole run is killed without a result.
 */
constexpr unsigned kReadTimeoutMs = 10000;

std::string
substituteSession(const std::string &target, const std::string &session)
{
    const std::string placeholder = "{session}";
    const std::size_t at = target.find(placeholder);
    if (at == std::string::npos)
        return target;
    return target.substr(0, at) + session +
           target.substr(at + placeholder.size());
}

} // namespace

PhaseResult
runPhase(const Stream &stream, const std::vector<std::uint16_t> &ports,
         const std::vector<std::string> &sessions,
         const std::set<std::pair<unsigned, std::uint64_t>> &keep,
         std::uint64_t first, std::uint64_t count)
{
    const auto connections = static_cast<unsigned>(ports.size());
    std::vector<PhaseResult> partial(connections);
    const ProcessUsage before = processUsage();
    const Clock::time_point start = Clock::now();
    unsigned threads_seen = 0;
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < connections; ++c) {
        clients.emplace_back([&, c] {
            PhaseResult &mine = partial[c];
            mine.mainMs.reserve(count);
            HttpClient client("127.0.0.1", ports[c]);
            client.setReadTimeoutMs(kReadTimeoutMs);
            HttpClient::Request request;
            HttpClientResponse response;
            std::string error;
            const std::string session =
                c < sessions.size() ? sessions[c] : std::string();
            for (std::uint64_t i = first; i < first + count; ++i) {
                Op op = stream.op(c, i);
                request.method = std::move(op.method);
                request.target = substituteSession(op.target, session);
                request.body = std::move(op.body);
                const Clock::time_point sent = Clock::now();
                const bool ok = client.perform(request, &response, &error);
                const double ms = std::chrono::duration<double, std::milli>(
                                      Clock::now() - sent)
                                      .count();
                ++mine.attempted;
                if (!ok || response.status != 200) {
                    ++mine.failed;
                    if (mine.firstError.empty()) {
                        mine.firstError =
                            request.target + " -> " +
                            (ok ? std::to_string(response.status) + " " +
                                      response.body
                                : error);
                    }
                    continue;
                }
                if (op.kind == OpKind::Snapshot) {
                    mine.snapshotMs.push_back(ms);
                } else {
                    mine.mainMs.push_back(ms);
                    mine.records += op.records;
                    if (keep.count({c, i}) != 0)
                        mine.samples.push_back({c, i, response.body});
                }
                // The thread count mid-phase, once, off the clock of
                // any operation.
                if (c == 0 && i == first + count / 2)
                    threads_seen = processThreads();
            }
        });
    }
    for (std::thread &client : clients)
        client.join();

    PhaseResult result;
    result.wallSeconds = secondsSince(start);
    const ProcessUsage after = processUsage();
    result.usage.cpuSeconds = after.cpuSeconds - before.cpuSeconds;
    result.usage.contextSwitches =
        after.contextSwitches - before.contextSwitches;
    result.threads = threads_seen;
    for (PhaseResult &mine : partial) {
        result.attempted += mine.attempted;
        result.failed += mine.failed;
        result.records += mine.records;
        result.mainMs.insert(result.mainMs.end(), mine.mainMs.begin(),
                             mine.mainMs.end());
        result.snapshotMs.insert(result.snapshotMs.end(),
                                 mine.snapshotMs.begin(),
                                 mine.snapshotMs.end());
        for (Sample &sample : mine.samples)
            result.samples.push_back(std::move(sample));
        if (result.firstError.empty())
            result.firstError = mine.firstError;
    }
    std::sort(result.mainMs.begin(), result.mainMs.end());
    std::sort(result.snapshotMs.begin(), result.snapshotMs.end());
    return result;
}

std::vector<std::string>
sendAll(std::uint16_t port, const std::vector<Op> &ops,
        unsigned connections, std::uint64_t *failed, std::string *error)
{
    std::vector<std::string> bodies(ops.size());
    std::vector<std::uint64_t> fails(connections, 0);
    std::vector<std::string> errors(connections);
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < connections; ++c) {
        clients.emplace_back([&, c] {
            HttpClient client("127.0.0.1", port);
            client.setReadTimeoutMs(kReadTimeoutMs);
            HttpClientResponse response;
            std::string transport;
            for (std::size_t i = c; i < ops.size(); i += connections) {
                HttpClient::Request request;
                request.method = ops[i].method;
                request.target = ops[i].target;
                request.body = ops[i].body;
                const bool ok =
                    client.perform(request, &response, &transport);
                if (!ok || response.status != 200) {
                    ++fails[c];
                    if (errors[c].empty()) {
                        errors[c] = ops[i].target + " -> " +
                                    (ok ? response.body : transport);
                    }
                    continue;
                }
                bodies[i] = response.body;
            }
        });
    }
    for (std::thread &client : clients)
        client.join();
    for (unsigned c = 0; c < connections; ++c) {
        *failed += fails[c];
        if (error->empty())
            *error = errors[c];
    }
    return bodies;
}

int
request(std::uint16_t port, const std::string &method,
        const std::string &target, const std::string &body,
        std::string *response)
{
    HttpClient client("127.0.0.1", port);
    client.setReadTimeoutMs(kReadTimeoutMs);
    HttpClient::Request exchange;
    exchange.method = method;
    exchange.target = target;
    exchange.body = body;
    HttpClientResponse out;
    std::string error;
    if (!client.perform(exchange, &out, &error)) {
        *response = error;
        return 0;
    }
    *response = out.body;
    return out.status;
}

std::map<std::string, double>
scrapeCounters(std::uint16_t port)
{
    std::map<std::string, double> counters;
    std::string page;
    if (request(port, "GET", "/metrics", "", &page) != 200)
        return counters;
    std::istringstream lines(page);
    std::string kind;
    std::string name;
    double value = 0.0;
    std::string line;
    while (std::getline(lines, line)) {
        std::istringstream fields(line);
        if (fields >> kind >> name >> value && kind == "counter")
            counters[name] = value;
    }
    return counters;
}

RouterProcess::~RouterProcess()
{
    stop();
}

bool
RouterProcess::start(const std::string &binary, const std::string &peers,
                     std::string *error)
{
    int pipe_fds[2];
    if (pipe2(pipe_fds, O_CLOEXEC) != 0) {
        *error = "pipe failed";
        return false;
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDOUT_FILENO);
    std::vector<std::string> args = {binary,        "--port", "0",
                                     "--peers",     peers,    "--peer-probe-interval-ms",
                                     "0"};
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    argv.push_back(nullptr);
    // Quiet the router's info lines; warnings still reach stderr.
    std::vector<std::string> env_strings = {"BWWALL_LOG_LEVEL=warn"};
    for (char **entry = environ; *entry != nullptr; ++entry) {
        if (std::string(*entry).rfind("BWWALL_LOG_LEVEL=", 0) != 0)
            env_strings.emplace_back(*entry);
    }
    std::vector<char *> envp;
    for (std::string &entry : env_strings)
        envp.push_back(entry.data());
    envp.push_back(nullptr);
    const int spawned = posix_spawn(&pid_, binary.c_str(), &actions,
                                    nullptr, argv.data(), envp.data());
    posix_spawn_file_actions_destroy(&actions);
    close(pipe_fds[1]);
    if (spawned != 0) {
        close(pipe_fds[0]);
        pid_ = -1;
        *error = "cannot spawn " + binary;
        return false;
    }
    stdoutFd_ = pipe_fds[0];

    // Blocking read of the readiness line: the router prints it
    // after listen(), so connects succeed from here on.
    std::string line;
    char c = 0;
    while (read(stdoutFd_, &c, 1) == 1 && c != '\n')
        line += c;
    const std::string prefix = "bwwall_router listening on ";
    const std::size_t colon = line.rfind(':');
    if (line.rfind(prefix, 0) != 0 || colon == std::string::npos) {
        *error = "router did not report readiness: '" + line + "'";
        stop();
        return false;
    }
    port_ = static_cast<std::uint16_t>(
        std::stoul(line.substr(colon + 1)));
    return true;
}

void
RouterProcess::stop()
{
    if (pid_ > 0) {
        kill(pid_, SIGTERM);
        int status = 0;
        waitpid(pid_, &status, 0);
        pid_ = -1;
    }
    if (stdoutFd_ >= 0) {
        close(stdoutFd_);
        stdoutFd_ = -1;
    }
}

} // namespace perfbench
