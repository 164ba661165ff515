/**
 * @file
 * Seeded request streams for the four perfbench workloads.
 *
 * Every byte the benchmark sends is a pure function of (workload,
 * seed, operation index): the server receives only these generated
 * bytes, and the same seed always yields the same stream (the
 * determinism test in perfbench/tests digests it).  The generators
 * use their own SplitMix64 and their own trace generator, so a change
 * to the repository's RNG or trace code cannot change the inputs.
 *
 * A stream has a setup part (prefill queries, session creates, and
 * optionally the first operations of each connection as a warm-up)
 * and a timed part: a fixed number of operations per connection.
 * On ingest_stream every `snapshotEvery`-th timed operation on a
 * connection is a live-curve GET beside the appends; the other
 * workloads send only their main operations.
 */

#ifndef PERFBENCH_INPUTS_HH
#define PERFBENCH_INPUTS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/access.hh"

namespace perfbench {

/** SplitMix64: tiny, fast, and fixed forever for these inputs. */
class SplitMix
{
  public:
    explicit SplitMix(std::uint64_t seed) : state_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, 1) with 53 random bits. */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform in [0, n). */
    std::uint64_t below(std::uint64_t n) { return next() % n; }

    /**
     * The generator seeded with @p seed after @p draws calls to
     * next(): SplitMix64 is a counter, so it can start anywhere.
     */
    static SplitMix
    at(std::uint64_t seed, std::uint64_t draws)
    {
        return SplitMix(seed + draws * 0x9e3779b97f4a7c15ull);
    }

  private:
    std::uint64_t state_;
};

/** A seed derived from a parent seed and a purpose tag. */
std::uint64_t subSeed(std::uint64_t seed, std::uint64_t tag);

/** What a timed operation is, for the latency split. */
enum class OpKind
{
    Main,     ///< the workload's own operation
    Snapshot, ///< a live-state read: a curve GET or a /metrics scrape
};

/** One HTTP exchange the client sends. */
struct Op
{
    OpKind kind = OpKind::Main;
    std::string method = "POST";
    /** Request target; "{session}" is replaced by the live id. */
    std::string target;
    std::string body;
    /** Work records this op carries (trace records, model queries). */
    std::uint64_t records = 1;
};

/** The names of the workloads, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** True for a name in workloadNames(). */
bool knownWorkload(const std::string &name);

/** The seeded request stream of one workload. */
class Stream
{
  public:
    virtual ~Stream() = default;

    /** Requests that bring the server to its starting state. */
    virtual std::vector<Op> setup() const = 0;

    /** Timed operation @p index on client connection @p conn. */
    virtual Op op(unsigned conn, std::uint64_t index) const = 0;

    /**
     * Operations [0, warmup) on each connection run untimed at the
     * end of setup; the timed phase is [warmup, warmup + ops).
     */
    std::uint64_t warmupOpsPerConnection = 0;

    /** Timed operations per connection. */
    std::uint64_t opsPerConnection = 0;

    /** Every this-many-th timed op is a snapshot read; 0 for none. */
    std::uint64_t snapshotEvery = 0;
};

/** Client connections every workload drives. */
constexpr unsigned kConnections = 2;

/**
 * GET /metrics scrapes per connection after each timed phase of the
 * workloads without their own snapshot reads (all but ingest_stream).
 * A monitoring scraper reads a target serially, one scrape per
 * interval, and the usual high-availability setup runs two identical
 * scrapers (the Prometheus FAQ's answer to "Can Prometheus be made
 * highly available?").  So the scrapes stay out of the main
 * operations: each connection sends its scrapes back to back, like
 * two scrapers, enough that every round's p90 has at least ten
 * samples beyond it.
 */
constexpr std::uint64_t kScrapesPerRound = 200;

/** The scrape phase: every op is a GET /metrics snapshot read. */
std::unique_ptr<Stream> makeScrapeStream(std::uint64_t scrapes);

/**
 * Builds the stream of @p workload for @p seed with @p ops timed
 * operations per connection.
 */
std::unique_ptr<Stream> makeStream(const std::string &workload,
                                   std::uint64_t seed,
                                   std::uint64_t ops);

/** FNV-1a over every request of a stream (setup and timed). */
std::uint64_t streamDigest(const Stream &stream);

/** @name Inputs shared with the traced layer replays
 *  @{ */

/** One distinct hot query and its byte-different spellings. */
struct HotQuery
{
    std::string path;
    /** spellings[0] is the canonical (sorted, compact) form. */
    std::vector<std::string> spellings;
};

/** Distinct /v1/traffic and /v1/solve queries, several spellings. */
std::vector<HotQuery> hotQueries(std::uint64_t seed,
                                 std::size_t count,
                                 std::size_t spellings);

/**
 * Cold operation @p index: a distinct /v1/batch or figure15 sweep.
 * A connection's operation i has index i * kConnections + c, so each
 * connection alternates the two kinds and sends exactly half of each.
 */
Op coldOp(std::uint64_t seed, std::uint64_t index);

/** A /v1/batch body of 64 distinct solve/traffic items. */
std::string coldBatchBody(std::uint64_t seed, std::uint64_t index);

/** A distinct /v1/sweep kind figure15 body. */
std::string coldFigure15Body(std::uint64_t seed,
                             std::uint64_t index);

/** Records per ingest append chunk. */
constexpr std::size_t kIngestChunkRecords = 16384;

/** The session-create body every ingest session posts. */
std::string ingestCreateBody(unsigned session);

/**
 * Records [first, first + count) of the power-law stream session
 * @p session appends.  Record i is a pure function of (seed,
 * session, i), so chunks are made when they are sent and no whole
 * trace is ever held in memory.
 */
std::vector<bwwall::MemoryAccess> ingestRecords(std::uint64_t seed,
                                                unsigned session,
                                                std::uint64_t first,
                                                std::size_t count);

/** The BWTR file header (16 bytes) that opens every session. */
std::string bwtrHeader();

/** The BWTR record bytes of @p records. */
std::string bwtrRecords(const std::vector<bwwall::MemoryAccess> &records);
/** @} */

} // namespace perfbench

#endif // PERFBENCH_INPUTS_HH
