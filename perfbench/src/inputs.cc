#include "inputs.hh"

#include <algorithm>
#include <charconv>
#include <set>
#include <utility>

namespace perfbench {

using bwwall::AccessType;
using bwwall::MemoryAccess;

std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t tag)
{
    SplitMix mix(seed ^ (tag * 0xd1b54a32d192ed03ull));
    mix.next();
    return mix.next();
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "hot_hits", "cold_compute", "ingest_stream", "routed_cluster"};
    return names;
}

bool
knownWorkload(const std::string &name)
{
    const auto &names = workloadNames();
    return std::find(names.begin(), names.end(), name) != names.end();
}

namespace {

// ---------------------------------------------------------------
// A minimal JSON value that can be spelled several ways.

struct Val
{
    enum class Kind { Num, Str, Arr, Obj };
    Kind kind = Kind::Num;
    double num = 0.0;
    std::string str;
    std::vector<Val> arr;
    std::vector<std::pair<std::string, Val>> obj;

    static Val
    number(double value)
    {
        Val v;
        v.num = value;
        return v;
    }

    static Val
    string(std::string value)
    {
        Val v;
        v.kind = Kind::Str;
        v.str = std::move(value);
        return v;
    }

    static Val
    array()
    {
        Val v;
        v.kind = Kind::Arr;
        return v;
    }

    static Val
    object()
    {
        Val v;
        v.kind = Kind::Obj;
        return v;
    }

    Val &
    set(std::string key, Val value)
    {
        obj.emplace_back(std::move(key), std::move(value));
        return *this;
    }
};

/**
 * How one spelling writes a value.  Every style parses back to the
 * same doubles and the same key set, so all spellings of a query
 * share one canonical cache key.
 */
enum class Style
{
    Compact,    ///< sorted keys, no spaces, shortest numbers
    Spaced,     ///< reverse-sorted keys, ", " and ": "
    Scientific, ///< shuffled keys, newlines, 1.5e+00 numbers
    Padded,     ///< sorted keys, spaces inside, 1.500 numbers
};

std::string
numberText(double value, Style style)
{
    char buffer[64];
    std::to_chars_result result{};
    if (style == Style::Scientific) {
        result = std::to_chars(buffer, buffer + sizeof(buffer), value,
                               std::chars_format::scientific);
    } else {
        result = std::to_chars(buffer, buffer + sizeof(buffer), value);
    }
    std::string text(buffer, result.ptr);
    if (style == Style::Padded && text.find('e') == std::string::npos)
        text += text.find('.') == std::string::npos ? ".000" : "00";
    return text;
}

void
spell(const Val &value, Style style, SplitMix &rng, std::string *out)
{
    switch (value.kind) {
      case Val::Kind::Num:
        *out += numberText(value.num, style);
        return;
      case Val::Kind::Str:
        *out += '"';
        *out += value.str;
        *out += '"';
        return;
      case Val::Kind::Arr:
        *out += '[';
        for (std::size_t i = 0; i < value.arr.size(); ++i) {
            if (i != 0)
                *out += style == Style::Compact ? "," : ", ";
            spell(value.arr[i], style, rng, out);
        }
        *out += ']';
        return;
      case Val::Kind::Obj:
        break;
    }
    std::vector<std::size_t> order(value.obj.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    const auto byKey = [&value](std::size_t a, std::size_t b) {
        return value.obj[a].first < value.obj[b].first;
    };
    std::sort(order.begin(), order.end(), byKey);
    if (style == Style::Spaced) {
        std::reverse(order.begin(), order.end());
    } else if (style == Style::Scientific) {
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng.below(i)]);
    }
    *out += style == Style::Padded ? "{ " : "{";
    for (std::size_t i = 0; i < order.size(); ++i) {
        const auto &[key, member] = value.obj[order[i]];
        if (i != 0) {
            *out += style == Style::Compact      ? ","
                    : style == Style::Scientific ? ",\n  "
                                                 : ", ";
        }
        *out += '"';
        *out += key;
        *out += style == Style::Compact ? "\":" : "\": ";
        spell(member, style, rng, out);
    }
    *out += style == Style::Padded ? " }" : "}";
}

std::string
spelled(const Val &value, Style style, std::uint64_t seed)
{
    SplitMix rng(seed);
    std::string out;
    spell(value, style, rng, &out);
    if (style == Style::Scientific)
        out += "\n";
    return out;
}

std::string
compact(const Val &value)
{
    return spelled(value, Style::Compact, 0);
}

const char *const kLabels[] = {"CC", "DRAM", "3D",   "Fltr", "SmCo",
                               "LC", "Sect", "CC/LC", "SmCl"};
const char *const kAssumptions[] = {"pessimistic", "realistic",
                                    "optimistic"};

/** Zero to two Table 2 techniques, or none. */
Val
techniques(SplitMix &rng, std::size_t max_count)
{
    Val list = Val::array();
    const std::size_t count = rng.below(max_count + 1);
    for (std::size_t i = 0; i < count; ++i) {
        Val item = Val::object();
        item.set("label", Val::string(kLabels[rng.below(9)]));
        item.set("assumption",
                 Val::string(kAssumptions[rng.below(3)]));
        list.arr.push_back(std::move(item));
    }
    return list;
}

/**
 * (key + 1) * 2^-30: a distinct, exactly representable offset per
 * key that moves no model input by more than 0.25 for any key the
 * cold workload uses, so a cold operation's cost does not drift
 * with its index.
 */
double
uniqueFraction(std::uint64_t key)
{
    return static_cast<double>(key + 1) * 0x1.0p-30;
}

/** Alpha on a 1e-4 grid in [0.25, 0.75]. */
double
gridAlpha(SplitMix &rng)
{
    return 0.25 + static_cast<double>(rng.below(5001)) / 10000.0;
}

const double kTotalCeas[] = {16, 24, 32, 48, 64, 96, 128, 256};

Val
hotQueryValue(SplitMix &rng, bool traffic)
{
    Val query = Val::object();
    const double total = kTotalCeas[rng.below(8)];
    query.set("alpha", Val::number(gridAlpha(rng)));
    query.set("total_ceas", Val::number(total));
    if (traffic) {
        query.set("cores", Val::number(static_cast<double>(
                               1 + rng.below(static_cast<std::uint64_t>(
                                       total / 2)))));
    } else {
        query.set("traffic_budget",
                  Val::number(0.5 + 0.25 * static_cast<double>(
                                               rng.below(7))));
    }
    Val list = techniques(rng, 2);
    if (!list.arr.empty())
        query.set("techniques", std::move(list));
    if (rng.below(4) == 0) {
        Val baseline = Val::object();
        baseline.set("total_ceas", Val::number(16));
        baseline.set("core_ceas", Val::number(8));
        query.set("baseline", std::move(baseline));
    }
    return query;
}

// ---------------------------------------------------------------
// Streams.

Op
snapshotOp(const std::string &target)
{
    Op op;
    op.kind = OpKind::Snapshot;
    op.method = "GET";
    op.target = target;
    op.records = 0;
    return op;
}

/** The per-op pick of the hit workloads: pure in (seed, conn, i). */
std::pair<std::size_t, std::size_t>
hotPick(std::uint64_t seed, unsigned conn, std::uint64_t index,
        std::size_t queries, std::size_t spellings)
{
    SplitMix rng(subSeed(seed, (std::uint64_t{conn} << 48) ^ index));
    const std::size_t query = rng.below(queries);
    return {query, rng.below(spellings)};
}

/** hot_hits and routed_cluster: prefilled queries, many spellings. */
class HitStream : public Stream
{
  public:
    HitStream(std::uint64_t seed, std::size_t queries)
        : seed_(seed), queries_(hotQueries(seed, queries, 4))
    {}

    std::vector<Op>
    setup() const override
    {
        std::vector<Op> ops;
        for (const HotQuery &query : queries_) {
            Op op;
            op.target = query.path;
            op.body = query.spellings.front();
            ops.push_back(std::move(op));
        }
        return ops;
    }

    Op
    op(unsigned conn, std::uint64_t index) const override
    {
        const auto [query, spelling] =
            hotPick(seed_, conn, index, queries_.size(), 4);
        Op op;
        op.target = queries_[query].path;
        op.body = queries_[query].spellings[spelling];
        return op;
    }

  private:
    std::uint64_t seed_;
    std::vector<HotQuery> queries_;
};

/** Warm-up operations fill the cache budget before timing. */
constexpr std::uint64_t kColdWarmupOps = 256;
/** Warm-up indices sit far above any timed index. */
constexpr std::uint64_t kColdWarmupBase = std::uint64_t{1} << 22;

class ColdStream : public Stream
{
  public:
    explicit ColdStream(std::uint64_t seed) : seed_(seed) {}

    std::vector<Op>
    setup() const override
    {
        std::vector<Op> ops;
        for (std::uint64_t i = 0; i < kColdWarmupOps; ++i)
            ops.push_back(coldOp(seed_, kColdWarmupBase + i));
        return ops;
    }

    Op
    op(unsigned conn, std::uint64_t index) const override
    {
        return coldOp(seed_, index * kConnections + conn);
    }

  private:
    std::uint64_t seed_;
};

class IngestStream : public Stream
{
  public:
    explicit IngestStream(std::uint64_t seed) : seed_(seed) {}

    std::vector<Op>
    setup() const override
    {
        std::vector<Op> ops;
        for (unsigned s = 0; s < kConnections; ++s) {
            Op op;
            op.target = "/v1/trace/ingest";
            op.body = ingestCreateBody(s);
            op.records = 0;
            ops.push_back(std::move(op));
        }
        return ops;
    }

    Op
    op(unsigned conn, std::uint64_t index) const override
    {
        if (index % snapshotEvery == snapshotEvery - 1)
            return snapshotOp("/v1/trace/ingest/{session}");
        const std::uint64_t append = index - index / snapshotEvery;
        Op op;
        op.target = "/v1/trace/ingest/{session}";
        if (append == 0)
            op.body = bwtrHeader();
        op.body += bwtrRecords(ingestRecords(seed_, conn,
                                             append * kIngestChunkRecords,
                                             kIngestChunkRecords));
        op.records = kIngestChunkRecords;
        return op;
    }

  private:
    std::uint64_t seed_;
};

class ScrapeStream : public Stream
{
  public:
    std::vector<Op> setup() const override { return {}; }

    Op
    op(unsigned, std::uint64_t) const override
    {
        return snapshotOp("/metrics");
    }
};

void
fnv(std::uint64_t *hash, const std::string &bytes)
{
    for (const char c : bytes) {
        *hash ^= static_cast<unsigned char>(c);
        *hash *= 0x100000001b3ull;
    }
    // A separator, so ("ab","c") and ("a","bc") differ.
    *hash ^= 0xff;
    *hash *= 0x100000001b3ull;
}

void
putLe(std::string *out, std::uint64_t value, int bytes)
{
    for (int i = 0; i < bytes; ++i)
        out->push_back(static_cast<char>((value >> (8 * i)) & 0xff));
}

} // namespace

std::vector<HotQuery>
hotQueries(std::uint64_t seed, std::size_t count,
           std::size_t spellings)
{
    SplitMix rng(subSeed(seed, 1));
    std::vector<HotQuery> queries;
    std::set<std::string> seen;
    while (queries.size() < count) {
        const bool traffic = rng.below(10) < 6;
        const Val value = hotQueryValue(rng, traffic);
        HotQuery query;
        query.path = traffic ? "/v1/traffic" : "/v1/solve";
        if (!seen.insert(query.path + compact(value)).second)
            continue;
        for (std::size_t s = 0; s < spellings; ++s) {
            query.spellings.push_back(
                spelled(value, static_cast<Style>(s % 4),
                        subSeed(seed, 1000 + queries.size())));
        }
        queries.push_back(std::move(query));
    }
    return queries;
}

std::string
coldBatchBody(std::uint64_t seed, std::uint64_t index)
{
    SplitMix rng(subSeed(seed, (std::uint64_t{2} << 56) ^ index));
    // Two technique groups per batch, so the SoA grouping runs.
    const Val groups[2] = {techniques(rng, 2), techniques(rng, 2)};
    Val items = Val::array();
    for (std::uint64_t j = 0; j < 64; ++j) {
        // Exactly 32 of each kind: a solve costs more than a traffic
        // query, so a drawn split would widen the batch's cost.
        const bool traffic = j % 2 == 0;
        Val body = Val::object();
        body.set("alpha", Val::number(0.2 + 0.6 * rng.uniform()));
        body.set("total_ceas",
                 Val::number(32.0 + 12.0 * static_cast<double>(j % 8) +
                             uniqueFraction(index * 64 + j)));
        if (traffic) {
            body.set("cores", Val::number(static_cast<double>(
                                  1 + rng.below(16))));
        } else {
            body.set("traffic_budget",
                     Val::number(0.5 + 0.25 * static_cast<double>(
                                                  rng.below(7))));
        }
        const Val &group = groups[rng.below(2)];
        if (!group.arr.empty())
            body.set("techniques", group);
        Val item = Val::object();
        item.set("path",
                 Val::string(traffic ? "/v1/traffic" : "/v1/solve"));
        item.set("body", std::move(body));
        items.arr.push_back(std::move(item));
    }
    Val request = Val::object();
    request.set("requests", std::move(items));
    return compact(request);
}

std::string
coldFigure15Body(std::uint64_t seed, std::uint64_t index)
{
    SplitMix rng(subSeed(seed, (std::uint64_t{3} << 56) ^ index));
    Val request = Val::object();
    request.set("kind", Val::string("figure15"));
    request.set("alpha", Val::number(0.3 + 0.5 * rng.uniform()));
    // Eight generations make a sweep cost what a 64-item batch costs
    // end to end (about 2.3 ms each over loopback on a 4-vCPU VM;
    // at the default four a sweep took half that), so the two
    // classes overlap and no percentile sits on a gap between them.
    request.set("generations", Val::number(8));
    request.set("bandwidth_growth", Val::number(1.0 + uniqueFraction(index)));
    return compact(request);
}

Op
coldOp(std::uint64_t seed, std::uint64_t index)
{
    Op op;
    if (index / kConnections % 2 == 0) {
        op.target = "/v1/batch";
        op.body = coldBatchBody(seed, index);
        op.records = 64;
    } else {
        op.target = "/v1/sweep";
        op.body = coldFigure15Body(seed, index);
    }
    return op;
}

std::string
ingestCreateBody(unsigned session)
{
    // The SHARDS salt stays fixed across benchmark seeds: it decides
    // which of the few hottest lines are sampled, and so how much
    // work the fold does, far more than the record order does.
    Val request = Val::object();
    request.set("format", Val::string("binary"));
    request.set("size_kib", Val::number(1024));
    request.set("assoc", Val::number(16));
    request.set("sample_rate", Val::number(0.1));
    request.set("max_sampled_lines", Val::number(8192));
    request.set("seed", Val::number(1 + session));
    return compact(request);
}

std::vector<MemoryAccess>
ingestRecords(std::uint64_t seed, unsigned session, std::uint64_t first,
              std::size_t count)
{
    // Popularity falls as a power of the line index: line =
    // lines * u^3 puts most references on a small hot set with a
    // long tail, like the paper's power-law miss curves.  Record i
    // takes draws 3i .. 3i + 2 of the session's generator.
    constexpr double kLines = static_cast<double>(1u << 18);
    const std::uint64_t stream = subSeed(seed, 100 + session);
    const std::uint64_t base = (std::uint64_t{session} + 1) << 32;
    SplitMix rng = SplitMix::at(stream, 3 * first);
    std::vector<MemoryAccess> records(count);
    for (MemoryAccess &record : records) {
        const double u = rng.uniform();
        const auto line = static_cast<std::uint64_t>(kLines * u * u * u);
        record.address = base + line * 64 + rng.below(64);
        record.type = rng.below(10) < 3 ? AccessType::Write
                                        : AccessType::Read;
        record.thread = 0;
    }
    return records;
}

std::string
bwtrHeader()
{
    std::string header = "BWTR";
    putLe(&header, 1, 4);  // version
    putLe(&header, 64, 4); // line-size hint
    putLe(&header, 0, 4);  // reserved
    return header;
}

std::string
bwtrRecords(const std::vector<MemoryAccess> &records)
{
    std::string bytes;
    bytes.reserve(records.size() * 12);
    for (const MemoryAccess &record : records) {
        putLe(&bytes, record.address, 8);
        putLe(&bytes, record.thread, 2);
        putLe(&bytes, static_cast<std::uint64_t>(record.type), 1);
        putLe(&bytes, 0, 1);
    }
    return bytes;
}

std::unique_ptr<Stream>
makeStream(const std::string &workload, std::uint64_t seed,
           std::uint64_t ops)
{
    std::unique_ptr<Stream> stream;
    if (workload == "hot_hits") {
        stream = std::make_unique<HitStream>(seed, 512);
    } else if (workload == "cold_compute") {
        stream = std::make_unique<ColdStream>(seed);
    } else if (workload == "ingest_stream") {
        stream = std::make_unique<IngestStream>(seed);
        // Live-curve reads beside the appends, frequent enough that
        // every round's snapshot p90 has ten samples beyond it.
        stream->snapshotEvery = 10;
        // Fill the SHARDS state before timing, so every timed
        // snapshot reads a curve of steady-state size.
        stream->warmupOpsPerConnection = 30;
    } else if (workload == "routed_cluster") {
        stream = std::make_unique<HitStream>(subSeed(seed, 7), 256);
    } else {
        return nullptr;
    }
    stream->opsPerConnection = ops;
    return stream;
}

std::unique_ptr<Stream>
makeScrapeStream(std::uint64_t scrapes)
{
    auto stream = std::make_unique<ScrapeStream>();
    stream->opsPerConnection = scrapes;
    return stream;
}

std::uint64_t
streamDigest(const Stream &stream)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    const auto add = [&hash](const Op &op) {
        fnv(&hash, op.method);
        fnv(&hash, op.target);
        fnv(&hash, op.body);
    };
    for (const Op &op : stream.setup())
        add(op);
    for (unsigned conn = 0; conn < kConnections; ++conn) {
        const std::uint64_t end =
            stream.warmupOpsPerConnection + stream.opsPerConnection;
        for (std::uint64_t i = 0; i < end; ++i)
            add(stream.op(conn, i));
    }
    return hash;
}

} // namespace perfbench
