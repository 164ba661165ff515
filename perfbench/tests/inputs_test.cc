/**
 * @file
 * Determinism of the perfbench inputs: the same seed gives a
 * byte-identical digest of every workload's request stream, another
 * seed a different one; the spellings of a hot query differ in bytes
 * but share one canonical cache key; cold operations never repeat and
 * alternate batch and sweep; an ingest chunk made on its own equals
 * the same records made as part of a longer run.
 *
 * Run: ctest --test-dir <build dir>   (or the binary directly)
 */

#include <iostream>
#include <set>
#include <string>

#include "inputs.hh"
#include "server/json.hh"
#include "server/model_service.hh"

namespace {

int g_failures = 0;

void
check(bool ok, const std::string &what)
{
    if (!ok) {
        ++g_failures;
        std::cerr << "FAIL: " << what << "\n";
    }
}

std::uint64_t
digest(const std::string &workload, std::uint64_t seed)
{
    return perfbench::streamDigest(
        *perfbench::makeStream(workload, seed, 60));
}

} // namespace

int
main()
{
    using namespace perfbench;

    for (const std::string &workload : workloadNames()) {
        const std::uint64_t first = digest(workload, 1);
        check(first == digest(workload, 1),
              workload + ": same seed, same digest");
        check(first != digest(workload, 2),
              workload + ": another seed, another digest");
    }

    for (const HotQuery &query : hotQueries(5, 64, 4)) {
        std::set<std::string> bytes;
        std::set<std::string> keys;
        for (const std::string &spelling : query.spellings) {
            bwwall::JsonValue body;
            check(bwwall::JsonValue::parse(spelling, &body),
                  "spelling parses: " + spelling);
            bytes.insert(spelling);
            keys.insert(bwwall::canonicalCacheKey(query.path, body));
        }
        check(bytes.size() == query.spellings.size(),
              "spellings differ in bytes: " + query.spellings.front());
        check(keys.size() == 1,
              "spellings share one key: " + query.spellings.front());
    }

    // Every timed cold operation and every warm-up one is distinct.
    const std::unique_ptr<Stream> cold = makeStream("cold_compute", 3, 400);
    std::set<std::string> bodies;
    std::size_t ops = 0;
    for (const Op &op : cold->setup()) {
        bodies.insert(op.target + op.body);
        ++ops;
    }
    for (unsigned conn = 0; conn < kConnections; ++conn) {
        for (std::uint64_t i = 0; i < cold->opsPerConnection; ++i) {
            const Op op = cold->op(conn, i);
            if (op.kind == OpKind::Main) {
                bodies.insert(op.target + op.body);
                ++ops;
            }
        }
    }
    check(bodies.size() == ops, "cold operations are all distinct");
    for (unsigned conn = 0; conn < kConnections; ++conn) {
        for (std::uint64_t i = 0; i < 8; ++i) {
            check(cold->op(conn, i).target ==
                      (i % 2 == 0 ? "/v1/batch" : "/v1/sweep"),
                  "cold operations alternate batch and sweep");
        }
    }

    // A record is a function of its index alone, however the stream
    // is sliced into chunks.
    const auto run = ingestRecords(4, 1, 0, 2 * kIngestChunkRecords);
    const auto part = ingestRecords(4, 1, kIngestChunkRecords,
                                    kIngestChunkRecords);
    check(bwtrRecords(part) ==
              bwtrRecords({run.begin() + kIngestChunkRecords, run.end()}),
          "ingest records do not depend on how they are sliced");

    if (g_failures != 0) {
        std::cerr << g_failures << " check(s) failed\n";
        return 1;
    }
    std::cout << "perfbench inputs: all checks passed\n";
    return 0;
}
