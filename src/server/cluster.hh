/**
 * @file
 * bwwalld cluster mode: the consistent-hash shard map and the
 * bounded peer-fill RPC (docs/CLUSTER.md).
 *
 * N bwwalld instances share one rendezvous map
 * (util/rendezvous.hh) over canonical request keys — the exact
 * strings that key the ResultCache — so every member (and the thin
 * examples/bwwall_router) computes the same owner for every
 * request without coordination.  A node that misses its local
 * cache on a key it does not own asks the owner once (POST, the
 * original body, the X-BWWall-Peer-Fill marker, a bounded deadline
 * and retry budget through HttpClient::perform) before computing
 * locally.  Because the owner serves the fill through its own
 * single-flight cache, a storm of identical requests across the
 * whole cluster collapses to one compute; because every fill
 * response is the owner's canonical bytes, cluster answers stay
 * byte-identical to a single-node solve.
 *
 * Loop prevention is one rule: a request carrying
 * X-BWWall-Peer-Fill is answered locally, never re-forwarded, no
 * matter what the receiver's map says.  A fill is therefore at
 * most one hop even when members briefly disagree about
 * membership, and any fill failure (owner down, slow, shedding)
 * falls back to a local compute — the cluster
 * degrades to N independent caches, never to an error.
 */

#ifndef BWWALL_SERVER_CLUSTER_HH
#define BWWALL_SERVER_CLUSTER_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "server/http.hh"
#include "server/http_client.hh"
#include "util/breaker.hh"
#include "util/rendezvous.hh"

namespace bwwall {

class JsonValue;
class MetricsRegistry;

/**
 * The peer-fill marker.  Outbound fills send it; a request
 * carrying it is served locally (the loop-prevention rule).  The
 * response echoes X-BWWall-Peer-Filled when the answer came from a
 * peer, purely for observability — bodies never differ.
 */
inline constexpr const char *kPeerFillHeader =
    "X-BWWall-Peer-Fill";

/** kPeerFillHeader as the parser lowercases it. */
inline constexpr const char *kPeerFillHeaderLower =
    "x-bwwall-peer-fill";

/** Response marker: this answer was filled from a peer. */
inline constexpr const char *kPeerFilledHeader =
    "X-BWWall-Peer-Filled";

/** Everything tunable about one node's view of the cluster. */
struct ClusterConfig
{
    /**
     * This node's advertised "host:port", exactly as it is spelled
     * in every member's peer list (string identity, not address
     * identity).  Empty for a pure router, which owns no shard.
     */
    std::string self;

    /** Full membership, self included.  Order does not matter. */
    std::vector<std::string> peers;

    /** Wall-clock budget of one peer fill, milliseconds. */
    unsigned peerDeadlineMs = 1000;

    /** Attempts per fill, the first included (1 = no retry). */
    unsigned peerAttempts = 2;

    /** connect() bound per attempt, milliseconds. */
    unsigned connectTimeoutMs = 250;

    /**
     * Cadence of the background /healthz prober, milliseconds
     * (0 — the default — disables it).  With the prober running,
     * a peer whose probe fails is ejected (fills to it skipped
     * instantly) and reinstated by the next successful probe, so
     * ejection and recovery both land within one interval.
     * Without it, peer health is driven purely by fill outcomes
     * and the breaker's own half-open cooldown.
     */
    unsigned probeIntervalMs = 0;

    /** Bound on one probe's connect and read, milliseconds. */
    unsigned probeTimeoutMs = 250;

    /**
     * Consecutive fill transport failures that mark a peer down
     * even between probes (a dead peer stops burning deadlines
     * after this many fills, not after the next probe tick).
     */
    unsigned peerFailureThreshold = 3;

    /** Shard-map seed; every member must agree (docs/CLUSTER.md). */
    std::uint64_t seed = kRendezvousSeed;
};

/**
 * Parses a "host:port[,host:port...]" peer list.  Duplicates are
 * rejected (the map would double-weight the node); each entry must
 * contain a host and a decimal port.  Returns false with *error
 * set on the first bad entry.
 */
bool parsePeerList(const std::string &text,
                   std::vector<std::string> *out,
                   std::string *error);

/**
 * One node's (or the router's) cluster brain: the shard map plus
 * the upstream connection pool.  Query methods are pure and
 * lock-free; exchange() and fillFromPeer() are thread-safe and
 * pool one keep-alive HttpClient per peer per concurrent
 * exchange.
 */
class Cluster
{
  public:
    /**
     * Validates and adopts @p config: peers parsed and non-empty,
     * self (when set) a member.  Throws BadRequest on an unusable
     * configuration — cluster wiring is a start-time user error,
     * not a runtime condition.  @p metrics (optional) receives the
     * cluster.* counters.
     */
    explicit Cluster(ClusterConfig config,
                     MetricsRegistry *metrics = nullptr);

    ~Cluster();

    Cluster(const Cluster &) = delete;
    Cluster &operator=(const Cluster &) = delete;

    /** Membership, deduplicated and sorted (the canonical order). */
    const std::vector<std::string> &nodes() const
    {
        return nodes_;
    }

    std::size_t nodeCount() const { return nodes_.size(); }

    const std::string &self() const { return config_.self; }

    /** True when peer fill can ever apply: 2+ nodes and a self. */
    bool
    enabled() const
    {
        return nodes_.size() >= 2 && !config_.self.empty();
    }

    /** Index of the owner of @p key in nodes(). */
    std::size_t
    ownerIndex(std::string_view key) const
    {
        return rendezvousOwner(nodes_, key, config_.seed);
    }

    /** The owning node's "host:port". */
    const std::string &
    owner(std::string_view key) const
    {
        return nodes_[ownerIndex(key)];
    }

    /** True when this node owns @p key (routers own nothing). */
    bool
    selfOwns(std::string_view key) const
    {
        return !config_.self.empty() &&
               owner(key) == config_.self;
    }

    /** Failover order over nodes() for @p key (owner first). */
    std::vector<std::size_t>
    preferenceOrder(std::string_view key) const
    {
        return rendezvousOrder(nodes_, key, config_.seed);
    }

    /**
     * One request to @p peer over a pooled keep-alive connection:
     * the one upstream path under both peer fills and the router's
     * forwards.  Runs HttpClient::perform() with retry under the
     * configured attempts, connect timeout, and a read bound of
     * peerDeadlineMs, within the request's deadlineMs in total.
     *
     * The client's reuse rule retires a pooled connection the peer
     * has written to or closed (cluster.upstream.stale_dropped).  A
     * connection is also dropped after a transport error or a
     * Connection: close, and a peer's idle connections close when
     * its breaker opens.  Every new connection counts
     * cluster.upstream.connects.
     *
     * Returns perform()'s transport verdict, with *failure (when
     * given) classifying a failed one.  Peer health is the
     * caller's to record: a fill and a forward judge a 5xx apart.
     */
    bool exchange(const std::string &peer,
                  const HttpClient::Request &request,
                  HttpClientResponse *out, std::string *error,
                  HttpClient::FailureKind *failure = nullptr);

    /**
     * One bounded peer-fill RPC: POST @p body to @p peer at
     * @p path, marked with kPeerFillHeader, under the stricter of
     * the configured peer deadline and @p remainingSeconds
     * (negative = no caller bound).  Returns true only for a
     * 200, so the local cache adopts only the owner's answer.
     * On success *out holds the peer's canonical response with the
     * kPeerFilledHeader marker added.
     */
    bool fillFromPeer(const std::string &peer,
                      const std::string &path,
                      const std::string &body,
                      double remainingSeconds, HttpResponse *out);

    /** @name Peer health
     * One util/breaker.hh Breaker per non-self peer, fed by fill
     * outcomes (and by the router's forward outcomes) and — when
     * probeIntervalMs > 0 — driven authoritatively by the
     * background /healthz prober: a failed probe trips the
     * breaker, a successful one resets it.  A down peer is
     * skipped instantly (cluster.peer_fill.peer_down) instead of
     * burning the request's remaining deadline on a doomed RPC.
     *  @{ */

    /**
     * True when a fill/forward to @p peer may proceed.  With the
     * prober running, only a closed breaker admits — reinstatement
     * is the prober's job.  Without it, an open breaker admits one
     * half-open trial per cooldown, so fills themselves drive
     * recovery.
     */
    bool peerAvailable(const std::string &peer);

    /** Reports one fill/forward success on @p peer. */
    void notePeerSuccess(const std::string &peer);

    /** Reports one fill/forward transport failure on @p peer. */
    void notePeerFailure(const std::string &peer);

    /** @p peer's breaker state (Closed = fillable). */
    BreakerState peerState(const std::string &peer) const;

    /** Runs one probe pass over every non-self peer, now. */
    void probePeersOnce();
    /** @} */

    /**
     * The /v1/cluster payload: kind, enabled, self, seed (hex),
     * the node list with per-peer health, the probe interval, and
     * the cluster.* stat counters.
     */
    JsonValue statusJson() const;

    const ClusterConfig &config() const { return config_; }

  private:
    using ClientPool = std::vector<std::unique_ptr<HttpClient>>;

    /**
     * A pooled keep-alive client for @p peer (pop or create; null
     * for an unusable peer).
     */
    std::unique_ptr<HttpClient>
    acquireClient(const std::string &peer);

    /** Returns @p client to @p peer's pool (bounded; else drop). */
    void releaseClient(const std::string &peer,
                       std::unique_ptr<HttpClient> client);

    /** @p peer's slot in pools_ (null for a non-member). */
    ClientPool *poolFor(const std::string &peer);

    void count(const char *name) const;

    /** @p peer's breaker, created closed on first touch. */
    Breaker &healthFor(const std::string &peer);

    /**
     * Counts a breaker transition of @p peer
     * (cluster.health.ejections / .reinstatements), refreshes the
     * peers_down gauge, and closes an ejected peer's idle pooled
     * connections.  Callers hold healthMutex_.
     */
    void noteHealthEventLocked(const std::string &peer,
                               BreakerEvent event);

    /** The prober thread body: probe, sleep, repeat. */
    void proberLoop();

    ClusterConfig config_;
    std::vector<std::string> nodes_;
    MetricsRegistry *metrics_;

    mutable std::mutex poolMutex_;
    /** One pool per member, in nodes() order. */
    std::vector<ClientPool> pools_;
    std::uint64_t clientSequence_ = 0;

    mutable std::mutex healthMutex_;
    std::map<std::string, Breaker> health_;
    BreakerConfig healthConfig_;

    std::thread prober_;
    std::mutex proberMutex_;
    std::condition_variable proberCv_;
    bool proberStop_ = false;
};

} // namespace bwwall

#endif // BWWALL_SERVER_CLUSTER_HH
