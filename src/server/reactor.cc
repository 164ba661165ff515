#include "server/reactor.hh"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "util/fault.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/trace_span.hh"

namespace bwwall {

namespace {

constexpr std::size_t kReadChunk = 8192;

/** Sweep cadence for idle-connection timeouts. */
constexpr auto kSweepPeriod = std::chrono::milliseconds(250);

void
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/**
 * Sends each segment as soon as it is written.  Without it, the
 * tail of a response split across sends (a full socket buffer, or
 * the http.write.short fault) waits for the client's delayed ACK,
 * about 40 ms.
 */
void
setNoDelay(int fd)
{
    const int enable = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable,
                 sizeof(enable));
}

void
wakeEventFd(int fd, std::uint64_t count = 1)
{
    [[maybe_unused]] ssize_t ignored =
        ::write(fd, &count, sizeof(count));
}

/**
 * The answer when the owner's handler or inline hook breaks its
 * no-throw contract: survive it the way a worker survived a bad
 * connection.
 */
HttpResponse
abortedRequest(MetricsRegistry *metrics, const std::exception &e)
{
    warn("request aborted: ", e.what());
    metrics->addCounter("server.connection_errors");
    return httpErrorResponseFor(
        {ErrorCategory::Faulted,
         std::string("internal error: ") + e.what()});
}

} // namespace

unsigned
raiseOpenFileLimit()
{
    rlimit limit{};
    if (::getrlimit(RLIMIT_NOFILE, &limit) != 0)
        return 1024;
    if (limit.rlim_cur < limit.rlim_max) {
        rlimit raised = limit;
        raised.rlim_cur = limit.rlim_max;
        if (::setrlimit(RLIMIT_NOFILE, &raised) == 0)
            limit = raised;
    }
    const rlim_t cap = 1u << 20;
    return static_cast<unsigned>(std::min(limit.rlim_cur, cap));
}

/** One connection, owned by exactly one shard thread. */
struct HttpReactor::Conn
{
    int fd;
    std::uint64_t id;
    HttpParser parser;

    /** Response bytes not yet accepted by the socket. */
    std::string out;
    std::size_t outOffset = 0;

    /** A request from this connection is queued or computing. */
    bool computing = false;

    /**
     * Open sink of an in-progress streaming upload.  Destroying the
     * Conn (closeConn, drain) destroys the sink, which by contract
     * is the abort notification.
     */
    std::unique_ptr<HttpStreamSink> sink;

    /** keepAlive of the streaming request being drained. */
    bool streamKeepAlive = true;

    bool closeAfterWrite = false;

    /** EPOLLOUT is armed (pending output met EAGAIN). */
    bool wantWrite = false;

    Clock::time_point lastActivity;

    Conn(int fd_in, std::uint64_t id_in, HttpLimits limits,
         Clock::time_point now)
        : fd(fd_in), id(id_in), parser(limits), lastActivity(now)
    {}
};

/** One event loop: an epoll set plus everything only it touches. */
struct HttpReactor::Shard
{
    unsigned index = 0;
    int epollFd = -1;

    /** eventfd waking the loop for inbox/completions (data.u64 0). */
    int wakeFd = -1;

    /** Accepted fds from the accept thread. */
    MpmcQueue<int> inbox{1024};

    /** Serialized responses from the compute pool, boxed. */
    MpmcQueue<std::unique_ptr<Completion>> completions;

    std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns;

    /** Requests from this shard queued or computing (shard-only). */
    unsigned outstanding = 0;

    std::thread thread;

    explicit Shard(std::size_t completion_capacity)
        : completions(completion_capacity)
    {}
};

HttpReactor::HttpReactor(ReactorConfig config,
                         MetricsRegistry *metrics, Handler handler,
                         TracePredicate traced,
                         StreamPredicate streamed,
                         StreamOpenFn streamOpen,
                         InlineFn answerInline)
    : config_(std::move(config)), metrics_(metrics),
      handler_(std::move(handler)), traced_(std::move(traced)),
      streamed_(std::move(streamed)),
      streamOpen_(std::move(streamOpen)),
      answerInline_(std::move(answerInline))
{}

HttpReactor::~HttpReactor()
{
    requestStop();
    join();
}

void
HttpReactor::start()
{
    if (started_.exchange(true))
        panic("HttpReactor::start called twice");
    raiseOpenFileLimit();

    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        fatal("socket(): ", std::strerror(errno));
    const int enable = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &enable,
                 sizeof(enable));

    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(config_.port);
    if (::inet_pton(AF_INET, config_.bindAddress.c_str(),
                    &address.sin_addr) != 1)
        fatal("bad bind address '", config_.bindAddress, "'");
    if (::bind(listenFd_,
               reinterpret_cast<const sockaddr *>(&address),
               sizeof(address)) != 0)
        fatal("bind(", config_.bindAddress, ":", config_.port,
              "): ", std::strerror(errno));
    if (::listen(listenFd_, SOMAXCONN) != 0)
        fatal("listen(): ", std::strerror(errno));

    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(listenFd_,
                      reinterpret_cast<sockaddr *>(&bound),
                      &bound_len) != 0)
        fatal("getsockname(): ", std::strerror(errno));
    boundPort_ = ntohs(bound.sin_port);

    if (::pipe(wakePipe_) != 0)
        fatal("pipe(): ", std::strerror(errno));

    computeSem_ = ::eventfd(0, EFD_SEMAPHORE | EFD_CLOEXEC);
    if (computeSem_ < 0)
        fatal("eventfd(): ", std::strerror(errno));
    const std::size_t queue_capacity = std::max<std::size_t>(
        1024, config_.maxInflight);
    computeQueue_ = std::make_unique<
        MpmcQueue<std::unique_ptr<WorkItem>>>(queue_capacity);

    shards_.reserve(config_.ioShards);
    for (unsigned i = 0; i < config_.ioShards; ++i) {
        auto shard = std::make_unique<Shard>(queue_capacity);
        shard->index = i;
        shard->epollFd = ::epoll_create1(EPOLL_CLOEXEC);
        if (shard->epollFd < 0)
            fatal("epoll_create1(): ", std::strerror(errno));
        shard->wakeFd =
            ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
        if (shard->wakeFd < 0)
            fatal("eventfd(): ", std::strerror(errno));
        epoll_event wake{};
        wake.events = EPOLLIN;
        wake.data.u64 = 0; // the wake sentinel
        ::epoll_ctl(shard->epollFd, EPOLL_CTL_ADD, shard->wakeFd,
                    &wake);
        shards_.push_back(std::move(shard));
    }
    for (unsigned i = 0; i < config_.ioShards; ++i) {
        shards_[i]->thread =
            std::thread([this, i] { shardLoop(i); });
    }
    computeThreads_.reserve(config_.computeThreads);
    for (unsigned i = 0; i < config_.computeThreads; ++i)
        computeThreads_.emplace_back([this] { computeLoop(); });
    acceptThread_ = std::thread([this] { acceptLoop(); });
}

void
HttpReactor::acceptLoop()
{
    while (!stopping()) {
        pollfd fds[2];
        fds[0] = {listenFd_, POLLIN, 0};
        fds[1] = {wakePipe_[0], POLLIN, 0};
        const int ready = ::poll(fds, 2, -1);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            warn("accept poll(): ", std::strerror(errno));
            break;
        }
        if ((fds[1].revents & POLLIN) != 0)
            break; // woken by requestStop()
        if ((fds[0].revents & POLLIN) == 0)
            continue;
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            if (stopping())
                break;
            warn("accept(): ", std::strerror(errno));
            continue;
        }
        metrics_->addCounter("server.connections");
        // The chaos harness's client that vanishes between accept
        // and service (connection reset at the doorstep).
        if (FAULT_POINT("server.accept")) {
            ::close(fd);
            continue;
        }

        // Connection-level admission: past the cap, answer 503 on
        // the still-blocking fd and close.
        if (config_.maxConnections != 0 &&
            connCount_.load(std::memory_order_relaxed) >=
                config_.maxConnections) {
            const std::string wire = capacityShed();
            [[maybe_unused]] ssize_t ignored = ::send(
                fd, wire.data(), wire.size(), MSG_NOSIGNAL);
            ::close(fd);
            continue;
        }

        setNonBlocking(fd);
        setNoDelay(fd);
        connCount_.fetch_add(1, std::memory_order_relaxed);
        Shard &shard =
            *shards_[nextShard_.fetch_add(
                         1, std::memory_order_relaxed) %
                     shards_.size()];
        int pending = fd;
        while (!shard.inbox.tryPush(std::move(pending))) {
            wakeEventFd(shard.wakeFd);
            std::this_thread::yield();
            pending = fd;
        }
        wakeEventFd(shard.wakeFd);
    }
}

void
HttpReactor::adoptConnections(Shard &shard)
{
    int fd = -1;
    while (shard.inbox.tryPop(&fd)) {
        if (stopping()) {
            ::close(fd);
            connCount_.fetch_sub(1, std::memory_order_relaxed);
            continue;
        }
        const std::uint64_t id =
            nextConnId_.fetch_add(1, std::memory_order_relaxed);
        auto conn = std::make_unique<Conn>(
            fd, id, HttpLimits{16u << 10, config_.maxBodyBytes},
            Clock::now());
        if (streamed_ != nullptr)
            conn->parser.setStreamPredicate(streamed_);
        epoll_event event{};
        event.events = EPOLLIN;
        event.data.u64 = id;
        if (::epoll_ctl(shard.epollFd, EPOLL_CTL_ADD, fd,
                        &event) != 0) {
            warn("epoll_ctl(add): ", std::strerror(errno));
            ::close(fd);
            connCount_.fetch_sub(1, std::memory_order_relaxed);
            continue;
        }
        shard.conns.emplace(id, std::move(conn));
    }
}

void
HttpReactor::updateInterest(Shard &shard, Conn *conn)
{
    epoll_event event{};
    event.events = (conn->computing ? 0u : unsigned(EPOLLIN)) |
                   (conn->wantWrite ? unsigned(EPOLLOUT) : 0u);
    event.data.u64 = conn->id;
    ::epoll_ctl(shard.epollFd, EPOLL_CTL_MOD, conn->fd, &event);
}

void
HttpReactor::closeConn(Shard &shard, Conn *conn)
{
    ::epoll_ctl(shard.epollFd, EPOLL_CTL_DEL, conn->fd, nullptr);
    ::close(conn->fd);
    shard.conns.erase(conn->id);
    connCount_.fetch_sub(1, std::memory_order_relaxed);
}

bool
HttpReactor::flushOutput(Shard &shard, Conn *conn)
{
    while (conn->outOffset < conn->out.size()) {
        const std::size_t remaining =
            conn->out.size() - conn->outOffset;
        // A firing "http.write.short" caps this send at one byte,
        // forcing the loop through its partial-write continuation —
        // exactly what a full socket buffer does.
        const std::size_t chunk =
            FAULT_POINT("http.write.short") ? 1 : remaining;
        const ssize_t wrote =
            ::send(conn->fd, conn->out.data() + conn->outOffset,
                   chunk, MSG_NOSIGNAL);
        if (wrote < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                if (!conn->wantWrite) {
                    conn->wantWrite = true;
                    updateInterest(shard, conn);
                }
                return true; // EPOLLOUT resumes the flush
            }
            closeConn(shard, conn);
            return false;
        }
        conn->outOffset += static_cast<std::size_t>(wrote);
    }
    conn->out.clear();
    conn->outOffset = 0;
    if (conn->wantWrite) {
        conn->wantWrite = false;
        updateInterest(shard, conn);
    }
    if (conn->closeAfterWrite) {
        closeConn(shard, conn);
        return false;
    }
    return true;
}

bool
HttpReactor::respond(Shard &shard, Conn *conn, std::string wire,
                     bool close_after)
{
    // The chaos harness's peer reset mid-response: the whole
    // response is dropped, exactly as on the blocking server.
    if (FAULT_POINT("http.write")) {
        closeConn(shard, conn);
        return false;
    }
    if (conn->out.empty())
        conn->out = std::move(wire);
    else
        conn->out += wire;
    if (close_after)
        conn->closeAfterWrite = true;
    return flushOutput(shard, conn);
}

std::string
HttpReactor::capacityShed()
{
    metrics_->addCounter("server.shed");
    HttpResponse response = httpErrorResponse(
        503, "server at capacity; retry later");
    response.headers["Retry-After"] = std::string(kRetryAfterSeconds);
    response.close = true;
    return serializeHttpResponse(response);
}

void
HttpReactor::rejectMalformed(Shard &shard, Conn *conn)
{
    metrics_->addCounter("server.malformed_requests");
    HttpResponse malformed =
        httpErrorResponse(400, "malformed HTTP request");
    malformed.close = true;
    respond(shard, conn, serializeHttpResponse(malformed), true);
}

bool
HttpReactor::pumpStreamBody(Shard &shard, Conn *conn, bool eof)
{
    std::string body;
    bool done = false;
    if (conn->parser.takeBody(&body, &done) !=
        HttpParseStatus::Ok) {
        metrics_->addCounter("server.malformed_requests");
        HttpResponse malformed = httpErrorResponse(
            400, "malformed chunked body");
        malformed.close = true;
        conn->sink.reset(); // destroyed-before-complete == abort
        respond(shard, conn, serializeHttpResponse(malformed),
                true);
        return false;
    }
    if (!body.empty()) {
        HttpResponse error;
        if (!conn->sink->onData(body.data(), body.size(),
                                &error)) {
            // The refused chunk desynchronized the body framing:
            // answer and close.
            conn->sink.reset();
            error.close = true;
            respond(shard, conn, serializeHttpResponse(error),
                    true);
            return false;
        }
    }
    if (done) {
        HttpResponse response = conn->sink->onComplete();
        conn->sink.reset();
        if (!conn->streamKeepAlive || stopping())
            response.close = true;
        return respond(shard, conn, serializeHttpResponse(response),
                       response.close) &&
               !response.close;
    }
    if (eof) {
        // Peer vanished mid-stream; the sink's destructor records
        // the abort.
        closeConn(shard, conn);
    }
    return false;
}

std::string
HttpReactor::finishResponse(const WorkItem &item,
                            HttpResponse &response, bool *close)
{
    if (!item.request.keepAlive || stopping())
        response.close = true;
    *close = response.close;
    Span serialize_span("server.serialize");
    return serializeHttpResponse(response);
}

bool
HttpReactor::answerInline(WorkItem &item, std::string *wire,
                          bool *close)
{
    if (answerInline_ == nullptr)
        return false;
    const ScopedThreadTrace trace_scope(item.traced);
    Span request_span("server.request");
    HttpResponse response;
    try {
        if (!answerInline_(item.request, item.received,
                           inflight_.load(std::memory_order_relaxed),
                           &response, &item.prepared)) {
            // The compute thread records this request's
            // "server.request"; the shard's share is preparing it.
            request_span.rename("server.prepare");
            return false;
        }
    } catch (const std::exception &e) {
        response = abortedRequest(metrics_, e);
    }
    *wire = finishResponse(item, response, close);
    return true;
}

void
HttpReactor::pumpRequests(Shard &shard, Conn *conn, bool eof)
{
    // A loop, not recursion: a client may pipeline thousands of
    // requests that the shard answers inline or that stream.
    while (pumpRequest(shard, conn, eof)) {
    }
}

bool
HttpReactor::pumpRequest(Shard &shard, Conn *conn, bool eof)
{
    if (conn->sink != nullptr)
        return pumpStreamBody(shard, conn, eof);
    if (conn->computing)
        return false; // strictly one request in flight per connection
    HttpRequest request;
    switch (conn->parser.poll(&request)) {
      case HttpParseStatus::Ok: {
        const Clock::time_point received = Clock::now();
        if (config_.maxInflight != 0 &&
            inflight_.load(std::memory_order_relaxed) >=
                config_.maxInflight) {
            respond(shard, conn, capacityShed(), true);
            return false;
        }
        WorkItem item;
        item.shard = shard.index;
        item.connId = conn->id;
        item.request = std::move(request);
        item.received = received;
        item.traced = traced_ != nullptr && traced_(item.request);
        inflight_.fetch_add(1, std::memory_order_relaxed);
        std::string wire;
        bool close = false;
        if (answerInline(item, &wire, &close)) {
            inflight_.fetch_sub(1, std::memory_order_relaxed);
            // Answered: go on to the pipelined follow-ups.
            return respond(shard, conn, std::move(wire), close) &&
                   !conn->closeAfterWrite;
        }
        queued_.fetch_add(1);
        conn->computing = true;
        shard.outstanding += 1;
        // A failed push leaves the box here, freed on return.
        auto boxed = std::make_unique<WorkItem>(std::move(item));
        if (!computeQueue_->tryPush(std::move(boxed))) {
            // The compute queue itself is the capacity backstop.
            inflight_.fetch_sub(1, std::memory_order_relaxed);
            queued_.fetch_sub(1);
            conn->computing = false;
            shard.outstanding -= 1;
            respond(shard, conn, capacityShed(), true);
            return false;
        }
        wakeEventFd(computeSem_);
        updateInterest(shard, conn); // reads wait for the answer
        return false;
      }
      case HttpParseStatus::NeedMore: {
        if (!eof)
            return false;
        if (conn->parser.empty()) {
            closeConn(shard, conn); // clean close between requests
            return false;
        }
        rejectMalformed(shard, conn);
        return false;
      }
      case HttpParseStatus::Malformed:
        rejectMalformed(shard, conn);
        return false;
      case HttpParseStatus::TooLarge: {
        metrics_->addCounter("server.oversized_requests");
        HttpResponse too_large = httpErrorResponse(
            413, "request exceeds the configured size limit");
        too_large.close = true;
        respond(shard, conn, serializeHttpResponse(too_large),
                true);
        return false;
      }
      case HttpParseStatus::Unsupported: {
        HttpResponse unsupported = httpErrorResponse(
            501, "only chunked transfer-encoding is supported");
        unsupported.close = true;
        respond(shard, conn, serializeHttpResponse(unsupported),
                true);
        return false;
      }
      case HttpParseStatus::Streaming: {
        HttpResponse refusal = httpErrorResponse(
            404, "no handler for the streamed request");
        std::unique_ptr<HttpStreamSink> sink;
        if (streamOpen_ != nullptr)
            sink = streamOpen_(request, &refusal);
        if (sink == nullptr) {
            // The unread body desynchronizes the connection: close.
            refusal.close = true;
            respond(shard, conn, serializeHttpResponse(refusal),
                    true);
            return false;
        }
        conn->sink = std::move(sink);
        conn->streamKeepAlive = request.keepAlive;
        return true; // the sink takes the body next
      }
    }
    return false;
}

void
HttpReactor::handleReadable(Shard &shard, Conn *conn)
{
    // The chaos harness's peer reset: the connection drops with
    // no response, so a client sees a transport failure it may
    // retry, never a 400 it must not.
    if (FAULT_POINT("http.read")) {
        metrics_->addCounter("server.malformed_requests");
        closeConn(shard, conn);
        return;
    }
    bool eof = false;
    char chunk[kReadChunk];
    for (;;) {
        const ssize_t got =
            ::recv(conn->fd, chunk, sizeof(chunk), 0);
        if (got > 0) {
            conn->parser.append(
                chunk, static_cast<std::size_t>(got));
            conn->lastActivity = Clock::now();
            // A short read drained the socket: epoll is
            // level-triggered, so a FIN or bytes that arrive later
            // fire EPOLLIN again, and a recv() for EAGAIN is waste.
            if (static_cast<std::size_t>(got) < sizeof(chunk))
                break;
            continue;
        }
        if (got == 0) {
            eof = true;
            break;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        // Peer reset mid-request: same rendering as a read error
        // on the blocking server.
        rejectMalformed(shard, conn);
        return;
    }
    pumpRequests(shard, conn, eof);
}

void
HttpReactor::processCompletions(Shard &shard)
{
    std::unique_ptr<Completion> completion;
    while (shard.completions.tryPop(&completion)) {
        shard.outstanding -= 1;
        inflight_.fetch_sub(1, std::memory_order_relaxed);
        const auto it = shard.conns.find(completion->connId);
        if (it == shard.conns.end())
            continue; // the connection died while computing
        Conn *conn = it->second.get();
        conn->computing = false;
        conn->lastActivity = Clock::now();
        if (!respond(shard, conn, std::move(completion->wire),
                     completion->close))
            continue; // closed (error, or close-after-write done)
        if (conn->closeAfterWrite)
            continue; // close resumes once EPOLLOUT drains it
        if (stopping()) {
            // Drain: no further requests on this connection.
            if (conn->out.empty())
                closeConn(shard, conn);
            else
                conn->closeAfterWrite = true;
            continue;
        }
        updateInterest(shard, conn); // re-arm reads
        pumpRequests(shard, conn, false); // pipelined follow-ups
    }
}

void
HttpReactor::sweepIdle(Shard &shard)
{
    if (config_.idleTimeoutMs == 0)
        return;
    const Clock::time_point now = Clock::now();
    const auto limit =
        std::chrono::milliseconds(config_.idleTimeoutMs);
    std::vector<std::uint64_t> idle;
    for (const auto &[id, conn] : shard.conns) {
        if (!conn->computing && now - conn->lastActivity > limit)
            idle.push_back(id);
    }
    for (const std::uint64_t id : idle) {
        const auto it = shard.conns.find(id);
        if (it == shard.conns.end())
            continue;
        Conn *conn = it->second.get();
        if (!conn->out.empty()) {
            // A writer that stopped reading: just drop it.
            closeConn(shard, conn);
            continue;
        }
        metrics_->addCounter("server.read_timeouts");
        HttpResponse timeout = httpErrorResponse(
            408, "timed out waiting for the request");
        timeout.close = true;
        respond(shard, conn, serializeHttpResponse(timeout), true);
    }
}

void
HttpReactor::shardLoop(unsigned index)
{
    Shard &shard = *shards_[index];
    epoll_event events[128];
    Clock::time_point last_sweep = Clock::now();
    bool drained_idle = false;
    for (;;) {
        if (stopping()) {
            if (!drained_idle) {
                // Close idle connections right away; computing
                // ones finish through their completions.
                std::vector<std::uint64_t> open;
                open.reserve(shard.conns.size());
                for (const auto &[id, conn] : shard.conns)
                    open.push_back(id);
                for (const std::uint64_t id : open) {
                    const auto it = shard.conns.find(id);
                    if (it == shard.conns.end())
                        continue;
                    Conn *conn = it->second.get();
                    if (conn->computing)
                        continue;
                    if (!conn->out.empty()) {
                        conn->closeAfterWrite = true;
                        continue;
                    }
                    closeConn(shard, conn);
                }
                drained_idle = true;
            }
            if (shard.conns.empty() && shard.outstanding == 0)
                break;
        }
        const int ready = ::epoll_wait(shard.epollFd, events, 128,
                                       250);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            warn("epoll_wait(): ", std::strerror(errno));
            continue;
        }
        adoptConnections(shard);
        for (int i = 0; i < ready; ++i) {
            const epoll_event &event = events[i];
            if (event.data.u64 == 0) {
                std::uint64_t drained = 0;
                [[maybe_unused]] ssize_t ignored =
                    ::read(shard.wakeFd, &drained,
                           sizeof(drained));
                continue;
            }
            const auto it = shard.conns.find(event.data.u64);
            if (it == shard.conns.end())
                continue; // closed earlier in this batch
            Conn *conn = it->second.get();
            if ((event.events & (EPOLLERR | EPOLLHUP)) != 0) {
                closeConn(shard, conn);
                continue;
            }
            if ((event.events & EPOLLOUT) != 0) {
                if (!flushOutput(shard, conn))
                    continue;
            }
            if ((event.events & EPOLLIN) != 0)
                handleReadable(shard, conn);
        }
        processCompletions(shard);
        const Clock::time_point now = Clock::now();
        if (now - last_sweep >= kSweepPeriod) {
            sweepIdle(shard);
            last_sweep = now;
        }
    }
}

void
HttpReactor::computeLoop()
{
    for (;;) {
        std::uint64_t token = 0;
        const ssize_t got =
            ::read(computeSem_, &token, sizeof(token));
        if (got < 0) {
            if (errno == EINTR)
                continue;
            return; // the semaphore is gone; we are shutting down
        }
        // A failed pop does not make the token spurious: with
        // several shards pushing, the head cell can be claimed but
        // not yet published while a later item and its token are
        // already visible.  Dropping the token would strand that
        // item, so keep it and retry; only a token that finds
        // nothing queued at all is a stop token.
        std::unique_ptr<WorkItem> boxed;
        while (!computeQueue_->tryPop(&boxed)) {
            if (stopping() && queued_.load() == 0)
                return;
            std::this_thread::yield();
        }
        queued_.fetch_sub(1);
        const WorkItem &item = *boxed;

        std::string wire;
        bool close = false;
        {
            const ScopedThreadTrace trace_scope(item.traced);
            Span request_span("server.request");
            HttpResponse response;
            try {
                response = handler_(
                    item.request, item.received,
                    inflight_.load(std::memory_order_relaxed),
                    item.prepared.get());
            } catch (const std::exception &e) {
                response = abortedRequest(metrics_, e);
            }
            wire = finishResponse(item, response, &close);
        }

        Shard &shard = *shards_[item.shard];
        auto completion = std::make_unique<Completion>(
            Completion{item.connId, std::move(wire), close});
        // tryPush moves only on success, so the retry keeps the box.
        while (!shard.completions.tryPush(std::move(completion)))
            std::this_thread::yield();
        wakeEventFd(shard.wakeFd);
    }
}

void
HttpReactor::requestStop()
{
    if (!started_.load(std::memory_order_acquire))
        return;
    if (stopping_.exchange(true))
        return;
    // Wake the accept poll; it exits without touching new clients.
    if (wakePipe_[1] >= 0) {
        const char byte = 'x';
        [[maybe_unused]] ssize_t ignored =
            ::write(wakePipe_[1], &byte, 1);
    }
    for (const auto &shard : shards_)
        wakeEventFd(shard->wakeFd);
    // One stop token per compute worker.
    if (computeSem_ >= 0)
        wakeEventFd(computeSem_, computeThreads_.size());
}

void
HttpReactor::join()
{
    if (!started_.load(std::memory_order_acquire))
        return;
    if (joined_.exchange(true))
        return;
    if (acceptThread_.joinable())
        acceptThread_.join();
    for (std::thread &thread : computeThreads_) {
        if (thread.joinable())
            thread.join();
    }
    for (const auto &shard : shards_) {
        if (shard->thread.joinable())
            shard->thread.join();
    }
    for (const auto &shard : shards_) {
        if (shard->epollFd >= 0)
            ::close(shard->epollFd);
        if (shard->wakeFd >= 0)
            ::close(shard->wakeFd);
    }
    if (computeSem_ >= 0) {
        ::close(computeSem_);
        computeSem_ = -1;
    }
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    for (int &fd : wakePipe_) {
        if (fd >= 0) {
            ::close(fd);
            fd = -1;
        }
    }
}

} // namespace bwwall
