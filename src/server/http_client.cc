#include "server/http_client.hh"

#include <fcntl.h>
#include <netdb.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <thread>

namespace bwwall {

namespace {

/** Lowercases ASCII in place (header names are case-insensitive). */
std::string
lowered(std::string text)
{
    for (char &c : text) {
        if (c >= 'A' && c <= 'Z')
            c = static_cast<char>(c - 'A' + 'a');
    }
    return text;
}

/** Trims leading/trailing spaces and tabs. */
std::string
trimmed(const std::string &text)
{
    std::size_t first = text.find_first_not_of(" \t");
    if (first == std::string::npos)
        return "";
    std::size_t last = text.find_last_not_of(" \t");
    return text.substr(first, last - first + 1);
}

} // namespace

HttpClient::~HttpClient()
{
    disconnect();
}

void
HttpClient::disconnect()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    buffer_.clear();
}

bool
HttpClient::dropStaleConnection()
{
    if (fd_ < 0)
        return false;
    char byte = 0;
    const ssize_t n =
        ::recv(fd_, &byte, 1, MSG_PEEK | MSG_DONTWAIT);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK) &&
        buffer_.empty())
        return false; // quiet and open: safe to reuse
    disconnect();
    ++staleDropped_;
    return true;
}

bool
HttpClient::connectOne(int fd, const void *address,
                       unsigned addressLen, std::string *failure)
{
    const sockaddr *addr =
        static_cast<const sockaddr *>(address);
    const socklen_t len = static_cast<socklen_t>(addressLen);
    if (connectTimeoutMs_ == 0) {
        if (::connect(fd, addr, len) == 0)
            return true;
        lastFailure_ = errno == ECONNREFUSED
                           ? FailureKind::ConnectRefused
                           : FailureKind::Other;
        *failure = std::strerror(errno);
        return false;
    }

    // Bounded connect: go non-blocking, poll for writability, read
    // the outcome from SO_ERROR, then restore blocking mode.
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
        *failure = std::strerror(errno);
        return false;
    }
    bool ok = false;
    if (::connect(fd, addr, len) == 0) {
        ok = true;
    } else if (errno != EINPROGRESS) {
        lastFailure_ = errno == ECONNREFUSED
                           ? FailureKind::ConnectRefused
                           : FailureKind::Other;
        *failure = std::strerror(errno);
    } else {
        pollfd pfd{fd, POLLOUT, 0};
        const int ready =
            ::poll(&pfd, 1, static_cast<int>(connectTimeoutMs_));
        if (ready == 0) {
            lastFailure_ = FailureKind::ConnectTimeout;
            *failure = "timed out after " +
                       std::to_string(connectTimeoutMs_) + " ms";
        } else if (ready < 0) {
            lastFailure_ = FailureKind::Other;
            *failure = std::strerror(errno);
        } else {
            int soerror = 0;
            socklen_t soerror_len = sizeof(soerror);
            ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerror,
                         &soerror_len);
            if (soerror == 0) {
                ok = true;
            } else {
                lastFailure_ = soerror == ECONNREFUSED
                                   ? FailureKind::ConnectRefused
                                   : FailureKind::Other;
                *failure = std::strerror(soerror);
            }
        }
    }
    if (ok)
        ::fcntl(fd, F_SETFL, flags);
    return ok;
}

bool
HttpClient::connect(std::string *error)
{
    disconnect();

    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo *results = nullptr;
    const std::string service = std::to_string(port_);
    int rc = ::getaddrinfo(host_.c_str(), service.c_str(), &hints,
                           &results);
    if (rc != 0) {
        if (error)
            *error = "resolve " + host_ + ": " + gai_strerror(rc);
        return false;
    }

    std::string failure = "no usable addresses";
    for (addrinfo *entry = results; entry;
         entry = entry->ai_next) {
        int fd = ::socket(entry->ai_family, entry->ai_socktype,
                          entry->ai_protocol);
        if (fd < 0) {
            failure = std::strerror(errno);
            continue;
        }
        if (connectOne(fd, entry->ai_addr, entry->ai_addrlen,
                       &failure)) {
            fd_ = fd;
            ++connects_;
            break;
        }
        ::close(fd);
    }
    ::freeaddrinfo(results);

    if (fd_ < 0) {
        if (error) {
            *error = "connect " + host_ + ":" + service + ": " +
                     failure;
        }
        return false;
    }
    return true;
}

bool
HttpClient::sendAll(const std::string &wire, std::string *error)
{
    std::size_t sent = 0;
    while (sent < wire.size()) {
        ssize_t n = ::send(fd_, wire.data() + sent,
                           wire.size() - sent, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            lastFailure_ = FailureKind::Other;
            if (error)
                *error = std::string("send: ") +
                         std::strerror(errno);
            return false;
        }
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

bool
HttpClient::readResponse(HttpClientResponse *out,
                         std::string *error)
{
    // The whole response (headers + body) shares one read bound; a
    // half-read response is useless, so a timeout also drops the
    // connection.
    const auto read_deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(readTimeoutMs_);
    const auto recv_some = [&](char *chunk, std::size_t cap,
                               ssize_t *n) -> bool {
        for (;;) {
            if (readTimeoutMs_ != 0) {
                const auto remaining =
                    std::chrono::duration_cast<
                        std::chrono::milliseconds>(
                        read_deadline -
                        std::chrono::steady_clock::now())
                        .count();
                pollfd pfd{fd_, POLLIN, 0};
                const int ready = remaining <= 0
                    ? 0
                    : ::poll(&pfd, 1,
                             static_cast<int>(remaining));
                if (ready == 0) {
                    lastFailure_ = FailureKind::ReadTimeout;
                    if (error)
                        *error =
                            "read timed out after " +
                            std::to_string(readTimeoutMs_) +
                            " ms";
                    disconnect();
                    return false;
                }
                if (ready < 0) {
                    if (errno == EINTR)
                        continue;
                    if (error)
                        *error = std::string("poll: ") +
                                 std::strerror(errno);
                    return false;
                }
            }
            *n = ::recv(fd_, chunk, cap, 0);
            if (*n < 0 && errno == EINTR)
                continue;
            if (*n <= 0) {
                if (error)
                    *error =
                        *n == 0
                            ? "connection closed mid-response"
                            : std::string("recv: ") +
                                  std::strerror(errno);
                return false;
            }
            return true;
        }
    };

    // Pull bytes until the header block is complete.
    std::size_t header_end;
    while ((header_end = buffer_.find("\r\n\r\n")) ==
           std::string::npos) {
        char chunk[4096];
        ssize_t n = 0;
        if (!recv_some(chunk, sizeof(chunk), &n))
            return false;
        buffer_.append(chunk, static_cast<std::size_t>(n));
    }

    const std::string header = buffer_.substr(0, header_end);
    buffer_.erase(0, header_end + 4);

    // Status line: "HTTP/1.1 200 OK".
    std::size_t line_end = header.find("\r\n");
    const std::string status_line = header.substr(0, line_end);
    std::size_t space = status_line.find(' ');
    if (space == std::string::npos ||
        status_line.compare(0, 5, "HTTP/") != 0) {
        if (error)
            *error = "malformed status line: " + status_line;
        return false;
    }
    out->status = std::atoi(status_line.c_str() + space + 1);
    out->headers.clear();
    out->body.clear();

    std::size_t cursor =
        line_end == std::string::npos ? header.size()
                                      : line_end + 2;
    while (cursor < header.size()) {
        std::size_t eol = header.find("\r\n", cursor);
        if (eol == std::string::npos)
            eol = header.size();
        const std::string line =
            header.substr(cursor, eol - cursor);
        cursor = eol + 2;
        std::size_t colon = line.find(':');
        if (colon == std::string::npos)
            continue;
        out->headers[lowered(trimmed(line.substr(0, colon)))] =
            trimmed(line.substr(colon + 1));
    }

    auto length_it = out->headers.find("content-length");
    std::size_t want =
        length_it == out->headers.end()
            ? 0
            : static_cast<std::size_t>(
                  std::strtoull(length_it->second.c_str(),
                                nullptr, 10));
    while (buffer_.size() < want) {
        char chunk[4096];
        ssize_t n = 0;
        if (!recv_some(chunk, sizeof(chunk), &n))
            return false;
        buffer_.append(chunk, static_cast<std::size_t>(n));
    }
    out->body = buffer_.substr(0, want);
    buffer_.erase(0, want);

    auto connection_it = out->headers.find("connection");
    if (connection_it != out->headers.end() &&
        lowered(connection_it->second) == "close") {
        disconnect();
    }
    return true;
}

bool
HttpClient::performOnce(const Request &request, double remainingMs,
                        HttpClientResponse *out, std::string *error)
{
    lastFailure_ = FailureKind::None;
    const bool reused = fd_ >= 0 && !dropStaleConnection();
    if (!reused && !connect(error)) {
        if (lastFailure_ == FailureKind::None)
            lastFailure_ = FailureKind::Other;
        return false;
    }

    std::string wire;
    wire.reserve(request.target.size() + request.body.size() +
                 128);
    wire += request.method;
    wire += ' ';
    wire += request.target;
    wire += " HTTP/1.1\r\nHost: ";
    wire += host_;
    if (request.bodyProvider) {
        wire += "\r\nTransfer-Encoding: chunked\r\n";
    } else {
        wire += "\r\nContent-Length: ";
        wire += std::to_string(request.body.size());
        wire += "\r\n";
    }
    for (const auto &[name, value] : request.headers) {
        wire += name;
        wire += ": ";
        wire += value;
        wire += "\r\n";
    }
    if (remainingMs > 0.0) {
        wire += "X-BWWall-Deadline-Ms: ";
        wire += std::to_string(std::max(1L, std::lround(remainingMs)));
        wire += "\r\n";
    }
    wire += "\r\n";

    if (request.bodyProvider) {
        // The provider is consumed as it runs, so a streamed
        // request gets exactly one attempt: no resend, no retry
        // loop.
        if (!sendAll(wire, error))
            return false;
        char buffer[64 << 10];
        for (;;) {
            const std::size_t count =
                request.bodyProvider(buffer, sizeof(buffer));
            if (count == 0)
                break;
            if (count > sizeof(buffer)) {
                if (error != nullptr)
                    *error = "body provider overran its buffer";
                disconnect();
                return false;
            }
            char size_line[32];
            std::snprintf(size_line, sizeof(size_line),
                          "%zx\r\n", count);
            std::string chunk(size_line);
            chunk.append(buffer, count);
            chunk += "\r\n";
            if (!sendAll(chunk, error))
                return false;
        }
        return sendAll("0\r\n\r\n", error) &&
               readResponse(out, error);
    }
    wire += request.body;

    bool ok = sendAll(wire, error) && readResponse(out, error);
    // A 408 on a reused connection is the idle sweep's, fired
    // between the peek and the send: it answers no request of ours.
    const bool swept = ok && reused && out->status == 408;
    if (swept)
        ++staleDropped_;
    // Resend once on a fresh connection after a swept one, or after
    // one the server dropped between our send and read (a shed
    // accept).  Not after a read timeout — the full bound was
    // already spent waiting, and resending would double it.
    if (swept || (!ok && lastFailure_ != FailureKind::ReadTimeout)) {
        lastFailure_ = FailureKind::None;
        ok = connect(error) && sendAll(wire, error) &&
             readResponse(out, error);
    }
    if (!ok && lastFailure_ == FailureKind::None)
        lastFailure_ = FailureKind::Other;
    return ok;
}

namespace {

/**
 * Statuses the server sends before doing any work, so retrying is
 * safe even for non-idempotent methods.
 */
bool
refusedWithoutWork(int status)
{
    return status == 503 || status == 429;
}

} // namespace

bool
HttpClient::retryLoop(const Request &request,
                      const HttpRetryPolicy &policy,
                      HttpClientResponse *out, std::string *error)
{
    const auto start = std::chrono::steady_clock::now();
    const bool has_deadline = request.deadlineMs > 0.0;
    const auto remaining_ms = [&] {
        return request.deadlineMs -
               std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start)
                   .count();
    };
    if (jitterState_ == 0)
        jitterState_ = policy.seed | 1;
    const bool idempotent =
        request.method != "POST" || policy.retryPosts;
    double backoff_ms = policy.initialBackoffMs;
    std::string last_error;

    for (unsigned attempt = 1;; ++attempt) {
        const double remaining = has_deadline ? remaining_ms() : 0.0;
        if (has_deadline && remaining <= 0.0) {
            if (error)
                *error = "deadline exhausted after " +
                         std::to_string(attempt - 1) +
                         " attempt(s): " + last_error;
            return false;
        }

        std::string attempt_error;
        const bool transported =
            performOnce(request, remaining, out, &attempt_error);
        if (transported && !refusedWithoutWork(out->status))
            return true;

        double retry_after_ms = 0.0;
        if (transported) {
            last_error =
                "HTTP " + std::to_string(out->status) +
                " from " + request.target;
            const auto hint = out->headers.find("retry-after");
            if (hint != out->headers.end())
                retry_after_ms =
                    std::atof(hint->second.c_str()) * 1000.0;
        } else {
            last_error = attempt_error;
            if (!idempotent) {
                // The connection died mid-exchange; the server may
                // have processed this POST, so do not resend it.
                if (error)
                    *error = last_error +
                             " (not retried: non-idempotent)";
                return false;
            }
            if (policy.failFastOnRefused &&
                lastFailure_ == FailureKind::ConnectRefused) {
                // Nobody is listening: fail now, before this
                // refusal consumes a retry attempt or any backoff
                // sleep from the caller's budget.
                if (error)
                    *error = last_error +
                             " (not retried: connection refused)";
                return false;
            }
        }

        if (attempt >= policy.maxAttempts ||
            retriesUsed_ >= policy.budget) {
            if (error) {
                *error = last_error + " (after " +
                         std::to_string(attempt) + " attempt" +
                         (attempt == 1 ? "" : "s") +
                         (retriesUsed_ >= policy.budget
                              ? "; retry budget exhausted)"
                              : ")");
            }
            return false;
        }
        ++retriesUsed_;

        // Capped exponential backoff with deterministic jitter,
        // stretched to any Retry-After hint (itself capped).
        jitterState_ =
            jitterState_ * 6364136223846793005ULL +
            1442695040888963407ULL;
        const double unit =
            static_cast<double>(jitterState_ >> 11) * 0x1.0p-53;
        double wait_ms =
            std::min(backoff_ms, policy.maxBackoffMs) *
            (1.0 + policy.jitter * (2.0 * unit - 1.0));
        wait_ms = std::max(
            wait_ms, std::min(retry_after_ms,
                              policy.maxBackoffMs));
        if (has_deadline)
            wait_ms = std::min(wait_ms, remaining_ms());
        if (wait_ms > 0.0) {
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(
                    wait_ms));
        }
        backoff_ms *= 2.0;
    }
}

bool
HttpClient::perform(const Request &request, HttpClientResponse *out,
                    std::string *error)
{
    // A streamed body is consumed as it is sent: one attempt only.
    if (!retryPolicy_ || request.bodyProvider)
        return performOnce(request, request.deadlineMs, out, error);
    return retryLoop(request, *retryPolicy_, out, error);
}

} // namespace bwwall
