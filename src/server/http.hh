/**
 * @file
 * Minimal HTTP/1.1 framing for bwwalld — no third-party deps.
 *
 * Just enough of RFC 9112 for a JSON query API on loopback/LAN:
 * request-line + headers + Content-Length or chunked bodies,
 * keep-alive connections, and fixed responses.  Deliberately out of
 * scope: transfer codings other than chunked (rejected with 501),
 * multi-line header folding, and TLS.  All limits (header bytes,
 * body bytes) are enforced while parsing so a misbehaving client
 * cannot balloon server memory.
 *
 * Routes flagged `streaming` in the route table use the parser's
 * streaming-body mode: poll() returns Streaming as soon as the head
 * is complete, and the caller drains the decoded body incrementally
 * with takeBody() — a multi-megabyte upload crosses the server in
 * bounded chunks instead of buffering whole.  Streamed bodies are
 * exempt from maxBodyBytes (the ingest session's byte budget governs
 * them); buffered bodies, chunked or not, stay capped.
 *
 * The parser is incremental and socket-free: the reactor's event
 * loops feed whatever bytes arrived into HttpParser::append() and
 * poll() either produces a complete request or reports NeedMore, so
 * one non-blocking shard can interleave thousands of half-read
 * connections.  Serialization is likewise a pure function
 * (serializeHttpResponse) producing the exact wire bytes; the I/O
 * layer owns every send()/recv().
 */

#ifndef BWWALL_SERVER_HTTP_HH
#define BWWALL_SERVER_HTTP_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "server/json.hh"
#include "util/error.hh"

namespace bwwall {

/** One parsed request. */
struct HttpRequest
{
    std::string method;           ///< "GET", "POST", ...
    std::string target;           ///< raw request target
    std::string path;             ///< target up to '?'
    std::string query;            ///< target after '?' (no '?')
    /** Header fields, names lowercased, values trimmed. */
    std::map<std::string, std::string> headers;
    std::string body;

    /** Whether the connection may serve another request after this. */
    bool keepAlive = true;
};

/** One response to serialize. */
struct HttpResponse
{
    int status = 200;
    std::string contentType = "application/json";
    std::string body;

    /**
     * Extra response headers (Retry-After, X-BWWall-Peer-Filled,
     * ...),
     * serialized verbatim after the framing headers.
     */
    std::map<std::string, std::string> headers;

    /** Send "Connection: close" and stop serving the connection. */
    bool close = false;
};

/** Outcome of one HttpParser::poll(). */
enum class HttpParseStatus
{
    Ok,          ///< *out holds a complete request
    NeedMore,    ///< the buffered bytes are an incomplete request
    Malformed,   ///< unparseable framing; respond 400 and close
    TooLarge,    ///< header or body limit exceeded; respond 413
    Unsupported, ///< a transfer coding other than chunked; 501
    Streaming,   ///< *out holds the head; drain via takeBody()
};

/** Read-side limits of one connection. */
struct HttpLimits
{
    std::size_t maxHeaderBytes = 16u << 10;
    std::size_t maxBodyBytes = 1u << 20;
};

/**
 * Incremental request parser for one connection: append() raw bytes
 * as they arrive, poll() for complete requests.  Leftover bytes
 * (pipelined or half-read follow-up requests) stay buffered between
 * polls, so keep-alive costs nothing.
 */
class HttpParser
{
  public:
    /**
     * Decides, from the head alone, whether a request's body is
     * delivered incrementally (poll() returns Streaming) instead of
     * buffered into HttpRequest::body.
     */
    using StreamPredicate =
        std::function<bool(const HttpRequest &request)>;

    explicit HttpParser(HttpLimits limits) : limits_(limits) {}

    /** Routes with the `streaming` flag install this (reactor). */
    void
    setStreamPredicate(StreamPredicate predicate)
    {
        streamPredicate_ = std::move(predicate);
    }

    /** Buffers @p count raw socket bytes. */
    void
    append(const char *data, std::size_t count)
    {
        buffer_.append(data, count);
    }

    /**
     * Parses the next complete request out of the buffer (consuming
     * its bytes).  Error statuses are sticky decisions for the
     * caller to act on: the buffer is left as-is and the connection
     * should be answered and closed.  Streaming means *out holds the
     * parsed head and the body must be drained with takeBody().
     */
    HttpParseStatus poll(HttpRequest *out);

    /**
     * Streaming-body mode only: decodes whatever body bytes are
     * buffered, appending them to *out, and sets *done once the body
     * (Content-Length or chunked framing) is complete — after which
     * the parser is back in head mode for the next request.  Returns
     * Ok or Malformed (bad chunk framing; close the connection).
     */
    HttpParseStatus takeBody(std::string *out, bool *done);

    /** True while a streaming body is being drained. */
    bool streamingBody() const { return mode_ == Mode::StreamBody; }

    /** True when no unconsumed bytes are buffered. */
    bool empty() const { return buffer_.empty(); }

  private:
    enum class Mode
    {
        Head,        ///< parsing a request head
        BufferedBody,///< decoding a chunked body into pending_
        StreamBody,  ///< body handed out through takeBody()
    };

    enum class ChunkPhase
    {
        Size,    ///< reading a chunk-size line
        Data,    ///< inside chunk data
        DataEnd, ///< expecting the CRLF after chunk data
        Trailer, ///< reading (and discarding) trailer lines
    };

    /** Decodes buffered chunked-coding bytes into *out; false means
     * malformed framing. */
    bool decodeChunked(std::string *out, bool *done);

    HttpParseStatus continueBufferedBody(HttpRequest *out);

    HttpLimits limits_;
    StreamPredicate streamPredicate_;
    std::string buffer_;

    Mode mode_ = Mode::Head;
    bool chunked_ = false;
    /** Content-Length bytes still owed (non-chunked bodies). */
    std::uint64_t bodyRemaining_ = 0;
    std::uint64_t chunkRemaining_ = 0;
    ChunkPhase chunkPhase_ = ChunkPhase::Size;
    /** The request whose chunked body is being buffered. */
    HttpRequest pending_;
};

/**
 * The exact wire bytes of a response: status line, framing headers
 * (Content-Type/Length, Connection), extra headers, blank line,
 * body.  Byte-identical across runs for identical responses.
 */
std::string serializeHttpResponse(const HttpResponse &response);

/** Reason phrase for the handful of statuses the server emits. */
const char *httpStatusText(int status);

/**
 * The Retry-After value, in seconds, on every 503 the server sheds
 * with: connection and request caps, admission sheds, and the
 * ingest session cap.
 */
inline constexpr const char *kRetryAfterSeconds = "1";

/** A canned {"error": message} JSON response. */
HttpResponse httpErrorResponse(int status,
                               const std::string &message);

/**
 * The {"error", "category", "status"} body of a classified Error —
 * the one rendering shared by whole-request error responses and
 * per-item errors inside a /v1/batch response.
 */
JsonValue httpErrorBody(const Error &error);

/**
 * The taxonomy rendering of an Error: status from httpStatusFor()
 * and the httpErrorBody() JSON, so every classified failure looks
 * the same on the wire (docs/SERVER.md tabulates the mapping).
 */
HttpResponse httpErrorResponseFor(const Error &error);

/**
 * The client's X-BWWall-Deadline-Ms budget in milliseconds: a
 * finite, positive decimal, or 0 when the header is absent or
 * unusable.  Both the node and the router honour it.
 */
double clientDeadlineMs(const HttpRequest &request);

} // namespace bwwall

#endif // BWWALL_SERVER_HTTP_HH
