#include "server/http.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>

namespace bwwall {

namespace {

std::string
toLower(std::string text)
{
    std::transform(text.begin(), text.end(), text.begin(),
                   [](unsigned char c) {
                       return static_cast<char>(std::tolower(c));
                   });
    return text;
}

std::string
trim(const std::string &text)
{
    std::size_t begin = 0;
    std::size_t end = text.size();
    while (begin < end && (text[begin] == ' ' || text[begin] == '\t'))
        ++begin;
    while (end > begin &&
           (text[end - 1] == ' ' || text[end - 1] == '\t'))
        --end;
    return text.substr(begin, end - begin);
}

/** Splits the request head into lines on CRLF (tolerating bare LF). */
bool
nextLine(const std::string &head, std::size_t *cursor,
         std::string *line)
{
    if (*cursor >= head.size())
        return false;
    const std::size_t eol = head.find('\n', *cursor);
    std::size_t end = eol == std::string::npos ? head.size() : eol;
    std::size_t next = eol == std::string::npos ? head.size()
                                                : eol + 1;
    if (end > *cursor && head[end - 1] == '\r')
        --end;
    *line = head.substr(*cursor, end - *cursor);
    *cursor = next;
    return true;
}

} // namespace

HttpParseStatus
HttpParser::poll(HttpRequest *out)
{
    if (mode_ == Mode::StreamBody)
        return HttpParseStatus::NeedMore; // drain via takeBody()
    if (mode_ == Mode::BufferedBody)
        return continueBufferedBody(out);

    // Find the blank line ending the header block.
    std::size_t head_end = buffer_.find("\r\n\r\n");
    std::size_t separator = 4;
    if (head_end == std::string::npos) {
        head_end = buffer_.find("\n\n");
        separator = 2;
    }
    if (head_end == std::string::npos) {
        return buffer_.size() > limits_.maxHeaderBytes
                   ? HttpParseStatus::TooLarge
                   : HttpParseStatus::NeedMore;
    }
    head_end += separator;
    if (head_end > limits_.maxHeaderBytes)
        return HttpParseStatus::TooLarge;

    const std::string head = buffer_.substr(0, head_end);
    std::size_t cursor = 0;
    std::string line;
    if (!nextLine(head, &cursor, &line) || line.empty())
        return HttpParseStatus::Malformed;

    // Request line: METHOD SP TARGET SP VERSION.
    HttpRequest request;
    const std::size_t sp1 = line.find(' ');
    const std::size_t sp2 =
        sp1 == std::string::npos ? std::string::npos
                                 : line.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos)
        return HttpParseStatus::Malformed;
    request.method = line.substr(0, sp1);
    request.target = line.substr(sp1 + 1, sp2 - sp1 - 1);
    const std::string version = line.substr(sp2 + 1);
    if (request.method.empty() || request.target.empty())
        return HttpParseStatus::Malformed;
    if (version != "HTTP/1.1" && version != "HTTP/1.0")
        return HttpParseStatus::Malformed;
    request.keepAlive = version == "HTTP/1.1";

    const std::size_t question = request.target.find('?');
    if (question == std::string::npos) {
        request.path = request.target;
    } else {
        request.path = request.target.substr(0, question);
        request.query = request.target.substr(question + 1);
    }

    // Header fields.
    while (nextLine(head, &cursor, &line)) {
        if (line.empty())
            break;
        const std::size_t colon = line.find(':');
        if (colon == std::string::npos)
            return HttpParseStatus::Malformed;
        request.headers[toLower(line.substr(0, colon))] =
            trim(line.substr(colon + 1));
    }

    const auto connection = request.headers.find("connection");
    if (connection != request.headers.end()) {
        const std::string value = toLower(connection->second);
        if (value == "close")
            request.keepAlive = false;
        else if (value == "keep-alive")
            request.keepAlive = true;
    }

    const auto transfer = request.headers.find("transfer-encoding");
    const bool chunked_body =
        transfer != request.headers.end() &&
        toLower(trim(transfer->second)) == "chunked";
    if (transfer != request.headers.end() && !chunked_body)
        return HttpParseStatus::Unsupported;
    // Both framings at once is a request-smuggling vector.
    if (chunked_body &&
        request.headers.count("content-length") != 0)
        return HttpParseStatus::Malformed;

    // Body: Content-Length bytes (0 when absent).
    std::uint64_t body_bytes = 0;
    const auto length = request.headers.find("content-length");
    if (length != request.headers.end()) {
        const std::string &text = length->second;
        if (text.empty() ||
            text.find_first_not_of("0123456789") !=
                std::string::npos)
            return HttpParseStatus::Malformed;
        char *end = nullptr;
        const unsigned long long parsed =
            std::strtoull(text.c_str(), &end, 10);
        if (end == nullptr || *end != '\0')
            return HttpParseStatus::Malformed;
        body_bytes = parsed;
    }

    const bool streamed = streamPredicate_ != nullptr &&
                          streamPredicate_(request);
    if (streamed) {
        // Hand out the head; the body crosses takeBody() in bounded
        // chunks, so maxBodyBytes does not apply (the stream's own
        // byte budget does).
        buffer_.erase(0, head_end);
        mode_ = Mode::StreamBody;
        chunked_ = chunked_body;
        bodyRemaining_ = body_bytes;
        chunkPhase_ = ChunkPhase::Size;
        *out = std::move(request);
        return HttpParseStatus::Streaming;
    }

    if (chunked_body) {
        buffer_.erase(0, head_end);
        mode_ = Mode::BufferedBody;
        chunked_ = true;
        chunkPhase_ = ChunkPhase::Size;
        pending_ = std::move(request);
        return continueBufferedBody(out);
    }

    if (body_bytes > limits_.maxBodyBytes)
        return HttpParseStatus::TooLarge;
    if (buffer_.size() < head_end + body_bytes)
        return HttpParseStatus::NeedMore;
    request.body = buffer_.substr(
        head_end, static_cast<std::size_t>(body_bytes));
    buffer_.erase(
        0, head_end + static_cast<std::size_t>(body_bytes));
    *out = std::move(request);
    return HttpParseStatus::Ok;
}

HttpParseStatus
HttpParser::continueBufferedBody(HttpRequest *out)
{
    bool done = false;
    if (!decodeChunked(&pending_.body, &done))
        return HttpParseStatus::Malformed;
    if (pending_.body.size() > limits_.maxBodyBytes)
        return HttpParseStatus::TooLarge;
    if (!done)
        return HttpParseStatus::NeedMore;
    mode_ = Mode::Head;
    *out = std::move(pending_);
    pending_ = HttpRequest{};
    return HttpParseStatus::Ok;
}

HttpParseStatus
HttpParser::takeBody(std::string *out, bool *done)
{
    *done = false;
    if (mode_ != Mode::StreamBody)
        return HttpParseStatus::Malformed;
    if (chunked_) {
        if (!decodeChunked(out, done))
            return HttpParseStatus::Malformed;
    } else {
        const std::size_t take = static_cast<std::size_t>(
            std::min<std::uint64_t>(buffer_.size(),
                                    bodyRemaining_));
        out->append(buffer_, 0, take);
        buffer_.erase(0, take);
        bodyRemaining_ -= take;
        *done = bodyRemaining_ == 0;
    }
    if (*done)
        mode_ = Mode::Head;
    return HttpParseStatus::Ok;
}

bool
HttpParser::decodeChunked(std::string *out, bool *done)
{
    *done = false;
    for (;;) {
        switch (chunkPhase_) {
          case ChunkPhase::Size: {
            const std::size_t eol = buffer_.find('\n');
            if (eol == std::string::npos) {
                // A size line cannot legitimately get this long.
                return buffer_.size() <= 1024;
            }
            std::string line = buffer_.substr(0, eol);
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            const std::size_t semi = line.find(';');
            if (semi != std::string::npos)
                line = line.substr(0, semi); // drop chunk extensions
            line = trim(line);
            if (line.empty() || line.size() > 16 ||
                line.find_first_not_of("0123456789abcdefABCDEF") !=
                    std::string::npos)
                return false;
            chunkRemaining_ =
                std::strtoull(line.c_str(), nullptr, 16);
            buffer_.erase(0, eol + 1);
            chunkPhase_ = chunkRemaining_ == 0
                              ? ChunkPhase::Trailer
                              : ChunkPhase::Data;
            break;
          }
          case ChunkPhase::Data: {
            if (buffer_.empty())
                return true;
            const std::size_t take = static_cast<std::size_t>(
                std::min<std::uint64_t>(buffer_.size(),
                                        chunkRemaining_));
            out->append(buffer_, 0, take);
            buffer_.erase(0, take);
            chunkRemaining_ -= take;
            if (chunkRemaining_ != 0)
                return true;
            chunkPhase_ = ChunkPhase::DataEnd;
            break;
          }
          case ChunkPhase::DataEnd: {
            if (buffer_.empty())
                return true;
            if (buffer_[0] == '\n') {
                buffer_.erase(0, 1);
            } else if (buffer_[0] == '\r') {
                if (buffer_.size() < 2)
                    return true;
                if (buffer_[1] != '\n')
                    return false;
                buffer_.erase(0, 2);
            } else {
                return false;
            }
            chunkPhase_ = ChunkPhase::Size;
            break;
          }
          case ChunkPhase::Trailer: {
            const std::size_t eol = buffer_.find('\n');
            if (eol == std::string::npos)
                return buffer_.size() <= limits_.maxHeaderBytes;
            std::string line = buffer_.substr(0, eol);
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            buffer_.erase(0, eol + 1);
            if (line.empty()) {
                *done = true;
                chunkPhase_ = ChunkPhase::Size;
                return true;
            }
            break; // trailer fields are ignored
          }
        }
    }
}

std::string
serializeHttpResponse(const HttpResponse &response)
{
    std::string wire;
    wire.reserve(response.body.size() + 160);
    wire += "HTTP/1.1 ";
    wire += std::to_string(response.status);
    wire += ' ';
    wire += httpStatusText(response.status);
    wire += "\r\nContent-Type: ";
    wire += response.contentType;
    wire += "\r\nContent-Length: ";
    wire += std::to_string(response.body.size());
    wire += "\r\nConnection: ";
    wire += response.close ? "close" : "keep-alive";
    for (const auto &[name, value] : response.headers) {
        wire += "\r\n";
        wire += name;
        wire += ": ";
        wire += value;
    }
    wire += "\r\n\r\n";
    wire += response.body;
    return wire;
}

const char *
httpStatusText(int status)
{
    switch (status) {
      case 200:
        return "OK";
      case 400:
        return "Bad Request";
      case 404:
        return "Not Found";
      case 405:
        return "Method Not Allowed";
      case 408:
        return "Request Timeout";
      case 409:
        return "Conflict";
      case 413:
        return "Payload Too Large";
      case 422:
        return "Unprocessable Content";
      case 424:
        return "Failed Dependency";
      case 429:
        return "Too Many Requests";
      case 500:
        return "Internal Server Error";
      case 501:
        return "Not Implemented";
      case 502:
        return "Bad Gateway";
      case 503:
        return "Service Unavailable";
      case 504:
        return "Gateway Timeout";
      default:
        return "Unknown";
    }
}

HttpResponse
httpErrorResponse(int status, const std::string &message)
{
    JsonValue body = JsonValue::makeObject();
    body.set("error", JsonValue(message));
    body.set("status", JsonValue(static_cast<double>(status)));
    HttpResponse response;
    response.status = status;
    response.body = body.dump();
    response.body += '\n';
    return response;
}

JsonValue
httpErrorBody(const Error &error)
{
    const int status = httpStatusFor(error.category);
    JsonValue body = JsonValue::makeObject();
    body.set("error", JsonValue(error.message));
    body.set("category",
             JsonValue(std::string(
                 errorCategoryName(error.category))));
    body.set("status", JsonValue(static_cast<double>(status)));
    return body;
}

HttpResponse
httpErrorResponseFor(const Error &error)
{
    HttpResponse response;
    response.status = httpStatusFor(error.category);
    response.body = httpErrorBody(error).dump();
    response.body += '\n';
    return response;
}

double
clientDeadlineMs(const HttpRequest &request)
{
    const auto budget = request.headers.find("x-bwwall-deadline-ms");
    if (budget == request.headers.end())
        return 0.0;
    char *end = nullptr;
    const double ms = std::strtod(budget->second.c_str(), &end);
    if (end == nullptr || *end != '\0' || !std::isfinite(ms) ||
        ms <= 0.0)
        return 0.0;
    return ms;
}

} // namespace bwwall
