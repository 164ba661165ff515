/**
 * @file
 * bwwall_client: a command-line client for bwwalld.
 *
 * Sends one HTTP request (repeated --repeat times over a single
 * keep-alive connection) and prints the response body to stdout.
 * The default request solves the baseline scenario, mirroring the
 * first example in docs/SERVER.md.
 *
 * Examples:
 *   bwwall_client --port 8080 --get --path /healthz
 *   bwwall_client --port 8080 --path /v1/traffic \
 *       --body '{"cores":16}'
 *   bwwall_client --port 8080 --path /v1/sweep --body-file req.json
 */

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "server/http_client.hh"
#include "util/cli.hh"
#include "util/logging.hh"

using namespace bwwall;

int
main(int argc, char **argv)
{
    std::string host = "127.0.0.1";
    std::uint64_t port = 8080;
    std::string path = "/v1/solve";
    std::string body = "{}";
    std::string body_file;
    bool use_get = false;
    std::string method;
    std::uint64_t chunk_kib = 0;
    std::uint64_t repeat = 1;
    bool show_status = false;
    std::uint64_t connect_timeout_ms = 0;
    std::uint64_t retries = 0;
    bool retry_posts = false;
    double deadline_ms = 0.0;

    CliParser parser("bwwall_client",
                     "send model queries to a running bwwalld");
    parser.addOption("--host", &host, "HOST", "server host");
    parser.addOption("--port", &port, "PORT", "server port");
    parser.addOption("--path", &path, "PATH",
                     "request path (e.g. /v1/traffic)");
    parser.addOption("--body", &body, "JSON",
                     "request body for POST queries");
    parser.addOption("--body-file", &body_file, "FILE",
                     "read the request body from a file");
    parser.addFlag("--get", &use_get,
                   "send GET instead of POST (no body)");
    parser.addOption("--method", &method, "VERB",
                     "HTTP method override (e.g. DELETE to "
                     "finalize an ingest session)");
    parser.addOption("--chunk-kib", &chunk_kib, "KIB",
                     "stream the body with Transfer-Encoding: "
                     "chunked in KIB-sized chunks (trace-ingest "
                     "appends; 0 = send Content-Length)");
    parser.addOption("--repeat", &repeat, "N",
                     "send the request N times, print the last "
                     "response");
    parser.addFlag("--status", &show_status,
                   "print the HTTP status before the body");
    parser.addOption("--connect-timeout-ms", &connect_timeout_ms,
                     "MS",
                     "bound connect() instead of hanging on an "
                     "unreachable server (0 = OS default)");
    parser.addOption("--retries", &retries, "N",
                     "retry transport failures and 503/429 sheds "
                     "up to N times with backoff");
    parser.addFlag("--retry-posts", &retry_posts,
                   "with --retries: also resend POSTs after "
                   "transport errors (only safe when the request "
                   "is idempotent)");
    parser.addOption("--deadline-ms", &deadline_ms, "MS",
                     "total deadline across retries, propagated to "
                     "the server as X-BWWall-Deadline-Ms (0 = "
                     "none)");
    parser.parseOrExit(argc, argv);

    if (port == 0 || port > 65535)
        parser.usageError("--port must be in [1, 65535]");
    if (repeat == 0)
        parser.usageError("--repeat must be at least 1");
    if (use_get && !body_file.empty())
        parser.usageError("--get conflicts with --body-file");

    if (!body_file.empty()) {
        std::ifstream input(body_file,
                            std::ios::in | std::ios::binary);
        if (!input)
            fatal("cannot open --body-file ", body_file);
        std::ostringstream text;
        text << input.rdbuf();
        body = text.str();
    }

    HttpClient client(host, static_cast<std::uint16_t>(port));
    client.setConnectTimeoutMs(
        static_cast<unsigned>(connect_timeout_ms));
    HttpRetryPolicy policy;
    policy.maxAttempts = static_cast<unsigned>(retries) + 1;
    policy.retryPosts = retry_posts;
    client.setRetryPolicy(policy);

    HttpClient::Request request;
    request.method =
        !method.empty() ? method : (use_get ? "GET" : "POST");
    request.target = path;
    request.body = use_get ? "" : body;
    request.deadlineMs = deadline_ms;
    HttpClientResponse response;
    std::string error;
    for (std::uint64_t i = 0; i < repeat; ++i) {
        if (chunk_kib != 0 && !use_get) {
            // Stream the body: one wire chunk per --chunk-kib
            // slice (streamed requests are single-attempt, so the
            // retry policy does not apply).
            request.bodyProvider =
                [&body, chunk_kib, offset = std::size_t{0}](
                    char *buffer, std::size_t cap) mutable {
                    const std::size_t step = std::min(
                        {cap,
                         static_cast<std::size_t>(chunk_kib)
                             << 10,
                         body.size() - offset});
                    std::memcpy(buffer, body.data() + offset,
                                step);
                    offset += step;
                    return step;
                };
        }
        if (!client.perform(request, &response, &error))
            fatal("request failed: ", error);
    }

    if (show_status)
        std::cout << response.status << "\n";
    std::cout << response.body;
    if (!response.body.empty() && response.body.back() != '\n')
        std::cout << "\n";
    return response.status >= 200 && response.status < 300 ? 0
                                                           : 2;
}
