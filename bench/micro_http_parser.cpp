// Micro-benchmark: the HTTP protocol library's Decode/Encode steps.
#include <benchmark/benchmark.h>

#include "common/byte_buffer.hpp"
#include "http/request_parser.hpp"
#include "http/response.hpp"

namespace {

const char* kSimpleRequest =
    "GET /dir3/class1_4.html HTTP/1.1\r\n"
    "Host: bench\r\n"
    "Connection: keep-alive\r\n\r\n";

const char* kHeavyRequest =
    "GET /dir3/class1_4.html?session=abc123&x=1 HTTP/1.1\r\n"
    "Host: bench.example.com\r\n"
    "User-Agent: Mozilla/5.0 (X11; Linux x86_64) Gecko/20100101\r\n"
    "Accept: text/html,application/xhtml+xml,application/xml;q=0.9\r\n"
    "Accept-Language: en-US,en;q=0.5\r\n"
    "Accept-Encoding: gzip, deflate\r\n"
    "Cookie: a=1; b=2; c=3; d=4\r\n"
    "Connection: keep-alive\r\n\r\n";

void parse_request_simple(benchmark::State& state) {
  for (auto _ : state) {
    cops::ByteBuffer buf{std::string_view(kSimpleRequest)};
    cops::http::HttpRequest request;
    benchmark::DoNotOptimize(cops::http::parse_request(buf, request));
  }
}
BENCHMARK(parse_request_simple);

void parse_request_heavy(benchmark::State& state) {
  for (auto _ : state) {
    cops::ByteBuffer buf{std::string_view(kHeavyRequest)};
    cops::http::HttpRequest request;
    benchmark::DoNotOptimize(cops::http::parse_request(buf, request));
  }
}
BENCHMARK(parse_request_heavy);

// The server's Decode path: one scratch request per connection, recycled
// across keep-alive requests (HttpConnState::scratch), so the steady state
// parses without heap traffic.  The fresh variants above also time the
// HttpRequest's string and header-arena allocations.
void parse_reused(benchmark::State& state, const char* raw) {
  cops::ByteBuffer buf;
  cops::http::HttpRequest request;
  for (auto _ : state) {
    buf.append(std::string_view(raw));
    benchmark::DoNotOptimize(cops::http::parse_request(buf, request));
  }
}

void parse_request_simple_reused(benchmark::State& state) {
  parse_reused(state, kSimpleRequest);
}
BENCHMARK(parse_request_simple_reused);

void parse_request_heavy_reused(benchmark::State& state) {
  parse_reused(state, kHeavyRequest);
}
BENCHMARK(parse_request_heavy_reused);

void sanitize_path_bench(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cops::http::sanitize_path("/a/b/../c/%41file%20name.html"));
  }
}
BENCHMARK(sanitize_path_bench);

void serialize_response(benchmark::State& state) {
  auto file = std::make_shared<cops::nserver::FileData>();
  file->bytes.assign(16 * 1024, 'x');  // SpecWeb99 mean file size
  for (auto _ : state) {
    cops::http::HttpResponse resp;
    resp.file = file;
    resp.set_header("Content-Type", "text/html");
    resp.set_header("Connection", "keep-alive");
    benchmark::DoNotOptimize(resp.serialize());
  }
}
BENCHMARK(serialize_response);

}  // namespace

BENCHMARK_MAIN();
