// Quickstart: a Time server in ~30 lines of application code.
//
// This is the paper's "trivial application" end of the N-Server spectrum
// (Section I).  It uses the Fig. 2 structural variant — no Decode/Encode
// steps (option O3 = No): any bytes from the client trigger a time reply.
//
//   $ ./quickstart 9000 &
//   $ echo hi | nc 127.0.0.1 9000
//   2026-07-05T12:00:00Z
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <thread>

#include "nserver/request_context.hpp"
#include "nserver/server.hpp"

namespace {

class TimeHooks : public cops::nserver::AppHooks {
 public:
  // O3 = No (Fig. 2): no decode() — raw chunks arrive directly in handle().
  void handle(cops::nserver::RequestContext& ctx, std::any) override {
    const auto now = std::chrono::system_clock::now();
    const std::time_t t = std::chrono::system_clock::to_time_t(now);
    char buf[64];
    std::tm utc{};
    gmtime_r(&t, &utc);
    std::strftime(buf, sizeof(buf), "%FT%TZ\n", &utc);
    ctx.reply_raw(buf);
  }
};

}  // namespace

int main(int argc, char** argv) {
  cops::nserver::ServerOptions options;
  options.encode_decode = false;  // O3 = No (Fig. 2): no Decode/Encode steps
  options.separate_processor_pool = true;
  options.processor_threads = 1;
  options.listen_port =
      argc > 1 ? static_cast<uint16_t>(std::atoi(argv[1])) : 0;

  cops::nserver::Server server(options, std::make_shared<TimeHooks>());
  auto status = server.start();
  if (!status.is_ok()) {
    std::fprintf(stderr, "start failed: %s\n", status.to_string().c_str());
    return 1;
  }
  std::printf("time server listening on 127.0.0.1:%u\n", server.port());
  std::printf("try: echo hi | nc 127.0.0.1 %u\n", server.port());
  std::fflush(stdout);  // a file or pipe would hold the line back
  if (argc > 2 && std::string(argv[2]) == "--once") {
    // Test hook: run briefly and exit.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    server.stop();
    return 0;
  }
  while (true) std::this_thread::sleep_for(std::chrono::seconds(1));
}
