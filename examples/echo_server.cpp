// Echo server demonstrating the full five-step cycle (Fig. 1) with a
// line-oriented protocol, plus event scheduling (option O8): lines starting
// with '!' are classified high priority and overtake queued normal lines.
//
//   $ ./echo_server 9001 &
//   $ printf 'hello\n!urgent\n' | nc 127.0.0.1 9001
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "nserver/request_context.hpp"
#include "nserver/server.hpp"

namespace {

struct EchoRequest {
  std::string line;
};

class EchoHooks : public cops::nserver::AppHooks {
 public:
  // Decode Request: one '\n'-terminated line per request.
  cops::nserver::DecodeResult decode(cops::nserver::RequestContext&,
                                     cops::ByteBuffer& in) override {
    const size_t eol = in.find("\n");
    if (eol == std::string_view::npos) {
      return cops::nserver::DecodeResult::need_more();
    }
    EchoRequest request{std::string(in.view().substr(0, eol))};
    in.consume(eol + 1);
    // The priority hook (the paper's "13 lines"): '!' lines jump the queue.
    const int priority = (!request.line.empty() && request.line[0] == '!')
                             ? 0
                             : 1;
    return cops::nserver::DecodeResult::request_ready(std::move(request),
                                                      priority);
  }

  // Handle Request: uppercase is our "service".
  void handle(cops::nserver::RequestContext& ctx, std::any request) override {
    auto echo = std::any_cast<EchoRequest>(std::move(request));
    for (auto& c : echo.line) c = static_cast<char>(::toupper(c));
    ctx.reply(std::move(echo));
  }

  // Encode Reply: append the newline framing.
  std::string encode(cops::nserver::RequestContext&,
                     std::any response) override {
    return std::any_cast<EchoRequest>(std::move(response)).line + "\n";
  }
};

}  // namespace

int main(int argc, char** argv) {
  cops::nserver::ServerOptions options;
  options.event_scheduling = true;          // O8
  options.priority_quotas = {8, 2};         // high gets 8 per round, low 2
  options.separate_processor_pool = true;   // required by O8
  options.processor_threads = 1;            // serialize to make order visible
  options.listen_port =
      argc > 1 ? static_cast<uint16_t>(std::atoi(argv[1])) : 0;

  cops::nserver::Server server(options, std::make_shared<EchoHooks>());
  auto status = server.start();
  if (!status.is_ok()) {
    std::fprintf(stderr, "start failed: %s\n", status.to_string().c_str());
    return 1;
  }
  std::printf("echo server (with priority scheduling) on 127.0.0.1:%u\n",
              server.port());
  std::fflush(stdout);  // a file or pipe would hold the line back
  if (argc > 2 && std::string(argv[2]) == "--once") {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    server.stop();
    return 0;
  }
  while (true) std::this_thread::sleep_for(std::chrono::seconds(1));
}
