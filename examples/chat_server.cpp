// Chat server: demonstrates server-initiated sends across connections.
//
// Every line a client sends is broadcast to every other connected client —
// exercising server-initiated sends (the worker handling the sender's
// request writes each broadcast to the target socket itself; a write that
// would block is finished by the target's dispatcher) and the
// on_connect/on_close lifecycle hooks.
//
//   $ ./chat_server 9002 &
//   $ nc 127.0.0.1 9002      (in two terminals)
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "nserver/request_context.hpp"
#include "nserver/server.hpp"

namespace {

// The room holds one long-lived RequestContext per member; a context keeps
// its connection reachable and its send() is thread-safe (it writes under
// the connection's send lock).
class ChatRoom {
 public:
  void join(uint64_t id, cops::nserver::RequestContextPtr ctx) {
    std::lock_guard lock(mutex_);
    members_[id] = std::move(ctx);
  }
  void leave(uint64_t id) {
    std::lock_guard lock(mutex_);
    members_.erase(id);
  }
  void broadcast(uint64_t from, const std::string& line) {
    std::lock_guard lock(mutex_);
    const std::string message =
        "[user " + std::to_string(from) + "] " + line + "\n";
    for (auto& [id, ctx] : members_) {
      if (id != from && !ctx->connection_closed()) ctx->send(message);
    }
  }
  [[nodiscard]] size_t size() const {
    std::lock_guard lock(mutex_);
    return members_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::map<uint64_t, cops::nserver::RequestContextPtr> members_;
};

class ChatHooks : public cops::nserver::AppHooks {
 public:
  void on_connect(cops::nserver::RequestContext& ctx) override {
    room_.join(ctx.connection_id(), ctx.make_handle());
    ctx.send("* welcome, user " + std::to_string(ctx.connection_id()) +
             " (" + std::to_string(room_.size()) + " online)\n");
  }

  void on_close(uint64_t connection_id) override {
    room_.leave(connection_id);
  }

  cops::nserver::DecodeResult decode(cops::nserver::RequestContext&,
                                     cops::ByteBuffer& in) override {
    const size_t eol = in.find("\n");
    if (eol == std::string_view::npos) {
      return cops::nserver::DecodeResult::need_more();
    }
    std::string line(in.view().substr(0, eol));
    if (!line.empty() && line.back() == '\r') line.pop_back();
    in.consume(eol + 1);
    return cops::nserver::DecodeResult::request_ready(std::move(line));
  }

  void handle(cops::nserver::RequestContext& ctx, std::any request) override {
    const auto line = std::any_cast<std::string>(std::move(request));
    room_.broadcast(ctx.connection_id(), line);
    ctx.finish();  // nothing to send back to the sender
  }

 private:
  ChatRoom room_;
};

}  // namespace

int main(int argc, char** argv) {
  cops::nserver::ServerOptions options;
  options.separate_processor_pool = true;
  options.processor_threads = 2;
  options.listen_port =
      argc > 1 ? static_cast<uint16_t>(std::atoi(argv[1])) : 0;

  cops::nserver::Server server(options, std::make_shared<ChatHooks>());
  auto status = server.start();
  if (!status.is_ok()) {
    std::fprintf(stderr, "start failed: %s\n", status.to_string().c_str());
    return 1;
  }
  std::printf("chat server on 127.0.0.1:%u — connect with nc\n",
              server.port());
  std::fflush(stdout);  // a file or pipe would hold the line back
  if (argc > 2 && std::string(argv[2]) == "--once") {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    server.stop();
    return 0;
  }
  while (true) std::this_thread::sleep_for(std::chrono::seconds(1));
}
