// Minimal SMTP receiving server — the paper's "the pattern can be used to
// generate a mail server" claim, demonstrated.
//
// Implements the RFC 5321 happy path (HELO/EHLO, MAIL FROM, RCPT TO, DATA,
// RSET, NOOP, QUIT) and stores accepted messages in memory.  Note how the
// DATA state lives in the per-connection app_state and how multi-line input
// is handled entirely inside the Decode hook.
//
//   $ ./mail_server 2525 &
//   $ printf 'HELO me\r\nMAIL FROM:<a@x>\r\nRCPT TO:<b@y>\r\nDATA\r\nHi\r\n.\r\nQUIT\r\n' | nc 127.0.0.1 2525
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.hpp"
#include "nserver/request_context.hpp"
#include "nserver/server.hpp"

namespace {

struct Message {
  std::string from;
  std::vector<std::string> recipients;
  std::string body;
};

struct SmtpSession {
  bool greeted = false;
  bool in_data = false;
  Message draft;
};

class MailStore {
 public:
  void deliver(Message message) {
    std::lock_guard lock(mutex_);
    messages_.push_back(std::move(message));
  }
  [[nodiscard]] size_t count() const {
    std::lock_guard lock(mutex_);
    return messages_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::vector<Message> messages_;
};

class SmtpHooks : public cops::nserver::AppHooks {
 public:
  void on_connect(cops::nserver::RequestContext& ctx) override {
    ctx.send("220 cops-mail ESMTP ready\r\n");
    ctx.app_state() = std::make_shared<SmtpSession>();
  }

  cops::nserver::DecodeResult decode(cops::nserver::RequestContext&,
                                     cops::ByteBuffer& in) override {
    const size_t eol = in.find("\r\n");
    if (eol == std::string_view::npos) {
      return in.readable() > 4096 ? cops::nserver::DecodeResult::error()
                                  : cops::nserver::DecodeResult::need_more();
    }
    std::string line(in.view().substr(0, eol));
    in.consume(eol + 2);
    return cops::nserver::DecodeResult::request_ready(std::move(line));
  }

  void handle(cops::nserver::RequestContext& ctx, std::any request) override {
    auto line = std::any_cast<std::string>(std::move(request));
    auto session = std::static_pointer_cast<SmtpSession>(ctx.app_state());
    if (!session) {  // direct pipelined client before on_connect state
      session = std::make_shared<SmtpSession>();
      ctx.app_state() = session;
    }

    // DATA mode: accumulate until the lone-dot terminator.
    if (session->in_data) {
      if (line == ".") {
        session->in_data = false;
        store_.deliver(std::move(session->draft));
        session->draft = {};
        ctx.reply_raw("250 OK: queued\r\n");
      } else {
        if (!line.empty() && line[0] == '.') line.erase(0, 1);  // dot-stuffing
        session->draft.body += line;
        session->draft.body += '\n';
        ctx.finish();  // no per-line reply during DATA
      }
      return;
    }

    const auto upper = cops::to_upper(line.substr(0, line.find(' ')));
    if (upper == "HELO" || upper == "EHLO") {
      session->greeted = true;
      ctx.reply_raw("250 cops-mail at your service\r\n");
    } else if (upper == "MAIL") {
      session->draft.from = std::string(cops::trim(
          line.size() > 10 ? std::string_view(line).substr(10) : ""));
      ctx.reply_raw("250 OK\r\n");
    } else if (upper == "RCPT") {
      session->draft.recipients.emplace_back(cops::trim(
          line.size() > 8 ? std::string_view(line).substr(8) : ""));
      ctx.reply_raw("250 OK\r\n");
    } else if (upper == "DATA") {
      if (session->draft.recipients.empty()) {
        ctx.reply_raw("503 RCPT first\r\n");
      } else {
        session->in_data = true;
        ctx.reply_raw("354 End data with <CR><LF>.<CR><LF>\r\n");
      }
    } else if (upper == "RSET") {
      session->draft = {};
      session->in_data = false;
      ctx.reply_raw("250 OK\r\n");
    } else if (upper == "NOOP") {
      ctx.reply_raw("250 OK\r\n");
    } else if (upper == "QUIT") {
      ctx.close_after_reply();
      ctx.reply_raw("221 Bye\r\n");
    } else {
      ctx.reply_raw("502 Command not implemented\r\n");
    }
  }

  [[nodiscard]] size_t delivered() const { return store_.count(); }

 private:
  MailStore store_;
};

}  // namespace

int main(int argc, char** argv) {
  cops::nserver::ServerOptions options;
  options.separate_processor_pool = true;
  options.processor_threads = 2;
  options.shutdown_long_idle = true;  // SMTP sessions should not linger
  options.idle_timeout = std::chrono::seconds(60);
  options.listen_port =
      argc > 1 ? static_cast<uint16_t>(std::atoi(argv[1])) : 0;

  auto hooks = std::make_shared<SmtpHooks>();
  cops::nserver::Server server(options, hooks);
  auto status = server.start();
  if (!status.is_ok()) {
    std::fprintf(stderr, "start failed: %s\n", status.to_string().c_str());
    return 1;
  }
  std::printf("SMTP server on 127.0.0.1:%u\n", server.port());
  std::fflush(stdout);  // a file or pipe would hold the line back
  if (argc > 2 && std::string(argv[2]) == "--once") {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    std::printf("delivered: %zu message(s)\n", hooks->delivered());
    server.stop();
    return 0;
  }
  while (true) {
    std::this_thread::sleep_for(std::chrono::seconds(10));
    std::printf("delivered so far: %zu message(s)\n", hooks->delivered());
  }
}
