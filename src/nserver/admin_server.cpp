#include "nserver/admin_server.hpp"

#include <utility>

#include "common/logging.hpp"

namespace cops::nserver {
namespace {

// Admin requests are tiny (a GET line plus a few headers); anything larger
// is not a scraper.
constexpr size_t kMaxAdminRequestBytes = 8 * 1024;

constexpr const char* kTextPlain = "text/plain; charset=utf-8";

// A complete minimal HTTP/1.1 response: status line, Content-Type,
// Content-Length, Connection: close.
std::string admin_response(int status, const char* reason,
                           const char* content_type, std::string_view body) {
  std::string out;
  out.reserve(body.size() + 128);
  out += "HTTP/1.1 ";
  out += std::to_string(status);
  out += ' ';
  out += reason;
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace

// One accepted admin connection: read a request, write the response, close.
// Runs entirely on the owning reactor's thread.
class AdminConnection : public net::EventHandler,
                        public std::enable_shared_from_this<AdminConnection> {
 public:
  AdminConnection(AdminServer& owner, uint64_t id, net::TcpSocket socket)
      : owner_(owner), id_(id), socket_(std::move(socket)) {}

  void start() {
    (void)socket_.set_nodelay(true);
    auto status =
        owner_.reactor_.register_handler(socket_.fd(), this, net::kReadable);
    if (!status.is_ok()) shutdown();
  }

  void handle_event(int /*fd*/, uint32_t readiness) override {
    if ((readiness & net::kErrored) != 0) {
      shutdown();
      return;
    }
    if ((readiness & net::kReadable) != 0) on_readable();
    if ((readiness & net::kWritable) != 0) flush();
  }

  void shutdown() {
    if (closed_) return;
    closed_ = true;
    if (socket_.fd() >= 0) {
      (void)owner_.reactor_.deregister(socket_.fd());
      socket_.close();
    }
    owner_.remove(id_);  // may destroy `this` once the caller returns
  }

 private:
  void on_readable() {
    auto n = socket_.read(in_);
    if (!n.is_ok() && n.status().code() != StatusCode::kWouldBlock) {
      shutdown();
      return;
    }
    if (responding_) return;  // ignore pipelined bytes; we close after one
    const size_t header_end = in_.find("\r\n\r\n");
    if (header_end == std::string::npos) {
      if (in_.readable() > kMaxAdminRequestBytes) {
        respond(admin_response(431, "Request Header Fields Too Large",
                               kTextPlain, "too large\n"));
      }
      return;
    }
    std::string_view head = in_.view().substr(0, header_end);
    const size_t line_end = head.find("\r\n");
    std::string_view line =
        line_end == std::string_view::npos ? head : head.substr(0, line_end);
    const size_t sp1 = line.find(' ');
    const size_t sp2 = sp1 == std::string_view::npos
                           ? std::string_view::npos
                           : line.find(' ', sp1 + 1);
    if (sp2 == std::string_view::npos) {
      respond(admin_response(400, "Bad Request", kTextPlain, "bad request\n"));
      return;
    }
    std::string method(line.substr(0, sp1));
    std::string path(line.substr(sp1 + 1, sp2 - sp1 - 1));
    const size_t query = path.find('?');
    if (query != std::string::npos) path.resize(query);
    respond(owner_.respond(method, path));
  }

  void respond(std::string response) {
    responding_ = true;
    out_.append(response);
    flush();
  }

  void flush() {
    auto n = socket_.write(out_);
    if (!n.is_ok() && n.status().code() != StatusCode::kWouldBlock) {
      shutdown();
      return;
    }
    if (out_.empty()) {
      if (responding_) shutdown();
      return;
    }
    auto status =
        owner_.reactor_.update_interest(socket_.fd(), net::kWritable);
    if (!status.is_ok()) shutdown();
  }

  AdminServer& owner_;
  uint64_t id_;
  net::TcpSocket socket_;
  ByteBuffer in_;
  ByteBuffer out_;
  bool responding_ = false;
  bool closed_ = false;
};

AdminServer::AdminServer(net::Reactor& reactor, AdminRoutes routes)
    : routes_(std::move(routes)), reactor_(reactor) {}

AdminServer::~AdminServer() = default;

Status AdminServer::open(const net::InetAddress& addr, int backlog) {
  acceptor_ = std::make_unique<net::Acceptor>(
      reactor_, [this](net::TcpSocket socket) { on_accept(std::move(socket)); });
  auto status = acceptor_->open(addr, backlog);
  if (!status.is_ok()) {
    acceptor_.reset();
    return status;
  }
  auto local = acceptor_->local_address();
  if (local.is_ok()) port_ = local.value().port();
  COPS_INFO("admin endpoint listening on "
            << (local.is_ok() ? local.value().to_string() : std::string("?")));
  return Status::ok();
}

void AdminServer::close() {
  // remove() mutates connections_; drain via a moved copy.
  auto doomed = std::move(connections_);
  connections_.clear();
  for (auto& [id, conn] : doomed) conn->shutdown();
  if (acceptor_) {
    acceptor_->close();
    acceptor_.reset();
  }
}

void AdminServer::on_accept(net::TcpSocket socket) {
  const uint64_t id = next_id_++;
  auto conn = std::make_shared<AdminConnection>(*this, id, std::move(socket));
  connections_.emplace(id, conn);
  conn->start();
}

void AdminServer::remove(uint64_t id) { connections_.erase(id); }

std::string AdminServer::respond(const std::string& method,
                                 const std::string& path) const {
  if (method != "GET" && method != "HEAD") {
    return admin_response(405, "Method Not Allowed", kTextPlain, "GET only\n");
  }
  if (path == "/healthz") {
    if (const char* reason = routes_.unhealthy()) {
      return admin_response(503, "Service Unavailable", kTextPlain, reason);
    }
    return admin_response(200, "OK", kTextPlain, "ok\n");
  }
  if (path == "/stats") {
    return admin_response(200, "OK", "text/plain; version=0.0.4; charset=utf-8",
                          routes_.prometheus());
  }
  if (path == "/stats.json") {
    return admin_response(200, "OK", "application/json", routes_.json());
  }
  if (path == "/") {
    return admin_response(200, "OK", kTextPlain,
                          routes_.banner +
                              "\n"
                              "  /healthz     liveness\n"
                              "  /stats       Prometheus text format\n"
                              "  /stats.json  JSON\n");
  }
  return admin_response(404, "Not Found", kTextPlain, "not found\n");
}

}  // namespace cops::nserver
