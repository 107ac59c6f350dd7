#include "cluster/tcp_relay.hpp"

#include "common/logging.hpp"

namespace cops::cluster {

RelaySession::RelaySession(uint64_t id, net::Reactor& reactor,
                           net::TcpSocket client, net::TcpSocket backend,
                           DoneCallback on_done, size_t buffer_cap)
    : id_(id),
      reactor_(reactor),
      client_(std::move(client)),
      backend_(std::move(backend)),
      on_done_(std::move(on_done)),
      buffer_cap_(buffer_cap) {
  // The client socket inherited TCP_NODELAY from the listener; the
  // outbound backend socket did not.
  backend_.set_nodelay(true);
  inbound_ = {&client_, &backend_, {}, false, false, &to_backend_bytes_};
  outbound_ = {&backend_, &client_, {}, false, false, &to_client_bytes_};
}

RelaySession::~RelaySession() = default;

Status RelaySession::start() {
  auto status = reactor_.register_handler(client_.fd(), this, net::kReadable);
  if (!status.is_ok()) return status;
  status = reactor_.register_handler(backend_.fd(), this, net::kReadable);
  if (!status.is_ok()) {
    reactor_.deregister(client_.fd());
    return status;
  }
  registered_ = true;
  return Status::ok();
}

void RelaySession::handle_event(int fd, uint32_t readiness) {
  auto self = shared_from_this();
  if (finished_) return;
  if ((readiness & net::kErrored) != 0) {
    abort("socket-error");
    return;
  }
  // Either socket's event may unblock both directions (a writable dst
  // drains its buffer, which re-enables reads on the matching src).
  (void)fd;
  pump(inbound_);
  if (finished_) return;
  pump(outbound_);
  if (finished_) return;
  update_interest();

  // Both directions complete → done.
  const bool inbound_done = inbound_.src_eof && inbound_.buffer.empty();
  const bool outbound_done = outbound_.src_eof && outbound_.buffer.empty();
  if (inbound_done && outbound_done) finish();
}

void RelaySession::pump(Direction& dir) {
  // Read while there is buffer room.
  while (!dir.src_eof && dir.buffer.readable() < buffer_cap_) {
    auto n = dir.src->read(dir.buffer);
    if (!n.is_ok()) {
      if (n.status().code() == StatusCode::kWouldBlock) break;
      // EOF or reset: stop reading this direction.
      dir.src_eof = true;
      break;
    }
    *dir.counter += n.value();
  }
  // Write whatever is buffered.
  if (dir.buffer.readable() > 0) {
    auto n = dir.dst->write(dir.buffer);
    if (!n.is_ok() && n.status().code() != StatusCode::kWouldBlock) {
      abort("relay-write-error");
      return;
    }
  }
  // Propagate half-close once drained.
  if (dir.src_eof && dir.buffer.empty() && !dir.dst_shutdown) {
    dir.dst->shutdown_write();
    dir.dst_shutdown = true;
  }
}

void RelaySession::update_interest() {
  auto interest_for = [&](Direction& read_dir, Direction& write_dir) {
    uint32_t interest = 0;
    if (!read_dir.src_eof && read_dir.buffer.readable() < buffer_cap_) {
      interest |= net::kReadable;
    }
    if (write_dir.buffer.readable() > 0) interest |= net::kWritable;
    return interest;
  };
  // client fd: reads feed inbound, writes drain outbound.
  reactor_.update_interest(client_.fd(), interest_for(inbound_, outbound_));
  // backend fd: reads feed outbound, writes drain inbound.
  reactor_.update_interest(backend_.fd(), interest_for(outbound_, inbound_));
}

void RelaySession::abort(const char* reason) {
  (void)reason;
  finish();
}

void RelaySession::finish() {
  if (finished_) return;
  finished_ = true;
  if (registered_) {
    reactor_.deregister(client_.fd());
    reactor_.deregister(backend_.fd());
    registered_ = false;
  }
  client_.close();
  backend_.close();
  if (on_done_) on_done_(id_);
}

}  // namespace cops::cluster
