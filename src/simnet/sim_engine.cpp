#include "simnet/sim_engine.hpp"

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>

namespace cops::simnet {
namespace {

// Virtual epoch: 1s, so TimePoint{0} never collides with live deadlines.
constexpr int64_t kEpochNs = 1'000'000'000;

// Wall-clock safety net for run(): a simulation that stops making virtual
// progress (e.g. no poller is driving the engine) must not hang the test
// binary forever.
constexpr std::chrono::seconds kRunWallTimeout{120};

}  // namespace

// ---- SimClient --------------------------------------------------------------

void SimClient::connect(uint16_t port) {
  SimEngine::Lock lock(engine_->mutex_);
  auto* listener = engine_->listener_for_connect_locked(port);
  if (listener == nullptr) {
    engine_->record_locked("connect-refused port=" + std::to_string(port));
    engine_->failures_.push_back("connect refused: port " +
                                 std::to_string(port) + " not listening");
    closed_ = true;
    return;
  }
  if (listener->pending.size() >= static_cast<size_t>(listener->backlog)) {
    // Accept-queue overflow: the SYN is dropped, the client never connects.
    engine_->record_locked("syn-drop port=" + std::to_string(port));
    return;
  }
  auto channel = std::make_unique<SimEngine::Channel>();
  channel->id = engine_->next_channel_++;
  channel->listen_port = port;
  channel->client_port = engine_->next_client_port_++;
  channel->client = this;
  channel_ = channel->id;
  listener->pending.push_back(channel->id);
  engine_->record_locked("connect ch=" + std::to_string(channel->id) +
                         " port=" + std::to_string(port));
  engine_->channels_.emplace(channel->id, std::move(channel));
}

void SimClient::send(std::string bytes) {
  SimEngine::Lock lock(engine_->mutex_);
  if (channel_ < 0 || closed_) {
    engine_->failures_.push_back("send on unconnected client");
    return;
  }
  auto& ch = *engine_->channels_.at(channel_);
  engine_->record_locked("client-send ch=" + std::to_string(channel_) +
                         " n=" + std::to_string(bytes.size()));
  ch.c2s.buf += bytes;
}

void SimClient::shutdown_write() {
  SimEngine::Lock lock(engine_->mutex_);
  if (channel_ < 0) return;
  auto& ch = *engine_->channels_.at(channel_);
  ch.c2s.eof = true;
  engine_->record_locked("client-fin ch=" + std::to_string(channel_));
}

void SimClient::reset() {
  SimEngine::Lock lock(engine_->mutex_);
  if (channel_ >= 0) {
    auto& ch = *engine_->channels_.at(channel_);
    ch.c2s.reset = true;
    ch.s2c.reset = true;
    ch.s2c.buf.clear();  // RST discards undelivered data
    engine_->record_locked("client-rst ch=" + std::to_string(channel_));
  }
  closed_ = true;
}

void SimClient::close() {
  SimEngine::Lock lock(engine_->mutex_);
  if (channel_ >= 0 && !closed_) {
    auto& ch = *engine_->channels_.at(channel_);
    ch.c2s.eof = true;
    engine_->record_locked("client-close ch=" + std::to_string(channel_));
  }
  closed_ = true;
}

void SimClient::pause_reading(bool paused) {
  SimEngine::Lock lock(engine_->mutex_);
  paused_ = paused;
  engine_->record_locked(std::string(paused ? "client-pause" : "client-resume") +
                         " ch=" + std::to_string(channel_));
}

// ---- SimEngine --------------------------------------------------------------

SimEngine::SimEngine(uint64_t seed, FaultPlan plan)
    : seed_(seed), plan_(plan), rng_(seed) {
  simclock::install(kEpochNs);
  net::install_sim_backend(this);
}

SimEngine::~SimEngine() {
  {
    Lock lock(mutex_);
    shutdown_ = true;
    running_ = false;
  }
  cv_run_.notify_all();
  cv_done_.notify_all();
  cv_sched_.notify_all();
  net::uninstall_sim_backend();
  simclock::uninstall();
}

int64_t SimEngine::now_ns_locked() const { return simclock::now_ns(); }

void SimEngine::record_locked(std::string line) {
  std::ostringstream out;
  out << "t=" << (now_ns_locked() - kEpochNs) / 1000 << "us " << line;
  trace_.push_back(out.str());
}

void SimEngine::record(std::string line) {
  Lock lock(mutex_);
  record_locked(std::move(line));
}

void SimEngine::fail(std::string message) {
  Lock lock(mutex_);
  record_locked("FAIL " + message);
  failures_.push_back(std::move(message));
}

std::vector<std::string> SimEngine::trace() const {
  Lock lock(mutex_);
  return trace_;
}

std::string SimEngine::trace_text() const {
  Lock lock(mutex_);
  std::string out;
  for (const auto& line : trace_) {
    out += line;
    out += '\n';
  }
  return out;
}

std::vector<std::string> SimEngine::failures() const {
  Lock lock(mutex_);
  return failures_;
}

uint64_t SimEngine::poll_modify_count() const {
  Lock lock(mutex_);
  return poll_modifies_;
}

uint64_t SimEngine::poll_wait_count() const {
  Lock lock(mutex_);
  return poll_waits_;
}

bool SimEngine::chance_locked(double probability) {
  if (probability <= 0.0) return false;
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  return dist(rng_) < probability;
}

// ---- script & execution -----------------------------------------------------

void SimEngine::at(Duration when, std::function<void()> fn) {
  Lock lock(mutex_);
  const int64_t t =
      kEpochNs +
      std::chrono::duration_cast<std::chrono::nanoseconds>(when).count();
  script_.emplace(std::make_pair(t, next_script_seq_++), std::move(fn));
}

SimClient* SimEngine::new_client() {
  Lock lock(mutex_);
  auto client = std::make_unique<SimClient>();
  client->engine_ = this;
  clients_.push_back(std::move(client));
  return clients_.back().get();
}

void SimEngine::fire_due_locked() {
  while (!script_.empty() && script_.begin()->first.first <= now_ns_locked()) {
    auto node = script_.extract(script_.begin());
    node.mapped()();
  }
}

void SimEngine::deliver_locked() {
  for (auto& [id, ch_ptr] : channels_) {
    Channel& ch = *ch_ptr;
    SimClient* client = ch.client;
    if (client == nullptr || client->closed_ || client->paused_) continue;
    if (!ch.s2c.buf.empty() && !ch.s2c.reset) {
      std::string bytes;
      bytes.swap(ch.s2c.buf);
      record_locked("deliver ch=" + std::to_string(id) +
                    " n=" + std::to_string(bytes.size()));
      client->received_ += bytes;
      if (client->on_data) client->on_data(bytes);
    }
    if ((ch.s2c.eof || ch.s2c.reset) && ch.s2c.buf.empty() &&
        !ch.client_notified_close) {
      ch.client_notified_close = true;
      client->peer_closed_ = true;
      record_locked("client-eof ch=" + std::to_string(id));
      if (client->on_close) client->on_close();
    }
  }
}

void SimEngine::halt_locked() {
  running_ = false;
  cv_done_.notify_all();
  cv_sched_.notify_all();  // wake parked pollers so they can notice
}

void SimEngine::check_done_locked() {
  if (!running_ || done_ || timed_out_) return;
  if (!script_.empty()) return;
  for (const auto& client : clients_) {
    if (client->channel_ >= 0 && !client->closed_ && !client->peer_closed_) {
      return;
    }
  }
  done_ = true;
  halt_locked();
}

void SimEngine::advance_to_locked(int64_t target_ns) {
  if (target_ns <= now_ns_locked()) return;
  simclock::set_ns(target_ns);
  if (running_ && !done_ && target_ns >= deadline_ns_) {
    timed_out_ = true;
    halt_locked();
  }
}

bool SimEngine::run(Duration virtual_deadline) {
  Lock lock(mutex_);
  done_ = false;
  timed_out_ = false;
  deadline_ns_ =
      now_ns_locked() +
      std::chrono::duration_cast<std::chrono::nanoseconds>(virtual_deadline)
          .count();
  running_ = true;
  cv_run_.notify_all();
  const bool finished = cv_done_.wait_for(
      lock, kRunWallTimeout, [this] { return done_ || timed_out_ || shutdown_; });
  if (!finished) {
    record_locked("FAIL run() wall-clock timeout (no virtual progress)");
    failures_.push_back("run() wall-clock timeout (no virtual progress)");
  }
  halt_locked();
  return done_;
}

void SimEngine::pump() {
  Lock lock(mutex_);
  fire_due_locked();
  deliver_locked();
}

void SimEngine::advance(Duration delta) {
  Lock lock(mutex_);
  advance_to_locked(
      now_ns_locked() +
      std::chrono::duration_cast<std::chrono::nanoseconds>(delta).count());
}

// ---- fd helpers -------------------------------------------------------------

SimEngine::Channel* SimEngine::channel_of_fd_locked(int fd) {
  auto it = fds_.find(fd);
  if (it == fds_.end() || it->second.is_listener) return nullptr;
  auto ch = channels_.find(it->second.channel);
  return ch == channels_.end() ? nullptr : ch->second.get();
}

void SimEngine::close_server_side_locked(Channel& ch) {
  if (ch.server_closed) return;
  ch.server_closed = true;
  ch.s2c.eof = true;  // FIN towards the client (delivered after drain)
  record_locked("close fd=" + std::to_string(ch.server_fd) +
                " ch=" + std::to_string(ch.id));
}

// ---- SimBackend: endpoint creation -----------------------------------------

Result<int> SimEngine::sim_listen(const net::InetAddress& addr, int backlog) {
  Lock lock(mutex_);
  uint16_t port = addr.port();
  if (port == 0) port = next_auto_port_++;
  auto it = listeners_.find(port);
  if (it != listeners_.end() && !it->second.closed) {
    return Status::invalid_argument("simnet: port already listening");
  }
  const int fd = next_fd_++;
  Listener listener;
  listener.port = port;
  listener.fd = fd;
  listener.backlog = backlog;
  listeners_[port] = std::move(listener);
  fds_[fd] = FdEntry{true, false, -1, port};
  record_locked("listen fd=" + std::to_string(fd) +
                " port=" + std::to_string(port));
  return fd;
}

SimEngine::Listener* SimEngine::listener_for_connect_locked(uint16_t port) {
  auto it = listeners_.find(port);
  if (it == listeners_.end() || it->second.killed || it->second.closed) {
    return nullptr;
  }
  return &it->second;
}

Result<int> SimEngine::sim_connect(const net::InetAddress& peer) {
  Lock lock(mutex_);
  const uint16_t port = peer.port();
  if (stalled_ports_.count(port) != 0) {
    // SYN blackhole: hand out an fd that never becomes writable.
    auto channel = std::make_unique<Channel>();
    channel->id = next_channel_++;
    channel->listen_port = port;
    channel->client_port = next_client_port_++;
    channel->established = false;
    const int fd = next_fd_++;
    channel->initiator_fd = fd;
    fds_[fd] = FdEntry{false, true, channel->id, 0};
    record_locked("connect-stall fd=" + std::to_string(fd) +
                  " port=" + std::to_string(port));
    channels_.emplace(channel->id, std::move(channel));
    return fd;
  }
  auto* listener = listener_for_connect_locked(port);
  if (listener == nullptr) {
    record_locked("connect-refused port=" + std::to_string(port));
    return Status::unavailable("simnet: connection refused");
  }
  if (listener->pending.size() >= static_cast<size_t>(listener->backlog)) {
    record_locked("connect-overflow port=" + std::to_string(port));
    return Status::unavailable("simnet: accept queue full");
  }
  auto channel = std::make_unique<Channel>();
  channel->id = next_channel_++;
  channel->listen_port = port;
  channel->client_port = next_client_port_++;
  const int fd = next_fd_++;
  channel->initiator_fd = fd;
  fds_[fd] = FdEntry{false, true, channel->id, 0};
  listener->pending.push_back(channel->id);
  record_locked("connect fd=" + std::to_string(fd) +
                " ch=" + std::to_string(channel->id) +
                " port=" + std::to_string(port));
  channels_.emplace(channel->id, std::move(channel));
  return fd;
}

// ---- per-endpoint fault targeting -------------------------------------------

void SimEngine::reset_channel_locked(Channel& ch) {
  ch.c2s.reset = true;
  ch.s2c.reset = true;
  ch.c2s.buf.clear();
  ch.s2c.buf.clear();
}

void SimEngine::kill_port_locked(uint16_t port) {
  record_locked("kill port=" + std::to_string(port));
  if (auto it = listeners_.find(port); it != listeners_.end()) {
    it->second.killed = true;
    it->second.pending.clear();
  }
  for (auto& [id, ch_ptr] : channels_) {
    Channel& ch = *ch_ptr;
    if (ch.listen_port != port) continue;
    if (ch.c2s.reset && ch.s2c.reset) continue;  // already dead
    reset_channel_locked(ch);
    record_locked("rst ch=" + std::to_string(id));
  }
}

void SimEngine::kill_port(uint16_t port) {
  Lock lock(mutex_);
  kill_port_locked(port);
}

void SimEngine::kill_port_after_bytes(uint16_t port, uint64_t bytes) {
  Lock lock(mutex_);
  record_locked("kill-after port=" + std::to_string(port) +
                " bytes=" + std::to_string(bytes));
  if (bytes == 0) {
    kill_port_locked(port);
    return;
  }
  kill_after_bytes_[port] = bytes;
}

void SimEngine::revive_port(uint16_t port) {
  Lock lock(mutex_);
  record_locked("revive port=" + std::to_string(port));
  kill_after_bytes_.erase(port);  // disarm any pending mid-body kill
  if (auto it = listeners_.find(port); it != listeners_.end()) {
    it->second.killed = false;
  }
}

void SimEngine::stall_connects(uint16_t port, bool stalled) {
  Lock lock(mutex_);
  record_locked((stalled ? std::string("stall port=")
                         : std::string("unstall port=")) +
                std::to_string(port));
  if (stalled) {
    stalled_ports_.insert(port);
  } else {
    stalled_ports_.erase(port);
  }
}

// ---- SimBackend: socket ops -------------------------------------------------

net::SysResult SimEngine::sim_accept(int listen_fd) {
  Lock lock(mutex_);
  auto it = fds_.find(listen_fd);
  if (it == fds_.end() || !it->second.is_listener) return {-1, EBADF};
  auto& listener = listeners_[it->second.port];
  if (chance_locked(plan_.accept_eintr)) {
    record_locked("fault accept-eintr port=" + std::to_string(listener.port));
    return {-1, EINTR};
  }
  if (listener.fd != listen_fd || listener.pending.empty()) {
    return {-1, EAGAIN};
  }
  const int channel = listener.pending.front();
  listener.pending.pop_front();
  Channel& ch = *channels_.at(channel);
  const int fd = next_fd_++;
  ch.server_fd = fd;
  fds_[fd] = FdEntry{false, false, channel, 0};
  record_locked("accept fd=" + std::to_string(fd) +
                " ch=" + std::to_string(channel));
  return {fd, 0};
}

net::SysResult SimEngine::sim_read(int fd, void* buf, size_t len) {
  Lock lock(mutex_);
  auto entry = fds_.find(fd);
  if (entry == fds_.end() || entry->second.is_listener) return {-1, EBADF};
  const bool initiator = entry->second.initiator;
  Channel* ch = channel_of_fd_locked(fd);
  if (ch == nullptr) return {-1, EBADF};
  if (initiator ? ch->initiator_closed : ch->server_closed) return {-1, EBADF};
  // The initiator end reads what the server wrote; the server end reads
  // what the client/initiator wrote.
  Pipe& pipe = initiator ? ch->s2c : ch->c2s;
  if (pipe.reset) {
    record_locked("read-rst fd=" + std::to_string(fd));
    return {-1, ECONNRESET};
  }
  if (chance_locked(plan_.read_eintr)) {
    record_locked("fault read-eintr fd=" + std::to_string(fd));
    return {-1, EINTR};
  }
  if (pipe.buf.empty()) {
    if (pipe.eof) {
      record_locked("read-eof fd=" + std::to_string(fd));
      return {0, 0};
    }
    return {-1, EAGAIN};
  }
  if (chance_locked(plan_.read_eagain)) {
    record_locked("fault read-eagain fd=" + std::to_string(fd));
    return {-1, EAGAIN};
  }
  size_t n = std::min(len, pipe.buf.size());
  if (n > 1 && chance_locked(plan_.short_read)) {
    n = 1 + static_cast<size_t>(rng_() % n);
  }
  std::memcpy(buf, pipe.buf.data(), n);
  pipe.buf.erase(0, n);
  record_locked("read fd=" + std::to_string(fd) + " n=" + std::to_string(n));
  return {static_cast<ssize_t>(n), 0};
}

net::SysResult SimEngine::sim_write_gather_locked(int fd,
                                                  const struct iovec* iov,
                                                  int iovcnt,
                                                  const char* op) {
  auto entry = fds_.find(fd);
  if (entry == fds_.end() || entry->second.is_listener) return {-1, EBADF};
  const bool initiator = entry->second.initiator;
  Channel* ch = channel_of_fd_locked(fd);
  if (ch == nullptr) return {-1, EBADF};
  if (initiator ? ch->initiator_closed : ch->server_closed) return {-1, EBADF};
  Pipe& pipe = initiator ? ch->c2s : ch->s2c;
  if (pipe.reset) {
    record_locked("write-rst fd=" + std::to_string(fd));
    return {-1, ECONNRESET};
  }
  const bool peer_gone =
      initiator ? ch->server_closed
                : (ch->client != nullptr ? ch->client->closed_
                                         : ch->initiator_closed);
  if (peer_gone) {
    record_locked("write-epipe fd=" + std::to_string(fd));
    return {-1, EPIPE};
  }
  if (chance_locked(plan_.write_eintr)) {
    record_locked("fault write-eintr fd=" + std::to_string(fd));
    return {-1, EINTR};
  }
  if (pipe.buf.size() >= plan_.channel_capacity) return {-1, EAGAIN};
  if (chance_locked(plan_.write_eagain)) {
    record_locked("fault write-eagain fd=" + std::to_string(fd));
    return {-1, EAGAIN};
  }
  size_t len = 0;
  for (int i = 0; i < iovcnt; ++i) len += iov[i].iov_len;
  size_t n = std::min(len, plan_.channel_capacity - pipe.buf.size());
  if (n > 1 && chance_locked(plan_.short_write)) {
    // May land inside any iovec — the short write the resumption tests need
    // mid-segment.
    n = 1 + static_cast<size_t>(rng_() % n);
  }
  size_t left = n;
  for (int i = 0; i < iovcnt && left > 0; ++i) {
    const size_t take = std::min(left, static_cast<size_t>(iov[i].iov_len));
    pipe.buf.append(static_cast<const char*>(iov[i].iov_base), take);
    left -= take;
  }
  record_locked(std::string(op) + " fd=" + std::to_string(fd) +
                " n=" + std::to_string(n));
  // Armed mid-body kill: count bytes the *server* side pushes towards the
  // client/initiator and fire once the budget is spent.  The triggering
  // write itself succeeds — the reset lands right behind it.
  if (!initiator) {
    if (auto trigger = kill_after_bytes_.find(ch->listen_port);
        trigger != kill_after_bytes_.end()) {
      if (trigger->second > n) {
        trigger->second -= n;
      } else {
        kill_after_bytes_.erase(trigger);
        kill_port_locked(ch->listen_port);
      }
    }
  }
  return {static_cast<ssize_t>(n), 0};
}

net::SysResult SimEngine::sim_write(int fd, const void* buf, size_t len) {
  Lock lock(mutex_);
  struct iovec iov;
  iov.iov_base = const_cast<void*>(buf);
  iov.iov_len = len;
  return sim_write_gather_locked(fd, &iov, 1, "write");
}

net::SysResult SimEngine::sim_writev(int fd, const struct iovec* iov,
                                     int iovcnt) {
  Lock lock(mutex_);
  return sim_write_gather_locked(fd, iov, iovcnt, "writev");
}

net::SysResult SimEngine::sim_sendfile(int out_fd, int in_fd, uint64_t offset,
                                       size_t count) {
  Lock lock(mutex_);
  // The file side is a real descriptor (sim covers the network only); read
  // a chunk and push it through the same fault machinery as every other
  // write, so sendfile sees partial sends, EAGAIN bursts, and RSTs too.
  char buf[64 * 1024];
  const size_t want = std::min(count, sizeof(buf));
  const ssize_t got = ::pread(in_fd, buf, want, static_cast<off_t>(offset));
  if (got < 0) return {-1, errno};
  if (got == 0) return {0, 0};
  struct iovec iov;
  iov.iov_base = buf;
  iov.iov_len = static_cast<size_t>(got);
  return sim_write_gather_locked(out_fd, &iov, 1, "sendfile");
}

void SimEngine::sim_shutdown_write(int fd) {
  Lock lock(mutex_);
  auto entry = fds_.find(fd);
  if (entry == fds_.end() || entry->second.is_listener) return;
  Channel* ch = channel_of_fd_locked(fd);
  if (ch == nullptr) return;
  (entry->second.initiator ? ch->c2s : ch->s2c).eof = true;
  record_locked("shutdown-write fd=" + std::to_string(fd));
}

void SimEngine::sim_close(int fd) {
  Lock lock(mutex_);
  auto it = fds_.find(fd);
  if (it == fds_.end()) return;
  if (it->second.is_listener) {
    auto listener = listeners_.find(it->second.port);
    if (listener != listeners_.end() && listener->second.fd == fd &&
        !listener->second.closed) {
      listener->second.closed = true;
      record_locked("listener-close port=" + std::to_string(it->second.port));
    }
  } else if (auto ch = channels_.find(it->second.channel);
             ch != channels_.end()) {
    if (it->second.initiator) {
      if (!ch->second->initiator_closed) {
        ch->second->initiator_closed = true;
        ch->second->c2s.eof = true;  // FIN towards the server
        record_locked("close fd=" + std::to_string(fd) +
                      " ch=" + std::to_string(ch->second->id));
      }
    } else {
      close_server_side_locked(*ch->second);
    }
  }
  fds_.erase(it);
  for (auto& [poller, interests] : pollers_) interests.erase(fd);
}

Result<net::InetAddress> SimEngine::sim_local_address(int fd) {
  Lock lock(mutex_);
  auto it = fds_.find(fd);
  if (it == fds_.end()) return Status::invalid_argument("simnet: bad fd");
  if (it->second.is_listener) {
    return net::InetAddress::loopback(it->second.port);
  }
  Channel* ch = channel_of_fd_locked(fd);
  if (ch == nullptr) return Status::invalid_argument("simnet: bad fd");
  if (it->second.initiator) {
    return net::InetAddress::loopback(ch->client_port);
  }
  return net::InetAddress::loopback(ch->listen_port);
}

Result<net::InetAddress> SimEngine::sim_peer_address(int fd) {
  Lock lock(mutex_);
  auto it = fds_.find(fd);
  if (it == fds_.end() || it->second.is_listener) {
    return Status::invalid_argument("simnet: bad fd");
  }
  Channel* ch = channel_of_fd_locked(fd);
  if (ch == nullptr) return Status::invalid_argument("simnet: bad fd");
  if (it->second.initiator) {
    return net::InetAddress::loopback(ch->listen_port);
  }
  if (ch->client == nullptr) {
    // Internal (in-process) peer: the initiator's ephemeral loopback port.
    return net::InetAddress::loopback(ch->client_port);
  }
  auto addr = net::InetAddress::parse("10.0.0.1", ch->client_port);
  if (!addr.is_ok()) return addr.status();
  return addr.value();
}

// ---- SimBackend: poller ops -------------------------------------------------

Status SimEngine::sim_poll_add(const void* poller, int fd, uint32_t interest) {
  Lock lock(mutex_);
  note_poller_locked(poller);
  auto& interests = pollers_[poller];
  if (!interests.emplace(fd, interest).second) {
    return Status::invalid_argument("simnet: fd already registered");
  }
  return Status::ok();
}

Status SimEngine::sim_poll_modify(const void* poller, int fd,
                                  uint32_t interest) {
  Lock lock(mutex_);
  ++poll_modifies_;
  auto& interests = pollers_[poller];
  auto it = interests.find(fd);
  if (it == interests.end()) {
    return Status::invalid_argument("simnet: fd not registered");
  }
  it->second = interest;
  return Status::ok();
}

Status SimEngine::sim_poll_remove(const void* poller, int fd) {
  Lock lock(mutex_);
  auto& interests = pollers_[poller];
  if (interests.erase(fd) == 0) {
    return Status::invalid_argument("simnet: fd not registered");
  }
  return Status::ok();
}

void SimEngine::collect_ready_locked(const void* poller,
                                     std::vector<net::ReadyFd>& out) {
  auto registered = pollers_.find(poller);
  if (registered == pollers_.end()) return;
  for (const auto& [fd, interest] : registered->second) {
    auto entry = fds_.find(fd);
    if (entry == fds_.end()) continue;
    if (entry->second.is_listener) {
      auto listener = listeners_.find(entry->second.port);
      if (listener == listeners_.end() || listener->second.fd != fd ||
          listener->second.closed) {
        continue;
      }
      if ((interest & net::kReadable) != 0 &&
          !listener->second.pending.empty()) {
        out.push_back({fd, net::kReadable});
      }
      continue;
    }
    Channel* ch = channel_of_fd_locked(fd);
    if (ch == nullptr) continue;
    uint32_t events = 0;
    if (entry->second.initiator) {
      if (ch->initiator_closed) continue;
      // A pending (stalled) connect is neither readable nor writable —
      // unless it was reset, which completes the connect with an error.
      if (!ch->established && !ch->c2s.reset && !ch->s2c.reset) continue;
      if ((interest & net::kReadable) != 0 &&
          (!ch->s2c.buf.empty() || ch->s2c.eof || ch->s2c.reset)) {
        events |= net::kReadable;
      }
      if ((interest & net::kWritable) != 0 &&
          (ch->c2s.reset || ch->c2s.buf.size() < plan_.channel_capacity)) {
        events |= net::kWritable;
      }
    } else {
      if (ch->server_closed) continue;
      if ((interest & net::kReadable) != 0 &&
          (!ch->c2s.buf.empty() || ch->c2s.eof || ch->c2s.reset)) {
        events |= net::kReadable;
      }
      if ((interest & net::kWritable) != 0 &&
          (ch->s2c.reset || ch->s2c.buf.size() < plan_.channel_capacity)) {
        events |= net::kWritable;
      }
    }
    if (events != 0) out.push_back({fd, events});
  }
}

bool SimEngine::has_ready_locked(const void* poller) {
  std::vector<net::ReadyFd> scratch;
  collect_ready_locked(poller, scratch);
  return !scratch.empty();
}

void SimEngine::note_poller_locked(const void* poller) {
  if (slots_.count(poller) != 0) return;
  slots_[poller] = PollerSlot{};
  poller_order_.push_back(poller);
}

// Grants exactly one parked poller once every known poller is parked.
// Whichever thread happens to run this loop is irrelevant: every decision
// depends only on engine state (registration order, fd readiness, virtual
// deadlines), so the grant sequence replays bit-identically per seed.
void SimEngine::schedule_locked() {
  if (token_holder_ != nullptr) return;
  for (const void* p : poller_order_) {
    if (!slots_[p].waiting) return;  // someone is still active
  }
  while (running_ && !shutdown_) {
    fire_due_locked();
    deliver_locked();
    check_done_locked();
    if (!running_) return;
    const int64_t now = now_ns_locked();
    const size_t n = poller_order_.size();
    for (size_t i = 0; i < n; ++i) {
      const size_t idx = (rr_next_ + i) % n;
      const void* p = poller_order_[idx];
      auto& slot = slots_[p];
      if (has_ready_locked(p) || slot.notified || slot.deadline_ns <= now) {
        slot.notified = false;
        slot.granted = true;
        token_holder_ = p;
        rr_next_ = (idx + 1) % n;
        cv_sched_.notify_all();
        return;
      }
    }
    // Nothing ready anywhere: advance virtual time to the next interesting
    // instant — the next scripted action, the earliest parked poll deadline
    // (i.e. some reactor's next timer), or the run deadline.
    int64_t target = deadline_ns_;
    if (!script_.empty()) {
      target = std::min(target, script_.begin()->first.first);
    }
    for (const void* p : poller_order_) {
      target = std::min(target, slots_[p].deadline_ns);
    }
    if (target <= now) {
      // Every earlier candidate was consumed above, so only the run
      // deadline remains — the scenario ran out of virtual time.
      timed_out_ = true;
      halt_locked();
      return;
    }
    advance_to_locked(target);
  }
}

void SimEngine::sim_notify(const void* poller) {
  Lock lock(mutex_);
  // A reactor that owns no sim fds (e.g. a dispatch-target shard whose only
  // descriptor is its real wakeup eventfd) is unknown to the scheduler until
  // its first post — register it now so it joins the token rotation.  The
  // grant happens at the current virtual instant (`notified` short-circuits
  // the deadline check in schedule_locked), so a cross-reactor hand-off is
  // free in virtual time and the trace stays bit-identical per seed.
  note_poller_locked(poller);
  slots_[poller].notified = true;
  // If the poller is idling in the unknown-poller / paused real-time wait,
  // bounce it out immediately so it parks and becomes grantable.
  cv_run_.notify_all();
}

size_t SimEngine::sim_poll_wait(const void* poller,
                                std::vector<net::ReadyFd>& out,
                                int timeout_ms) {
  Lock lock(mutex_);
  ++poll_waits_;
  if (token_holder_ == poller) token_holder_ = nullptr;
  if (shutdown_) return 0;
  if (slots_.count(poller) == 0) {
    // A poller with no registered sim fds (e.g. a reactor thread that has
    // not set up yet) cannot affect the simulated world; idle briefly in
    // real time so it neither blocks scheduling nor spins.
    cv_run_.wait_for(lock, std::chrono::milliseconds(1));
    return 0;
  }
  if (!running_) {
    // Paused (pre-run, or the scenario finished): idle briefly in *real*
    // time with the virtual clock frozen, so the pre-run state is
    // bit-identical across runs and stop requests are still noticed.
    if (timeout_ms != 0) {
      cv_run_.wait_for(lock, std::chrono::milliseconds(1));
    }
    if (!running_ || shutdown_) return 0;
  }
  if (timeout_ms == 0) {
    // Non-blocking probe: issued by the thread that is currently running
    // (pending user events or due timers), which is the token holder.  It
    // keeps the token and handles what is ready without a scheduling round.
    fire_due_locked();
    deliver_locked();
    collect_ready_locked(poller, out);
    token_holder_ = poller;
    if (out.empty()) check_done_locked();
    return out.size();
  }
  auto& slot = slots_[poller];
  slot.waiting = true;
  slot.granted = false;
  const int64_t horizon =
      timeout_ms < 0 ? deadline_ns_
                     : now_ns_locked() +
                           static_cast<int64_t>(timeout_ms) * 1'000'000;
  slot.deadline_ns = horizon;
  schedule_locked();
  cv_sched_.wait(lock,
                 [this, &slot] { return slot.granted || !running_ || shutdown_; });
  slot.waiting = false;
  slot.granted = false;
  if (!running_ || shutdown_) return 0;
  // We hold the token now: fire whatever is due at this instant and report
  // readiness; the reactor dispatches, then re-enters to hand the token back.
  token_holder_ = poller;
  fire_due_locked();
  deliver_locked();
  collect_ready_locked(poller, out);
  if (out.empty()) check_done_locked();
  return out.size();
}

}  // namespace cops::simnet
