#include "client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <strings.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <deque>
#include <fstream>
#include <iterator>

#include "loadgen/fileset.hpp"

namespace perfbench {

Fixture::Fixture(std::string root, size_t directories, Mix mix)
    : root_(std::move(root)),
      mix_(mix),
      dir_zipf_(directories, 1.0),
      file_zipf_(cops::loadgen::kFilesPerClass, 1.0) {
  using namespace cops::loadgen;
  for (size_t d = 0; d < directories; ++d) {
    for (int c = 0; c < kClassesPerDir; ++c) {
      for (int f = 0; f < kFilesPerClass; ++f) {
        targets_.push_back(
            {file_url(d, c, f), static_cast<uint32_t>(file_size_bytes(c, f))});
      }
    }
  }
}

uint32_t Fixture::draw(std::mt19937_64& rng) const {
  using namespace cops::loadgen;
  constexpr uint32_t kPerDir = kClassesPerDir * kFilesPerClass;
  std::uniform_real_distribution<double> u(0.0, 1.0);
  if (mix_ == Mix::kHot) {
    // The 18 class-0 files of the first two directories, uniformly.
    const auto k = static_cast<uint32_t>(u(rng) * 2 * kFilesPerClass);
    return (k / kFilesPerClass) * kPerDir + k % kFilesPerClass;
  }
  // SpecWeb99: Zipf directory, weighted size class, Zipf file within the
  // class — the same draw as loadgen::WorkloadSampler, as an index.
  const auto dir = static_cast<uint32_t>(dir_zipf_.sample(u(rng)));
  const double uc = u(rng);
  int size_class = kClassesPerDir - 1;
  double acc = 0.0;
  for (int c = 0; c < kClassesPerDir; ++c) {
    acc += kClassWeights[c];
    if (uc < acc) {
      size_class = c;
      break;
    }
  }
  const auto file = static_cast<uint32_t>(file_zipf_.sample(u(rng)));
  return dir * kPerDir + static_cast<uint32_t>(size_class) * kFilesPerClass +
         file;
}

namespace {

// One body in this many, picked by the seed, is compared byte for byte.
constexpr uint64_t kBodySampleOneIn = 64;
constexpr size_t kMaxHeader = 8192;
constexpr int64_t kTickNs = 100'000;
constexpr int64_t kDrainTimeoutNs = 10'000'000'000;
constexpr size_t kMaxSampledBytes = 64u << 20;
constexpr double kMaxClosedLoopRate = 150'000;  // replies/s, for reservations

int connect_loopback(uint16_t port, bool nonblocking) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  if (nonblocking) ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

std::string request_bytes(const std::string& url, uint64_t id) {
  return "GET " + url + " HTTP/1.1\r\nHost: bench\r\nX-Req: " +
         std::to_string(id) + "\r\n\r\n";
}

// Incremental framing of one HTTP/1.1 reply: header block, then exactly
// Content-Length body bytes.
struct ReplyParser {
  enum class Step { kMore, kDone, kError };

  std::string head;
  bool in_body = false;
  size_t body_left = 0;
  int status = 0;
  size_t content_length = 0;
  std::string* keep = nullptr;  // receives the body when set

  // Consumes bytes from the front of [p, p + n).
  Step feed(const char*& p, size_t& n) {
    if (!in_body) {
      const size_t old = head.size();
      const size_t take = std::min(n, kMaxHeader - old);
      head.append(p, take);
      const size_t end = head.find("\r\n\r\n", old >= 3 ? old - 3 : 0);
      if (end == std::string::npos) {
        p += take;
        n -= take;
        return head.size() >= kMaxHeader ? Step::kError : Step::kMore;
      }
      const size_t used = end + 4 - old;
      p += used;
      n -= used;
      head.resize(end + 4);
      if (!parse_head()) return Step::kError;
      in_body = true;
      body_left = content_length;
    }
    const size_t take = std::min(n, body_left);
    if (keep != nullptr) keep->append(p, take);
    p += take;
    n -= take;
    body_left -= take;
    if (body_left > 0) return Step::kMore;
    in_body = false;
    head.clear();
    return Step::kDone;
  }

  bool parse_head() {
    if (head.size() < 12 || head.compare(0, 7, "HTTP/1.") != 0) return false;
    if (std::from_chars(head.data() + 9, head.data() + 12, status).ec !=
        std::errc{}) {
      return false;
    }
    static constexpr char kName[] = "\r\ncontent-length:";
    constexpr size_t kLen = sizeof(kName) - 1;
    for (size_t i = head.find("\r\n"); i != std::string::npos;
         i = head.find("\r\n", i + 2)) {
      if (::strncasecmp(head.data() + i, kName, kLen) != 0) continue;
      size_t v = i + kLen;
      while (v < head.size() && head[v] == ' ') ++v;
      return std::from_chars(head.data() + v, head.data() + head.size(),
                             content_length)
                 .ec == std::errc{};
    }
    return false;
  }
};

struct Pending {
  uint64_t id = 0;
  uint32_t target = 0;
  int64_t due_ns = 0;   // open loop: scheduled arrival; closed: ready to send
  int64_t send_ns = 0;
  bool sampled = false;
};

struct Conn {
  int fd = -1;
  int replies = 0;  // on the current socket
  std::deque<Pending> pending;
  std::string out;  // request bytes the socket has not taken yet
  bool want_out = false;
  ReplyParser parser;
  std::string body;  // sampled body being received
};

class LoadRun {
 public:
  LoadRun(const Fixture& fixture, const LoadConfig& config)
      : fixture_(fixture),
        config_(config),
        open_loop_(config.arrival_rate > 0),
        mix_rng_(config.seed),
        sample_rng_(config.seed ^ 0x9e3779b97f4a7c15ULL),
        arrival_rng_(config.seed * 2 + 1),
        conns_(std::max<size_t>(config.connections, 1)) {}

  ~LoadRun() {
    for (auto& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
    if (timer_fd_ >= 0) ::close(timer_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
  }
  LoadRun(const LoadRun&) = delete;
  LoadRun& operator=(const LoadRun&) = delete;

  LoadResult run();

 private:
  // The window slice a request counts in, or nullptr outside the window.
  SliceStats* slice_of(const Pending& p, int64_t done) {
    const int64_t t = open_loop_ ? p.due_ns : done;
    if (t < window_start_ || t >= window_end_) return nullptr;
    const auto k = static_cast<size_t>((t - window_start_) / slice_ns_);
    return &result_.slices[std::min(k, result_.slices.size() - 1)];
  }
  bool open_conn(size_t i);
  void close_conn(size_t i);
  void issue(size_t i, int64_t due);
  void flush(size_t i);
  void update_interest(size_t i);
  void on_readable(size_t i);
  void complete(size_t i, int64_t now);
  void fail_conn(size_t i, const std::string& why);
  void on_timer(int64_t now);
  void arm_timer(int64_t at);
  size_t least_loaded() const;
  void note_failure(const Pending& p, int64_t now, const std::string& why);
  void compare_bodies();

  const Fixture& fixture_;
  const LoadConfig& config_;
  const bool open_loop_;
  std::mt19937_64 mix_rng_;
  std::mt19937_64 sample_rng_;
  std::mt19937_64 arrival_rng_;
  std::vector<Conn> conns_;
  int epoll_fd_ = -1;
  int timer_fd_ = -1;
  uint64_t next_id_ = 1;
  int64_t window_start_ = 0;
  int64_t window_end_ = 0;
  int64_t slice_ns_ = 1;
  int64_t next_due_ = 0;
  bool stopping_ = false;  // window over: issue nothing new
  std::vector<char> rx_ = std::vector<char>(256 * 1024);
  std::vector<std::pair<uint32_t, std::string>> samples_;
  size_t sampled_bytes_ = 0;
  LoadResult result_;
};

bool LoadRun::open_conn(size_t i) {
  Conn& c = conns_[i];
  c.fd = connect_loopback(config_.port, /*nonblocking=*/true);
  if (c.fd < 0) return false;
  c.replies = 0;
  c.want_out = false;
  c.parser = ReplyParser{};
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = i;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, c.fd, &ev);
  return true;
}

void LoadRun::close_conn(size_t i) {
  Conn& c = conns_[i];
  if (c.fd < 0) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c.fd, nullptr);
  ::close(c.fd);
  c.fd = -1;
  c.out.clear();
}

void LoadRun::issue(size_t i, int64_t due) {
  Conn& c = conns_[i];
  Pending p;
  p.id = next_id_++;
  p.target = fixture_.draw(mix_rng_);
  p.due_ns = due;
  const uint32_t size = fixture_.target(p.target).size;
  if (sample_rng_() % kBodySampleOneIn == 0 &&
      sampled_bytes_ + size <= kMaxSampledBytes) {
    p.sampled = true;
    sampled_bytes_ += size;
  }
  c.out += request_bytes(fixture_.target(p.target).url, p.id);
  p.send_ns = now_ns();
  c.pending.push_back(p);
  flush(i);
}

void LoadRun::flush(size_t i) {
  Conn& c = conns_[i];
  while (!c.out.empty()) {
    const ssize_t n = ::send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
    if (n > 0) {
      c.out.erase(0, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    fail_conn(i, "send failed");
    return;
  }
  update_interest(i);
}

void LoadRun::update_interest(size_t i) {
  Conn& c = conns_[i];
  const bool want = !c.out.empty();
  if (want == c.want_out || c.fd < 0) return;
  c.want_out = want;
  epoll_event ev{};
  ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
  ev.data.u64 = i;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
}

void LoadRun::note_failure(const Pending& p, int64_t now,
                          const std::string& why) {
  ++result_.failed_total;
  if (SliceStats* slice = slice_of(p, now)) ++slice->failed;
  if (result_.first_error.empty()) {
    result_.first_error = why + " (" + fixture_.target(p.target).url + ")";
  }
}

void LoadRun::fail_conn(size_t i, const std::string& why) {
  Conn& c = conns_[i];
  const int64_t now = now_ns();
  for (const auto& p : c.pending) note_failure(p, now, why);
  c.pending.clear();
  c.body.clear();
  close_conn(i);
  if (stopping_) return;
  if (!open_conn(i)) {
    result_.first_error = "reconnect failed";
    stopping_ = true;
    return;
  }
  if (!open_loop_) issue(i, now);
}

void LoadRun::on_readable(size_t i) {
  Conn& c = conns_[i];
  for (;;) {
    const ssize_t n = ::recv(c.fd, rx_.data(), rx_.size(), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n <= 0) {
      if (!c.pending.empty()) {
        fail_conn(i, n == 0 ? "server closed the connection" : "recv failed");
      } else {
        close_conn(i);
        if (!stopping_ && open_conn(i) && !open_loop_) issue(i, now_ns());
      }
      return;
    }
    const char* p = rx_.data();
    size_t left = static_cast<size_t>(n);
    while (left > 0) {
      if (c.pending.empty()) {
        ++result_.failed_total;
        if (result_.first_error.empty()) {
          result_.first_error = "reply without a request";
        }
        fail_conn(i, "reply without a request");
        return;
      }
      c.parser.keep = c.pending.front().sampled ? &c.body : nullptr;
      const auto step = c.parser.feed(p, left);
      if (step == ReplyParser::Step::kError) {
        fail_conn(i, "malformed reply");
        return;
      }
      if (step == ReplyParser::Step::kDone) {
        complete(i, now_ns());
        if (c.fd < 0) return;  // closed for good (reconnect failed)
      }
    }
    if (static_cast<size_t>(n) < rx_.size()) return;
  }
}

void LoadRun::complete(size_t i, int64_t now) {
  Conn& c = conns_[i];
  const Pending p = c.pending.front();
  c.pending.pop_front();
  const Target& t = fixture_.target(p.target);
  const bool ok = c.parser.status == 200 && c.parser.content_length == t.size;
  if (!ok) {
    note_failure(p, now,
                 "status " + std::to_string(c.parser.status) + " length " +
                     std::to_string(c.parser.content_length));
  } else {
    ++result_.replies_total;
    if (SliceStats* slice = slice_of(p, now)) {
      ++slice->replies;
      slice->body_bytes += t.size;
      const int64_t from = open_loop_ ? p.due_ns : p.send_ns;
      slice->latency_us.push_back(static_cast<float>((now - from) / 1e3));
      slice->lateness_us.push_back(
          static_cast<float>((p.send_ns - p.due_ns) / 1e3));
      if (config_.spans != nullptr) {
        const SpanSlot& s = config_.spans->slot(p.id);
        const int64_t de = s.decode_entry.load(std::memory_order_relaxed);
        const int64_t dx = s.decode_exit.load(std::memory_order_relaxed);
        const int64_t he = s.handle_entry.load(std::memory_order_relaxed);
        const int64_t ee = s.encode_entry.load(std::memory_order_relaxed);
        const int64_t ex = s.encode_exit.load(std::memory_order_relaxed);
        if (de < p.send_ns || dx < de || he < dx || ee < he || ex < ee ||
            now < ex) {
          ++result_.spans.missing;
        } else {
          auto& sp = result_.spans;
          const double parts[] = {(de - p.send_ns) / 1e3, (dx - de) / 1e3,
                                  (ee - he) / 1e3, (ex - ee) / 1e3,
                                  (now - ex) / 1e3};
          sp.pre_decode.push_back(static_cast<float>(parts[0]));
          sp.decode.push_back(static_cast<float>(parts[1]));
          sp.handle.push_back(static_cast<float>(parts[2]));
          sp.encode.push_back(static_cast<float>(parts[3]));
          sp.post_encode.push_back(static_cast<float>(parts[4]));
          for (double part : parts) sp.span_sum_us += part;
          sp.send_to_reply_us += (now - p.send_ns) / 1e3;
        }
      }
    }
    if (p.sampled) samples_.emplace_back(p.target, std::move(c.body));
  }
  c.body.clear();
  ++c.replies;
  if (open_loop_ || stopping_) return;
  if (config_.requests_per_connection > 0 &&
      c.replies >= config_.requests_per_connection) {
    close_conn(i);
    if (!open_conn(i)) {
      result_.first_error = "reconnect failed";
      stopping_ = true;
      return;
    }
  }
  issue(i, now);
}

size_t LoadRun::least_loaded() const {
  size_t best = 0;
  for (size_t i = 1; i < conns_.size(); ++i) {
    if (conns_[i].pending.size() < conns_[best].pending.size()) best = i;
  }
  return best;
}

void LoadRun::arm_timer(int64_t at) {
  itimerspec spec{};
  spec.it_value.tv_sec = at / 1'000'000'000;
  spec.it_value.tv_nsec = at % 1'000'000'000;
  ::timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &spec, nullptr);
}

void LoadRun::on_timer(int64_t now) {
  uint64_t expirations = 0;
  [[maybe_unused]] ssize_t n =
      ::read(timer_fd_, &expirations, sizeof expirations);
  std::exponential_distribution<double> gap(config_.arrival_rate / 1e9);
  while (next_due_ <= now && next_due_ < window_end_) {
    issue(least_loaded(), next_due_);
    next_due_ += static_cast<int64_t>(gap(arrival_rng_)) + 1;
  }
  if (next_due_ < window_end_) arm_timer(next_due_);
}

void LoadRun::compare_bodies() {
  for (const auto& [target, body] : samples_) {
    const std::string path = fixture_.root() + fixture_.target(target).url;
    std::ifstream in(path, std::ios::binary);
    const std::string want((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    ++result_.bodies_compared;
    if (body != want) {
      ++result_.body_mismatches;
      if (result_.first_error.empty()) {
        result_.first_error = "body differs from " + path;
      }
    }
  }
}

LoadResult LoadRun::run() {
  // Arrivals are timed to the microsecond: no timer slack on this thread.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  constexpr uint64_t kTimerKey = ~0ULL;
  if (open_loop_) {
    timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kTimerKey;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, timer_fd_, &ev);
  }
  for (size_t i = 0; i < conns_.size(); ++i) {
    if (!open_conn(i)) {
      result_.first_error = "connect failed";
      return result_;
    }
  }
  const int64_t start = now_ns();
  window_start_ = start + static_cast<int64_t>(config_.warmup_seconds * 1e9);
  window_end_ =
      window_start_ + static_cast<int64_t>(config_.window_seconds * 1e9);
  const int slices = std::max(config_.slices, 1);
  result_.slices.resize(static_cast<size_t>(slices));
  // Sized and touched up front, so the client's share of the peak RSS is
  // the same on every run instead of following the reply count.
  const auto expected = static_cast<size_t>(
      (open_loop_ ? 1.5 * config_.arrival_rate : kMaxClosedLoopRate) *
      config_.window_seconds / slices);
  for (auto& slice : result_.slices) {
    slice.latency_us.resize(expected);
    slice.latency_us.clear();
    slice.lateness_us.resize(expected);
    slice.lateness_us.clear();
  }
  slice_ns_ = std::max<int64_t>((window_end_ - window_start_) / slices, 1);
  result_.slice_seconds = config_.window_seconds / slices;
  if (open_loop_) {
    next_due_ = start;
    arm_timer(next_due_);
  } else {
    for (size_t i = 0; i < conns_.size(); ++i) issue(i, start);
  }

  int next_boundary = 0;  // slice boundaries passed so far
  bool window_closed = false;
  int64_t cpu_at_start = 0;
  int64_t last_tick = 0;
  auto thread_cpu = [] {
    timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return ts.tv_sec * 1'000'000'000LL + ts.tv_nsec;
  };
  std::vector<epoll_event> events(conns_.size() + 1);
  for (;;) {
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), 2);
    for (int e = 0; e < n; ++e) {
      const uint64_t key = events[e].data.u64;
      if (key == kTimerKey) {
        on_timer(now_ns());
        continue;
      }
      Conn& c = conns_[key];
      if (c.fd < 0) continue;
      if ((events[e].events & EPOLLOUT) != 0) flush(key);
      if (c.fd >= 0 && (events[e].events & (EPOLLIN | EPOLLERR | EPOLLHUP))) {
        on_readable(key);
      }
    }
    const int64_t now = now_ns();
    while (next_boundary <= slices &&
           now >= window_start_ + next_boundary * slice_ns_) {
      if (next_boundary == 0) cpu_at_start = thread_cpu();
      if (next_boundary == slices) {
        window_closed = true;
        stopping_ = true;
        result_.client_cpu_ns = thread_cpu() - cpu_at_start;
      }
      if (config_.on_boundary) config_.on_boundary(next_boundary);
      ++next_boundary;
    }
    if (next_boundary > 0 && !window_closed && config_.on_tick &&
        now - last_tick >= kTickNs) {
      last_tick = now;
      config_.on_tick();
    }
    if (window_closed) {
      bool idle = true;
      for (const auto& c : conns_) idle = idle && c.pending.empty();
      if (idle) break;
      if (now >= window_end_ + kDrainTimeoutNs) {
        for (size_t i = 0; i < conns_.size(); ++i) {
          fail_conn(i, "no reply before the drain deadline");
        }
        break;
      }
    }
  }
  for (size_t i = 0; i < conns_.size(); ++i) close_conn(i);
  compare_bodies();
  return std::move(result_);
}

}  // namespace

uint64_t LoadResult::replies() const {
  uint64_t n = 0;
  for (const auto& s : slices) n += s.replies;
  return n;
}

uint64_t LoadResult::failed() const {
  uint64_t n = body_mismatches;
  for (const auto& s : slices) n += s.failed;
  return n;
}

std::vector<float> LoadResult::latency_us() const {
  std::vector<float> all;
  for (const auto& s : slices) {
    all.insert(all.end(), s.latency_us.begin(), s.latency_us.end());
  }
  return all;
}

std::vector<float> LoadResult::lateness_us() const {
  std::vector<float> all;
  for (const auto& s : slices) {
    all.insert(all.end(), s.lateness_us.begin(), s.lateness_us.end());
  }
  return all;
}

LoadResult run_load(const Fixture& fixture, const LoadConfig& config) {
  LoadRun load(fixture, config);
  return load.run();
}

bool fetch_once(uint16_t port, const std::string& url,
                uint32_t expected_size) {
  const int fd = connect_loopback(port, /*nonblocking=*/false);
  if (fd < 0) return false;
  const std::string req = request_bytes(url, 0);
  bool ok = ::send(fd, req.data(), req.size(), MSG_NOSIGNAL) ==
            static_cast<ssize_t>(req.size());
  ReplyParser parser;
  std::vector<char> buf(64 * 1024);
  while (ok) {
    const ssize_t n = ::recv(fd, buf.data(), buf.size(), 0);
    if (n <= 0) {
      ok = false;
      break;
    }
    const char* p = buf.data();
    size_t left = static_cast<size_t>(n);
    const auto step = parser.feed(p, left);
    if (step == ReplyParser::Step::kError) ok = false;
    if (step == ReplyParser::Step::kDone) break;
  }
  ::close(fd);
  return ok && parser.status == 200 && parser.content_length == expected_size;
}

}  // namespace perfbench
