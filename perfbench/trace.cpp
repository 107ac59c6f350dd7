#include "trace.hpp"

#include <dirent.h>
#include <dlfcn.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/uio.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <new>

namespace perfbench {

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

// One block per counted thread, written only by its owner.  A fixed array
// keeps registration allocation-free (it runs inside operator new).
struct ThreadCounters {
  std::atomic<uint64_t> v[kNumCounters];
};
constexpr int kMaxThreads = 256;
ThreadCounters g_blocks[kMaxThreads];
std::atomic<int> g_num_blocks{0};
std::atomic<bool> g_counting{false};
thread_local bool t_client = false;
thread_local ThreadCounters* t_block = nullptr;

ThreadCounters* counted_block() {
  if (!g_counting.load(std::memory_order_relaxed) || t_client) return nullptr;
  if (t_block == nullptr) {
    const int i = g_num_blocks.fetch_add(1, std::memory_order_relaxed);
    if (i >= kMaxThreads) return nullptr;
    t_block = &g_blocks[i];
  }
  return t_block;
}

inline void bump(ThreadCounters* b, SysCounter c, uint64_t n = 1) {
  b->v[c].store(b->v[c].load(std::memory_order_relaxed) + n,
                std::memory_order_relaxed);
}

// What each descriptor is, so a socket receive can be told apart from an
// eventfd drain or a file read, and an eventfd write from other writes.
// Tagged at accept4/eventfd and cleared at close, whether or not counting is
// on, since connections are often accepted before the measured window opens.
enum FdKind : uint8_t { kOther = 0, kSocket = 1, kEventFd = 2 };
constexpr int kMaxFd = 1 << 16;
std::atomic<uint8_t> g_fd_kind[kMaxFd];

void tag_fd(int fd, FdKind kind) {
  if (fd >= 0 && fd < kMaxFd) {
    g_fd_kind[fd].store(kind, std::memory_order_relaxed);
  }
}
FdKind fd_kind(int fd) {
  if (fd < 0 || fd >= kMaxFd) return kOther;
  return static_cast<FdKind>(g_fd_kind[fd].load(std::memory_order_relaxed));
}

template <typename Fn>
Fn next_symbol(const char* name) {
  void* sym = dlsym(RTLD_NEXT, name);
  if (sym == nullptr) std::abort();
  return reinterpret_cast<Fn>(sym);
}

}  // namespace

CounterTotals CounterTotals::operator-(const CounterTotals& o) const {
  CounterTotals d;
  for (int i = 0; i < kNumCounters; ++i) d.v[i] = v[i] - o.v[i];
  return d;
}

void mark_client_thread() { t_client = true; }

void set_counting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

CounterTotals counter_totals() {
  CounterTotals t;
  const int n = std::min(g_num_blocks.load(), kMaxThreads);
  for (int b = 0; b < n; ++b) {
    for (int i = 0; i < kNumCounters; ++i) {
      t.v[i] += g_blocks[b].v[i].load(std::memory_order_relaxed);
    }
  }
  return t;
}

pid_t current_tid() { return static_cast<pid_t>(::syscall(SYS_gettid)); }

std::vector<ThreadSample> sample_threads() {
  std::vector<ThreadSample> out;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return out;
  while (const dirent* entry = ::readdir(dir)) {
    pid_t tid = 0;
    const char* name = entry->d_name;
    const char* end = name + std::char_traits<char>::length(name);
    if (std::from_chars(name, end, tid).ec != std::errc{} || tid <= 0) continue;
    ThreadSample s;
    s.tid = tid;
    std::ifstream comm("/proc/self/task/" + std::string(name) + "/comm");
    std::getline(comm, s.name);
    // The kernel's per-thread CPU clock id (CPUCLOCK_SCHED | PERTHREAD).
    const auto clock = static_cast<clockid_t>(
        (~static_cast<unsigned>(tid) << 3) | 6u);
    timespec ts{};
    if (::clock_gettime(clock, &ts) != 0) continue;  // thread just exited
    s.cpu_ns = ts.tv_sec * 1'000'000'000LL + ts.tv_nsec;
    out.push_back(std::move(s));
  }
  ::closedir(dir);
  return out;
}

// ---- TracingHooks ------------------------------------------------------------

namespace {

uint64_t request_id_of(const std::any& request) {
  const cops::http::HttpRequest* req = nullptr;
  if (auto* const* p = std::any_cast<cops::http::HttpRequest*>(&request)) {
    req = *p;
  } else {
    req = std::any_cast<cops::http::HttpRequest>(&request);
  }
  if (req == nullptr) return 0;
  const auto value = req->header("x-req");
  if (!value) return 0;
  uint64_t id = 0;
  std::from_chars(value->data(), value->data() + value->size(), id);
  return id;
}

}  // namespace

void TracingHooks::note_thread() {
  thread_local const TracingHooks* noted = nullptr;
  if (noted == this) return;
  noted = this;
  std::lock_guard<std::mutex> lock(threads_mutex_);
  threads_.push_back(current_tid());
}

std::vector<pid_t> TracingHooks::hook_threads() const {
  std::lock_guard<std::mutex> lock(threads_mutex_);
  return threads_;
}

cops::nserver::DecodeResult TracingHooks::decode(
    cops::nserver::RequestContext& ctx, cops::ByteBuffer& in) {
  note_thread();
  const int64_t entry = now_ns();
  auto result = inner_->decode(ctx, in);
  const int64_t exit = now_ns();
  decode_calls_.fetch_add(1, std::memory_order_relaxed);
  if (result.status == cops::nserver::DecodeStatus::kRequest) {
    const uint64_t id = request_id_of(result.request);
    SpanSlot& s = spans_.slot(id);
    s.decode_entry.store(entry, std::memory_order_relaxed);
    s.decode_exit.store(exit, std::memory_order_relaxed);
    conn_request(ctx.connection_id()).store(id, std::memory_order_relaxed);
    decode_done_.fetch_add(1, std::memory_order_relaxed);
  }
  return result;
}

void TracingHooks::handle(cops::nserver::RequestContext& ctx,
                          std::any request) {
  note_thread();
  const uint64_t id =
      conn_request(ctx.connection_id()).load(std::memory_order_relaxed);
  spans_.slot(id).handle_entry.store(now_ns(), std::memory_order_relaxed);
  inner_->handle(ctx, std::move(request));
}

cops::EncodedReply TracingHooks::encode_reply(
    cops::nserver::RequestContext& ctx, std::any response) {
  note_thread();
  const uint64_t id =
      conn_request(ctx.connection_id()).load(std::memory_order_relaxed);
  SpanSlot& s = spans_.slot(id);
  s.encode_entry.store(now_ns(), std::memory_order_relaxed);
  auto reply = inner_->encode_reply(ctx, std::move(response));
  s.encode_exit.store(now_ns(), std::memory_order_relaxed);
  encode_calls_.fetch_add(1, std::memory_order_relaxed);
  bytes_copied_.fetch_add(reply.copied_bytes, std::memory_order_relaxed);
  return reply;
}

}  // namespace perfbench

// ---- libc interposers -----------------------------------------------------------
//
// Definitions in the executable take precedence over libc's for every call
// the server libraries make; each forwards to the next definition (libc's).

using perfbench::bump;
using perfbench::counted_block;
using perfbench::fd_kind;
using perfbench::next_symbol;
using perfbench::tag_fd;

extern "C" {

int epoll_wait(int epfd, epoll_event* events, int maxevents, int timeout) {
  static const auto real = next_symbol<decltype(&epoll_wait)>("epoll_wait");
  if (auto* b = counted_block()) bump(b, perfbench::kEpollWait);
  return real(epfd, events, maxevents, timeout);
}

int epoll_ctl(int epfd, int op, int fd, epoll_event* event) noexcept {
  static const auto real = next_symbol<decltype(&epoll_ctl)>("epoll_ctl");
  if (auto* b = counted_block()) bump(b, perfbench::kEpollCtl);
  return real(epfd, op, fd, event);
}

ssize_t read(int fd, void* buf, size_t count) {
  static const auto real = next_symbol<decltype(&read)>("read");
  const ssize_t n = real(fd, buf, count);
  if (auto* b = counted_block(); b != nullptr &&
                                 fd_kind(fd) == perfbench::kSocket) {
    bump(b, perfbench::kRecv);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      bump(b, perfbench::kRecvEagain);
    }
  }
  return n;
}

ssize_t recv(int fd, void* buf, size_t len, int flags) {
  static const auto real = next_symbol<decltype(&recv)>("recv");
  const ssize_t n = real(fd, buf, len, flags);
  if (auto* b = counted_block()) {
    bump(b, perfbench::kRecv);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      bump(b, perfbench::kRecvEagain);
    }
  }
  return n;
}

ssize_t write(int fd, const void* buf, size_t count) {
  static const auto real = next_symbol<decltype(&write)>("write");
  if (auto* b = counted_block(); b != nullptr &&
                                 fd_kind(fd) == perfbench::kEventFd) {
    bump(b, perfbench::kWakeup);
  }
  return real(fd, buf, count);
}

ssize_t send(int fd, const void* buf, size_t len, int flags) {
  static const auto real = next_symbol<decltype(&send)>("send");
  const ssize_t n = real(fd, buf, len, flags);
  if (auto* b = counted_block()) {
    bump(b, perfbench::kSend);
    if (n < static_cast<ssize_t>(len)) bump(b, perfbench::kSendPartial);
  }
  return n;
}

ssize_t sendmsg(int fd, const msghdr* msg, int flags) {
  static const auto real = next_symbol<decltype(&sendmsg)>("sendmsg");
  const ssize_t n = real(fd, msg, flags);
  if (auto* b = counted_block()) {
    size_t want = 0;
    for (size_t i = 0; i < msg->msg_iovlen; ++i) want += msg->msg_iov[i].iov_len;
    bump(b, perfbench::kSend);
    if (n < static_cast<ssize_t>(want)) bump(b, perfbench::kSendPartial);
  }
  return n;
}

int accept4(int fd, sockaddr* addr, socklen_t* len, int flags) {
  static const auto real = next_symbol<decltype(&accept4)>("accept4");
  const int client = real(fd, addr, len, flags);
  tag_fd(client, perfbench::kSocket);
  if (auto* b = counted_block()) bump(b, perfbench::kAccept);
  return client;
}

int eventfd(unsigned int initval, int flags) noexcept {
  static const auto real = next_symbol<decltype(&eventfd)>("eventfd");
  const int fd = real(initval, flags);
  tag_fd(fd, perfbench::kEventFd);
  return fd;
}

int close(int fd) {
  static const auto real = next_symbol<decltype(&close)>("close");
  tag_fd(fd, perfbench::kOther);
  return real(fd);
}

}  // extern "C"

// ---- allocation counter -----------------------------------------------------------

namespace {

void* counted_malloc(std::size_t size) {
  if (auto* b = counted_block()) {
    bump(b, perfbench::kAllocCount);
    bump(b, perfbench::kAllocBytes, size);
  }
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

// GCC pairs the malloc-backed operator new with the free() in operator
// delete at inlining sites and warns, though the pair is symmetric.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  void* p = counted_malloc(size);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
