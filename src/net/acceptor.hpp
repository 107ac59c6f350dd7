// Acceptor — the passive half of the Acceptor-Connector pattern (Schmidt,
// 1997): decouples connection establishment from the service performed on
// the established connection.  The N-Server registers an Acceptor with the
// Reactor; every accepted socket is handed to a user-supplied factory.
//
// suspend()/resume() are the lever the overload controller (option O9)
// pulls: suspending deregisters the listening socket from the Reactor so
// new connection requests queue in the kernel (and are eventually dropped),
// exactly as the paper's second overload-control mechanism postpones
// connection acceptance.
#pragma once

#include <functional>
#include <string>

#include "net/event_handler.hpp"
#include "net/reactor.hpp"
#include "net/socket.hpp"

namespace cops::net {

class Acceptor : public EventHandler {
 public:
  using AcceptCallback = std::function<void(TcpSocket)>;

  Acceptor(Reactor& reactor, AcceptCallback on_accept)
      : reactor_(reactor), on_accept_(std::move(on_accept)) {}
  ~Acceptor() override;

  // Binds host:port, registers with the reactor and returns the bound port
  // (port 0 resolves to the kernel's choice).  Must run on the reactor
  // thread (or before the loop starts).
  Result<uint16_t> open(const std::string& host, uint16_t port,
                        int backlog = 512);

  // Overload control: stop/restart accepting new connections.
  Status suspend();
  Status resume();
  [[nodiscard]] bool suspended() const { return suspended_; }

  void close();

  [[nodiscard]] uint64_t accepted_count() const { return accepted_; }
  // Descriptor-exhaustion recovery (EMFILE/ENFILE on accept): how many
  // exhaustion events were handled, and how many pending connections were
  // accepted-then-closed through the reserve descriptor to clear them.
  [[nodiscard]] uint64_t overflow_events() const { return overflow_events_; }
  [[nodiscard]] uint64_t shed_count() const { return shed_; }
  // Backoff before accepting again after fd exhaustion (test knob).
  void set_exhaustion_backoff_ms(int ms) { resume_delay_ms_ = ms; }

  void handle_event(int fd, uint32_t readiness) override;

 private:
  // EMFILE recovery: without intervention a level-triggered listener stays
  // readable forever once accept fails with EMFILE — the reactor spins at
  // 100% CPU and the pending connection never clears.  The reserve-descriptor
  // trick sheds it (close reserve, accept, close client, reopen reserve) and
  // a suspend + timer-resume backstop bounds wakeups until fds free up.
  void handle_fd_exhaustion();

  Reactor& reactor_;
  AcceptCallback on_accept_;
  TcpListener listener_;
  // Two reserve descriptors: one to accept-then-close the pending client,
  // and enough headroom that recovery-path code needing a pipe (two fds —
  // log reopen, sanitizer memory probes) still functions at exhaustion.
  Fd reserve_[2];
  bool registered_ = false;
  bool suspended_ = false;
  bool resume_timer_armed_ = false;
  TimerQueue::TimerId resume_timer_{};
  int resume_delay_ms_ = 100;
  uint64_t accepted_ = 0;
  uint64_t overflow_events_ = 0;
  uint64_t shed_ = 0;
};

}  // namespace cops::net
