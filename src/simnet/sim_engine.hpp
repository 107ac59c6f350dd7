// SimEngine — a deterministic in-process network simulator.
//
// The engine implements net::SimBackend, the syscall-level seam under
// TcpSocket/TcpListener/Poller, plus the simclock seam under cops::now().
// While installed, the *full* generated server stack (Acceptor, Reactor,
// EventProcessor, Connection, hooks) runs unmodified on top of simulated
// channels and a virtual clock:
//
//   * no real sockets, no real sleeps — a 60-second idle-timeout scenario
//     finishes in milliseconds of wall time;
//   * every byte delivery, fault injection, and clock advance is driven by
//     one seeded PRNG and a time-ordered script, so a given seed replays
//     bit-identically (the `trace()` of two runs compares equal);
//   * a FaultPlan injects partial reads/writes, EINTR/EAGAIN storms,
//     RST-on-write, slow-peer stalls, and accept bursts *underneath* the
//     production retry logic, which is exactly the code being tested.
//
// Determinism contract: configure each server with one dispatcher and no
// separate processor pool (see deterministic_options() in sim_harness.hpp).
// Everything then executes on reactor threads, which enter the engine
// through Poller::wait; scripted client actions and deliveries run inside
// that call.  Several reactors (e.g. a load balancer plus N backend
// servers) may share one engine: sim_poll_wait parks every reactor and a
// cooperative scheduler grants exactly one at a time, in registration
// order, so multi-process cluster scenarios replay bit-identically too.
// The test thread only sets up the script, calls run(), and inspects
// results afterwards.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "net/transport.hpp"
#include "simnet/fault_plan.hpp"

namespace cops::simnet {

class SimEngine;

// The client endpoint of a simulated TCP connection.  All methods must be
// called on the sim thread: from script callbacks, from on_data/on_close,
// or from the test thread before run() / after run() returns.
class SimClient {
 public:
  // Bytes the server sent us (invoked during delivery, sim thread).
  std::function<void(std::string_view)> on_data;
  // The server closed (or reset) its side.
  std::function<void()> on_close;

  // Connects to a simulated listener; fails the engine run if the port is
  // not listening (accept-queue overflow behaves like a SYN drop instead).
  void connect(uint16_t port);
  void send(std::string bytes);
  void shutdown_write();  // FIN: the server reads EOF after the drain
  void reset();           // RST: server I/O sees ECONNRESET
  void close();           // orderly close of our side
  // Slow-peer stall: while paused the engine delivers nothing to this
  // client, so server writes back up against the channel capacity.
  void pause_reading(bool paused);

  [[nodiscard]] bool connected() const { return channel_ >= 0 && !closed_; }
  [[nodiscard]] bool peer_closed() const { return peer_closed_; }
  [[nodiscard]] const std::string& received() const { return received_; }

 private:
  friend class SimEngine;
  SimEngine* engine_ = nullptr;
  int channel_ = -1;
  bool closed_ = false;
  bool peer_closed_ = false;
  bool paused_ = false;
  std::string received_;  // all bytes ever delivered (also fed to on_data)
};

class SimEngine : public net::SimBackend {
 public:
  explicit SimEngine(uint64_t seed, FaultPlan plan = FaultPlan::none());
  ~SimEngine() override;
  SimEngine(const SimEngine&) = delete;
  SimEngine& operator=(const SimEngine&) = delete;

  // ---- script (test thread, before run()) -------------------------------
  // Schedules `fn` at virtual time `at` (relative to the engine epoch).
  void at(Duration when, std::function<void()> fn);
  // Creates an inert client; connect it from a script callback.
  SimClient* new_client();

  // ---- per-endpoint fault targeting (scripts or test thread) -------------
  // Kills one backend at the network level: every established channel to
  // `port` is reset (both ends see ECONNRESET) and new connects are refused
  // until revive_port().  The listener process keeps running — exactly a
  // machine dropping off the network, which is the failure the cluster
  // resilience layer must survive without stopping the server object (a
  // Server::stop() mid-run would join threads parked inside this engine).
  void kill_port(uint16_t port);
  void revive_port(uint16_t port);
  // Arms a byte-count trigger for mid-body kills: after the server side of
  // channels accepted on `port` has written `bytes` more bytes, the port is
  // killed exactly as by kill_port() — every channel reset, connects
  // refused until revive_port().  The write that crosses the threshold
  // still reports success (the RST "arrives" just after), so a relaying
  // proxy observes a stream truncated mid-body, which is the case the
  // truncated-200 differential gate exists for.
  void kill_port_after_bytes(uint16_t port, uint64_t bytes);
  // SYN-blackhole: connects to `port` return an fd but never become
  // established (never writable), which is what exercises the Connector's
  // connect deadline rather than its refusal path.
  void stall_connects(uint16_t port, bool stalled);

  // ---- execution (test thread) ------------------------------------------
  // Unpauses the simulation and blocks until it goes quiescent (script
  // drained and every client closed) or `virtual_deadline` of simulated
  // time passes.  Returns true when quiescent, false on deadline.
  bool run(Duration virtual_deadline);
  // Fires due script events and deliveries inline (for harness-less unit
  // tests that drive sim fds directly from the test thread).
  void pump();
  // Advances the virtual clock directly (unit tests).
  void advance(Duration delta);

  // ---- results ------------------------------------------------------------
  [[nodiscard]] uint64_t seed() const { return seed_; }
  // The deterministic event trace: one line per connect/accept/IO/fault.
  [[nodiscard]] std::vector<std::string> trace() const;
  [[nodiscard]] std::string trace_text() const;
  // Scenario failures recorded by model checkers via fail().
  [[nodiscard]] std::vector<std::string> failures() const;
  void fail(std::string message);
  void record(std::string line);
  // Test support: poller-seam calls since construction — interest changes
  // (the stand-in for epoll_ctl(MOD)) and poll passes over all reactors.
  [[nodiscard]] uint64_t poll_modify_count() const;
  [[nodiscard]] uint64_t poll_wait_count() const;

  // ---- net::SimBackend ----------------------------------------------------
  net::SysResult sim_read(int fd, void* buf, size_t len) override;
  net::SysResult sim_write(int fd, const void* buf, size_t len) override;
  net::SysResult sim_writev(int fd, const struct iovec* iov,
                            int iovcnt) override;
  net::SysResult sim_sendfile(int out_fd, int in_fd, uint64_t offset,
                              size_t count) override;
  net::SysResult sim_accept(int listen_fd) override;
  void sim_shutdown_write(int fd) override;
  void sim_close(int fd) override;
  Result<net::InetAddress> sim_local_address(int fd) override;
  Result<net::InetAddress> sim_peer_address(int fd) override;
  Result<int> sim_listen(const net::InetAddress& addr, int backlog) override;
  Result<int> sim_connect(const net::InetAddress& peer) override;
  Status sim_poll_add(const void* poller, int fd, uint32_t interest) override;
  Status sim_poll_modify(const void* poller, int fd,
                         uint32_t interest) override;
  Status sim_poll_remove(const void* poller, int fd) override;
  size_t sim_poll_wait(const void* poller, std::vector<net::ReadyFd>& out,
                       int timeout_ms) override;
  void sim_notify(const void* poller) override;

 private:
  friend class SimClient;

  struct Pipe {
    std::string buf;     // bytes in flight
    bool eof = false;    // writer sent FIN
    bool reset = false;  // RST: reader sees ECONNRESET
  };

  struct Channel {
    int id = -1;
    Pipe c2s;  // client/initiator -> server
    Pipe s2c;  // server -> client/initiator
    int server_fd = -1;  // -1 until accepted
    uint16_t listen_port = 0;
    uint16_t client_port = 0;
    // Exactly one of these identifies the active end: a scripted SimClient,
    // or an in-process initiator fd from sim_connect (client == nullptr).
    SimClient* client = nullptr;
    int initiator_fd = -1;
    bool initiator_closed = false;
    // False only for stalled connects (SYN blackhole): the initiator side
    // never becomes writable, so connect deadlines fire.
    bool established = true;
    bool server_closed = false;
    bool client_notified_close = false;
  };

  // One listening port and its accept queue.
  struct Listener {
    uint16_t port = 0;
    int fd = -1;
    int backlog = 0;      // accept-queue bound
    bool killed = false;  // kill_port(): refuse connects until revived
    bool closed = false;
    std::deque<int> pending;  // channel ids awaiting accept
  };

  struct FdEntry {
    bool is_listener = false;
    bool initiator = false;  // active end of an internal sim_connect channel
    int channel = -1;   // socket fds
    uint16_t port = 0;  // listener fds
  };

  // One registered poller (reactor thread) parked in sim_poll_wait.
  struct PollerSlot {
    bool waiting = false;
    bool granted = false;
    bool notified = false;    // sim_notify pending: grant at current instant
    int64_t deadline_ns = 0;  // virtual instant its poll timeout expires
  };

  using Lock = std::unique_lock<std::recursive_mutex>;

  [[nodiscard]] int64_t now_ns_locked() const;
  void advance_to_locked(int64_t target_ns);
  bool chance_locked(double probability);
  void fire_due_locked();
  void deliver_locked();
  void collect_ready_locked(const void* poller,
                            std::vector<net::ReadyFd>& out);
  [[nodiscard]] bool has_ready_locked(const void* poller);
  void check_done_locked();
  void record_locked(std::string line);
  // Shared write-fault machinery: sim_write / sim_writev / sim_sendfile all
  // funnel their gathered bytes through here, so one fault plan exercises
  // every send path identically (RST, EPIPE, EINTR, capacity EAGAIN, short
  // writes — including short writes across iovec boundaries).
  net::SysResult sim_write_gather_locked(int fd, const struct iovec* iov,
                                         int iovcnt, const char* op);
  Channel* channel_of_fd_locked(int fd);
  // The listener a new connection to `port` reaches; nullptr means refused
  // (not listening, killed or closed).  A full `pending` queue is a SYN
  // drop.
  Listener* listener_for_connect_locked(uint16_t port);
  void close_server_side_locked(Channel& ch);
  void reset_channel_locked(Channel& ch);
  void kill_port_locked(uint16_t port);
  void note_poller_locked(const void* poller);
  // Grants exactly one parked poller (by rotation over registration order)
  // once every known poller is parked and no poller is active; advances the
  // virtual clock when nothing is ready.  The single-grant discipline is
  // what serialises multiple reactor threads deterministically.
  void schedule_locked();
  void halt_locked();  // running_ = false + wake everything

  const uint64_t seed_;
  const FaultPlan plan_;
  std::mt19937_64 rng_;

  mutable std::recursive_mutex mutex_;
  std::condition_variable_any cv_run_;    // pre-run pollers idle here
  std::condition_variable_any cv_done_;   // run() waits here
  std::condition_variable_any cv_sched_;  // parked pollers await a grant

  bool running_ = false;
  bool done_ = false;
  bool timed_out_ = false;
  bool shutdown_ = false;
  int64_t deadline_ns_ = 0;

  int next_fd_ = net::kSimFdBase;
  int next_channel_ = 0;
  uint16_t next_auto_port_ = 20000;
  uint16_t next_client_port_ = 40000;
  uint64_t next_script_seq_ = 0;

  std::map<int, FdEntry> fds_;
  std::map<int, std::unique_ptr<Channel>> channels_;
  std::map<uint16_t, Listener> listeners_;  // by port
  std::set<uint16_t> stalled_ports_;
  // port -> remaining server-written bytes until the armed kill fires.
  std::map<uint16_t, uint64_t> kill_after_bytes_;
  std::vector<std::unique_ptr<SimClient>> clients_;
  // (virtual ns, insertion seq) -> callback; fired in order.
  std::multimap<std::pair<int64_t, uint64_t>, std::function<void()>> script_;
  // poller instance -> fd -> interest (std::map: deterministic order).
  std::map<const void*, std::map<int, uint32_t>> pollers_;

  // Cooperative multi-reactor scheduling.  poller_order_ is registration
  // order (deterministic construction order of the servers under test) —
  // never iterate pollers_ for scheduling decisions; its key order is heap
  // addresses.  token_holder_ is the one poller allowed to run event
  // handlers right now; it relinquishes the token by re-entering
  // sim_poll_wait.
  std::vector<const void*> poller_order_;
  std::map<const void*, PollerSlot> slots_;
  size_t rr_next_ = 0;
  const void* token_holder_ = nullptr;

  std::vector<std::string> trace_;
  std::vector<std::string> failures_;
  uint64_t poll_modifies_ = 0;
  uint64_t poll_waits_ = 0;
};

}  // namespace cops::simnet
