// Tests for the networking substrate: sockets, reactor, event sources,
// timers, acceptor/connector.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <future>
#include <thread>
#include <vector>

#include "common/buffer_pool.hpp"
#include "net/acceptor.hpp"
#include "net/connector.hpp"
#include "net/event_source.hpp"
#include "net/reactor.hpp"
#include "net/socket.hpp"
#include "net/timer_queue.hpp"
#include "tests/test_util.hpp"

namespace cops::net {
namespace {

TEST(InetAddress, ParseAndFormat) {
  auto addr = InetAddress::parse("127.0.0.1", 8080);
  ASSERT_TRUE(addr.is_ok());
  EXPECT_EQ(addr.value().host(), "127.0.0.1");
  EXPECT_EQ(addr.value().port(), 8080);
  EXPECT_EQ(addr.value().to_string(), "127.0.0.1:8080");
}

TEST(InetAddress, LocalhostAlias) {
  auto addr = InetAddress::parse("localhost", 1);
  ASSERT_TRUE(addr.is_ok());
  EXPECT_EQ(addr.value().host(), "127.0.0.1");
}

TEST(InetAddress, RejectsGarbage) {
  EXPECT_FALSE(InetAddress::parse("not an ip", 1).is_ok());
  EXPECT_FALSE(InetAddress::parse("999.1.1.1", 1).is_ok());
}

TEST(TcpListener, BindsEphemeralPort) {
  auto listener = TcpListener::listen(InetAddress::loopback(0));
  ASSERT_TRUE(listener.is_ok());
  auto addr = listener.value().local_address();
  ASSERT_TRUE(addr.is_ok());
  EXPECT_GT(addr.value().port(), 0);
}

TEST(TcpListener, AcceptWouldBlockWhenNoClient) {
  auto listener = TcpListener::listen(InetAddress::loopback(0));
  ASSERT_TRUE(listener.is_ok());
  auto client = listener.value().accept();
  EXPECT_FALSE(client.is_ok());
  EXPECT_EQ(client.status().code(), StatusCode::kWouldBlock);
}

TEST(TcpSocket, LoopbackRoundTrip) {
  auto listener = TcpListener::listen(InetAddress::loopback(0));
  ASSERT_TRUE(listener.is_ok());
  const uint16_t port = listener.value().local_address().value().port();

  test::BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", port));
  // Accept may need a beat for the handshake to complete.
  Result<TcpSocket> accepted = Status::would_block();
  for (int i = 0; i < 100; ++i) {
    accepted = listener.value().accept();
    if (accepted.is_ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(accepted.is_ok());

  ASSERT_TRUE(client.send_all("ping"));
  ByteBuffer buf;
  for (int i = 0; i < 100 && buf.readable() < 4; ++i) {
    auto n = accepted.value().read(buf);
    if (!n.is_ok() && n.status().code() != StatusCode::kWouldBlock) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(buf.view(), "ping");

  ByteBuffer out{std::string_view("pong")};
  auto sent = accepted.value().write(out);
  ASSERT_TRUE(sent.is_ok());
  EXPECT_EQ(client.read_some(4), "pong");
}

TEST(TcpSocket, ReadAfterPeerCloseReturnsClosed) {
  auto listener = TcpListener::listen(InetAddress::loopback(0));
  ASSERT_TRUE(listener.is_ok());
  const uint16_t port = listener.value().local_address().value().port();
  test::BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", port));
  Result<TcpSocket> accepted = Status::would_block();
  for (int i = 0; i < 100 && !accepted.is_ok(); ++i) {
    accepted = listener.value().accept();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(accepted.is_ok());
  client.close();
  ByteBuffer buf;
  Status status = Status::ok();
  for (int i = 0; i < 100; ++i) {
    auto n = accepted.value().read(buf);
    if (!n.is_ok() && n.status().code() != StatusCode::kWouldBlock) {
      status = n.status();
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(status.code(), StatusCode::kClosed);
}

// A small read lands in the free tail of a pooled block and leaves the
// block at its size; only a tail below the floor grows the buffer.
TEST(TcpSocket, ReadFillsTheBlockTailWithoutGrowing) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, fds), 0);
  TcpSocket reader{Fd(fds[0])};
  const Fd writer(fds[1]);
  BufferPool pool(16 * 1024);
  ByteBuffer buf;
  buf.adopt_storage(pool.acquire());
  const size_t block = buf.capacity();

  const std::string request(40, 'g');
  ASSERT_EQ(::write(writer.get(), request.data(), request.size()), 40);
  auto n = reader.read(buf);
  ASSERT_TRUE(n.is_ok());
  EXPECT_EQ(n.value(), 40u);
  EXPECT_EQ(buf.view(), request);
  EXPECT_EQ(buf.capacity(), block);

  // Fill the block to within the floor: the next read grows it.
  const std::string fill(block - 40 - TcpSocket::kMinReadWindow / 2, 'f');
  buf.append(fill);
  ASSERT_EQ(::write(writer.get(), request.data(), request.size()), 40);
  n = reader.read(buf);
  ASSERT_TRUE(n.is_ok());
  EXPECT_EQ(n.value(), 40u);
  EXPECT_GT(buf.capacity(), block);
  EXPECT_EQ(buf.readable(), 40 + fill.size() + 40);
}

// ---------- TimerQueue -------------------------------------------------------

TEST(TimerQueue, FiresInDeadlineOrder) {
  TimerQueue timers;
  std::vector<int> order;
  const auto base = now();
  timers.schedule_at(base + std::chrono::milliseconds(2),
                     [&] { order.push_back(2); });
  timers.schedule_at(base + std::chrono::milliseconds(1),
                     [&] { order.push_back(1); });
  timers.run_due(base + std::chrono::milliseconds(10));
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

TEST(TimerQueue, CancelPreventsFiring) {
  TimerQueue timers;
  bool fired = false;
  const auto id = timers.schedule_after(std::chrono::milliseconds(0),
                                        [&] { fired = true; });
  timers.cancel(id);
  timers.run_due(now() + std::chrono::seconds(1));
  EXPECT_FALSE(fired);
  EXPECT_EQ(timers.pending(), 0u);
}

TEST(TimerQueue, FutureTimerDoesNotFireEarly) {
  TimerQueue timers;
  bool fired = false;
  timers.schedule_after(std::chrono::hours(1), [&] { fired = true; });
  timers.run_due();
  EXPECT_FALSE(fired);
  EXPECT_EQ(timers.pending(), 1u);
}

TEST(TimerQueue, NextTimeoutClampedByCap) {
  TimerQueue timers;
  EXPECT_EQ(timers.next_timeout_ms(123), 123);
  timers.schedule_after(std::chrono::milliseconds(5), [] {});
  const int timeout = timers.next_timeout_ms(1000);
  EXPECT_GE(timeout, 0);
  EXPECT_LE(timeout, 7);
}

TEST(TimerQueue, CancelChurnKeepsHeapBounded) {
  // Every request under O7 re-arms an idle timer (schedule + cancel); the
  // lazy-cancel heap must compact, not accumulate one tombstone per request.
  TimerQueue timers;
  std::vector<TimerQueue::TimerId> live;
  for (int i = 0; i < 64; ++i) {
    live.push_back(timers.schedule_after(std::chrono::hours(1), [] {}));
  }
  for (int i = 0; i < 10000; ++i) {
    const auto id = timers.schedule_after(std::chrono::hours(2), [] {});
    timers.cancel(id);
  }
  EXPECT_EQ(timers.pending(), 64u);
  // Compaction keeps tombstones <= live entries.
  EXPECT_LE(timers.heap_size(), 2 * timers.pending());
  for (const auto id : live) timers.cancel(id);
}

TEST(TimerQueue, CancelledTimerDoesNotCauseEarlyWakeup) {
  // A tombstoned heap top must not shorten the poll timeout: after the
  // soonest timer is cancelled, the next deadline is the one that counts.
  TimerQueue timers;
  const auto soon =
      timers.schedule_after(std::chrono::milliseconds(1), [] {});
  timers.schedule_after(std::chrono::hours(1), [] {});
  timers.cancel(soon);
  EXPECT_EQ(timers.next_timeout_ms(5000), 5000);
}

TEST(TimerQueue, CancelAllThenNextTimeoutIsCap) {
  TimerQueue timers;
  const auto a = timers.schedule_after(std::chrono::milliseconds(1), [] {});
  const auto b = timers.schedule_after(std::chrono::milliseconds(2), [] {});
  timers.cancel(a);
  timers.cancel(b);
  EXPECT_EQ(timers.next_timeout_ms(1234), 1234);
  EXPECT_EQ(timers.run_due(now() + std::chrono::seconds(5)), 0u);
}

TEST(TimerQueue, TimerCanScheduleAnotherTimer) {
  TimerQueue timers;
  int fired = 0;
  timers.schedule_after(std::chrono::milliseconds(0), [&] {
    ++fired;
    timers.schedule_after(std::chrono::milliseconds(0), [&] { ++fired; });
  });
  timers.run_due(now() + std::chrono::milliseconds(1));
  timers.run_due(now() + std::chrono::milliseconds(1));
  EXPECT_EQ(fired, 2);
}

// ---------- Reactor ----------------------------------------------------------

TEST(Reactor, PostRunsOnReactorThread) {
  Reactor reactor;
  std::atomic<bool> ran{false};
  std::thread::id loop_id;
  reactor.post([&] {
    ran = true;
    loop_id = std::this_thread::get_id();
  });
  reactor.start_thread();
  for (int i = 0; i < 200 && !ran; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(ran.load());
  EXPECT_NE(loop_id, std::this_thread::get_id());
  reactor.stop();
  reactor.join();
}

TEST(Reactor, TimerFiresApproximatelyOnTime) {
  Reactor reactor;
  std::atomic<bool> fired{false};
  const auto start = now();
  std::atomic<int64_t> delay_ms{-1};
  reactor.post([&] {
    reactor.run_after(std::chrono::milliseconds(30), [&] {
      delay_ms = to_millis(now() - start);
      fired = true;
    });
  });
  reactor.start_thread();
  for (int i = 0; i < 400 && !fired; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(fired.load());
  EXPECT_GE(delay_ms.load(), 29);
  EXPECT_LE(delay_ms.load(), 300);
  reactor.stop();
  reactor.join();
}

TEST(Reactor, StopWakesBlockedLoop) {
  Reactor reactor;
  reactor.start_thread();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const auto begin = now();
  reactor.stop();
  reactor.join();
  EXPECT_LT(to_millis(now() - begin), 600);
}

TEST(Reactor, PostFromMultipleThreads) {
  Reactor reactor;
  reactor.start_thread();
  std::atomic<int> count{0};
  std::vector<std::thread> posters;
  for (int t = 0; t < 4; ++t) {
    posters.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        reactor.post([&count] { count.fetch_add(1); });
      }
    });
  }
  for (auto& t : posters) t.join();
  for (int i = 0; i < 500 && count.load() < 2000; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(count.load(), 2000);
  reactor.stop();
  reactor.join();
}

// The owner lifecycle calls act inline while the loop is not running —
// before start_thread() and after the loop exits — and on the loop thread
// while it runs.
TEST(Reactor, RunSyncAndRunOrPostFollowTheLoopLifecycle) {
  Reactor reactor;
  const auto caller = std::this_thread::get_id();
  auto thread_id = [] { return std::this_thread::get_id(); };

  // Before start: both run inline on the caller.
  EXPECT_FALSE(reactor.running());
  EXPECT_EQ(reactor.run_sync(thread_id), caller);
  std::thread::id or_post_on;
  reactor.run_or_post([&] { or_post_on = std::this_thread::get_id(); });
  EXPECT_EQ(or_post_on, caller);

  // From another thread while the loop runs: both hop onto the loop.
  reactor.start_thread();
  EXPECT_TRUE(reactor.running());
  const auto loop = reactor.run_sync(thread_id);
  EXPECT_NE(loop, caller);
  reactor.run_or_post([&] { or_post_on = std::this_thread::get_id(); });
  reactor.run_sync([] {});  // FIFO: the post above has run
  EXPECT_EQ(or_post_on, loop);

  // On the loop thread: run_sync runs inline (no self-wait), run_or_post
  // queues behind the running callback.
  std::vector<int> order;
  reactor.run_sync([&] {
    order.push_back(1);
    EXPECT_EQ(reactor.run_sync([&] {
      order.push_back(2);
      return 7;
    }), 7);
    reactor.run_or_post([&] { order.push_back(4); });
    order.push_back(3);
  });
  reactor.run_sync([] {});
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));

  // After stop: inline on the caller again.
  reactor.stop();
  reactor.join();
  EXPECT_FALSE(reactor.running());
  EXPECT_EQ(reactor.run_sync(thread_id), caller);
  reactor.run_or_post([&] { or_post_on = std::this_thread::get_id(); });
  EXPECT_EQ(or_post_on, caller);
}

// A run_sync() that races stop() either reaches the loop before it exits
// or runs inline after: it never waits on a loop that is gone.
TEST(Reactor, RunSyncRacingStopNeverStrands) {
  for (int round = 0; round < 50; ++round) {
    auto reactor = std::make_shared<Reactor>();
    reactor->start_thread();
    auto ran = std::make_shared<std::atomic<int>>(0);
    auto caller = std::async(std::launch::async, [reactor, ran] {
      for (int i = 0; i < 100; ++i) {
        reactor->run_sync([&] { ran->fetch_add(1); });
      }
    });
    std::this_thread::sleep_for(std::chrono::microseconds(50 * (round % 5)));
    reactor->stop();
    if (caller.wait_for(std::chrono::seconds(5)) != std::future_status::ready) {
      new auto(std::move(caller));  // never joined: the call never returns
      FAIL() << "run_sync stranded in round " << round;
    }
    reactor->join();
    EXPECT_EQ(ran->load(), 100);
  }
}

// ---------- Acceptor / Connector ---------------------------------------------

TEST(AcceptorConnector, EstablishesConnection) {
  Reactor reactor;
  std::atomic<int> accepted{0};
  Acceptor acceptor(reactor, [&](TcpSocket sock) {
    EXPECT_TRUE(sock.valid());
    accepted.fetch_add(1);
  });
  auto bound = acceptor.open("127.0.0.1", 0);
  ASSERT_TRUE(bound.is_ok());
  const uint16_t port = bound.value();

  Connector connector(reactor);
  std::atomic<bool> connected{false};
  reactor.post([&] {
    connector.connect(InetAddress::loopback(port), [&](Result<TcpSocket> s) {
      EXPECT_TRUE(s.is_ok());
      connected = true;
    });
  });
  reactor.start_thread();
  for (int i = 0; i < 400 && (!connected || accepted == 0); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(connected.load());
  EXPECT_EQ(accepted.load(), 1);
  EXPECT_EQ(acceptor.accepted_count(), 1u);
  reactor.stop();
  reactor.join();
}

TEST(Acceptor, SuspendStopsAccepting) {
  Reactor reactor;
  std::atomic<int> accepted{0};
  Acceptor acceptor(reactor, [&](TcpSocket) { accepted.fetch_add(1); });
  auto bound = acceptor.open("127.0.0.1", 0, /*backlog=*/64);
  ASSERT_TRUE(bound.is_ok());
  const uint16_t port = bound.value();
  reactor.post([&] { acceptor.suspend(); });
  reactor.start_thread();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  test::BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", port));  // lands in kernel backlog
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(accepted.load(), 0);

  std::atomic<bool> resumed{false};
  reactor.post([&] {
    acceptor.resume();
    resumed = true;
  });
  for (int i = 0; i < 400 && accepted.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(resumed.load());
  EXPECT_EQ(accepted.load(), 1);
  reactor.stop();
  reactor.join();
}

TEST(Connector, ReportsRefusedConnection) {
  Reactor reactor;
  // Grab a port and close the listener so connects are refused.
  uint16_t dead_port = 0;
  {
    auto listener = TcpListener::listen(InetAddress::loopback(0));
    ASSERT_TRUE(listener.is_ok());
    dead_port = listener.value().local_address().value().port();
  }
  Connector connector(reactor);
  std::atomic<bool> failed{false};
  reactor.post([&] {
    connector.connect(InetAddress::loopback(dead_port),
                      [&](Result<TcpSocket> s) {
                        EXPECT_FALSE(s.is_ok());
                        failed = true;
                      });
  });
  reactor.start_thread();
  for (int i = 0; i < 400 && !failed; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(failed.load());
  reactor.stop();
  reactor.join();
}

// ---------- Event source decorators ------------------------------------------

TEST(EventSourceDecorators, UserEventsInterruptBlockedPoll) {
  Reactor reactor;
  reactor.start_thread();
  // With no sockets and no timers the poll would block for its full cap;
  // a post must still run promptly thanks to the eventfd wakeup.
  const auto start = now();
  std::atomic<bool> ran{false};
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // loop parked
  reactor.post([&] { ran = true; });
  for (int i = 0; i < 300 && !ran; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(ran.load());
  EXPECT_LT(to_millis(now() - start), 400);
  reactor.stop();
  reactor.join();
}

// Wakeups are coalesced: a post writes the eventfd only when none is
// pending.  Posts racing the reactor's drain must all run, and once the
// posters are done no eventfd readiness may linger — an idle poll blocks
// for its full timeout instead of returning at once, pass after pass.
TEST(EventSourceDecorators, CoalescedWakeupsLeaveNoStaleReadiness) {
  Reactor reactor;  // driven from this thread with run_once()
  std::atomic<int> count{0};
  std::vector<std::thread> posters;
  for (int t = 0; t < 4; ++t) {
    posters.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        reactor.post([&count] { count.fetch_add(1); });
      }
    });
  }
  const auto deadline = now() + std::chrono::seconds(5);
  while (count.load() < 2000 && now() < deadline) reactor.run_once(50);
  for (auto& t : posters) t.join();
  EXPECT_EQ(count.load(), 2000);

  // One pass absorbs a wakeup whose write landed after its batch drained.
  reactor.run_once(0);
  for (int pass = 0; pass < 3; ++pass) {
    const auto start = now();
    EXPECT_EQ(reactor.run_once(30), 0u);
    EXPECT_GE(to_millis(now() - start), 25) << "pass " << pass;
  }
}

}  // namespace
}  // namespace cops::net
