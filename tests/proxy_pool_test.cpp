// Lifecycle tests for the proxy's upstream machinery: the passive
// UpstreamPool invariants (cap under burst, LIFO idle reuse, fresh-path
// eviction, drain semantics) in isolation; the lb_policy selection helpers
// and the BackendSet the proxy and the balancer share — including the
// round-robin modulo guard that is the regression fix for the cursor
// indexing past a shrunk backend set; the LoadBalancer shrink scenario that
// used to hit exactly that; and simnet integration for the pieces that only
// show up end-to-end (waiter wakeup at the connection cap, P2C determinism
// and agreement with the balancer, ring-hash affinity).
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/lb_policy.hpp"
#include "cluster/load_balancer.hpp"
#include "http/http_server.hpp"
#include "proxy/proxy_server.hpp"
#include "proxy/upstream_pool.hpp"
#include "simnet/sim_engine.hpp"
#include "simnet/sim_harness.hpp"
#include "tests/proxy_test_util.hpp"

namespace cops::proxy {
namespace {

using simnet::SimClient;
using simnet::SimEngine;
using test::ScriptedBackend;

// Fake fds for the passive pool tests: far above any real descriptor the
// process owns (close() harmlessly reports EBADF) and far below the sim-fd
// range.
constexpr int kFakeFdBase = 1 << 20;

net::TcpSocket fake_socket(int n) {
  return net::TcpSocket(net::Fd(kFakeFdBase + n));
}

// ---- UpstreamPool: passive invariants ---------------------------------------

TEST(UpstreamPoolTest, CapAdmitsUpToLimitThenParksCallers) {
  UpstreamPool pool(1, {.max_per_backend = 2, .max_idle_per_backend = 2});
  net::TcpSocket out;
  EXPECT_EQ(pool.acquire(0, &out), UpstreamPool::Acquire::kConnect);
  EXPECT_EQ(pool.acquire(0, &out), UpstreamPool::Acquire::kConnect);
  EXPECT_EQ(pool.acquire(0, &out), UpstreamPool::Acquire::kAtCapacity);
  EXPECT_EQ(pool.in_use(0), 2u);
  EXPECT_EQ(pool.miss_total(), 2u);
  EXPECT_EQ(pool.reuse_total(), 0u);
}

TEST(UpstreamPoolTest, IdleReuseIsLifo) {
  UpstreamPool pool(1, {.max_per_backend = 4, .max_idle_per_backend = 4});
  net::TcpSocket out;
  ASSERT_EQ(pool.acquire(0, &out), UpstreamPool::Acquire::kConnect);
  ASSERT_EQ(pool.acquire(0, &out), UpstreamPool::Acquire::kConnect);
  pool.release(0, fake_socket(1), /*reusable=*/true);
  pool.release(0, fake_socket(2), /*reusable=*/true);
  ASSERT_EQ(pool.idle(0), 2u);

  // Most recently parked comes back first: the hottest keep-alive socket
  // stays in rotation, the coldest ages toward eviction.
  ASSERT_EQ(pool.acquire(0, &out), UpstreamPool::Acquire::kReused);
  EXPECT_EQ(out.fd(), kFakeFdBase + 2);
  out.close();
  ASSERT_EQ(pool.acquire(0, &out), UpstreamPool::Acquire::kReused);
  EXPECT_EQ(out.fd(), kFakeFdBase + 1);
  out.close();
  EXPECT_EQ(pool.reuse_total(), 2u);
}

TEST(UpstreamPoolTest, AcquireFreshBypassesIdleAndEvictsOldestAtCap) {
  UpstreamPool pool(1, {.max_per_backend = 2, .max_idle_per_backend = 2});
  net::TcpSocket out;
  ASSERT_EQ(pool.acquire(0, &out), UpstreamPool::Acquire::kConnect);
  ASSERT_EQ(pool.acquire(0, &out), UpstreamPool::Acquire::kConnect);
  pool.release(0, fake_socket(1), /*reusable=*/true);  // oldest idle
  pool.release(0, fake_socket(2), /*reusable=*/true);

  // The stale-retry path never touches the idle list for reuse — the retry
  // must not land on another socket from the same (possibly stale) era.
  // At the total cap it evicts the OLDEST idle socket to make room.
  EXPECT_EQ(pool.acquire_fresh(0), UpstreamPool::Acquire::kConnect);
  EXPECT_EQ(pool.idle(0), 1u);
  EXPECT_EQ(pool.in_use(0), 1u);
  EXPECT_EQ(pool.stale_retry_total(), 1u);
  ASSERT_EQ(pool.acquire(0, &out), UpstreamPool::Acquire::kReused);
  EXPECT_EQ(out.fd(), kFakeFdBase + 2) << "evicted the wrong (newest) socket";
  out.close();
}

TEST(UpstreamPoolTest, NonReusableReleaseClosesInsteadOfParking) {
  UpstreamPool pool(1, {.max_per_backend = 2, .max_idle_per_backend = 2});
  net::TcpSocket out;
  ASSERT_EQ(pool.acquire(0, &out), UpstreamPool::Acquire::kConnect);
  pool.release(0, fake_socket(1), /*reusable=*/false);
  EXPECT_EQ(pool.idle(0), 0u);
  EXPECT_EQ(pool.in_use(0), 0u);
}

TEST(UpstreamPoolTest, IdleCapBoundsParking) {
  UpstreamPool pool(1, {.max_per_backend = 8, .max_idle_per_backend = 1});
  net::TcpSocket out;
  ASSERT_EQ(pool.acquire(0, &out), UpstreamPool::Acquire::kConnect);
  ASSERT_EQ(pool.acquire(0, &out), UpstreamPool::Acquire::kConnect);
  pool.release(0, fake_socket(1), /*reusable=*/true);
  pool.release(0, fake_socket(2), /*reusable=*/true);  // over the idle cap
  EXPECT_EQ(pool.idle(0), 1u);
}

TEST(UpstreamPoolTest, DrainEmptiesIdleBlocksReparkingKeepsInFlight) {
  UpstreamPool pool(1, {.max_per_backend = 4, .max_idle_per_backend = 4});
  net::TcpSocket out;
  ASSERT_EQ(pool.acquire(0, &out), UpstreamPool::Acquire::kConnect);
  ASSERT_EQ(pool.acquire(0, &out), UpstreamPool::Acquire::kConnect);
  pool.release(0, fake_socket(1), /*reusable=*/true);
  ASSERT_EQ(pool.idle(0), 1u);
  ASSERT_EQ(pool.in_use(0), 1u);

  pool.drain(0);
  EXPECT_EQ(pool.idle(0), 0u) << "drain must empty the idle side immediately";
  EXPECT_EQ(pool.in_use(0), 1u) << "drain must not touch in-flight streams";

  // The in-flight stream finishes on a drained backend: the proxy releases
  // it as not reusable (ProxyServer::release_upstream), so it is closed
  // rather than parked, and the next request must connect afresh.
  pool.release(0, fake_socket(2), /*reusable=*/false);
  EXPECT_EQ(pool.idle(0), 0u);
  EXPECT_EQ(pool.in_use(0), 0u);
  ASSERT_EQ(pool.acquire(0, &out), UpstreamPool::Acquire::kConnect);

  // The pool itself keeps no drain state: the next reusable release parks.
  pool.release(0, fake_socket(3), /*reusable=*/true);
  EXPECT_EQ(pool.idle(0), 1u);
  pool.close_all();
}

TEST(UpstreamPoolTest, AbandonFreesTheCapSlot) {
  UpstreamPool pool(1, {.max_per_backend = 1, .max_idle_per_backend = 1});
  net::TcpSocket out;
  ASSERT_EQ(pool.acquire(0, &out), UpstreamPool::Acquire::kConnect);
  ASSERT_EQ(pool.acquire(0, &out), UpstreamPool::Acquire::kAtCapacity);
  pool.abandon(0);  // the admitted connect failed
  EXPECT_EQ(pool.acquire(0, &out), UpstreamPool::Acquire::kConnect);
}

// The pool cap is validated where it is read: start() refuses a zero
// per-backend cap (upstream connections are always pooled).
TEST(ProxyServerStartTest, PooledUpstreamNeedsPositiveCap) {
  ProxyConfig config;
  config.pool_max_per_backend = 0;
  ProxyServer rejected(config);
  rejected.add_backend(net::InetAddress::loopback(1));
  const Status status = rejected.start();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.to_string();

  config.pool_max_per_backend = 4;
  ProxyServer accepted(config);
  accepted.add_backend(net::InetAddress::loopback(1));
  ASSERT_TRUE(accepted.start().is_ok());
  accepted.stop();
}

// ---- lb_policy: the selection helpers ---------------------------------------

// Regression for the round-robin shrink bug: the cursor free-runs across
// backend-set changes, so without the modulo guard at pick time a cursor
// advanced against a 3-backend set indexes past the end of a 2-backend set
// (`backends_[cursor % old_count]` after a remove — an out-of-bounds read,
// and with `cursor %= count` only at increment time, a stale cursor value
// still lands outside the shrunk set).  pick_round_robin() reduces against
// the count that is live NOW, so every cursor value is in range.
TEST(LbPolicyTest, RoundRobinModuloGuardSurvivesShrink) {
  uint64_t cursor = 0;
  // Advance as if three backends had been rotating for a while.
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(cluster::pick_round_robin(cursor, 3), cursor % 3);
    ++cursor;
  }
  ASSERT_EQ(cursor, 7u);
  // The set shrinks to 2, then to 1; the stale cursor must stay in range.
  for (int i = 0; i < 4; ++i) {
    EXPECT_LT(cluster::pick_round_robin(cursor, 2), 2u);
    ++cursor;
  }
  EXPECT_EQ(cluster::pick_round_robin(cursor, 1), 0u);
  // Huge cursor (years of uptime), any live count.
  EXPECT_LT(cluster::pick_round_robin(0xffffffffffffffffull, 3), 3u);
  // The rotation property is preserved: consecutive cursors cycle.
  EXPECT_EQ(cluster::pick_round_robin(10, 2), 0u);
  EXPECT_EQ(cluster::pick_round_robin(11, 2), 1u);
}

TEST(LbPolicyTest, P2CDeterministicPerSeedAndPrefersLessLoaded) {
  std::mt19937_64 rng_a(0x9e3779b9u);
  std::mt19937_64 rng_b(0x9e3779b9u);
  const std::vector<size_t> loads = {4, 0, 9, 2, 7};
  for (int i = 0; i < 64; ++i) {
    const size_t pick_a = cluster::pick_p2c(rng_a, loads);
    const size_t pick_b = cluster::pick_p2c(rng_b, loads);
    EXPECT_EQ(pick_a, pick_b) << "same seed must mean same picks";
    ASSERT_LT(pick_a, loads.size());
  }
  // With exactly two backends both are always drawn, so the less loaded
  // one always wins.
  std::mt19937_64 rng(7);
  const std::vector<size_t> two = {5, 1};
  for (int i = 0; i < 16; ++i) EXPECT_EQ(cluster::pick_p2c(rng, two), 1u);
  std::mt19937_64 rng_one(7);
  EXPECT_EQ(cluster::pick_p2c(rng_one, {42}), 0u);
}

TEST(LbPolicyTest, HashRingAffinityStableWhenSetShrinks) {
  cluster::HashRing four;
  four.build({0, 1, 2, 3});
  cluster::HashRing three;
  three.build({0, 1, 2});
  size_t moved = 0;
  // The varying path segment goes first: FNV-1a hashes of keys differing
  // only in a trailing digit cluster tightly on the ring (the last bytes
  // mostly perturb low bits), which would starve some backends of test
  // coverage without making the ring wrong.
  for (int i = 0; i < 200; ++i) {
    const std::string key = "/" + std::to_string(i) + "/object";
    const size_t before = four.pick(key);
    const size_t after = three.pick(key);
    ASSERT_LT(before, 4u);
    ASSERT_LT(after, 3u);
    if (before < 3) {
      // Vnode points depend only on the backend index, so keys owned by a
      // surviving backend never move when another backend departs.
      EXPECT_EQ(after, before) << key;
    } else {
      ++moved;  // keys owned by the departed backend redistribute
    }
  }
  EXPECT_GT(moved, 0u) << "backend 3 owned nothing — vnode spread broken";

  const auto order = four.pick_order("/1/object");
  ASSERT_FALSE(order.empty());
  EXPECT_EQ(order.front(), four.pick("/1/object"));
  EXPECT_EQ(std::set<size_t>(order.begin(), order.end()).size(), order.size());
}

TEST(LbPolicyTest, Fnv1a64MatchesReferenceVectors) {
  EXPECT_EQ(cluster::fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(cluster::fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_NE(cluster::fnv1a64("/a"), cluster::fnv1a64("/b"));
}

TEST(LbPolicyTest, PolicyNamesRoundTripAndUnknownIsRejected) {
  for (const auto policy : {cluster::BalancePolicy::kRoundRobin,
                            cluster::BalancePolicy::kLeastConnections,
                            cluster::BalancePolicy::kPowerOfTwoChoices,
                            cluster::BalancePolicy::kRingHash}) {
    EXPECT_EQ(cluster::parse_balance_policy(cluster::to_string(policy)),
              policy)
        << cluster::to_string(policy);
  }
  for (const char* name : {"", "?", "roundrobin", "P2C", "least_loaded"}) {
    EXPECT_FALSE(cluster::parse_balance_policy(name).has_value()) << name;
  }
}

// ---- BackendSet: the one selection order of the proxy and the balancer -----

cluster::BackendSet make_set(cluster::BalancePolicy policy, size_t count,
                             uint64_t seed = 1) {
  cluster::BackendSet set(policy, seed);
  for (size_t i = 0; i < count; ++i) {
    set.add(net::InetAddress::loopback(static_cast<uint16_t>(9000 + i)));
  }
  return set;
}

using Order = std::vector<size_t>;

// The cursor steps once per admission and is reduced against the live count
// at every pick, so a cursor advanced over three backends stays in range
// (and keeps rotating) after the set shrinks to two and then one.
TEST(BackendSetTest, RoundRobinCursorGuardedAcrossShrink) {
  auto set = make_set(cluster::BalancePolicy::kRoundRobin, 3);
  for (size_t i = 0; i < 7; ++i) {
    set.admit();
    EXPECT_EQ(set.order(""), (Order{i % 3, (i + 1) % 3, (i + 2) % 3}));
  }
  // One admission's retries see one order.
  EXPECT_EQ(set.order(""), set.order(""));
  set.remove(2);
  set.admit();  // cursor 7
  EXPECT_EQ(set.order(""), (Order{1, 0}));
  set.admit();  // cursor 8
  EXPECT_EQ(set.order(""), (Order{0, 1}));
  set.remove(0);
  set.admit();
  EXPECT_EQ(set.order(""), (Order{0}));
  EXPECT_EQ(set.address(0).port(), 9001);
}

TEST(BackendSetTest, LeastLoadedTiesBreakLow) {
  auto set = make_set(cluster::BalancePolicy::kLeastConnections, 3);
  EXPECT_EQ(set.order(""), (Order{0, 1, 2}));  // all idle: index order
  set.add_load(0);
  set.add_load(0);
  set.add_load(2);  // loads {2, 0, 1}
  EXPECT_EQ(set.order(""), (Order{1, 2, 0}));
  set.add_load(1);  // {2, 1, 1}: the tie between 1 and 2 breaks low
  EXPECT_EQ(set.order(""), (Order{1, 2, 0}));
  for (int i = 0; i < 3; ++i) set.release_load(0);  // saturates at 0
  EXPECT_EQ(set.load(0), 0u);
  EXPECT_EQ(set.order(""), (Order{0, 1, 2}));
}

// P2C puts the less loaded of two seeded draws first, then the backends
// after it in index order: the same seed and loads give the same order, and
// the winner is exactly pick_p2c's over an identically seeded stream.
TEST(BackendSetTest, P2CDeterministicPerSeed) {
  constexpr uint64_t kSeed = 0x9e3779b9u;
  const std::vector<size_t> loads = {4, 0, 9, 2, 7};
  auto a = make_set(cluster::BalancePolicy::kPowerOfTwoChoices, 5, kSeed);
  auto b = make_set(cluster::BalancePolicy::kPowerOfTwoChoices, 5, kSeed);
  for (size_t i = 0; i < loads.size(); ++i) {
    for (size_t n = 0; n < loads[i]; ++n) {
      a.add_load(i);
      b.add_load(i);
    }
  }
  std::mt19937_64 reference(kSeed);
  for (int i = 0; i < 64; ++i) {
    const Order order = a.order("");
    EXPECT_EQ(order, b.order("")) << "same seed must mean same orders";
    ASSERT_EQ(order.size(), 5u);
    EXPECT_EQ(order.front(), cluster::pick_p2c(reference, loads));
    for (size_t k = 0; k < order.size(); ++k) {
      EXPECT_EQ(order[k], (order.front() + k) % 5);
    }
  }
  // The tiers draw their own randomness from the same stream.
  EXPECT_EQ(a.rng()(), reference());
  // With two backends both are always drawn: the less loaded leads.
  auto two = make_set(cluster::BalancePolicy::kPowerOfTwoChoices, 2, 7);
  two.add_load(0);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(two.order(""), (Order{1, 0}));
}

// Ring vnodes are keyed by the backend's identity, not its index: removing
// a backend from the middle moves only the keys it owned, even though the
// backends after it shift down one index.
TEST(BackendSetTest, RingHashAffinityStableAcrossRemove) {
  auto set = make_set(cluster::BalancePolicy::kRingHash, 4);
  std::map<std::string, uint16_t> owner;
  for (int i = 0; i < 200; ++i) {
    const std::string key = "/" + std::to_string(i) + "/object";
    const Order order = set.order(key);
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(std::set<size_t>(order.begin(), order.end()).size(), 4u);
    owner[key] = set.address(order.front()).port();
  }
  set.remove(1);  // port 9001; ports 9002 and 9003 move to indices 1 and 2
  size_t moved = 0;
  for (const auto& [key, port] : owner) {
    const Order order = set.order(key);
    ASSERT_EQ(order.size(), 3u);
    const uint16_t now_port = set.address(order.front()).port();
    if (port == 9001) {
      ++moved;
      EXPECT_NE(now_port, 9001) << key;
    } else {
      EXPECT_EQ(now_port, port) << key;
    }
  }
  EXPECT_GT(moved, 0u) << "backend 1 owned nothing — vnode spread broken";
}

// ---- LoadBalancer: the shrink scenario that motivated the guard -------------

TEST(ProxyPoolSimTest, BalancerSurvivesBackendRemovalWithStaleCursor) {
  SimEngine engine(0x5471);
  test::TempDir docs;
  docs.write_file("index.html", "<html>shrink</html>");

  std::vector<std::unique_ptr<http::CopsHttpServer>> backends;
  for (int i = 0; i < 3; ++i) {
    auto options = http::CopsHttpServer::default_options();
    simnet::make_deterministic(options);
    options.listen_port = static_cast<uint16_t>(8101 + i);
    http::HttpServerConfig config;
    config.doc_root = docs.str();
    backends.push_back(std::make_unique<http::CopsHttpServer>(
        std::move(options), config));
    ASSERT_TRUE(backends.back()->start().is_ok());
  }

  cluster::LoadBalancerConfig config;
  config.listen_port = 8100;
  cluster::LoadBalancer balancer(config);
  for (int i = 0; i < 3; ++i) {
    balancer.add_backend(
        net::InetAddress::loopback(static_cast<uint16_t>(8101 + i)));
  }
  ASSERT_TRUE(balancer.start().is_ok());

  const std::string request =
      "GET /index.html HTTP/1.1\r\nHost: s\r\nConnection: close\r\n\r\n";
  std::vector<SimClient*> clients;
  // Wave 1 advances the round-robin cursor well past the post-shrink count.
  for (int i = 0; i < 4; ++i) {
    auto* client = engine.new_client();
    clients.push_back(client);
    engine.at(std::chrono::milliseconds(10 + 5 * i), [client, request] {
      client->connect(8100);
      client->send(request);
    });
  }
  // Decommission two backends; the cursor (now 4) is stale for count=1.
  engine.at(std::chrono::milliseconds(100),
            [&balancer] { balancer.remove_backend(2); });
  engine.at(std::chrono::milliseconds(110),
            [&balancer] { balancer.remove_backend(1); });
  for (int i = 0; i < 3; ++i) {
    auto* client = engine.new_client();
    clients.push_back(client);
    engine.at(std::chrono::milliseconds(150 + 5 * i), [client, request] {
      client->connect(8100);
      client->send(request);
    });
  }
  ASSERT_TRUE(engine.run(std::chrono::seconds(5))) << engine.trace_text();

  for (size_t i = 0; i < clients.size(); ++i) {
    EXPECT_NE(clients[i]->received().find("HTTP/1.1 200 OK"),
              std::string::npos)
        << "client " << i << " got: " << clients[i]->received();
  }
  EXPECT_EQ(balancer.dropped_clients(), 0u);
  const auto stats = balancer.backend_stats();
  ASSERT_EQ(stats.size(), 1u);
  // The surviving backend carried at least the whole post-shrink wave (its
  // wave-1 share depends on the rotation phase, which is an internal).
  EXPECT_GE(stats[0].connections, 3u);

  balancer.stop();
  for (auto& backend : backends) backend->stop();
}

// ---- simnet integration: waiters, P2C, ring hash ----------------------------

TEST(ProxyPoolSimTest, CapParksSecondSessionUntilReleaseThenReuses) {
  SimEngine engine(0xca9);
  const std::string body(2048, 'x');
  // The origin stalls each response mid-body for 200ms, so two back-to-back
  // clients overlap at the proxy while the per-backend cap is 1.
  ScriptedBackend::Options stalling;
  stalling.immediate_bytes = 64;
  stalling.rest_delay = std::chrono::milliseconds(200);
  ScriptedBackend origin(
      8401,
      [&](const ScriptedBackend::Request&) {
        return test::simple_response(body);
      },
      stalling);
  ASSERT_TRUE(origin.ok());

  ProxyConfig config;
  config.listen_port = 8400;
  config.pool_max_per_backend = 1;
  config.pool_max_idle_per_backend = 1;
  config.event_listener = [&engine](const std::string& event) {
    engine.record(event);
  };
  ProxyServer proxy(config);
  proxy.add_backend(net::InetAddress::loopback(8401));
  ASSERT_TRUE(proxy.start().is_ok());

  auto* first = engine.new_client();
  auto* second = engine.new_client();
  const std::string request =
      "GET /f HTTP/1.1\r\nHost: o\r\nConnection: close\r\n\r\n";
  engine.at(std::chrono::milliseconds(5), [&, request] {
    first->connect(8400);
    first->send(request);
  });
  engine.at(std::chrono::milliseconds(20), [&, request] {
    second->connect(8400);
    second->send(request);
  });
  ASSERT_TRUE(engine.run(std::chrono::seconds(5))) << engine.trace_text();

  EXPECT_NE(first->received().find(body), std::string::npos);
  EXPECT_NE(second->received().find(body), std::string::npos);
  // One origin connection served both: the second session parked at the
  // cap, woke on the release, and reused the keep-alive socket.
  EXPECT_EQ(origin.accepted(), 1u);
  EXPECT_EQ(proxy.pool_miss_total(), 1u);
  EXPECT_EQ(proxy.pool_reuse_total(), 1u);
  const auto trace = engine.trace_text();
  EXPECT_NE(trace.find("proxy-pool-wait backend=0"), std::string::npos)
      << trace;
  EXPECT_NE(trace.find("proxy-pool-reuse backend=0"), std::string::npos);
  proxy.stop();
  origin.stop();
}

TEST(ProxyPoolSimTest, RingHashRoutesSameTargetToSameBackend) {
  SimEngine engine(0x4149);
  ScriptedBackend origin_a(8401, [](const ScriptedBackend::Request&) {
    return test::simple_response("from-a");
  });
  ScriptedBackend origin_b(8402, [](const ScriptedBackend::Request&) {
    return test::simple_response("from-b");
  });
  ASSERT_TRUE(origin_a.ok());
  ASSERT_TRUE(origin_b.ok());

  ProxyConfig config;
  config.listen_port = 8400;
  config.policy = cluster::BalancePolicy::kRingHash;
  ProxyServer proxy(config);
  proxy.add_backend(net::InetAddress::loopback(8401));
  proxy.add_backend(net::InetAddress::loopback(8402));
  ASSERT_TRUE(proxy.start().is_ok());

  std::vector<SimClient*> clients;
  for (int i = 0; i < 3; ++i) {
    auto* client = engine.new_client();
    clients.push_back(client);
    engine.at(std::chrono::milliseconds(10 + 20 * i), [client] {
      client->connect(8400);
      client->send(
          "GET /sticky/path HTTP/1.1\r\nHost: o\r\nConnection: close\r\n\r\n");
    });
  }
  ASSERT_TRUE(engine.run(std::chrono::seconds(5))) << engine.trace_text();

  // All three requests for the same target landed on one backend.
  const uint64_t a = origin_a.requests_seen();
  const uint64_t b = origin_b.requests_seen();
  EXPECT_EQ(a + b, 3u);
  EXPECT_TRUE(a == 3 || b == 3) << "affinity split: a=" << a << " b=" << b;
  for (auto* client : clients) {
    EXPECT_NE(client->received().find("HTTP/1.1 200 OK"), std::string::npos);
  }
  proxy.stop();
  origin_a.stop();
  origin_b.stop();
}

TEST(ProxyPoolSimTest, P2CPolicyIsDeterministicPerSeed) {
  auto run_once = [] {
    SimEngine engine(0x2c2c);
    ScriptedBackend origin_a(8401, [](const ScriptedBackend::Request&) {
      return test::simple_response("a");
    });
    ScriptedBackend origin_b(8402, [](const ScriptedBackend::Request&) {
      return test::simple_response("b");
    });
    EXPECT_TRUE(origin_a.ok());
    EXPECT_TRUE(origin_b.ok());

    ProxyConfig config;
    config.listen_port = 8400;
    config.policy = cluster::BalancePolicy::kPowerOfTwoChoices;
    config.seed = 0x1234;
    config.event_listener = [&engine](const std::string& event) {
      engine.record(event);
    };
    ProxyServer proxy(config);
    proxy.add_backend(net::InetAddress::loopback(8401));
    proxy.add_backend(net::InetAddress::loopback(8402));
    EXPECT_TRUE(proxy.start().is_ok());

    std::vector<SimClient*> clients;
    for (int i = 0; i < 6; ++i) {
      auto* client = engine.new_client();
      clients.push_back(client);
      engine.at(std::chrono::milliseconds(10 + 10 * i), [client, i] {
        client->connect(8400);
        client->send("GET /p" + std::to_string(i) +
                     " HTTP/1.1\r\nHost: o\r\nConnection: close\r\n\r\n");
      });
    }
    EXPECT_TRUE(engine.run(std::chrono::seconds(5))) << engine.trace_text();
    std::vector<std::string> received;
    for (auto* client : clients) received.push_back(client->received());
    auto trace = engine.trace();
    proxy.stop();
    origin_a.stop();
    origin_b.stop();
    return std::make_pair(std::move(trace), std::move(received));
  };
  const auto first = run_once();
  const auto second = run_once();
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
}


// Both tiers order backends through one BackendSet, so with the same seed
// and loads they make the same choice — here when the P2C winner is
// drained.  The seed is the first whose winner over three idle backends is
// backend 1; that backend is drained, and each tier sends its one request to
// the next backend after the winner (2), not to the least loaded (0).
TEST(ProxyPoolSimTest, P2CWithDrainedWinnerPicksWhatTheBalancerPicks) {
  uint64_t seed = 1;
  for (;; ++seed) {
    std::mt19937_64 rng(seed);
    if (cluster::pick_p2c(rng, {0, 0, 0}) == 1) break;
  }
  const std::string request =
      "GET /p HTTP/1.1\r\nHost: o\r\nConnection: close\r\n\r\n";
  // Runs one request through a front end on port 8400 with three origins
  // on 8401-8403 and returns the index of the origin that served it.
  auto served_by = [&](auto&& start_front_end) -> int {
    SimEngine engine(0x2c2d);
    std::vector<std::unique_ptr<ScriptedBackend>> origins;
    // The balancer relays bytes until a side closes, so the origins close
    // after answering.
    ScriptedBackend::Options closing;
    closing.close_after_response = true;
    for (uint16_t i = 0; i < 3; ++i) {
      origins.push_back(std::make_unique<ScriptedBackend>(
          static_cast<uint16_t>(8401 + i),
          [](const ScriptedBackend::Request&) {
            return test::simple_response("ok", /*keep_alive=*/false);
          },
          closing));
      EXPECT_TRUE(origins.back()->ok());
    }
    auto stop_front_end = start_front_end();
    auto* client = engine.new_client();
    engine.at(std::chrono::milliseconds(10), [client, &request] {
      client->connect(8400);
      client->send(request);
    });
    EXPECT_TRUE(engine.run(std::chrono::seconds(5))) << engine.trace_text();
    EXPECT_NE(client->received().find("HTTP/1.1 200 OK"), std::string::npos);
    stop_front_end();
    int served = -1;
    for (int i = 0; i < 3; ++i) {
      if (origins[static_cast<size_t>(i)]->requests_seen() > 0) served = i;
      origins[static_cast<size_t>(i)]->stop();
    }
    return served;
  };

  const int balancer_pick = served_by([&] {
    cluster::LoadBalancerConfig config;
    config.listen_port = 8400;
    config.policy = cluster::BalancePolicy::kPowerOfTwoChoices;
    config.resilience.seed = seed;
    auto balancer = std::make_shared<cluster::LoadBalancer>(config);
    for (uint16_t i = 0; i < 3; ++i) {
      balancer->add_backend(
          net::InetAddress::loopback(static_cast<uint16_t>(8401 + i)));
    }
    balancer->drain_backend(1);
    EXPECT_TRUE(balancer->start().is_ok());
    return [balancer] { balancer->stop(); };
  });
  const int proxy_pick = served_by([&] {
    ProxyConfig config;
    config.listen_port = 8400;
    config.policy = cluster::BalancePolicy::kPowerOfTwoChoices;
    config.seed = seed;
    auto proxy = std::make_shared<ProxyServer>(config);
    for (uint16_t i = 0; i < 3; ++i) {
      proxy->add_backend(
          net::InetAddress::loopback(static_cast<uint16_t>(8401 + i)));
    }
    proxy->drain_backend(1);
    EXPECT_TRUE(proxy->start().is_ok());
    return [proxy] { proxy->stop(); };
  });
  EXPECT_EQ(balancer_pick, 2);
  EXPECT_EQ(proxy_pick, balancer_pick);
}

// ---- proxy admin endpoint ---------------------------------------------------

TEST(ProxyPoolSimTest, AdminStatsExposeCountersBackendsAndOverload) {
  SimEngine engine(0xad57);
  const std::string body(2048, 'x');
  // Backend 0 stalls each response mid-body for 200ms, so the second request
  // is still in flight when the scrapes land; backend 1 is drained.
  ScriptedBackend::Options stalling;
  stalling.immediate_bytes = 64;
  stalling.rest_delay = std::chrono::milliseconds(200);
  ScriptedBackend origin(
      8401,
      [&](const ScriptedBackend::Request&) {
        return test::simple_response(body);
      },
      stalling);
  ScriptedBackend drained(8402, [](const ScriptedBackend::Request&) {
    return test::simple_response("drained");
  });
  ASSERT_TRUE(origin.ok());
  ASSERT_TRUE(drained.ok());

  ProxyConfig config;
  config.listen_port = 8400;
  config.admin_enabled = true;
  config.admin_port = 8450;
  config.overload_adaptive = true;
  ProxyServer proxy(config);
  proxy.add_backend(net::InetAddress::loopback(8401));
  proxy.add_backend(net::InetAddress::loopback(8402));
  ASSERT_TRUE(proxy.start().is_ok());
  proxy.drain_backend(1);

  auto* first = engine.new_client();
  auto* second = engine.new_client();
  auto* stats_scrape = engine.new_client();
  auto* json_scrape = engine.new_client();
  engine.at(std::chrono::milliseconds(5), [first] {
    first->connect(8400);
    first->send("GET /a HTTP/1.1\r\nHost: o\r\nConnection: close\r\n\r\n");
  });
  engine.at(std::chrono::milliseconds(250), [second] {
    second->connect(8400);
    second->send("GET /b HTTP/1.1\r\nHost: o\r\nConnection: close\r\n\r\n");
  });
  engine.at(std::chrono::milliseconds(300), [&] {
    stats_scrape->connect(8450);
    stats_scrape->send(
        "GET /stats HTTP/1.1\r\nHost: a\r\nConnection: close\r\n\r\n");
    json_scrape->connect(8450);
    json_scrape->send(
        "GET /stats.json HTTP/1.1\r\nHost: a\r\nConnection: close\r\n\r\n");
  });
  ASSERT_TRUE(engine.run(std::chrono::seconds(5))) << engine.trace_text();
  EXPECT_NE(first->received().find(body), std::string::npos);
  EXPECT_NE(second->received().find(body), std::string::npos);

  const auto& prom = stats_scrape->received();
  ASSERT_NE(prom.find("200 OK"), std::string::npos) << prom;
  for (const char* sample : {
           "\ncops_proxy_requests_total 2\n",
           "\ncops_proxy_responses_total 1\n",
           "\ncops_proxy_bad_gateway_total 0\n",
           "\ncops_proxy_gateway_timeout_total 0\n",
           "\ncops_proxy_poisoned_upstreams_total 0\n",
           "\ncops_proxy_backpressure_events_total 0\n",
           "\ncops_proxy_shed_total 0\n",
           "\ncops_proxy_pool_reuse_total 1\n",
           "\ncops_proxy_pool_miss_total 1\n",
           "\ncops_proxy_pool_stale_retry_total 0\n",
           "# TYPE cops_proxy_backend_in_flight gauge\n",
           "\ncops_proxy_backend_in_flight{backend=\"0\"} 1\n",
           "\ncops_proxy_backend_in_flight{backend=\"1\"} 0\n",
           "# TYPE cops_proxy_backend_draining gauge\n",
           "\ncops_proxy_backend_draining{backend=\"0\"} 0\n",
           "\ncops_proxy_backend_draining{backend=\"1\"} 1\n",
           "# TYPE cops_proxy_overload_pressure gauge\n",
           "\ncops_proxy_overload_pressure{monitor=\"pool_waiters\"} 0.000000\n",
           "\ncops_proxy_overload_pressure{monitor=\"upstream_5xx\"} 0.000000\n",
           "\ncops_proxy_overload_pressure{monitor=\"overall\"} 0.000000\n",
           "# TYPE cops_proxy_overload_tier gauge\n",
           "\ncops_proxy_overload_tier 0\n",
           "\ncops_proxy_overload_retry_after_seconds 1\n",
           "\ncops_proxy_overload_accept_stopped 0\n",
       }) {
    EXPECT_NE(prom.find(sample), std::string::npos) << sample << prom;
  }

  const auto& json = json_scrape->received();
  ASSERT_NE(json.find("200 OK"), std::string::npos) << json;
  for (const char* field : {
           "\"requests\":2,",
           "\"responses\":1,",
           "\"bad_gateway\":0,",
           "\"gateway_timeout\":0,",
           "\"poisoned_upstreams\":0,",
           "\"backpressure_events\":0,",
           "\"shed\":0,",
           "\"pool\":{\"reuse\":1,\"miss\":1,\"stale_retry\":0}",
           "{\"index\":0,\"address\":\"127.0.0.1:8401\",\"draining\":false,"
           "\"in_flight\":1,\"pool_in_use\":1,\"pool_idle\":0}",
           "{\"index\":1,\"address\":\"127.0.0.1:8402\",\"draining\":true,"
           "\"in_flight\":0,\"pool_in_use\":0,\"pool_idle\":0}",
           "\"overload\":{\"pressure\":0.000000,\"tier\":0,"
           "\"tier_name\":\"none\",\"retry_after_s\":1,",
           "\"shedding\":false,\"accept_stopped\":false,\"monitors\":["
           "{\"name\":\"pool_waiters\",\"raw\":0.000000,\"pressure\":0.000000,"
           "\"smoothed\":0.000000},"
           "{\"name\":\"upstream_5xx\",\"raw\":0.000000,\"pressure\":0.000000,"
           "\"smoothed\":0.000000}]}",
       }) {
    EXPECT_NE(json.find(field), std::string::npos) << field << "\n" << json;
  }
  proxy.stop();
  origin.stop();
  drained.stop();
}

}  // namespace
}  // namespace cops::proxy
