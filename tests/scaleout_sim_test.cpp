// Simnet coverage for a multi-shard server (O1 > 1).  The single listener
// on shard 0 dispatches connections round-robin; only the simulation makes
// that spread, and the event trace of N reactor threads, deterministic
// enough to assert exactly.
#include <utime.h>

#include <chrono>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "http/http_server.hpp"
#include "simnet/sim_harness.hpp"
#include "tests/test_util.hpp"

namespace cops::simnet {
namespace {

using std::chrono::milliseconds;

constexpr uint16_t kPort = 8090;

// Deterministic fixture set: four files with distinct sizes and contents.
std::string fixture_body(size_t i) {
  std::string out = "scaleout fixture " + std::to_string(i) + "\n";
  for (size_t j = 0; j < 20 + i * 40; ++j) {
    out += static_cast<char>('a' + (i * 11 + j * 5) % 26);
  }
  out += '\n';
  return out;
}

// One scripted client: connect time, request bytes, and the send schedule
// (piece boundaries and times), all derived from the seed alone so two runs
// of one seed replay identical inputs.
struct ClientScript {
  int connect_ms = 0;
  std::vector<std::pair<int, std::string>> sends;  // (time ms, piece)
};

std::vector<ClientScript> build_scripts(uint64_t seed, size_t n_clients) {
  std::mt19937_64 rng(seed);
  std::vector<ClientScript> scripts(n_clients);
  for (size_t c = 0; c < n_clients; ++c) {
    auto& script = scripts[c];
    script.connect_ms = 1 + static_cast<int>(c);
    std::string wire;
    const size_t requests = 1 + rng() % 3;
    for (size_t r = 0; r < requests; ++r) {
      const bool last = r + 1 == requests;
      wire += "GET /f" + std::to_string(rng() % 4) +
              ".txt HTTP/1.1\r\nHost: sim\r\n" +
              (last ? "Connection: close\r\n" : "") + "\r\n";
    }
    // Arbitrary TCP segmentation on top of the sharded server.
    size_t pos = 0;
    int when = script.connect_ms + 2;
    while (pos < wire.size()) {
      const size_t chunk = 1 + rng() % (wire.size() - pos);
      script.sends.emplace_back(when, wire.substr(pos, chunk));
      pos += chunk;
      when += static_cast<int>(rng() % 3);
    }
  }
  return scripts;
}

struct SessionResult {
  std::vector<std::string> replies;  // per client, raw received bytes
  std::vector<bool> closed;
  std::vector<nserver::ShardStats> shards;
  std::vector<std::string> trace;
};

// Replays the seed's scripts against a fresh server with `shards`
// dispatchers and returns every client's observations.
SessionResult run_scaleout_session(uint64_t seed, int shards,
                                   size_t n_clients) {
  SimEngine engine(seed);
  SCOPED_TRACE("scaleout seed=" + std::to_string(seed));

  test::TempDir dir;
  for (size_t i = 0; i < 4; ++i) {
    const std::string name = "f" + std::to_string(i) + ".txt";
    dir.write_file(name, fixture_body(i));
    // Pin the mtime: each session writes its own fixture copies, and a
    // wall-clock second boundary between two sessions would otherwise make
    // Last-Modified differ.
    struct utimbuf times{1000000000, 1000000000};
    ::utime((dir.path() / name).c_str(), &times);
  }

  auto options = http::CopsHttpServer::default_options();
  make_deterministic(options);
  // The whole point of this suite is the multi-shard server, so the shard
  // count is restored *after* make_deterministic pinned it to one — the
  // engine's poller token rotation keeps N reactors deterministic.
  options.dispatcher_threads = shards;
  options.listen_port = kPort;
  http::HttpServerConfig config;
  config.doc_root = dir.str();
  http::CopsHttpServer server(std::move(options), config);
  auto started = server.start();
  EXPECT_TRUE(started.is_ok()) << started.to_string();
  if (!started.is_ok()) return {};

  const auto scripts = build_scripts(seed, n_clients);
  std::vector<SimClient*> clients;
  for (const auto& script : scripts) {
    auto* client = engine.new_client();
    clients.push_back(client);
    engine.at(milliseconds(script.connect_ms),
              [client] { client->connect(kPort); });
    for (const auto& [when, piece] : script.sends) {
      engine.at(milliseconds(when),
                [client, piece] { client->send(piece); });
    }
  }

  EXPECT_TRUE(engine.run(std::chrono::seconds(120)))
      << "session did not quiesce\n" << engine.trace_text();

  SessionResult result;
  for (auto* client : clients) {
    result.replies.push_back(client->received());
    result.closed.push_back(client->peer_closed());
  }
  result.shards = server.server().stats_snapshot().shards;
  result.trace = engine.trace();
  EXPECT_TRUE(engine.failures().empty()) << engine.trace_text();
  server.stop();
  return result;
}

// ---- dispatch --------------------------------------------------------------

TEST(ScaleoutSimTest, DispatchKeepsTheSingleListener) {
  // Eight clients over four shards: only shard 0 owns a listener, and the
  // server's round-robin gives every shard exactly two accepts, which the
  // per-shard gauges (the `shard` label) report.
  const SessionResult result =
      run_scaleout_session(0x5ca1e, /*shards=*/4, /*n_clients=*/8);
  ASSERT_EQ(result.shards.size(), 4u);
  uint64_t total = 0;
  for (const auto& shard : result.shards) {
    EXPECT_EQ(shard.accepts, 2u) << "shard " << shard.shard;
    EXPECT_EQ(shard.connections_open, 0u) << "shard " << shard.shard;
    total += shard.accepts;
  }
  EXPECT_EQ(total, 8u);
  // Every script ends with Connection: close.
  ASSERT_EQ(result.replies.size(), 8u);
  for (size_t c = 0; c < result.replies.size(); ++c) {
    EXPECT_FALSE(result.replies[c].empty()) << "client " << c;
    EXPECT_TRUE(result.closed[c]) << "client " << c;
  }
}

// ---- determinism ------------------------------------------------------------

TEST(ScaleoutSimTest, SameSeedSameMultiShardTrace) {
  // The flagship determinism guarantee holds with four reactor threads: the
  // poller token rotation serialises them into a bit-identical event trace
  // per seed.
  const SessionResult first =
      run_scaleout_session(424242, /*shards=*/4, /*n_clients=*/6);
  const SessionResult second =
      run_scaleout_session(424242, /*shards=*/4, /*n_clients=*/6);
  ASSERT_FALSE(first.trace.empty());
  ASSERT_EQ(first.trace.size(), second.trace.size())
      << "trace lengths diverged across identical runs";
  for (size_t i = 0; i < first.trace.size(); ++i) {
    ASSERT_EQ(first.trace[i], second.trace[i])
        << "first divergence at trace line " << i;
  }
}

}  // namespace
}  // namespace cops::simnet
