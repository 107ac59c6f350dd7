// perf-smoke: a ~2s configuration of the send-path benchmark run as a ctest
// (label `perf-smoke`, like `chaos` for the simnet suites).  Guards the two
// invariants the committed BENCH_send_path.json baseline rests on: the
// emitted JSON is well-formed, and the writev path copies materially fewer
// bytes per cached-file reply than the copy path.
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "bench/overload_harness.hpp"
#include "bench/scaleout_harness.hpp"
#include "bench/send_path_harness.hpp"

namespace cops::bench {
namespace {

TEST(PerfSmokeTest, SerializeReservesExactly) {
  std::string error;
  EXPECT_TRUE(serialize_reserves_exactly(&error)) << error;
}

TEST(PerfSmokeTest, SendPathQuickRunEmitsValidJson) {
  auto config =
      send_path_quick_config(std::string(COPS_BINARY_DIR) +
                             "/perf_smoke_docroot");
  ASSERT_TRUE(make_send_path_docroot(config));

  std::vector<SendPathRow> rows;
  for (const char* mode : {"copy", "writev", "sendfile"}) {
    rows.push_back(run_send_path_mode(config, mode));
    ASSERT_GT(rows.back().replies, 0u) << "mode " << mode << " served nothing";
  }

  // The baseline's acceptance margin, at smoke scale: writev must copy at
  // most 80% of copy's bytes per reply (in practice it copies only headers).
  EXPECT_LE(rows[1].bytes_copied_per_reply,
            0.8 * rows[0].bytes_copied_per_reply);
  // sendfile must actually move bytes through sendfile(2).
  EXPECT_GT(rows[2].sendfile_bytes_per_reply, 0.0);

  const std::string json = send_path_rows_to_json(rows, /*quick=*/true);
  std::string error;
  EXPECT_TRUE(validate_send_path_json(json, &error)) << error << "\n" << json;

  // A malformed document must be rejected — the gate the runner relies on.
  EXPECT_FALSE(validate_send_path_json(json.substr(0, json.size() / 2), &error));
  EXPECT_FALSE(validate_send_path_json("{}", &error));

  const std::string out_path =
      std::string(COPS_BINARY_DIR) + "/BENCH_send_path_smoke.json";
  std::ofstream out(out_path, std::ios::trunc);
  out << json;
  EXPECT_TRUE(out.good()) << "could not write " << out_path;
}

// The invariants the committed BENCH_overload.json baseline rests on, at
// smoke scale (two offered loads, short window — all virtual time, so this
// runs in milliseconds of wall clock): the adaptive manager sheds an 8x
// overload and bounds admitted p99, the SPED watermark controller sheds
// nothing, and the emitted JSON is well-formed.
TEST(PerfSmokeTest, OverloadQuickRunEmitsValidJson) {
  const auto config = overload_quick_config(std::string(COPS_BINARY_DIR) +
                                            "/perf_smoke_overload_docroot");
  ASSERT_TRUE(make_overload_docroot(config));

  std::vector<OverloadRow> rows;
  for (const char* mode : {"watermark", "adaptive"}) {
    for (const double offered : config.offered_rps) {
      rows.push_back(run_overload_point(config, mode, offered));
      ASSERT_GT(rows.back().offered, 0u);
      EXPECT_EQ(rows.back().no_response, 0u)
          << mode << "/" << offered << " lost requests";
    }
  }
  ASSERT_EQ(rows.size(), 4u);
  const auto& watermark_peak = rows[1];
  const auto& adaptive_idle = rows[2];
  const auto& adaptive_peak = rows[3];

  EXPECT_EQ(rows[0].shed, 0u);
  EXPECT_EQ(watermark_peak.shed, 0u)
      << "SPED watermark ablation no longer holds";
  EXPECT_EQ(adaptive_idle.shed, 0u) << "adaptive shed below capacity";
  EXPECT_GT(adaptive_peak.shed_rate, 0.10);
  EXPECT_LT(adaptive_peak.p99_admitted_ms,
            watermark_peak.p99_admitted_ms / 2.0);

  const std::string json = overload_rows_to_json(rows, /*quick=*/true);
  std::string error;
  EXPECT_TRUE(validate_overload_json(json, &error)) << error << "\n" << json;
  EXPECT_FALSE(validate_overload_json("{}", &error));

  const std::string out_path =
      std::string(COPS_BINARY_DIR) + "/BENCH_overload_smoke.json";
  std::ofstream out(out_path, std::ios::trunc);
  out << json;
  EXPECT_TRUE(out.good()) << "could not write " << out_path;
}

// The invariants behind the committed BENCH_scaleout.json, at smoke scale.
// Unlike the simnet benches these points run in REAL time (the whole point
// is parallel speedup across shard threads), so the scaling gate here is
// deliberately soft — the committed baseline's 1.5x gate lives in
// micro_scaleout, which runs on an otherwise idle machine.
TEST(PerfSmokeTest, ScaleoutQuickRunEmitsValidJson) {
  auto config = scaleout_quick_config(std::string(COPS_BINARY_DIR) +
                                      "/perf_smoke_scaleout_docroot");
  ASSERT_TRUE(make_scaleout_docroot(config));
  const double capacity = scaleout_capacity_rps(config);

  std::vector<ScaleoutRow> rows;
  rows.push_back(run_scaleout_point(config, "reuseport", "saturate", 1,
                                    /*l1=*/true,
                                    config.saturation_factor * capacity));
  rows.push_back(run_scaleout_point(config, "reuseport", "saturate", 2,
                                    /*l1=*/true,
                                    config.saturation_factor * capacity * 2));
  rows.push_back(run_scaleout_point(config, "dispatch", "matched", 2,
                                    /*l1=*/true, config.matched_rps));
  for (const auto& row : rows) {
    ASSERT_GT(row.completed, 0u)
        << row.accept_path << "/" << row.scenario << " served nothing";
  }
  // Sleeping Handle costs serialise on one shard and overlap on two, so
  // even a loaded CI machine must show the capacity step.
  EXPECT_GT(rows[1].achieved_rps, 1.2 * rows[0].achieved_rps);
  // The matched point is uncongested: nothing may be lost.
  EXPECT_EQ(rows[2].errors, 0u);
  EXPECT_EQ(rows[2].completed, rows[2].arrivals);
  // The warmed L1 really serves on the saturation points.
  EXPECT_GT(rows[1].l1_hit_rate, 0.0);

  const std::string json = scaleout_rows_to_json(config, rows, /*quick=*/true);
  std::string error;
  EXPECT_TRUE(validate_scaleout_json(json, &error)) << error << "\n" << json;

  // Malformed documents must be rejected — the gate the runner relies on.
  EXPECT_FALSE(validate_scaleout_json(json.substr(0, json.size() / 2), &error));
  EXPECT_FALSE(validate_scaleout_json("{}", &error));
  std::string mangled = json;
  const size_t at = mangled.find("\"l1_hit_rate\"");
  ASSERT_NE(at, std::string::npos);
  while (mangled.find("\"l1_hit_rate\"") != std::string::npos) {
    mangled.replace(mangled.find("\"l1_hit_rate\""), 13, "\"l1_hit_rute\"");
  }
  EXPECT_FALSE(validate_scaleout_json(mangled, &error));

  const std::string out_path =
      std::string(COPS_BINARY_DIR) + "/BENCH_scaleout_smoke.json";
  std::ofstream out(out_path, std::ios::trunc);
  out << json;
  EXPECT_TRUE(out.good()) << "could not write " << out_path;
}

// The committed baseline at the repo root must satisfy the same schema the
// smoke run just validated — a hand-edited or truncated artifact fails CI.
TEST(PerfSmokeTest, CommittedScaleoutBaselineMatchesSchema) {
  const std::string path =
      std::string(COPS_SOURCE_DIR) + "/BENCH_scaleout.json";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing committed baseline " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();

  std::string error;
  EXPECT_TRUE(validate_scaleout_json(json, &error)) << error;
  // The committed artifact is the full run, with the 4-shard headline.
  EXPECT_NE(json.find("\"quick\": false"), std::string::npos);
  EXPECT_NE(json.find("\"shards\": 4"), std::string::npos);
}

}  // namespace
}  // namespace cops::bench
