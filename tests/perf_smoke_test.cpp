// perf-smoke: quick configurations of the overload and scale-out
// benchmarks run as ctests (label `perf-smoke`, like `chaos` for the simnet
// suites).  Each guards the invariants its committed BENCH_*.json baseline
// rests on, and that the emitted JSON is well-formed.
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "bench/overload_harness.hpp"
#include "bench/scaleout_harness.hpp"

namespace cops::bench {
namespace {

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

// The committed BENCH_overload.json is a deterministic simnet sweep
// (virtual time, fixed seed), so the default configuration must reproduce
// it byte for byte.  Any change to a watermark or adaptive decision — a
// tier edge, an EWMA step, a Retry-After — shows up here as a diff.
TEST(PerfSmokeTest, CommittedOverloadBaselineIsReproduced) {
  OverloadBenchConfig config;
  config.docroot =
      std::string(COPS_BINARY_DIR) + "/perf_smoke_overload_full_docroot";
  ASSERT_TRUE(make_overload_docroot(config));

  std::vector<OverloadRow> rows;
  for (const char* mode : {"watermark", "adaptive"}) {
    for (const double offered : config.offered_rps) {
      rows.push_back(run_overload_point(config, mode, offered));
    }
  }

  std::ifstream in(std::string(COPS_SOURCE_DIR) + "/BENCH_overload.json");
  ASSERT_TRUE(in.good()) << "committed BENCH_overload.json not found";
  std::stringstream committed;
  committed << in.rdbuf();
  EXPECT_EQ(overload_rows_to_json(rows, /*quick=*/false), committed.str());
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
