// perf-smoke: a quick configuration of the overload benchmark run as a
// ctest (label `perf-smoke`, like `chaos` for the simnet suites).  It guards
// the invariants the committed BENCH_overload.json baseline rests on, and
// that the emitted JSON is well-formed.
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "bench/overload_harness.hpp"

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

}  // namespace
}  // namespace cops::bench
