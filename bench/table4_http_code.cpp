// Table 4 reproduction: the code distribution of COPS-HTTP.
//
// Paper (Java):
//   Generated code            79 classes  474 methods  2,697 NCSS
//   HTTP protocol code        10 classes   50 methods    449 NCSS
//   Other application code    16 classes   89 methods    785 NCSS
//   Total                    105 classes  613 methods  3,931 NCSS
//
// The paper's headline: with an existing HTTP protocol library, only 785
// NCSS (20 % of the server) must be written by hand — the rest is generated.
#include <cstdio>

#include "bench_common.hpp"
#include "common/source_stats.hpp"
#include "gdp/pattern_template.hpp"

namespace {

void print_row(const char* label, const cops::SourceStats& stats,
               const char* paper) {
  std::printf("%-24s %8d %8d %8d     %s\n", label, stats.classes,
              stats.methods, stats.ncss, paper);
}

}  // namespace

int main() {
  using namespace cops;
  bench::print_header(
      "TABLE 4 — code distribution of COPS-HTTP",
      "Columns: classes / methods / NCSS, measured on this repository;\n"
      "paper's Java numbers alongside.");

  const std::string root(COPS_SOURCE_DIR);
  const std::string src = root + "/src";

  const auto tmpl = gdp::make_nserver_template();
  auto scaffold = tmpl.generate(gdp::nserver_http_options(),
                                "/tmp/cops_bench_gen_http",
                                {{"app_name", "CopsHttp"},
                                 {"listen_port", "8080"}});
  if (!scaffold.is_ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 scaffold.status().to_string().c_str());
    return 1;
  }
  auto generated = scaffold.value().totals;
  generated += analyze_directory(src + "/nserver");
  generated += analyze_directory(src + "/net");

  const auto protocol = analyze_files({
      src + "/http/method.hpp", src + "/http/status_code.hpp",
      src + "/http/request.hpp", src + "/http/request.cpp",
      src + "/http/request_parser.hpp", src + "/http/request_parser.cpp",
      src + "/http/head_grammar.hpp", src + "/http/head_grammar.cpp",
      src + "/http/response.hpp", src + "/http/response.cpp",
      src + "/http/mime.hpp", src + "/http/mime.cpp",
      src + "/http/http_date.hpp", src + "/http/http_date.cpp",
  });
  const auto application = analyze_files({
      src + "/http/http_server.hpp",
      src + "/http/http_server.cpp",
      root + "/examples/cops_http.cpp",
  });

  auto total = generated;
  total += protocol;
  total += application;

  std::printf("%-24s %8s %8s %8s     %s\n", "", "classes", "methods", "NCSS",
              "paper (classes/methods/NCSS)");
  print_row("Generated code", generated, " 79 / 474 / 2,697");
  print_row("HTTP protocol code", protocol, " 10 /  50 /   449");
  print_row("Other application code", application, " 16 /  89 /   785");
  print_row("Total code", total, "105 / 613 / 3,931");

  const double handwritten_fraction =
      double(application.ncss) / double(total.ncss);
  std::printf(
      "\nShape check: hand-written server-specific code is %.1f%% of the "
      "total (paper: 785 / 3,931 = 20%%).\n",
      handwritten_fraction * 100.0);
  return 0;
}
