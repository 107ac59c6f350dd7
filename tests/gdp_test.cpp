// Tests for the generative design pattern engine (options, template
// language, N-Server pattern template — Tables 1 and 2).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/config_file.hpp"
#include "gdp/option.hpp"
#include "gdp/pattern_template.hpp"
#include "gdp/template_lang.hpp"
#include "tests/test_util.hpp"

namespace cops::gdp {
namespace {

// ---------- option model --------------------------------------------------------

TEST(OptionSpec, BoolLegality) {
  OptionSpec spec{"x", "X", OptionType::kBool, {}, "no"};
  EXPECT_TRUE(spec.value_is_legal("yes"));
  EXPECT_TRUE(spec.value_is_legal("No"));
  EXPECT_FALSE(spec.value_is_legal("maybe"));
}

TEST(OptionSpec, EnumLegality) {
  OptionSpec spec{"c", "C", OptionType::kEnum, {"a", "b"}, "a"};
  EXPECT_TRUE(spec.value_is_legal("A"));
  EXPECT_FALSE(spec.value_is_legal("z"));
}

TEST(OptionSpec, IntRange) {
  OptionSpec spec{"n", "N", OptionType::kInt, {}, "1", 1, 8};
  EXPECT_TRUE(spec.value_is_legal("1"));
  EXPECT_TRUE(spec.value_is_legal("8"));
  EXPECT_FALSE(spec.value_is_legal("0"));
  EXPECT_FALSE(spec.value_is_legal("9"));
  EXPECT_FALSE(spec.value_is_legal("x"));
}

TEST(OptionTable, DefaultsFilledIn) {
  OptionTable table;
  table.add({"a", "A", OptionType::kBool, {}, "yes"});
  table.add({"b", "B", OptionType::kBool, {}, "no"});
  OptionSet set;
  set.set("b", "yes");
  const auto full = table.with_defaults(set);
  EXPECT_TRUE(full.get_bool("a"));
  EXPECT_TRUE(full.get_bool("b"));
}

TEST(OptionTable, ValidateCatchesUnknownAndIllegal) {
  OptionTable table;
  table.add({"a", "A", OptionType::kBool, {}, "yes"});
  OptionSet set;
  set.set("a", "maybe");
  set.set("ghost", "1");
  const auto problems = table.validate(set);
  EXPECT_EQ(problems.size(), 2u);
}

TEST(OptionTable, ConstraintEvaluatedWhenValuesLegal) {
  OptionTable table;
  table.add({"a", "A", OptionType::kBool, {}, "yes"});
  table.add_constraint("a must be yes", [](const OptionSet& set) {
    return set.get_bool("a") ? std::string{} : "a is no";
  });
  auto ok_set = table.with_defaults({});
  EXPECT_TRUE(table.validate(ok_set).empty());
  OptionSet bad;
  bad.set("a", "no");
  EXPECT_EQ(table.validate(bad).size(), 1u);
}

// ---------- expression language ---------------------------------------------------

OptionSet opts(std::initializer_list<std::pair<const char*, const char*>> kv) {
  OptionSet set;
  for (const auto& [k, v] : kv) set.set(k, v);
  return set;
}

TEST(Expr, IdentTruthiness) {
  auto expr = parse_expr("flag");
  ASSERT_TRUE(expr.is_ok());
  EXPECT_TRUE(expr.value()->evaluate(opts({{"flag", "yes"}})));
  EXPECT_FALSE(expr.value()->evaluate(opts({{"flag", "no"}})));
  EXPECT_FALSE(expr.value()->evaluate(opts({{"flag", "none"}})));
  EXPECT_FALSE(expr.value()->evaluate(opts({})));
}

TEST(Expr, Comparison) {
  auto expr = parse_expr("mode == \"debug\"");
  ASSERT_TRUE(expr.is_ok());
  EXPECT_TRUE(expr.value()->evaluate(opts({{"mode", "debug"}})));
  EXPECT_FALSE(expr.value()->evaluate(opts({{"mode", "production"}})));
}

TEST(Expr, NotEqualAndBareword) {
  auto expr = parse_expr("cache != none");
  ASSERT_TRUE(expr.is_ok());
  EXPECT_TRUE(expr.value()->evaluate(opts({{"cache", "lru"}})));
  EXPECT_FALSE(expr.value()->evaluate(opts({{"cache", "none"}})));
}

TEST(Expr, BooleanOperatorsAndParens) {
  auto expr = parse_expr("a && (b || !c)");
  ASSERT_TRUE(expr.is_ok());
  EXPECT_TRUE(expr.value()->evaluate(
      opts({{"a", "yes"}, {"b", "no"}, {"c", "no"}})));
  EXPECT_FALSE(expr.value()->evaluate(
      opts({{"a", "yes"}, {"b", "no"}, {"c", "yes"}})));
  EXPECT_FALSE(expr.value()->evaluate(
      opts({{"a", "no"}, {"b", "yes"}, {"c", "no"}})));
}

TEST(Expr, CollectKeys) {
  auto expr = parse_expr("a && b == \"x\" || !c");
  ASSERT_TRUE(expr.is_ok());
  std::set<std::string> keys;
  expr.value()->collect_keys(keys);
  EXPECT_EQ(keys, (std::set<std::string>{"a", "b", "c"}));
}

TEST(Expr, SyntaxErrors) {
  EXPECT_FALSE(parse_expr("a &&").is_ok());
  EXPECT_FALSE(parse_expr("(a").is_ok());
  EXPECT_FALSE(parse_expr("a == ").is_ok());
  EXPECT_FALSE(parse_expr("#bad").is_ok());
}

// ---------- template language ------------------------------------------------------

TEST(TemplateLang, PlainTextPassesThrough) {
  auto tmpl = Template::parse("line one\nline two\n");
  ASSERT_TRUE(tmpl.is_ok());
  auto out = tmpl.value().render({});
  ASSERT_TRUE(out.is_ok());
  EXPECT_EQ(out.value(), "line one\nline two\n");
}

TEST(TemplateLang, IfIncludesAndExcludes) {
  const char* source =
      "always\n"
      "//% if feature\n"
      "included\n"
      "//% end\n"
      "tail\n";
  auto tmpl = Template::parse(source);
  ASSERT_TRUE(tmpl.is_ok());
  auto on = tmpl.value().render(opts({{"feature", "yes"}}));
  ASSERT_TRUE(on.is_ok());
  EXPECT_EQ(on.value(), "always\nincluded\ntail\n");
  auto off = tmpl.value().render(opts({{"feature", "no"}}));
  ASSERT_TRUE(off.is_ok());
  EXPECT_EQ(off.value(), "always\ntail\n");
}

TEST(TemplateLang, ElifElseChain) {
  const char* source =
      "//% if mode == \"a\"\n"
      "A\n"
      "//% elif mode == \"b\"\n"
      "B\n"
      "//% else\n"
      "C\n"
      "//% end\n";
  auto tmpl = Template::parse(source);
  ASSERT_TRUE(tmpl.is_ok());
  EXPECT_EQ(tmpl.value().render(opts({{"mode", "a"}})).value(), "A\n");
  EXPECT_EQ(tmpl.value().render(opts({{"mode", "b"}})).value(), "B\n");
  EXPECT_EQ(tmpl.value().render(opts({{"mode", "z"}})).value(), "C\n");
}

TEST(TemplateLang, NestedConditionals) {
  const char* source =
      "//% if outer\n"
      "//% if inner\n"
      "both\n"
      "//% else\n"
      "outer-only\n"
      "//% end\n"
      "//% end\n";
  auto tmpl = Template::parse(source);
  ASSERT_TRUE(tmpl.is_ok());
  EXPECT_EQ(
      tmpl.value().render(opts({{"outer", "yes"}, {"inner", "yes"}})).value(),
      "both\n");
  EXPECT_EQ(
      tmpl.value().render(opts({{"outer", "yes"}, {"inner", "no"}})).value(),
      "outer-only\n");
  EXPECT_EQ(
      tmpl.value().render(opts({{"outer", "no"}, {"inner", "yes"}})).value(),
      "");
}

TEST(TemplateLang, Substitution) {
  auto tmpl = Template::parse("port = ${port};\n");
  ASSERT_TRUE(tmpl.is_ok());
  auto out = tmpl.value().render(opts({{"port", "8080"}}));
  ASSERT_TRUE(out.is_ok());
  EXPECT_EQ(out.value(), "port = 8080;\n");
}

TEST(TemplateLang, ExtrasAndUnknownPassThrough) {
  auto tmpl = Template::parse("${name} keeps ${CMAKE_VAR}\n");
  ASSERT_TRUE(tmpl.is_ok());
  auto out = tmpl.value().render({}, {{"name", "App"}});
  ASSERT_TRUE(out.is_ok());
  EXPECT_EQ(out.value(), "App keeps ${CMAKE_VAR}\n");
}

TEST(TemplateLang, ReportsConditionAndSubstitutionKeys) {
  auto tmpl = Template::parse(
      "//% if scheduling && mode == \"debug\"\n${quota}\n//% end\n");
  ASSERT_TRUE(tmpl.is_ok());
  EXPECT_EQ(tmpl.value().condition_keys(),
            (std::set<std::string>{"scheduling", "mode"}));
  EXPECT_EQ(tmpl.value().substitution_keys(),
            (std::set<std::string>{"quota"}));
}

TEST(TemplateLang, ParseErrors) {
  EXPECT_FALSE(Template::parse("//% if a\nno end\n").is_ok());
  EXPECT_FALSE(Template::parse("//% end\n").is_ok());
  EXPECT_FALSE(Template::parse("//% else\n").is_ok());
  EXPECT_FALSE(Template::parse("//% frobnicate\n").is_ok());
  EXPECT_FALSE(
      Template::parse("//% if a\n//% else\n//% elif b\n//% end\n").is_ok());
}

// ---------- the N-Server pattern template -------------------------------------------

TEST(NServerTemplate, PresetsValidate) {
  const auto tmpl = make_nserver_template();
  EXPECT_TRUE(tmpl.options()
                  .validate(tmpl.options().with_defaults(nserver_http_options()))
                  .empty());
  EXPECT_TRUE(tmpl.options()
                  .validate(tmpl.options().with_defaults(nserver_ftp_options()))
                  .empty());
}

TEST(NServerTemplate, ConstraintRejectsSchedulingWithoutPool) {
  const auto tmpl = make_nserver_template();
  auto bad = nserver_http_options();
  bad.set("separate_pool", "no");
  bad.set("event_scheduling", "yes");
  auto rendered = tmpl.render_all(bad, {{"app_name", "X"}});
  EXPECT_FALSE(rendered.is_ok());
}

TEST(NServerTemplate, ConditionalFilesFollowOptions) {
  const auto tmpl = make_nserver_template();
  auto http = tmpl.render_all(nserver_http_options(),
                              {{"app_name", "H"}, {"listen_port", "0"}});
  ASSERT_TRUE(http.is_ok()) << http.status().to_string();
  // HTTP: async completions + LRU cache + static threads.
  EXPECT_TRUE(http.value().count("completion_config.hpp"));
  EXPECT_TRUE(http.value().count("cache_config.hpp"));
  EXPECT_FALSE(http.value().count("controller_config.hpp"));

  auto ftp = tmpl.render_all(nserver_ftp_options(),
                             {{"app_name", "F"}, {"listen_port", "0"}});
  ASSERT_TRUE(ftp.is_ok());
  // FTP: sync completions, no cache, dynamic threads.
  EXPECT_FALSE(ftp.value().count("completion_config.hpp"));
  EXPECT_FALSE(ftp.value().count("cache_config.hpp"));
  EXPECT_TRUE(ftp.value().count("controller_config.hpp"));
}

TEST(NServerTemplate, GeneratedTraitsReflectOptions) {
  const auto tmpl = make_nserver_template();
  auto rendered = tmpl.render_all(nserver_ftp_options(),
                                  {{"app_name", "F"}, {"listen_port", "0"}});
  ASSERT_TRUE(rendered.is_ok());
  const auto& traits = rendered.value().at("traits.hpp");
  EXPECT_NE(traits.find("kAsyncCompletion = false"), std::string::npos);
  EXPECT_NE(traits.find("kDynamicThreads = true"), std::string::npos);
  EXPECT_NE(traits.find("kShutdownLongIdle = true"), std::string::npos);
  EXPECT_NE(traits.find("kFileCache = false"), std::string::npos);
}

TEST(NServerTemplate, SchedulingCrosscutsGeneratedUnits) {
  // The paper's O8 example: enabling event scheduling changes the Event
  // layer, the hooks, and the processor — a crosscutting variation.
  const auto tmpl = make_nserver_template();
  auto base = nserver_http_options();
  auto with = base;
  with.set("event_scheduling", "yes");
  auto off = tmpl.render_all(base, {{"app_name", "A"}, {"listen_port", "0"}});
  auto on = tmpl.render_all(with, {{"app_name", "A"}, {"listen_port", "0"}});
  ASSERT_TRUE(off.is_ok());
  ASSERT_TRUE(on.is_ok());
  int changed = 0;
  for (const auto& [path, contents] : on.value()) {
    auto it = off.value().find(path);
    if (it == off.value().end() || it->second != contents) ++changed;
  }
  EXPECT_GE(changed, 4) << "scheduling should crosscut several units";
  EXPECT_NE(on.value().at("hooks.hpp").find("classify_priority"),
            std::string::npos);
  EXPECT_EQ(off.value().at("hooks.hpp").find("classify_priority"),
            std::string::npos);
}

TEST(NServerTemplate, StatsExportOffEmitsNoAdminCode) {
  const auto tmpl = make_nserver_template();
  // Presets default to stats_export=none: no admin unit, no admin wiring.
  auto off = tmpl.render_all(nserver_http_options(),
                             {{"app_name", "A"}, {"listen_port", "0"}});
  ASSERT_TRUE(off.is_ok());
  EXPECT_FALSE(off.value().count("admin_config.hpp"));
  EXPECT_EQ(off.value().at("server_main.cpp").find("StatsExport"),
            std::string::npos);
  EXPECT_NE(off.value().at("traits.hpp").find("kAdminExport = false"),
            std::string::npos);
}

TEST(NServerTemplate, StatsExportOnGeneratesAdminWiring) {
  const auto tmpl = make_nserver_template();
  auto with = nserver_http_options();
  with.set("profiling", "yes");
  with.set("stats_export", "admin_http");
  auto on = tmpl.render_all(with, {{"app_name", "A"}, {"listen_port", "0"}});
  ASSERT_TRUE(on.is_ok()) << on.status().to_string();
  ASSERT_TRUE(on.value().count("admin_config.hpp"));
  EXPECT_NE(on.value().at("admin_config.hpp").find("kAdminHost"),
            std::string::npos);
  const auto& main_cpp = on.value().at("server_main.cpp");
  EXPECT_NE(main_cpp.find("StatsExport::kAdminHttp"), std::string::npos);
  EXPECT_NE(main_cpp.find("#include \"admin_config.hpp\""),
            std::string::npos);
  EXPECT_NE(on.value().at("traits.hpp").find("kAdminExport = true"),
            std::string::npos);
}

// The reply path and the buffer path are fixed (sendfile for files of
// 256 KiB or more, writev otherwise; pooled buffers), so their former S1/S2
// options crosscut nothing: each generated unit is emitted for every option
// set, and neither the matrix, the traits nor server_main mentions them.
void expect_retired_option_crosscuts_nothing(const std::string& option,
                                             const std::string& unit_file,
                                             const std::string& constant) {
  const auto tmpl = make_nserver_template();
  auto matrix = tmpl.crosscut();
  ASSERT_TRUE(matrix.is_ok());
  for (const auto& [unit, row] : matrix.value()) {
    EXPECT_EQ(row.count(option), 0u) << unit;
  }
  for (const auto& preset : {nserver_http_options(), nserver_ftp_options()}) {
    auto rendered =
        tmpl.render_all(preset, {{"app_name", "A"}, {"listen_port", "0"}});
    ASSERT_TRUE(rendered.is_ok()) << rendered.status().to_string();
    ASSERT_TRUE(rendered.value().count(unit_file)) << unit_file;
    EXPECT_NE(rendered.value().at(unit_file).find(constant),
              std::string::npos);
    const auto& main_cpp = rendered.value().at("server_main.cpp");
    EXPECT_NE(main_cpp.find("#include \"" + unit_file + "\""),
              std::string::npos);
    EXPECT_EQ(main_cpp.find(option), std::string::npos);
    EXPECT_EQ(rendered.value().at("README.md").find(option),
              std::string::npos);
  }
}

TEST(NServerTemplate, SendPathOptionCrosscutsGeneratedUnits) {
  expect_retired_option_crosscuts_nothing("send_path", "send_config.hpp",
                                          "kSendfileMinBytes = 256u * 1024u");
  auto rendered = make_nserver_template().render_all(
      nserver_http_options(), {{"app_name", "A"}, {"listen_port", "0"}});
  ASSERT_TRUE(rendered.is_ok());
  EXPECT_EQ(rendered.value().at("traits.hpp").find("kZeroCopySend"),
            std::string::npos);
  EXPECT_EQ(rendered.value().at("traits.hpp").find("kSendfile"),
            std::string::npos);
}

TEST(NServerTemplate, SendPathAppendsWithoutRenumbering) {
  // No S1 column: the post-paper S3 follows O11+ directly, keeping its label,
  // and the README option table has no S1 row.
  const auto tmpl = make_nserver_template();
  std::vector<std::string> labels;
  for (const auto& spec : tmpl.options().specs()) labels.push_back(spec.label);
  const auto stats = std::find(labels.begin(), labels.end(),
                               "O11+: Statistics export");
  ASSERT_NE(stats, labels.end());
  ASSERT_NE(stats + 1, labels.end());
  EXPECT_EQ(*(stats + 1), "S3: Body framing");
  auto rendered = tmpl.render_all(nserver_http_options(),
                                  {{"app_name", "A"}, {"listen_port", "0"}});
  ASSERT_TRUE(rendered.is_ok());
  const auto& readme = rendered.value().at("README.md");
  EXPECT_EQ(readme.find("S1 "), std::string::npos);
  EXPECT_EQ(readme.find("send-reply path"), std::string::npos);
  const size_t stats_row = readme.find("O11+ statistics export");
  const size_t framing_row = readme.find("S3 body framing");
  ASSERT_NE(stats_row, std::string::npos);
  ASSERT_NE(framing_row, std::string::npos);
  EXPECT_LT(stats_row, framing_row);
}

TEST(NServerTemplate, BufferMgmtOptionCrosscutsGeneratedUnits) {
  expect_retired_option_crosscuts_nothing(
      "buffer_mgmt", "buffer_config.hpp",
      "kReadBufferBlockBytes = 16u * 1024u");
  auto rendered = make_nserver_template().render_all(
      nserver_ftp_options(), {{"app_name", "A"}, {"listen_port", "0"}});
  ASSERT_TRUE(rendered.is_ok());
  EXPECT_EQ(rendered.value().at("traits.hpp").find("kPooledBuffers"),
            std::string::npos);
  EXPECT_EQ(rendered.value().at("server_main.cpp").find("read_buffer"),
            std::string::npos);
}

TEST(NServerTemplate, BufferMgmtAppendsWithoutRenumbering) {
  // No S2 column or README row either; S3-S5 keep their labels.
  const auto tmpl = make_nserver_template();
  for (const auto& spec : tmpl.options().specs()) {
    EXPECT_NE(spec.label.rfind("S2:", 0), 0u) << spec.label;
  }
  auto rendered = tmpl.render_all(nserver_http_options(),
                                  {{"app_name", "A"}, {"listen_port", "0"}});
  ASSERT_TRUE(rendered.is_ok());
  const auto& readme = rendered.value().at("README.md");
  EXPECT_EQ(readme.find("S2 "), std::string::npos);
  EXPECT_EQ(readme.find("buffer management"), std::string::npos);
  for (const char* row :
       {"S3 body framing", "S4 proxy upstream", "S5 overload"}) {
    EXPECT_NE(readme.find(row), std::string::npos) << row;
  }
}

// An options file written for the old template (like the shipped presets
// before the S1/S2 rows went) names send_path and buffer_mgmt; generation
// must reject each as an unknown option instead of silently ignoring it.
TEST(NServerTemplate, OptionsFileNamingRetiredOptionsIsRejected) {
  const auto tmpl = make_nserver_template();
  for (const char* preset : {"cops_http.options", "cops_ftp.options"}) {
    auto shipped = ConfigFile::load(std::string(COPS_SOURCE_DIR) +
                                    "/presets/" + preset);
    ASSERT_TRUE(shipped.is_ok()) << preset;
    OptionSet options;
    for (const auto& [key, value] : shipped.value().entries()) {
      options.set(key, value);
    }
    EXPECT_TRUE(
        tmpl.options().validate(tmpl.options().with_defaults(options)).empty())
        << preset;
  }
  for (const char* line : {"send_path = writev", "send_path = sendfile",
                           "buffer_mgmt = pooled",
                           "buffer_mgmt = per_request"}) {
    auto file = ConfigFile::parse(std::string("dispatcher_threads = 1\n") +
                                  line + "\n");
    ASSERT_TRUE(file.is_ok()) << line;
    OptionSet options;
    for (const auto& [key, value] : file.value().entries()) {
      options.set(key, value);
    }
    const std::string name(line, std::string_view(line).find(' '));
    const auto problems =
        tmpl.options().validate(tmpl.options().with_defaults(options));
    ASSERT_EQ(problems.size(), 1u) << line;
    EXPECT_EQ(problems[0], "unknown option '" + name + "'");
    EXPECT_FALSE(
        tmpl.render_all(options, {{"app_name", "A"}, {"listen_port", "0"}})
            .is_ok())
        << line;
  }
}

TEST(NServerTemplate, BodyFramingOptionCrosscutsGeneratedUnits) {
  const auto tmpl = make_nserver_template();
  // Both presets default to content_length (zero behaviour change for the
  // paper's servers); flipping to chunked emits the framing unit and wires
  // the chunked reply path.
  auto cl_set = nserver_http_options();
  auto chunked_set = cl_set;
  chunked_set.set("body_framing", "chunked");
  auto off = tmpl.render_all(cl_set, {{"app_name", "A"}, {"listen_port", "0"}});
  auto on = tmpl.render_all(chunked_set,
                            {{"app_name", "A"}, {"listen_port", "0"}});
  ASSERT_TRUE(off.is_ok());
  ASSERT_TRUE(on.is_ok());
  EXPECT_TRUE(on.value().count("framing_config.hpp"));
  EXPECT_FALSE(off.value().count("framing_config.hpp"));
  EXPECT_NE(on.value().at("traits.hpp").find("kChunkedReplies = true"),
            std::string::npos);
  EXPECT_NE(off.value().at("traits.hpp").find("kChunkedReplies = false"),
            std::string::npos);
  EXPECT_NE(
      on.value().at("server_main.cpp").find("BodyFraming::kChunked"),
      std::string::npos);
  EXPECT_NE(
      off.value().at("server_main.cpp").find("BodyFraming::kContentLength"),
      std::string::npos);
  EXPECT_NE(on.value().at("framing_config.hpp").find("kChunkedMinBytes"),
            std::string::npos);
  EXPECT_NE(on.value().at("server_main.cpp").find("chunked_min_bytes"),
            std::string::npos);
  // Both shipped presets stay on content_length.
  EXPECT_EQ(nserver_http_options().get("body_framing"), "content_length");
  EXPECT_EQ(nserver_ftp_options().get("body_framing"), "content_length");
}

TEST(NServerTemplate, BodyFramingAppendsWithoutRenumbering) {
  // body_framing joins Table 2 as its own column while everything already
  // there stays put; in the README option table it rows after O11+.
  const auto tmpl = make_nserver_template();
  auto matrix = tmpl.crosscut();
  ASSERT_TRUE(matrix.is_ok());
  EXPECT_TRUE(matrix.value().at("Body Framing").at("body_framing").existence);
  auto rendered = tmpl.render_all(nserver_http_options(),
                                  {{"app_name", "A"}, {"listen_port", "0"}});
  ASSERT_TRUE(rendered.is_ok());
  const auto& readme = rendered.value().at("README.md");
  const size_t stats_row = readme.find("O11+ statistics export");
  const size_t framing_row = readme.find("S3 body framing");
  ASSERT_NE(stats_row, std::string::npos);
  ASSERT_NE(framing_row, std::string::npos);
  EXPECT_LT(stats_row, framing_row) << "body_framing must append after O11+";
}

TEST(NServerTemplate, ProxyUpstreamOptionCrosscutsGeneratedUnits) {
  const auto tmpl = make_nserver_template();
  // Both presets default to per_request (zero behaviour change for the
  // paper's servers); flipping to pooled emits the proxy unit and wires the
  // pooled upstream mode + cap into the options block.
  auto per_request_set = nserver_http_options();
  auto pooled_set = per_request_set;
  pooled_set.set("proxy_upstream", "pooled");
  auto off = tmpl.render_all(per_request_set,
                             {{"app_name", "A"}, {"listen_port", "0"}});
  auto on =
      tmpl.render_all(pooled_set, {{"app_name", "A"}, {"listen_port", "0"}});
  ASSERT_TRUE(off.is_ok());
  ASSERT_TRUE(on.is_ok());
  EXPECT_TRUE(on.value().count("proxy_config.hpp"));
  EXPECT_FALSE(off.value().count("proxy_config.hpp"));
  EXPECT_NE(on.value().at("traits.hpp").find("kPooledUpstream = true"),
            std::string::npos);
  EXPECT_NE(off.value().at("traits.hpp").find("kPooledUpstream = false"),
            std::string::npos);
  EXPECT_NE(on.value().at("server_main.cpp").find("UpstreamMode::kPooled"),
            std::string::npos);
  EXPECT_NE(
      off.value().at("server_main.cpp").find("UpstreamMode::kPerRequest"),
      std::string::npos);
  EXPECT_NE(on.value().at("proxy_config.hpp").find("kUpstreamPoolCap"),
            std::string::npos);
  EXPECT_NE(on.value().at("server_main.cpp").find("upstream_pool_cap"),
            std::string::npos);
  // Both shipped presets stay on per_request.
  EXPECT_EQ(nserver_http_options().get("proxy_upstream"), "per_request");
  EXPECT_EQ(nserver_ftp_options().get("proxy_upstream"), "per_request");
}

TEST(NServerTemplate, ProxyUpstreamAppendsWithoutRenumbering) {
  // proxy_upstream joins Table 2 as its own column while everything already
  // there stays put; in the README option table it rows after body_framing.
  const auto tmpl = make_nserver_template();
  auto matrix = tmpl.crosscut();
  ASSERT_TRUE(matrix.is_ok());
  EXPECT_TRUE(
      matrix.value().at("Proxy Upstream").at("proxy_upstream").existence);
  EXPECT_TRUE(matrix.value().at("Body Framing").at("body_framing").existence);
  auto rendered = tmpl.render_all(nserver_http_options(),
                                  {{"app_name", "A"}, {"listen_port", "0"}});
  ASSERT_TRUE(rendered.is_ok());
  const auto& readme = rendered.value().at("README.md");
  const size_t framing_row = readme.find("S3 body framing");
  const size_t proxy_row = readme.find("S4 proxy upstream");
  ASSERT_NE(framing_row, std::string::npos);
  ASSERT_NE(proxy_row, std::string::npos);
  EXPECT_LT(framing_row, proxy_row) << "proxy_upstream must append after S3";
}

TEST(NServerTemplate, OverloadOptionCrosscutsGeneratedUnits) {
  const auto tmpl = make_nserver_template();
  // Both presets default to watermark (zero behaviour change for the
  // paper's servers); flipping to adaptive emits the overload unit and
  // wires the adaptive mode + control-loop knobs into the options block.
  auto watermark_set = nserver_http_options();
  auto adaptive_set = watermark_set;
  adaptive_set.set("overload_control", "yes");  // S5/O9 constraint
  adaptive_set.set("overload", "adaptive");
  auto off = tmpl.render_all(watermark_set,
                             {{"app_name", "A"}, {"listen_port", "0"}});
  auto on =
      tmpl.render_all(adaptive_set, {{"app_name", "A"}, {"listen_port", "0"}});
  ASSERT_TRUE(off.is_ok());
  ASSERT_TRUE(on.is_ok());
  EXPECT_TRUE(on.value().count("overload_config.hpp"));
  EXPECT_FALSE(off.value().count("overload_config.hpp"));
  EXPECT_NE(on.value().at("traits.hpp").find("kAdaptiveOverload = true"),
            std::string::npos);
  EXPECT_NE(off.value().at("traits.hpp").find("kAdaptiveOverload = false"),
            std::string::npos);
  EXPECT_NE(on.value().at("server_main.cpp").find("OverloadMode::kAdaptive"),
            std::string::npos);
  EXPECT_NE(
      off.value().at("server_main.cpp").find("OverloadMode::kWatermark"),
      std::string::npos);
  EXPECT_NE(on.value().at("overload_config.hpp").find("kOverloadTargetDelayMs"),
            std::string::npos);
  EXPECT_NE(on.value().at("server_main.cpp").find("overload_target_delay"),
            std::string::npos);
  // Both shipped presets stay on watermark.
  EXPECT_EQ(nserver_http_options().get("overload"), "watermark");
  EXPECT_EQ(nserver_ftp_options().get("overload"), "watermark");
}

TEST(NServerTemplate, OverloadAppendsWithoutRenumbering) {
  // overload joins Table 2 as its own column while everything already there
  // stays put; in the README option table it rows after proxy_upstream.
  const auto tmpl = make_nserver_template();
  auto matrix = tmpl.crosscut();
  ASSERT_TRUE(matrix.is_ok());
  EXPECT_TRUE(matrix.value().at("Overload Manager").at("overload").existence);
  EXPECT_TRUE(
      matrix.value().at("Proxy Upstream").at("proxy_upstream").existence);
  auto rendered = tmpl.render_all(nserver_http_options(),
                                  {{"app_name", "A"}, {"listen_port", "0"}});
  ASSERT_TRUE(rendered.is_ok());
  const auto& readme = rendered.value().at("README.md");
  const size_t proxy_row = readme.find("S4 proxy upstream");
  const size_t overload_row = readme.find("S5 overload");
  ASSERT_NE(proxy_row, std::string::npos);
  ASSERT_NE(overload_row, std::string::npos);
  EXPECT_LT(proxy_row, overload_row) << "overload must append after S4";
}

TEST(NServerTemplate, AcceptPathOptionCrosscutsGeneratedUnits) {
  // Every server has one listener on shard 0 and one cache tier, so the
  // retired S6 accept_path crosscuts nothing: no "Shard Accept" row in the
  // matrix, no shard unit, and neither the reuseport trait nor the L1 sizing
  // anywhere in the generated code.
  const auto tmpl = make_nserver_template();
  auto matrix = tmpl.crosscut();
  ASSERT_TRUE(matrix.is_ok());
  EXPECT_EQ(matrix.value().count("Shard Accept"), 0u);
  for (const auto& [unit, row] : matrix.value()) {
    EXPECT_EQ(row.count("accept_path"), 0u) << unit;
  }
  for (const auto& preset : {nserver_http_options(), nserver_ftp_options()}) {
    auto rendered =
        tmpl.render_all(preset, {{"app_name", "A"}, {"listen_port", "0"}});
    ASSERT_TRUE(rendered.is_ok()) << rendered.status().to_string();
    EXPECT_FALSE(rendered.value().count("shard_config.hpp"));
    for (const auto& [file, text] : rendered.value()) {
      EXPECT_EQ(text.find("kReuseportAccept"), std::string::npos) << file;
      EXPECT_EQ(text.find("kCacheL1"), std::string::npos) << file;
    }
  }
}

TEST(NServerTemplate, AcceptPathWithoutCacheSkipsL1Sizing) {
  // An options file still naming accept_path, with either old value, fails
  // as an unknown option instead of being silently ignored.
  const auto tmpl = make_nserver_template();
  for (const char* value : {"dispatch", "reuseport"}) {
    auto stale = nserver_http_options();
    stale.set("accept_path", value);
    const auto problems =
        tmpl.options().validate(tmpl.options().with_defaults(stale));
    ASSERT_EQ(problems.size(), 1u) << value;
    EXPECT_EQ(problems[0], "unknown option 'accept_path'");
    EXPECT_FALSE(
        tmpl.render_all(stale, {{"app_name", "A"}, {"listen_port", "0"}})
            .is_ok())
        << value;
  }
}

TEST(NServerTemplate, AcceptPathAppendsWithoutRenumbering) {
  // Table 2's columns end at S5 (the overload column), and the README option
  // table has no S6 row.
  const auto tmpl = make_nserver_template();
  ASSERT_FALSE(tmpl.options().specs().empty());
  EXPECT_EQ(tmpl.options().specs().back().label, "S5: Overload policy");
  auto rendered = tmpl.render_all(nserver_http_options(),
                                  {{"app_name", "A"}, {"listen_port", "0"}});
  ASSERT_TRUE(rendered.is_ok());
  const auto& readme = rendered.value().at("README.md");
  EXPECT_NE(readme.find("S5 overload"), std::string::npos);
  EXPECT_EQ(readme.find("S6"), std::string::npos);
  EXPECT_EQ(readme.find("accept path"), std::string::npos);
}

TEST(NServerTemplate, IoBackendAppendsWithoutRenumbering) {
  // The paper's O1-O12 (with the O11+ export column) keep Table 2's order
  // and the post-paper S3-S5 append after them.  There is no S7 column and
  // no S7 row in the generated README option table.
  const auto tmpl = make_nserver_template();
  std::vector<std::string> columns;
  for (const auto& spec : tmpl.options().specs()) {
    columns.push_back(spec.label.substr(0, spec.label.find(':')));
  }
  const std::vector<std::string> table2 = {
      "O1", "O2",   "O3", "O4", "O5", "O6", "O7", "O8", "O9", "O10",
      "O11", "O12", "O11+", "S3", "S4", "S5"};
  EXPECT_EQ(columns, table2);
  auto rendered = tmpl.render_all(nserver_http_options(),
                                  {{"app_name", "A"}, {"listen_port", "0"}});
  ASSERT_TRUE(rendered.is_ok());
  const auto& readme = rendered.value().at("README.md");
  EXPECT_NE(readme.find("S5 overload"), std::string::npos);
  EXPECT_EQ(readme.find("S7"), std::string::npos);
}

TEST(NServerTemplate, IoBackendOptionCrosscutsGeneratedUnits) {
  // epoll is the only I/O backend, so io_backend crosscuts nothing: no
  // "I/O Backend" row in the matrix, no io_config unit or backend trait in
  // the generated code, and an options file still naming io_backend fails
  // as an unknown option instead of being silently ignored.
  const auto tmpl = make_nserver_template();
  auto matrix = tmpl.crosscut();
  ASSERT_TRUE(matrix.is_ok());
  EXPECT_EQ(matrix.value().count("I/O Backend"), 0u);
  for (const auto& [unit, row] : matrix.value()) {
    EXPECT_EQ(row.count("io_backend"), 0u) << unit;
  }
  auto rendered = tmpl.render_all(nserver_http_options(),
                                  {{"app_name", "A"}, {"listen_port", "0"}});
  ASSERT_TRUE(rendered.is_ok());
  EXPECT_FALSE(rendered.value().count("io_config.hpp"));
  EXPECT_EQ(rendered.value().at("traits.hpp").find("kUringBackend"),
            std::string::npos);
  EXPECT_EQ(rendered.value().at("server_main.cpp").find("io_backend"),
            std::string::npos);

  auto stale = nserver_http_options();
  stale.set("io_backend", "epoll");
  const auto problems =
      tmpl.options().validate(tmpl.options().with_defaults(stale));
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_EQ(problems[0], "unknown option 'io_backend'");
  EXPECT_FALSE(
      tmpl.render_all(stale, {{"app_name", "A"}, {"listen_port", "0"}})
          .is_ok());
}

TEST(NServerTemplate, ConstraintRejectsAdaptiveOverloadWithoutO9) {
  const auto tmpl = make_nserver_template();
  auto bad = nserver_http_options();
  bad.set("overload_control", "no");
  bad.set("overload", "adaptive");
  EXPECT_FALSE(
      tmpl.render_all(bad, {{"app_name", "X"}, {"listen_port", "0"}}).is_ok());
}

TEST(NServerTemplate, ConstraintRejectsExportWithoutProfiling) {
  const auto tmpl = make_nserver_template();
  auto bad = nserver_http_options();
  bad.set("profiling", "no");
  bad.set("stats_export", "admin_http");
  EXPECT_FALSE(
      tmpl.render_all(bad, {{"app_name", "X"}, {"listen_port", "0"}}).is_ok());
}

TEST(NServerTemplate, CrosscutMatrixMatchesTable2Anchors) {
  const auto tmpl = make_nserver_template();
  auto matrix = tmpl.crosscut();
  ASSERT_TRUE(matrix.is_ok());
  const auto& m = matrix.value();
  // Table 2 anchor points: Completion Event exists per O4; Processor
  // Controller exists per O5; Cache exists per O6 and depends on O11;
  // Event depends on O4 and O8.
  EXPECT_TRUE(m.at("Completion Event").at("completion").existence);
  EXPECT_TRUE(m.at("Processor Controller").at("thread_alloc").existence);
  EXPECT_TRUE(m.at("Cache").at("file_cache").existence);
  EXPECT_TRUE(m.at("Cache").at("profiling").body);
  EXPECT_TRUE(m.at("Event").at("event_scheduling").body);
  EXPECT_TRUE(m.at("Event").at("completion").body);
}

TEST(NServerTemplate, FormatCrosscutTableRenders) {
  const auto tmpl = make_nserver_template();
  auto table = tmpl.format_crosscut_table();
  ASSERT_TRUE(table.is_ok());
  EXPECT_NE(table.value().find("Reactor"), std::string::npos);
  EXPECT_NE(table.value().find("O12"), std::string::npos);
}

TEST(NServerTemplate, GenerateWritesFilesAndStats) {
  const auto tmpl = make_nserver_template();
  test::TempDir out;
  auto report = tmpl.generate(nserver_http_options(), out.str(),
                              {{"app_name", "GenApp"}, {"listen_port", "0"}});
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_GE(report.value().files.size(), 10u);
  EXPECT_GT(report.value().totals.ncss, 50);
  std::ifstream in(out.str() + "/server_main.cpp");
  ASSERT_TRUE(in.good());
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("GenApp"), std::string::npos);
  EXPECT_NE(contents.find("CachePolicyKind::kLru"), std::string::npos);
}

// ---- the generic Reactor pattern template -------------------------------------

TEST(ReactorTemplate, FindPatternResolvesBuiltins) {
  EXPECT_TRUE(find_pattern("nserver").has_value());
  EXPECT_TRUE(find_pattern("reactor").has_value());
  EXPECT_FALSE(find_pattern("unknown").has_value());
}

TEST(ReactorTemplate, RendersWithDefaults) {
  const auto tmpl = make_reactor_template();
  auto rendered = tmpl.render_all({}, {{"app_name", "Sim"}});
  ASSERT_TRUE(rendered.is_ok()) << rendered.status().to_string();
  EXPECT_TRUE(rendered.value().count("event_loop_main.cpp"));
  EXPECT_TRUE(rendered.value().count("handlers.hpp"));
  // Timers default on: the periodic-timer wiring and hook are generated.
  EXPECT_NE(rendered.value().at("event_loop_main.cpp").find("run_after"),
            std::string::npos);
  EXPECT_NE(rendered.value().at("handlers.hpp").find("on_timer"),
            std::string::npos);
}

TEST(ReactorTemplate, TimersOffPrunesTimerCode) {
  const auto tmpl = make_reactor_template();
  OptionSet options;
  options.set("timers", "no");
  auto rendered = tmpl.render_all(options, {{"app_name", "Sim"}});
  ASSERT_TRUE(rendered.is_ok());
  EXPECT_EQ(rendered.value().at("event_loop_main.cpp").find("run_after"),
            std::string::npos);
  EXPECT_EQ(rendered.value().at("handlers.hpp").find("on_timer"),
            std::string::npos);
}

TEST(ReactorTemplate, SchedulingNeedsWorkerPool) {
  const auto tmpl = make_reactor_template();
  OptionSet options;
  options.set("worker_pool", "no");
  options.set("event_scheduling", "yes");
  EXPECT_FALSE(tmpl.render_all(options, {{"app_name", "X"}}).is_ok());
}

TEST(ReactorTemplate, GeneratedLoopCompiles) {
  const auto tmpl = make_reactor_template();
  test::TempDir out;
  auto report = tmpl.generate({}, out.str(), {{"app_name", "SimApp"}});
  ASSERT_TRUE(report.is_ok());
  const std::string compile = "g++ -fsyntax-only -std=c++20 -I " +
                              std::string(COPS_SOURCE_DIR) + "/src -I " +
                              out.str() + " " + out.str() +
                              "/event_loop_main.cpp 2>/dev/null";
  EXPECT_EQ(std::system(compile.c_str()), 0) << compile;
}

// The flagship property: every generated scaffold compiles.  This pins the
// whole chain — option validation, conditional inclusion, substitution —
// against the real headers.
class ScaffoldCompileTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(ScaffoldCompileTest, GeneratedCodeCompiles) {
  const std::string which = GetParam();
  const auto tmpl = make_nserver_template();
  OptionSet options;
  if (which == "http") {
    options = nserver_http_options();
  } else if (which == "ftp") {
    options = nserver_ftp_options();
  } else if (which == "scheduling_debug") {
    options = nserver_http_options();
    options.set("event_scheduling", "yes");
    options.set("overload_control", "yes");
    options.set("mode", "debug");
    options.set("profiling", "yes");
    options.set("logging", "yes");
    options.set("shutdown_long_idle", "yes");
    options.set("file_cache", "custom");
  } else {  // raw: no encode/decode, inline dispatch
    options = nserver_http_options();
    options.set("encode_decode", "no");
    options.set("separate_pool", "no");
    options.set("file_cache", "none");
  }
  test::TempDir out;
  auto report = tmpl.generate(options, out.str(),
                              {{"app_name", "Scaffold"}, {"listen_port", "0"}});
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();

  const std::string compile = "g++ -fsyntax-only -std=c++20 -I " +
                              std::string(COPS_SOURCE_DIR) + "/src -I " +
                              out.str() + " " + out.str() +
                              "/server_main.cpp " + out.str() +
                              "/hooks.cpp 2>/dev/null";
  EXPECT_EQ(std::system(compile.c_str()), 0) << compile;
}

INSTANTIATE_TEST_SUITE_P(Presets, ScaffoldCompileTest,
                         ::testing::Values("http", "ftp", "scheduling_debug",
                                           "raw"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace cops::gdp
