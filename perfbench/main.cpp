// COPS-HTTP loopback benchmark: the paper's COPS-HTTP preset
// (CopsHttpServer::default_options(), unchanged) serving a SpecWeb99-style
// fileset to one in-process client thread.  README.md in this directory
// describes the workloads and metrics.
//
//   cops_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--fixture DIR] [--commit ID]
//
// --trace 0 reports the end-to-end metrics over one measured window.
// --trace 1 runs an untraced and then a traced half-window and reports the
// per-layer metrics.  The last stdout
// line is one JSON object {correct, attempted, failed, metrics}; the exit
// code is nonzero when any reply was wrong or a consistency check failed.
#include <sched.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "client.hpp"
#include "http/http_server.hpp"
#include "loadgen/fileset.hpp"
#include "net/uring.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

// The paper's fileset: 41 directories of ~5 MB, 204.8 MB in all.
constexpr size_t kDirectories = 41;
// The measured window is cut into this many slices, and each slice runs on
// the next CPU in turn (run_phase).  End-to-end metrics cover the whole
// window: with slices from faster and slower CPUs a median over slices
// would jump between the two groups.
constexpr int kSlices = 20;
// Set-up is timed on this many fresh servers per slice, after a few untimed
// ones that take the process's one-time costs (page faults, lazy binding).
constexpr int kSetupWarmups = 5;
constexpr int kSetupPerSlice = 5;
// How far the five spans may sit from the client's send -> last byte time.
constexpr double kSpanCoverageTolerance = 0.10;

struct Workload {
  const char* name;
  Fixture::Mix mix;
  size_t connections;
  int requests_per_connection;  // 0 = keep-alive for the whole run
  double arrival_rate;          // 0 = closed loop
  double warmup_seconds;
};

// The closed loops hold one connection, so one request at a time moves
// through the client, dispatcher and processor threads.
constexpr Workload kWorkloads[] = {
    {"hot_keepalive", Fixture::Mix::kHot, 1, 0, 0, 1.0},
    {"specweb_paper", Fixture::Mix::kSpecweb, 1, 5, 0, 2.0},
    // Not judged (README.md): a fixed arrival rate turns every slow spell of
    // a shared host into queueing, so its latency moves far more between
    // runs than any bound a change could be held to.
    {"specweb_open", Fixture::Mix::kSpecweb, 4, 0, 10000, 2.0},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string fixture = ".bench_build/fixture";
  std::string commit = "unknown";
};

bool parse_args(int argc, char** argv, Args& args) {
  if (argc % 2 == 0) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args.trace = std::atoi(value);
    } else if (key == "--fixture") {
      args.fixture = value;
    } else if (key == "--commit") {
      args.commit = value;
    } else {
      return false;
    }
  }
  return !args.workload.empty() && args.seconds > 0 &&
         (args.trace == 0 || args.trace == 1);
}

// Nearest-rank percentile of raw samples.
double percentile(std::vector<float> v, double q) {
  if (v.empty()) return 0;
  const auto rank = static_cast<size_t>(std::ceil(q * v.size()));
  const size_t k = rank == 0 ? 0 : rank - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(k), v.end());
  return v[k];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : (v[h - 1] + v[h]) / 2;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// The whole process, server and client, runs on one CPU at a time.  On a
// shared virtual machine a wakeup aimed at an idle virtual CPU waits until
// the host schedules that CPU: while the host was busy this cut throughput
// on four CPUs by half or more, and on one CPU by ~15%.  The virtual CPUs
// also differ in speed from minute to minute by up to ~20%, so the window
// visits each of them in turn.
std::vector<int> allowed_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  return cpus;
}

// Moves every thread of the process onto `cpu`.  Threads started later
// inherit the mask of the thread that starts them.
bool move_process_to(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  bool ok = ::sched_setaffinity(0, sizeof one, &one) == 0;
  for (const auto& t : sample_threads()) {
    ::sched_setaffinity(t.tid, sizeof one, &one);  // may have just exited
  }
  return ok;
}

double rss_peak_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

cops::nserver::ServerOptions server_options() {
  return cops::http::CopsHttpServer::default_options();
}

cops::http::HttpServerConfig http_config(const Fixture& fixture) {
  cops::http::HttpServerConfig config;
  config.doc_root = fixture.root();
  return config;
}

// ---- one measured phase ------------------------------------------------------

struct ServerCounters {
  uint64_t hits = 0, misses = 0, evictions = 0, l1_hits = 0, l1_misses = 0;
  uint64_t loads = 0;

  ServerCounters operator-(const ServerCounters& o) const {
    return {hits - o.hits,       misses - o.misses,
            evictions - o.evictions, l1_hits - o.l1_hits,
            l1_misses - o.l1_misses, loads - o.loads};
  }
};

ServerCounters read_server_counters(cops::nserver::Server& server) {
  ServerCounters c;
  if (auto* cache = server.cache()) {
    c.hits = cache->hits();
    c.misses = cache->misses();
    c.evictions = cache->evictions();
  }
  for (const auto& shard : server.stats_snapshot().shards) {
    c.l1_hits += shard.l1_hits;
    c.l1_misses += shard.l1_misses;
  }
  if (auto* io = server.file_service()) c.loads = io->completed();
  return c;
}

struct Phase {
  bool started = false;
  LoadResult load;
  std::vector<int64_t> server_cpu_ns;  // per slice, all but the client thread
  // Traced phase only, over the whole window.
  CounterTotals calls;
  ServerCounters server;
  int64_t dispatcher_cpu_ns = 0;
  int64_t processor_cpu_ns = 0;
  int64_t file_io_cpu_ns = 0;
  double queue_depth_sum = 0;
  uint64_t queue_samples = 0;
  uint64_t decode_calls = 0, decode_completions = 0, encode_calls = 0;
  uint64_t bytes_copied = 0;
  // Set-up times taken at the slice boundaries, when asked for.
  std::vector<double> setup_samples;
  bool setup_ok = true;
};

// Seconds from server construction until start() has returned and the first
// reply for `target` has arrived, for `repeats` fresh servers; appended to
// `samples` when given, else untimed warm-up.
void measure_setup(const Fixture& fixture, const Target& target, int repeats,
                   std::vector<double>* samples, bool& ok) {
  for (int r = 0; r < repeats; ++r) {
    const int64_t t0 = now_ns();
    cops::http::CopsHttpServer server(server_options(), http_config(fixture));
    ok = ok && server.start().is_ok() &&
         fetch_once(server.port(), target.url, target.size);
    if (samples != nullptr) samples->push_back((now_ns() - t0) / 1e9);
    server.stop();
  }
}

// `setup_target` set: at each slice boundary, on that slice's CPU, also time
// kSetupPerSlice fresh servers, so set-up is sampled across the whole window
// and every CPU rather than in one burst.
Phase run_phase(const Workload& w, const Fixture& fixture, bool traced,
                double seconds, int slices, uint64_t seed,
                const std::vector<int>& cpus, const Target* setup_target) {
  Phase phase;
  if (!move_process_to(cpus.front())) return phase;
  auto http_hooks =
      std::make_shared<cops::http::HttpAppHooks>(http_config(fixture));
  std::unique_ptr<SpanTable> spans;
  std::shared_ptr<TracingHooks> tracing;
  std::shared_ptr<cops::nserver::AppHooks> hooks = http_hooks;
  if (traced) {
    spans = std::make_unique<SpanTable>();
    tracing = std::make_shared<TracingHooks>(http_hooks, *spans);
    hooks = tracing;
  }
  cops::nserver::Server server(server_options(), hooks);
  if (!server.start().is_ok()) return phase;
  phase.started = true;

  const pid_t client = current_tid();
  std::vector<std::vector<ThreadSample>> threads(
      static_cast<size_t>(slices) + 1);
  CounterTotals calls_before;
  ServerCounters server_before;

  LoadConfig config;
  config.port = server.port();
  config.connections = w.connections;
  config.requests_per_connection = w.requests_per_connection;
  config.arrival_rate = w.arrival_rate;
  config.warmup_seconds = w.warmup_seconds;
  config.window_seconds = seconds;
  config.seed = seed;
  config.slices = slices;
  config.on_boundary = [&](int k) {
    if (traced && k == slices) {
      set_counting(false);
      phase.calls = counter_totals() - calls_before;
      phase.server = read_server_counters(server) - server_before;
    }
    threads[static_cast<size_t>(k)] = sample_threads();
    if (k < slices) {
      move_process_to(cpus[static_cast<size_t>(k) % cpus.size()]);
      if (setup_target != nullptr) {
        measure_setup(fixture, *setup_target, kSetupPerSlice,
                      &phase.setup_samples, phase.setup_ok);
      }
    }
    if (traced && k == 0) {
      server_before = read_server_counters(server);
      calls_before = counter_totals();
      set_counting(true);
    }
  };
  if (traced) {
    config.spans = spans.get();
    config.on_tick = [&] {
      phase.queue_depth_sum +=
          static_cast<double>(server.processor().queue_depth());
      ++phase.queue_samples;
    };
  }
  phase.load = run_load(fixture, config);
  server.stop();

  auto not_client = [&](const ThreadSample& t) { return t.tid != client; };
  for (size_t k = 0; k + 1 < threads.size(); ++k) {
    phase.server_cpu_ns.push_back(
        cpu_between(threads[k], threads[k + 1], not_client));
  }
  if (!traced) return phase;

  const auto& first = threads.front();
  const auto& last = threads.back();
  const std::vector<pid_t> hook_threads = tracing->hook_threads();
  auto is_processor = [&](const ThreadSample& t) {
    return std::find(hook_threads.begin(), hook_threads.end(), t.tid) !=
           hook_threads.end();
  };
  auto is_dispatcher = [](const ThreadSample& t) {
    return t.name.rfind("dispatch-", 0) == 0;
  };
  phase.dispatcher_cpu_ns = cpu_between(first, last, is_dispatcher);
  phase.processor_cpu_ns = cpu_between(first, last, is_processor);
  // What remains on the server side is the FileIoService pool.
  phase.file_io_cpu_ns = cpu_between(first, last, [&](const ThreadSample& t) {
    return not_client(t) && !is_dispatcher(t) && !is_processor(t);
  });
  phase.decode_calls = tracing->decode_calls();
  phase.decode_completions = tracing->decode_completions();
  phase.encode_calls = tracing->encode_calls();
  phase.bytes_copied = tracing->bytes_copied();
  return phase;
}

// ---- metrics and output --------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value;
  std::string base;  // the counts or samples the value was computed from
};

std::string counts(const std::string& a, double av, const std::string& b,
                   double bv) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "(%s=%.0f / %s=%.0f)", a.c_str(), av,
                b.c_str(), bv);
  return buf;
}

std::string samples(size_t n) { return "(n=" + std::to_string(n) + ")"; }

// End-to-end metrics of one slice (setup and memory are per run).
std::vector<Metric> slice_metrics(const SliceStats& s, double seconds,
                                  int64_t server_cpu_ns) {
  const double replies = static_cast<double>(s.replies);
  return {
      {"throughput_rps", "1/s", replies / seconds,
       counts("replies", replies, "seconds", seconds)},
      {"goodput_MBps", "MB/s", s.body_bytes / seconds / 1e6,
       counts("body_bytes", static_cast<double>(s.body_bytes), "seconds",
              seconds)},
      {"latency_p50_us", "us", percentile(s.latency_us, 0.50),
       samples(s.latency_us.size())},
      {"server_cpu_us_per_req", "us", ratio(server_cpu_ns / 1e3, replies),
       counts("server_cpu_us", server_cpu_ns / 1e3, "replies", replies)},
  };
}

std::vector<Metric> end_to_end(const Phase& p, double setup_s) {
  std::vector<std::vector<Metric>> per_slice;
  SliceStats window;
  int64_t window_cpu_ns = 0;
  for (size_t k = 0; k < p.load.slices.size(); ++k) {
    const SliceStats& s = p.load.slices[k];
    per_slice.push_back(
        slice_metrics(s, p.load.slice_seconds, p.server_cpu_ns[k]));
    window.replies += s.replies;
    window.body_bytes += s.body_bytes;
    window.latency_us.insert(window.latency_us.end(), s.latency_us.begin(),
                             s.latency_us.end());
    window_cpu_ns += p.server_cpu_ns[k];
  }
  std::vector<Metric> out = slice_metrics(
      window, p.load.slice_seconds * static_cast<double>(per_slice.size()),
      window_cpu_ns);
  for (size_t i = 0; i < out.size(); ++i) {
    std::string base = "(slices:";
    for (const auto& slice : per_slice) {
      char buf[32];
      std::snprintf(buf, sizeof buf, " %.5g", slice[i].value);
      base += buf;
    }
    out[i].base = base + ")";
  }
  out.push_back({"rss_peak_MB", "MB", rss_peak_mb(), "(VmHWM)"});
  out.push_back({"setup_s", "s", setup_s,
                 "(median of " + std::to_string(p.setup_samples.size()) +
                     " fresh servers, " + std::to_string(kSetupPerSlice) +
                     " per slice)"});
  return out;
}

std::vector<Metric> per_layer(const Phase& t, const Phase& untraced) {
  const auto& l = t.load;
  const double r = static_cast<double>(l.replies());
  const auto& c = t.calls.v;
  const auto& s = t.server;
  auto per_req = [&](const std::string& name, const std::string& what,
                     double count) {
    return Metric{name, "1/req", ratio(count, r),
                  counts(what, count, "replies", r)};
  };
  auto share = [](const std::string& name, const std::string& a, double av,
                  const std::string& b, double bv) {
    return Metric{name, "ratio", ratio(av, bv), counts(a, av, b, bv)};
  };
  auto cpu = [&](const std::string& name, int64_t ns) {
    return Metric{name, "us", ratio(ns / 1e3, r),
                  counts("cpu_us", ns / 1e3, "replies", r)};
  };
  std::vector<Metric> m;
  auto quantiles = [&](const std::string& name, const std::vector<float>& v) {
    m.push_back({name + "_p50", "us", percentile(v, 0.50), samples(v.size())});
    m.push_back({name + "_p99", "us", percentile(v, 0.99), samples(v.size())});
  };
  auto d = [](uint64_t v) { return static_cast<double>(v); };

  m.push_back(per_req("net.epoll_wait_per_req", "epoll_wait", d(c[kEpollWait])));
  m.push_back(per_req("net.epoll_ctl_per_req", "epoll_ctl", d(c[kEpollCtl])));
  m.push_back(per_req("net.recv_per_req", "recv", d(c[kRecv])));
  m.push_back(share("net.recv_eagain_ratio", "recv_eagain", d(c[kRecvEagain]),
                    "recv", d(c[kRecv])));
  m.push_back(per_req("net.send_per_req", "send", d(c[kSend])));
  m.push_back(share("net.send_partial_ratio", "send_partial",
                    d(c[kSendPartial]), "send", d(c[kSend])));
  m.push_back(per_req("net.wakeups_per_req", "eventfd_writes", d(c[kWakeup])));
  m.push_back(per_req("net.accept_per_req", "accept", d(c[kAccept])));
  m.push_back(cpu("dispatcher.cpu_us_per_req", t.dispatcher_cpu_ns));
  m.push_back(cpu("processor.cpu_us_per_req", t.processor_cpu_ns));
  m.push_back({"processor.queue_depth_mean", "events",
               ratio(t.queue_depth_sum, d(t.queue_samples)),
               counts("depth_sum", t.queue_depth_sum, "samples",
                      d(t.queue_samples))});
  quantiles("pipeline.pre_decode_us", l.spans.pre_decode);
  quantiles("pipeline.post_encode_us", l.spans.post_encode);
  quantiles("http.decode_us", l.spans.decode);
  m.push_back({"http.decode_calls_per_req", "1/req",
               ratio(d(t.decode_calls), d(t.decode_completions)),
               counts("decode_calls", d(t.decode_calls), "decoded_requests",
                      d(t.decode_completions))});
  quantiles("http.handle_us", l.spans.handle);
  quantiles("http.encode_us", l.spans.encode);
  m.push_back({"send.bytes_copied_per_req", "B/req",
               ratio(d(t.bytes_copied), d(t.encode_calls)),
               counts("bytes_copied", d(t.bytes_copied), "encode_calls",
                      d(t.encode_calls))});
  m.push_back(share("cache.hit_ratio", "hits", d(s.hits), "lookups",
                    d(s.hits + s.misses)));
  m.push_back(per_req("cache.evictions_per_req", "evictions", d(s.evictions)));
  m.push_back(share("cache.l1_hit_ratio", "l1_hits", d(s.l1_hits),
                    "l1_lookups", d(s.l1_hits + s.l1_misses)));
  m.push_back(per_req("file_io.loads_per_req", "loads", d(s.loads)));
  m.push_back(cpu("file_io.cpu_us_per_req", t.file_io_cpu_ns));
  m.push_back(per_req("alloc.count_per_req", "allocations", d(c[kAllocCount])));
  m.push_back({"alloc.bytes_per_req", "B/req", ratio(d(c[kAllocBytes]), r),
               counts("bytes", d(c[kAllocBytes]), "replies", r)});
  m.push_back(cpu("client.cpu_us_per_req", l.client_cpu_ns));
  const auto lateness = l.lateness_us();
  m.push_back({"client.lateness_us_p99", "us", percentile(lateness, 0.99),
               samples(lateness.size())});
  m.push_back(share("error_ratio", "failed", d(l.failed()), "attempted",
                    r + d(l.failed())));
  const double window = l.slice_seconds * l.slices.size();
  const double traced_rps = r / window;
  const double untraced_rps = d(untraced.load.replies()) /
                              (untraced.load.slice_seconds *
                               untraced.load.slices.size());
  m.push_back({"trace.overhead_rps_ratio", "ratio",
               ratio(untraced_rps - traced_rps, untraced_rps),
               counts("untraced_rps", untraced_rps, "traced_rps",
                      traced_rps)});
  const double traced_p50 = percentile(l.latency_us(), 0.5);
  const double untraced_p50 = percentile(untraced.load.latency_us(), 0.5);
  m.push_back({"trace.overhead_p50_ratio", "ratio",
               ratio(traced_p50 - untraced_p50, untraced_p50),
               counts("untraced_p50_us", untraced_p50, "traced_p50_us",
                      traced_p50)});
  m.push_back(share("trace.span_coverage", "span_sum_us", l.spans.span_sum_us,
                    "send_to_reply_us", l.spans.send_to_reply_us));
  return m;
}

void print_table(const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) {
    std::printf("  %-30s %14.4f %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.base.c_str());
  }
}

void print_result(bool correct, uint64_t attempted, uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(std::max<uint64_t>(attempted, 1));
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " +
           json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void print_environment(const Args& args, const Workload& w,
                       const std::vector<int>& cpus) {
  utsname uts{};
  ::uname(&uts);
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const auto options = server_options();
  cops::loadgen::FilesetConfig fileset;
  fileset.directories = kDirectories;
  std::string env = "{\"commit\": " + json_string(args.commit);
  env += ", \"build_type\": " + json_string(build_type);
  if (build_type != "Release") {
    env += ", \"warning\": \"not a Release build: figures are not comparable\"";
  }
#if defined(__clang__)
  env += ", \"compiler\": " + json_string("clang " __clang_version__);
#else
  env += ", \"compiler\": " + json_string("gcc " __VERSION__);
#endif
  env += ", \"nproc\": " + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN));
  env += ", \"cpus_in_turn\": " + std::to_string(cpus.size());
  env += ", \"kernel\": " + json_string(uts.release);
  env += ", \"io_uring_probe\": " +
         std::string(cops::net::uring_available() ? "true" : "false");
  env += ", \"io_backend\": " +
         json_string(cops::nserver::to_string(options.io_backend));
  env += ", \"fileset_bytes\": " +
         std::to_string(cops::loadgen::fileset_bytes(fileset));
  env += ", \"cache_capacity_bytes\": " +
         std::to_string(options.cache_capacity_bytes);
  env += ", \"workload\": " + json_string(w.name);
  env += ", \"seed\": " + std::to_string(args.seed);
  env += ", \"seconds\": " + json_number(args.seconds);
  env += ", \"trace\": " + std::to_string(args.trace) + "}";
  std::printf("environment %s\n", env.c_str());
}

void print_errors(const LoadResult& l) {
  if (!l.first_error.empty()) {
    std::printf("first error: %s\n", l.first_error.c_str());
  }
}

int run_untraced(const Args& args, const Workload& w, const Fixture& fixture,
                 uint32_t first_target, const std::vector<int>& cpus) {
  const Target& target = fixture.target(first_target);
  bool setup_ok = move_process_to(cpus.front());
  measure_setup(fixture, target, kSetupWarmups, nullptr, setup_ok);
  const Phase p = run_phase(w, fixture, false, args.seconds, kSlices,
                            args.seed, cpus, &target);
  if (!p.started) return 1;
  setup_ok = setup_ok && p.setup_ok;
  const double setup_s = median(p.setup_samples);
  const auto& l = p.load;
  const uint64_t replies = l.replies();
  const uint64_t failed = l.failed();
  std::printf("%s: %llu replies in %.1f s, %llu failed, %llu bodies "
              "compared byte for byte\n",
              w.name, static_cast<unsigned long long>(replies), args.seconds,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(l.bodies_compared));
  print_errors(l);
  const auto metrics = end_to_end(p, setup_s);
  print_table(metrics);
  // Not judged: the tail moves with host speed and stalls from run to run
  // (README.md).
  const auto latency = l.latency_us();
  for (const double q : {0.75, 0.90, 0.99}) {
    const std::string name =
        "latency_p" + std::to_string(static_cast<int>(q * 100)) + "_us";
    std::printf("  %-30s %14.4f %-8s %s\n", name.c_str(),
                percentile(latency, q), "us", samples(latency.size()).c_str());
  }
  std::printf("  %-30s %14.4f %-8s %s\n", "error_ratio",
              ratio(static_cast<double>(failed),
                    static_cast<double>(replies + failed)),
              "ratio",
              counts("failed", static_cast<double>(failed), "attempted",
                     static_cast<double>(replies + failed))
                  .c_str());
  const bool correct = setup_ok && l.failed_total == 0 && failed == 0 &&
                       replies > 0;
  print_result(correct, replies + failed, failed, metrics);
  return correct ? 0 : 1;
}

int run_traced(const Args& args, const Workload& w, const Fixture& fixture,
               const std::vector<int>& cpus) {
  // An untraced half-window is the reference for the tracing overhead.
  const Phase untraced =
      run_phase(w, fixture, false, args.seconds / 2, 1, args.seed, cpus,
                nullptr);
  const Phase traced =
      run_phase(w, fixture, true, args.seconds / 2, 1, args.seed, cpus,
                nullptr);
  if (!untraced.started || !traced.started) return 1;
  const auto& l = traced.load;
  const uint64_t failed = l.failed() + untraced.load.failed();
  const uint64_t replies = l.replies() + untraced.load.replies();
  std::printf("%s traced: %llu replies in %.1f s, %llu failed\n", w.name,
              static_cast<unsigned long long>(l.replies()), args.seconds / 2,
              static_cast<unsigned long long>(failed));
  print_errors(untraced.load);
  print_errors(l);

  const bool counts_agree = l.replies_total == traced.decode_completions &&
                            l.replies_total == traced.encode_calls;
  std::printf("check replies: client=%llu decode_completions=%llu "
              "encode_reply_calls=%llu -> %s\n",
              static_cast<unsigned long long>(l.replies_total),
              static_cast<unsigned long long>(traced.decode_completions),
              static_cast<unsigned long long>(traced.encode_calls),
              counts_agree ? "ok" : "MISMATCH");
  const double coverage = ratio(l.spans.span_sum_us, l.spans.send_to_reply_us);
  const bool coverage_ok =
      std::fabs(1.0 - coverage) <= kSpanCoverageTolerance &&
      l.spans.missing == 0;
  std::printf("check spans: pre_decode+decode+handle+encode+post_encode = "
              "%.4f of client send->last byte (tolerance %.2f, %llu replies "
              "without stamps) -> %s\n",
              coverage, kSpanCoverageTolerance,
              static_cast<unsigned long long>(l.spans.missing),
              coverage_ok ? "ok" : "FAIL");
  const auto metrics = per_layer(traced, untraced);
  print_table(metrics);
  const bool correct = failed == 0 && untraced.load.failed_total == 0 &&
                       l.failed_total == 0 && l.replies() > 0 &&
                       counts_agree && coverage_ok;
  print_result(correct, replies + failed, failed, metrics);
  return correct ? 0 : 1;
}

int run(const Args& args) {
  const Workload* w = nullptr;
  for (const auto& candidate : kWorkloads) {
    if (args.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  mark_client_thread();
  const std::vector<int> cpus = allowed_cpus();
  if (cpus.empty() || !move_process_to(cpus.front())) {
    std::fprintf(stderr, "could not confine the process to one CPU\n");
    return 2;
  }
  print_environment(args, *w, cpus);

  cops::loadgen::FilesetConfig fileset;
  fileset.root = args.fixture;
  fileset.directories = kDirectories;
  if (auto st = cops::loadgen::generate_fileset(fileset); !st.is_ok()) {
    std::fprintf(stderr, "fixture: %s\n", st.to_string().c_str());
    return 2;
  }
  const Fixture fixture(args.fixture, kDirectories, w->mix);
  if (args.trace == 1) return run_traced(args, *w, fixture, cpus);
  std::mt19937_64 first_rng(args.seed);
  return run_untraced(args, *w, fixture, fixture.draw(first_rng), cpus);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload hot_keepalive|specweb_paper|"
                 "specweb_open --seed N --seconds S --trace 0|1 "
                 "[--fixture DIR] [--commit ID]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::run(args);
}
