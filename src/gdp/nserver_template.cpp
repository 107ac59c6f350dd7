// The N-Server pattern template definition: Table 1's options, their
// constraints, and the conditional template files whose instantiation is the
// "generated framework".
//
// Correspondence to the paper: CO₂P₃S emitted the entire framework source
// per option setting.  Here the invariant framework code is factored into
// the cops_nserver library and the generator emits the *varying* layer —
// compile-time traits, per-feature configuration headers, hook-method stubs
// and the server main — with feature code included or excluded at generation
// time.  The crosscut matrix over these units reproduces Table 2's structure
// (existence 'o' vs value-dependence '+').
#include "gdp/pattern_template.hpp"

namespace cops::gdp {
namespace {

OptionTable make_nserver_option_table() {
  OptionTable table;
  table.add({"dispatcher_threads", "O1: # of dispatcher threads",
             OptionType::kInt, {}, "1", 1, 64});
  table.add({"separate_pool", "O2: Separate thread pool for event handling",
             OptionType::kBool, {}, "yes"});
  table.add({"encode_decode", "O3: Encoding/Decoding required",
             OptionType::kBool, {}, "yes"});
  table.add({"completion", "O4: Completion events", OptionType::kEnum,
             {"asynchronous", "synchronous"}, "asynchronous"});
  table.add({"thread_alloc", "O5: Event thread allocation", OptionType::kEnum,
             {"static", "dynamic"}, "static"});
  table.add({"file_cache", "O6: File cache", OptionType::kEnum,
             {"none", "lru", "lfu", "lru-min", "lru-threshold", "hyper-g",
              "custom"},
             "none"});
  table.add({"shutdown_long_idle", "O7: Shutdown long idle", OptionType::kBool,
             {}, "no"});
  table.add({"event_scheduling", "O8: Event scheduling", OptionType::kBool,
             {}, "no"});
  table.add({"overload_control", "O9: Overload control", OptionType::kBool,
             {}, "no"});
  table.add({"mode", "O10: Mode", OptionType::kEnum,
             {"production", "debug"}, "production"});
  table.add({"profiling", "O11: Performance profiling", OptionType::kBool,
             {}, "no"});
  table.add({"logging", "O12: Logging", OptionType::kBool, {}, "no"});
  // O11+ — an extension beyond the paper's twelve: how the profiler's
  // statistics leave the process.  Appended after O12 so the Table 1/Table 2
  // column numbering of the original options is preserved.
  table.add({"stats_export", "O11+: Statistics export", OptionType::kEnum,
             {"none", "admin_http"}, "none"});
  // Proxy-upstream extension — appended after O11+, preserving the earlier
  // column numbering (S4 keeps its label): how a generated *proxy* tier
  // (src/proxy) obtains upstream connections.  `per_request` opens a fresh
  // backend connection per proxied exchange (the classical CGI-era shape);
  // `pooled` keeps completed keep-alive connections in per-backend pools
  // with caps, LIFO idle reuse, and a single stale-connection retry.  The
  // plain N-Server ignores the option; the proxy front end consumes it.
  table.add({"proxy_upstream", "S4: Proxy upstream connections",
             OptionType::kEnum, {"per_request", "pooled"}, "per_request"});
  // Overload-policy extension — appended after S4, again preserving the
  // earlier column numbering: which monitors and tiers the O9
  // OverloadManager control loop runs to decide it is overloaded.
  // `watermark` is the classical static queue-length gate (suspend accept
  // above the high mark, resume below the low); `adaptive` uses CoDel
  // queue-*delay* admission plus pluggable resource monitors driving
  // graduated actions (conserve → pause low priority → shed 503 +
  // Retry-After → stop accept) with EWMA smoothing and hysteresis.
  table.add({"overload", "S5: Overload policy", OptionType::kEnum,
             {"watermark", "adaptive"}, "watermark"});

  table.add_constraint(
      "O2/O8 interaction", [](const OptionSet& set) -> std::string {
        if (set.get_bool("event_scheduling") && !set.get_bool("separate_pool")) {
          return "event scheduling requires a separate processor pool";
        }
        return {};
      });
  table.add_constraint(
      "O2/O4 interaction", [](const OptionSet& set) -> std::string {
        if (set.get_or("completion", "") == "synchronous" &&
            !set.get_bool("separate_pool")) {
          return "synchronous completions would block the dispatcher";
        }
        return {};
      });
  table.add_constraint(
      "O11+/O11 interaction", [](const OptionSet& set) -> std::string {
        if (set.get_or("stats_export", "none") == "admin_http" &&
            !set.get_bool("profiling")) {
          return "the admin export serves the profiler's statistics; "
                 "enable profiling (O11)";
        }
        return {};
      });
  table.add_constraint(
      "S5/O9 interaction", [](const OptionSet& set) -> std::string {
        if (set.get_or("overload", "watermark") == "adaptive" &&
            !set.get_bool("overload_control")) {
          return "the adaptive overload manager is a refinement of the "
                 "overload controller; enable overload control (O9)";
        }
        return {};
      });
  return table;
}

// ---- template sources --------------------------------------------------------
// Unit names follow Table 2's class rows where the mapping is direct.

constexpr const char* kTraitsHpp = R"tmpl(// Generated by copsgen (N-Server pattern) for ${app_name}.
// Compile-time option traits: `if constexpr` on these prunes feature code
// from the hot path, the generative equivalent of CO2P3S's conditional code
// emission (no dynamic feature checks remain in the generated server).
#pragma once

namespace ${app_name}_traits {

inline constexpr int kDispatcherThreads = ${dispatcher_threads};
//% if separate_pool
inline constexpr bool kSeparateProcessorPool = true;
//% else
inline constexpr bool kSeparateProcessorPool = false;
//% end
//% if encode_decode
inline constexpr bool kEncodeDecode = true;
//% else
inline constexpr bool kEncodeDecode = false;
//% end
//% if completion == "asynchronous"
inline constexpr bool kAsyncCompletion = true;
//% else
inline constexpr bool kAsyncCompletion = false;
//% end
//% if thread_alloc == "dynamic"
inline constexpr bool kDynamicThreads = true;
//% else
inline constexpr bool kDynamicThreads = false;
//% end
//% if file_cache != "none"
inline constexpr bool kFileCache = true;
//% else
inline constexpr bool kFileCache = false;
//% end
//% if shutdown_long_idle
inline constexpr bool kShutdownLongIdle = true;
//% else
inline constexpr bool kShutdownLongIdle = false;
//% end
//% if event_scheduling
inline constexpr bool kEventScheduling = true;
//% else
inline constexpr bool kEventScheduling = false;
//% end
//% if overload_control
inline constexpr bool kOverloadControl = true;
//% else
inline constexpr bool kOverloadControl = false;
//% end
//% if mode == "debug"
inline constexpr bool kDebugMode = true;
//% else
inline constexpr bool kDebugMode = false;
//% end
//% if profiling
inline constexpr bool kProfiling = true;
//% else
inline constexpr bool kProfiling = false;
//% end
//% if logging
inline constexpr bool kLogging = true;
//% else
inline constexpr bool kLogging = false;
//% end
//% if stats_export == "admin_http"
inline constexpr bool kAdminExport = true;
//% else
inline constexpr bool kAdminExport = false;
//% end
//% if proxy_upstream == "pooled"
inline constexpr bool kPooledUpstream = true;
//% else
inline constexpr bool kPooledUpstream = false;
//% end
//% if overload == "adaptive"
inline constexpr bool kAdaptiveOverload = true;
//% else
inline constexpr bool kAdaptiveOverload = false;
//% end

}  // namespace ${app_name}_traits
)tmpl";

constexpr const char* kEventConfigHpp = R"tmpl(// Generated: Event layer configuration for ${app_name}.
#pragma once

#include <cstddef>

#include "nserver/event.hpp"

namespace ${app_name}_gen {

//% if event_scheduling
// Event scheduling (O8): priority levels and per-level quotas.  Higher
// priority = lower level index; quotas avoid starvation (paper, Section IV).
inline constexpr int kPriorityLevels = 2;
inline constexpr std::size_t kPriorityQuotas[kPriorityLevels] = {8, 1};
//% else
// Event scheduling disabled: all events share one FIFO level.
inline constexpr int kPriorityLevels = 1;
//% end
//% if completion == "asynchronous"
// Asynchronous completions (O4): service responses are matched back to
// their issuing connection with an Asynchronous Completion Token.
using CompletionToken = cops::nserver::CompletionToken;
//% end

}  // namespace ${app_name}_gen
)tmpl";

constexpr const char* kCompletionConfigHpp = R"tmpl(// Generated: asynchronous completion (Proactor emulation) configuration.
// Exists only when O4 = Asynchronous — Table 2's Completion / File Open /
// File Read Event rows.
#pragma once

namespace ${app_name}_gen {

// Threads in the emulated non-blocking file I/O pool.
inline constexpr std::size_t kFileIoThreads = 2;
//% if file_cache != "none"
// Completed reads are inserted into the file cache before dispatch (O6).
inline constexpr bool kCacheCompletedReads = true;
//% else
inline constexpr bool kCacheCompletedReads = false;
//% end

}  // namespace ${app_name}_gen
)tmpl";

constexpr const char* kProcessorConfigHpp = R"tmpl(// Generated: Event Processor configuration (exists when O2 = Yes).
#pragma once

#include <cstddef>

namespace ${app_name}_gen {

//% if thread_alloc == "dynamic"
// Dynamic allocation (O5): the Processor Controller resizes within bounds.
inline constexpr std::size_t kProcessorThreadsInitial = 2;
//% else
inline constexpr std::size_t kProcessorThreads = 2;
//% end
//% if event_scheduling
// The normal event queue is replaced by a quota priority queue (O8).
inline constexpr bool kPriorityQueue = true;
//% else
inline constexpr bool kPriorityQueue = false;
//% end
//% if overload_control
// Queue depth is exported to the overload controller (O9).
inline constexpr bool kExportQueueDepth = true;
//% end

}  // namespace ${app_name}_gen
)tmpl";

constexpr const char* kControllerConfigHpp = R"tmpl(// Generated: Processor Controller (exists when O5 = Dynamic).
#pragma once

#include <cstddef>

namespace ${app_name}_gen {

inline constexpr std::size_t kMinProcessorThreads = 1;
inline constexpr std::size_t kMaxProcessorThreads = 8;
inline constexpr std::size_t kGrowQueueThreshold = 4;
inline constexpr int kShrinkAfterIdleTicks = 10;

}  // namespace ${app_name}_gen
)tmpl";

constexpr const char* kCacheConfigHpp = R"tmpl(// Generated: transparent file cache (exists when O6 != None).
#pragma once

#include <cstddef>

#include "nserver/cache_policy.hpp"

namespace ${app_name}_gen {

inline constexpr std::size_t kCacheCapacityBytes = 20u * 1024u * 1024u;
inline constexpr const char* kCachePolicy = "${file_cache}";
//% if file_cache == "lru-threshold"
inline constexpr std::size_t kCacheSizeThreshold = 64u * 1024u;
//% end
//% if file_cache == "custom"
// Custom replacement policy hook (paper: "a programmer can implement a
// different cache replacement policy by simply adding code to a hook
// method").  Fill in the victim choice: the hook receives the live
// entries as a cops::nserver::CacheEntryList, most recently used first,
// and the incoming object's size, and returns the key to evict.
cops::nserver::CustomEvictionHook make_eviction_hook();
//% end
//% if profiling
// Profiling (O11) reports the cache hit rate.
inline constexpr bool kReportHitRate = true;
//% end

}  // namespace ${app_name}_gen
)tmpl";

constexpr const char* kReactorConfigHpp = R"tmpl(// Generated: Reactor / Event Dispatcher wiring for ${app_name}.
// The Reactor row of Table 2 crosscuts nearly every option; the generated
// wiring below is what varies.
#pragma once

#include <chrono>

namespace ${app_name}_gen {

inline constexpr int kDispatchers = ${dispatcher_threads};
//% if separate_pool
// Ready events are forwarded to the Event Processor (O2 = Yes).
inline constexpr bool kForwardToProcessor = true;
//% else
// SPED structure: the dispatcher runs handlers inline (O2 = No).
inline constexpr bool kForwardToProcessor = false;
//% end
//% if completion == "asynchronous"
inline constexpr bool kCompletionEventSource = true;
//% end
//% if event_scheduling
inline constexpr bool kClassifyBeforeDispatch = true;
//% end
//% if overload_control
// Watermark overload control (O9): suspend the Acceptor above the high
// watermark, resume below the low one.
inline constexpr std::size_t kQueueHighWatermark = 20;
inline constexpr std::size_t kQueueLowWatermark = 5;
//% end
//% if shutdown_long_idle
// Long-idle connections are reaped by a housekeeping timer (O7).
inline constexpr std::chrono::milliseconds kIdleTimeout{30000};
//% end
//% if mode == "debug"
inline constexpr bool kTraceInternalEvents = true;
//% end
//% if profiling
inline constexpr bool kProfileDispatch = true;
//% end
//% if logging
inline constexpr bool kLogDispatch = true;
//% end

}  // namespace ${app_name}_gen
)tmpl";

constexpr const char* kAcceptorConfigHpp = R"tmpl(// Generated: Acceptor Event Handler configuration.
#pragma once

#include <cstddef>

namespace ${app_name}_gen {

inline constexpr int kListenBacklog = 512;
//% if overload_control
// Overload mechanism 1 (O9): bound on simultaneous connections (0 = off).
inline constexpr std::size_t kMaxConnections = 0;
//% end
//% if logging
inline constexpr bool kLogAccepts = true;
//% end
//% if profiling
inline constexpr bool kCountAccepts = true;
//% end
//% if mode == "debug"
inline constexpr bool kTraceAccepts = true;
//% end

}  // namespace ${app_name}_gen
)tmpl";

constexpr const char* kAdminConfigHpp = R"tmpl(// Generated: admin/statistics endpoint (exists when O11+ = admin_http).
// A second listener on the shard-0 dispatcher serving the profiler's
// counters and stage histograms: /stats (Prometheus text), /stats.json,
// and /healthz.
#pragma once

#include <cstdint>

namespace ${app_name}_gen {

// Bind only on loopback by default: the admin surface exposes operational
// internals and has no authentication.
inline constexpr const char* kAdminHost = "127.0.0.1";
inline constexpr std::uint16_t kAdminPort = 0;  // 0 = kernel-assigned

}  // namespace ${app_name}_gen
)tmpl";

constexpr const char* kSendConfigHpp = R"tmpl(// Generated: segmented send path.
// The Send Reply step drains a queue of segments — owned header bytes plus
// refcounted body slices — with one scatter-gather writev per round instead
// of flattening each reply into a contiguous buffer; files of
// kSendfileMinBytes or more go out through sendfile(2).
#pragma once

#include <cstddef>

namespace ${app_name}_gen {

// Scatter-gather batch per writev call: enough for several pipelined
// header+body replies in one syscall.
inline constexpr int kSendIovBatch = 16;
// Files at or above this size bypass the in-memory cache and go out via
// sendfile(2) from an open descriptor; smaller files still populate the
// cache and are gathered by writev.
inline constexpr std::size_t kSendfileMinBytes = 256u * 1024u;
//% if profiling
// Profiling (O11) exports the send-path counters: writev calls, bytes
// materialised into owned buffers, bytes moved by sendfile.
inline constexpr bool kCountSendPath = true;
//% end

}  // namespace ${app_name}_gen
)tmpl";

constexpr const char* kBufferConfigHpp = R"tmpl(// Generated: pooled buffer management.
// Each shard owns a slab free-list for request contexts and a free-list of
// read-buffer backing stores; connections adopt a recycled buffer on accept
// and return it on close.  Decode hooks reuse a per-connection scratch
// request object, so a keep-alive request in steady state allocates nothing.
#pragma once

#include <cstddef>

namespace ${app_name}_gen {

// Backing-store block handed to each connection's read buffer.  Requests
// larger than a block still work — the buffer grows on the heap and the
// growth is counted as a pool miss.
inline constexpr std::size_t kReadBufferBlockBytes = 16u * 1024u;
// Context slab blocks added per pool-growth step.
inline constexpr std::size_t kCtxBlocksPerChunk = 64;
// Recycled read buffers kept per shard before excess ones are freed.
inline constexpr std::size_t kReadBufferMaxFree = 64;
//% if profiling
// Profiling (O11) exports the recycler counters: pool hits, pool misses,
// total heap bytes acquired by the pools.
inline constexpr bool kCountPools = true;
//% end

}  // namespace ${app_name}_gen
)tmpl";

constexpr const char* kProxyConfigHpp = R"tmpl(// Generated: pooled upstream connections (exists when proxy_upstream = pooled).
// A proxy tier built from this instance (cops::proxy::ProxyServer) keeps
// completed upstream keep-alive connections in per-backend pools instead of
// opening one per proxied exchange: caps bound the connection count, idle
// reuse is LIFO (the hottest socket stays in rotation), and a reused
// connection that dies before its first response byte is retried exactly
// once on a fresh connection.
#pragma once

#include <cstddef>

namespace ${app_name}_gen {

// Per-backend connection cap (in-flight + idle) and idle-list bound.
inline constexpr std::size_t kUpstreamPoolCap = 8;
inline constexpr std::size_t kUpstreamPoolMaxIdle = 8;
// Request bytes retained for the stale-connection replay, per exchange.
inline constexpr std::size_t kUpstreamRetryBufferBytes = 64u * 1024u;
//% if profiling
// Profiling (O11) exports the pool counters (reuse / miss / stale retry).
inline constexpr bool kCountUpstreamPool = true;
//% end

}  // namespace ${app_name}_gen
)tmpl";

constexpr const char* kOverloadConfigHpp = R"tmpl(// Generated: adaptive overload manager (exists when overload = adaptive).
// Replaces the static queue-length watermarks with the OverloadManager
// control loop: CoDel-style queue-delay admission (sliding minimum over the
// interval vs. a target) plus resource monitors (connections, pool miss
// rate, heap bytes) mapped to 0-1 pressure, EWMA-smoothed, driving four
// graduated action tiers with hysteresis — conserve (shrink keep-alive idle
// timeouts), pause low-priority quota classes, shed new requests with
// 503 + Retry-After, and finally suspend accept.
#pragma once

#include <cstddef>

namespace ${app_name}_gen {

// CoDel admission: standing queue delay the server is willing to carry, and
// the sliding-minimum window it is measured over.
inline constexpr long kOverloadTargetDelayMs = 5;
inline constexpr long kOverloadIntervalMs = 100;
// Pressure smoothing and tier release hysteresis.
inline constexpr double kOverloadEwmaAlpha = 0.3;
inline constexpr double kOverloadHysteresis = 0.10;
// Retry-After on shed 503s is derived from the measured pressure decay,
// clamped to this ceiling (the floor is O9's retry-after setting).
inline constexpr long kOverloadRetryAfterMaxS = 30;
// Heap monitor capacity; 0 disables the heap-bytes monitor.
inline constexpr std::size_t kOverloadMaxHeapBytes = 0;

}  // namespace ${app_name}_gen
)tmpl";

constexpr const char* kHooksHpp = R"tmpl(// Generated hook-method stubs for ${app_name}.
// These are the ONLY methods you implement — the three application-dependent
// steps of the five-step request cycle (Decode Request, Handle Request,
// Encode Reply).  Read Request and Send Reply are the framework's.
#pragma once

#include "nserver/hooks.hpp"

class ${app_name}Hooks : public cops::nserver::AppHooks {
 public:
//% if encode_decode
  // Decode Request: consume one request's bytes from `in`.
  cops::nserver::DecodeResult decode(cops::nserver::RequestContext& ctx,
                                     cops::ByteBuffer& in) override;
//% end
  // Handle Request: resolve the context with reply()/reply_raw()/finish().
  void handle(cops::nserver::RequestContext& ctx, std::any request) override;
//% if encode_decode
  // Encode Reply: turn the response object into wire bytes.
  std::string encode(cops::nserver::RequestContext& ctx,
                     std::any response) override;
//% end
//% if event_scheduling
  // Event scheduling (O8): classify a request into a priority level
  // (0 = highest).  The paper's differentiated-service experiment
  // implements exactly this hook.
  int classify_priority(const std::any& request);
//% end
};
)tmpl";

constexpr const char* kHooksCpp = R"tmpl(// Generated hook-method stub bodies for ${app_name}.  Fill in the TODOs.
#include "hooks.hpp"

#include "nserver/request_context.hpp"

//% if encode_decode
cops::nserver::DecodeResult ${app_name}Hooks::decode(
    cops::nserver::RequestContext& ctx, cops::ByteBuffer& in) {
  (void)ctx;
  // TODO: parse one request from `in`; e.g. for a line protocol:
  const size_t eol = in.find("\n");
  if (eol == std::string_view::npos) {
    return cops::nserver::DecodeResult::need_more();
  }
  std::string line(in.view().substr(0, eol));
  in.consume(eol + 1);
//% if event_scheduling
  std::any request(std::move(line));
  return cops::nserver::DecodeResult::request_ready(request,
                                                    classify_priority(request));
//% else
  return cops::nserver::DecodeResult::request_ready(std::move(line));
//% end
}

std::string ${app_name}Hooks::encode(cops::nserver::RequestContext& ctx,
                                     std::any response) {
  (void)ctx;
  // TODO: serialize the response object.
  return std::any_cast<std::string>(std::move(response));
}
//% end

void ${app_name}Hooks::handle(cops::nserver::RequestContext& ctx,
                              std::any request) {
//% if encode_decode
  // TODO: compute the reply for the decoded request.
  ctx.reply(std::any_cast<std::string>(std::move(request)) + "\n");
//% else
  // No encode/decode (Fig. 2 variant): `request` is the raw chunk.
  ctx.reply_raw(std::any_cast<std::string>(std::move(request)));
//% end
}

//% if event_scheduling
int ${app_name}Hooks::classify_priority(const std::any& request) {
  (void)request;
  // TODO: return the priority level for this request (0 = highest).
  return 0;
}
//% end
)tmpl";

constexpr const char* kServerMainCpp = R"tmpl(// Generated server main for ${app_name} (N-Server pattern instance).
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <memory>
#include <thread>

#include "nserver/server.hpp"

#include "acceptor_config.hpp"
//% if stats_export == "admin_http"
#include "admin_config.hpp"
//% end
#include "buffer_config.hpp"
#include "event_config.hpp"
//% if proxy_upstream == "pooled"
#include "proxy_config.hpp"
//% end
//% if overload == "adaptive"
#include "overload_config.hpp"
//% end
#include "hooks.hpp"
#include "reactor_config.hpp"
#include "send_config.hpp"
#include "traits.hpp"

namespace {
std::atomic<bool> g_stop{false};
void handle_signal(int) { g_stop.store(true); }
}  // namespace

int main() {
  cops::nserver::ServerOptions options;
  options.dispatcher_threads = ${dispatcher_threads};
//% if separate_pool
  options.separate_processor_pool = true;
//% else
  options.separate_processor_pool = false;
//% end
//% if encode_decode
  options.encode_decode = true;
//% else
  options.encode_decode = false;
//% end
//% if completion == "asynchronous"
  options.completion = cops::nserver::CompletionMode::kAsynchronous;
//% else
  options.completion = cops::nserver::CompletionMode::kSynchronous;
//% end
//% if thread_alloc == "dynamic"
  options.thread_allocation = cops::nserver::ThreadAllocation::kDynamic;
//% else
  options.thread_allocation = cops::nserver::ThreadAllocation::kStatic;
//% end
//% if file_cache == "lru"
  options.cache_policy = cops::nserver::CachePolicyKind::kLru;
//% elif file_cache == "lfu"
  options.cache_policy = cops::nserver::CachePolicyKind::kLfu;
//% elif file_cache == "lru-min"
  options.cache_policy = cops::nserver::CachePolicyKind::kLruMin;
//% elif file_cache == "lru-threshold"
  options.cache_policy = cops::nserver::CachePolicyKind::kLruThreshold;
//% elif file_cache == "hyper-g"
  options.cache_policy = cops::nserver::CachePolicyKind::kHyperG;
//% elif file_cache == "custom"
  options.cache_policy = cops::nserver::CachePolicyKind::kCustom;
//% else
  options.cache_policy = cops::nserver::CachePolicyKind::kNone;
//% end
//% if shutdown_long_idle
  options.shutdown_long_idle = true;
//% end
//% if event_scheduling
  options.event_scheduling = true;
  options.priority_quotas.assign(
      std::begin(${app_name}_gen::kPriorityQuotas),
      std::end(${app_name}_gen::kPriorityQuotas));
//% end
//% if overload_control
  options.overload_control = true;
  options.queue_high_watermark = ${app_name}_gen::kQueueHighWatermark;
  options.queue_low_watermark = ${app_name}_gen::kQueueLowWatermark;
//% end
//% if overload == "adaptive"
  options.overload_mode = cops::nserver::OverloadMode::kAdaptive;
  options.overload_target_delay =
      std::chrono::milliseconds(${app_name}_gen::kOverloadTargetDelayMs);
  options.overload_interval =
      std::chrono::milliseconds(${app_name}_gen::kOverloadIntervalMs);
  options.overload_ewma_alpha = ${app_name}_gen::kOverloadEwmaAlpha;
  options.overload_hysteresis = ${app_name}_gen::kOverloadHysteresis;
  options.overload_retry_after_max =
      std::chrono::seconds(${app_name}_gen::kOverloadRetryAfterMaxS);
  options.overload_max_heap_bytes = ${app_name}_gen::kOverloadMaxHeapBytes;
//% else
  options.overload_mode = cops::nserver::OverloadMode::kWatermark;
//% end
//% if mode == "debug"
  options.mode = cops::nserver::ServerMode::kDebug;
//% end
//% if profiling
  options.profiling = true;
//% end
//% if logging
  options.logging = true;
//% end
//% if stats_export == "admin_http"
  options.stats_export = cops::nserver::StatsExport::kAdminHttp;
  options.admin_host = ${app_name}_gen::kAdminHost;
  options.admin_port = ${app_name}_gen::kAdminPort;
//% end
  options.listen_port = ${listen_port};
  options.listen_backlog = ${app_name}_gen::kListenBacklog;

  auto hooks = std::make_shared<${app_name}Hooks>();
  cops::nserver::Server server(std::move(options), hooks);
  auto status = server.start();
  if (!status.is_ok()) {
    std::fprintf(stderr, "start failed: %s\n", status.to_string().c_str());
    return 1;
  }
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  std::printf("${app_name} listening on port %u\n", server.port());
//% if stats_export == "admin_http"
  std::printf("admin endpoint (/stats, /stats.json, /healthz) on port %u\n",
              server.admin_port());
//% end
  // The dispatcher threads run the server; park until a signal arrives.
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  server.stop();
  return 0;
}
)tmpl";

constexpr const char* kCMakeListsTxt = R"tmpl(# Generated build file for ${app_name}.
cmake_minimum_required(VERSION 3.16)
project(${app_name} CXX)
set(CMAKE_CXX_STANDARD 20)
set(CMAKE_CXX_STANDARD_REQUIRED ON)

# Point COPS_NSERVER_ROOT at the cops-nserver source tree.
set(COPS_NSERVER_ROOT "" CACHE PATH "Path to the cops-nserver repository")
add_subdirectory(${COPS_NSERVER_ROOT}/src cops_libs)

add_executable(${app_name}
  server_main.cpp
  hooks.cpp
)
target_include_directories(${app_name} PRIVATE ${CMAKE_CURRENT_SOURCE_DIR})
target_link_libraries(${app_name} PRIVATE cops_nserver)
)tmpl";

constexpr const char* kReadmeMd = R"tmpl(# ${app_name}

Generated by `copsgen` from the **N-Server** design pattern template.

Option settings baked into this instance:

| Option | Value |
|---|---|
| O1 dispatcher threads | ${dispatcher_threads} |
| O2 separate processor pool | ${separate_pool} |
| O3 encoding/decoding | ${encode_decode} |
| O4 completion events | ${completion} |
| O5 thread allocation | ${thread_alloc} |
| O6 file cache | ${file_cache} |
| O7 shutdown long idle | ${shutdown_long_idle} |
| O8 event scheduling | ${event_scheduling} |
| O9 overload control | ${overload_control} |
| O10 mode | ${mode} |
| O11 profiling | ${profiling} |
| O12 logging | ${logging} |
| O11+ statistics export | ${stats_export} |
| S4 proxy upstream | ${proxy_upstream} |
| S5 overload | ${overload} |

Implement the hook methods in `hooks.cpp` (the three application-dependent
steps), then build with CMake, pointing `COPS_NSERVER_ROOT` at the
cops-nserver checkout.
)tmpl";

}  // namespace

PatternTemplate make_nserver_template() {
  PatternTemplate tmpl("nserver", make_nserver_option_table());
  tmpl.add_file({"traits.hpp", "Server Configuration", "", kTraitsHpp});
  tmpl.add_file({"event_config.hpp", "Event", "", kEventConfigHpp});
  tmpl.add_file({"completion_config.hpp", "Completion Event",
                 "completion == \"asynchronous\"", kCompletionConfigHpp});
  tmpl.add_file({"processor_config.hpp", "Event Processor", "separate_pool",
                 kProcessorConfigHpp});
  tmpl.add_file({"controller_config.hpp", "Processor Controller",
                 "thread_alloc == \"dynamic\"", kControllerConfigHpp});
  tmpl.add_file({"cache_config.hpp", "Cache", "file_cache != \"none\"",
                 kCacheConfigHpp});
  tmpl.add_file({"admin_config.hpp", "Admin Endpoint",
                 "stats_export == \"admin_http\"", kAdminConfigHpp});
  tmpl.add_file({"send_config.hpp", "Send Reply", "", kSendConfigHpp});
  tmpl.add_file({"buffer_config.hpp", "Buffer Management", "",
                 kBufferConfigHpp});
  tmpl.add_file({"proxy_config.hpp", "Proxy Upstream",
                 "proxy_upstream == \"pooled\"", kProxyConfigHpp});
  tmpl.add_file({"overload_config.hpp", "Overload Manager",
                 "overload == \"adaptive\"", kOverloadConfigHpp});
  tmpl.add_file({"reactor_config.hpp", "Reactor", "", kReactorConfigHpp});
  tmpl.add_file({"acceptor_config.hpp", "Acceptor Event Handler", "",
                 kAcceptorConfigHpp});
  tmpl.add_file({"hooks.hpp", "Application Event Handler", "", kHooksHpp});
  tmpl.add_file({"hooks.cpp", "Compute Request Event Handler", "", kHooksCpp});
  tmpl.add_file({"server_main.cpp", "Server", "", kServerMainCpp});
  tmpl.add_file({"CMakeLists.txt", "Build", "", kCMakeListsTxt});
  tmpl.add_file({"README.md", "Readme", "", kReadmeMd});
  return tmpl;
}

OptionSet nserver_http_options() {
  OptionSet set;
  set.set("dispatcher_threads", "1");
  set.set("separate_pool", "yes");
  set.set("encode_decode", "yes");
  set.set("completion", "asynchronous");
  set.set("thread_alloc", "static");
  set.set("file_cache", "lru");
  set.set("shutdown_long_idle", "no");
  set.set("event_scheduling", "no");
  set.set("overload_control", "no");
  set.set("mode", "production");
  set.set("profiling", "no");
  set.set("logging", "no");
  set.set("proxy_upstream", "per_request");
  set.set("overload", "watermark");
  return set;
}

OptionSet nserver_ftp_options() {
  OptionSet set;
  set.set("dispatcher_threads", "1");
  set.set("separate_pool", "yes");
  set.set("encode_decode", "yes");
  set.set("completion", "synchronous");
  set.set("thread_alloc", "dynamic");
  set.set("file_cache", "none");
  set.set("shutdown_long_idle", "yes");
  set.set("event_scheduling", "no");
  set.set("overload_control", "no");
  set.set("mode", "production");
  set.set("profiling", "no");
  set.set("logging", "no");
  set.set("proxy_upstream", "per_request");
  set.set("overload", "watermark");
  return set;
}

}  // namespace cops::gdp
