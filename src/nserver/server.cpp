#include "nserver/server.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "nserver/admin_server.hpp"

namespace cops::nserver {

namespace {
// Initial capacity of a connection's pooled read buffer.  A larger request
// grows the buffer on the heap (a pool miss), and the grown capacity is
// what the pool recycles.
constexpr size_t kReadBufferBlockBytes = 16 * 1024;
}  // namespace

Server::Server(ServerOptions options, std::shared_ptr<AppHooks> hooks)
    : options_(std::move(options)), hooks_(std::move(hooks)) {}

Server::~Server() { stop(); }

Status Server::start() {
  if (started_.exchange(true)) {
    return Status::invalid_argument("server already started");
  }
  if (auto problem = options_.validate(); !problem.empty()) {
    return Status::invalid_argument(problem);
  }

  // --- components selected by the options (generation-time in CO2P3S) ----
  if (options_.mode == ServerMode::kDebug) {
    tracer_ = std::make_unique<DebugTracer>(options_.debug_trace_path);
  }
  if (options_.cache_policy != CachePolicyKind::kNone) {
    cache_ = std::make_unique<FileCache>(
        make_cache_policy(options_.cache_policy, options_.cache_size_threshold,
                          custom_eviction_),
        options_.cache_capacity_bytes);
    cache_->set_revalidate_interval(options_.cache_revalidate_interval);
  }
  if (options_.completion == CompletionMode::kAsynchronous) {
    file_service_ = std::make_unique<FileIoService>(options_.file_io_threads);
  }

  EventProcessorConfig pcfg;
  pcfg.name = "reactive";
  pcfg.threads = options_.separate_processor_pool
                     ? (options_.thread_allocation == ThreadAllocation::kDynamic
                            ? options_.min_processor_threads
                            : options_.processor_threads)
                     : 0;
  pcfg.scheduling = options_.event_scheduling;
  pcfg.priority_quotas = options_.priority_quotas;
  pcfg.profiler = options_.profiling ? &profiler_ : nullptr;
  processor_ = std::make_unique<EventProcessor>(pcfg);

  if (options_.thread_allocation == ThreadAllocation::kDynamic &&
      options_.separate_processor_pool) {
    ProcessorControllerConfig ccfg;
    ccfg.min_threads = options_.min_processor_threads;
    ccfg.max_threads = options_.max_processor_threads;
    controller_ = std::make_unique<ProcessorController>(*processor_, ccfg);
  }

  // --- dispatchers (O1) ----------------------------------------------------
  const int n_reactors = options_.dispatcher_threads;
  for (int i = 0; i < n_reactors; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->reactor = std::make_unique<net::Reactor>();
    // Context objects are small; size the slab blocks to fit the object
    // plus shared_ptr control block with headroom, and recycle read-buffer
    // backing stores of kReadBufferBlockBytes.
    shard->ctx_pool = std::make_shared<SlabPool>(
        sizeof(RequestContext) + 128, /*blocks_per_chunk=*/64);
    shard->read_buffer_pool =
        std::make_shared<BufferPool>(kReadBufferBlockBytes);
    shards_.push_back(std::move(shard));
  }

  // --- overload manager (O9) ----------------------------------------------
  // Built after the shards so the per-shard event-loop-lag monitors and
  // pool-counter lambdas bind to live objects.
  if (options_.overload_control) build_overload_manager();

  // --- connector (Client Component) on dispatcher 0 -------------------------
  connector_ = std::make_unique<net::Connector>(*shards_[0]->reactor);

  // --- acceptor on dispatcher 0 --------------------------------------------
  acceptor_ = std::make_unique<net::Acceptor>(
      *shards_[0]->reactor,
      [this](net::TcpSocket socket) { on_accept(std::move(socket)); });
  auto bound = acceptor_->open(options_.listen_host, options_.listen_port,
                               options_.listen_backlog);
  if (!bound.is_ok()) return bound.status();
  port_ = bound.value();

  // --- admin endpoint (O11+) on dispatcher 0 -------------------------------
  if (options_.stats_export == StatsExport::kAdminHttp) {
    AdminRoutes routes;
    // Load-balancer health probes key off /healthz: it flips to 503 while
    // the server is draining or has suspended accepting under overload, so
    // the LB routes around us before clients see refused connects.
    routes.unhealthy = [this]() -> const char* {
      if (draining()) return "draining\n";
      return accepting() ? nullptr : "overloaded\n";
    };
    routes.metrics = [this](MetricsWriter& w) {
      write_stats(w, stats_snapshot());
    };
    routes.banner = "cops-nserver admin";
    admin_ = std::make_unique<AdminServer>(*shards_[0]->reactor,
                                           std::move(routes));
    auto admin_bound = admin_->open(options_.admin_host, options_.admin_port);
    if (!admin_bound.is_ok()) return admin_bound.status();
    admin_port_ = admin_bound.value();
  }

  // --- housekeeping on dispatcher 0 ----------------------------------------
  shards_[0]->reactor->run_after(options_.housekeeping_interval,
                                 [this] { housekeeping(); });

  // --- SPED event-loop-lag samplers (adaptive O9) ---------------------------
  // Inline processors never queue, so the admission signal is how late each
  // shard's loop runs its timers.  Sample at least twice per CoDel window so
  // the sliding min always has fresh readings to work with.
  if (processor_->inline_mode() && !delay_monitors_.empty()) {
    Duration probe_interval =
        std::min(options_.housekeeping_interval, options_.overload_interval / 2);
    if (probe_interval < std::chrono::milliseconds(1)) {
      probe_interval = std::chrono::milliseconds(1);
    }
    for (size_t i = 0; i < shards_.size(); ++i) {
      schedule_loop_lag_probe(i, probe_interval);
    }
  }

  for (size_t i = 0; i < shards_.size(); ++i) {
    shards_[i]->reactor->start_thread("dispatch-" + std::to_string(i));
  }
  if (options_.logging) {
    COPS_INFO("N-Server listening on " << options_.listen_host << ":"
                                       << port_ << " with "
                                       << shards_.size() << " dispatcher(s)");
  }
  return Status::ok();
}

void Server::stop() {
  if (!started_.load() || stopping_.exchange(true)) return;

  // Close acceptor + every connection on each shard's own thread (inline
  // when a failed start() never launched the dispatchers).
  for (size_t i = 0; i < shards_.size(); ++i) {
    auto& shard = *shards_[i];
    shard.reactor->run_sync([this, i, &shard] {
      if (i == 0) {
        acceptor_->close();
        if (admin_) admin_->close();
      }
      // close() mutates the map via remove_connection; copy first.
      std::vector<std::shared_ptr<Connection>> conns;
      conns.reserve(shard.connections.size());
      for (auto& [id, conn] : shard.connections) conns.push_back(conn);
      for (auto& conn : conns) conn->close("server-stop");
    });
  }
  for (auto& shard : shards_) {
    shard->reactor->stop();
    shard->reactor->join();
  }
  if (processor_) processor_->stop();
  if (file_service_) file_service_->stop();
  if (tracer_) tracer_->dump();
}

size_t Server::count_active_pipelines() {
  size_t total = 0;
  for (auto& shard_ptr : shards_) {
    auto& shard = *shard_ptr;
    total += shard.reactor->run_sync([&shard] {
      size_t active = 0;
      for (const auto& [id, conn] : shard.connections) {
        if (conn->pipeline_active() || conn->send_pending()) ++active;
      }
      return active;
    });
  }
  return total;
}

bool Server::drain(std::chrono::milliseconds timeout) {
  // A start() that failed validation built no shards.
  if (!started_.load() || stopping_.load() || shards_.empty()) return true;
  // Visible to the admin endpoint immediately: /healthz flips to 503 so
  // upstream health checks stop routing here while we finish in-flight work.
  draining_.store(true, std::memory_order_relaxed);
  // Step 1: no new connections — close the acceptor on its shard.
  shards_[0]->reactor->run_sync([this] { acceptor_->close(); });
  // Step 2: wait for in-flight work to resolve.
  const auto deadline = now() + timeout;
  bool idle = false;
  while (now() < deadline) {
    const bool queues_empty =
        processor_->queue_depth() == 0 &&
        (!file_service_ || file_service_->pending() == 0);
    if (queues_empty && count_active_pipelines() == 0) {
      idle = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop();
  return idle;
}

// ---- accept path -----------------------------------------------------------

void Server::on_accept(net::TcpSocket socket) {
  if (options_.max_connections != 0) {
    // Overload mechanism 1: bounded simultaneous connections.  Closes on
    // other shards decrement the count concurrently, so the check is a
    // reservation — increment first, roll back past the cap — rather than
    // a load followed by a separate increment.
    const size_t prev =
        num_connections_.fetch_add(1, std::memory_order_relaxed);
    if (prev >= options_.max_connections) {
      num_connections_.fetch_sub(1, std::memory_order_relaxed);
      if (options_.profiling) profiler_.count_reject();
      note_event(EventKind::kAccept, 0, "rejected-max-connections");
      return;  // socket destructor sends RST/close
    }
  }
  std::string ip_key;
  if (options_.max_connections_per_ip != 0) {
    // The address accept4 returned: no getpeername.
    if (auto addr = socket.peer_address(); addr.is_ok()) {
      ip_key = addr.value().host();
      std::lock_guard lock(ip_counts_mutex_);
      auto& count = ip_counts_[ip_key];
      if (count >= options_.max_connections_per_ip) {
        if (options_.max_connections != 0) {
          num_connections_.fetch_sub(1, std::memory_order_relaxed);
        }
        if (options_.profiling) profiler_.count_per_ip_reject();
        note_event(EventKind::kAccept, 0, "rejected-per-ip-cap");
        return;  // socket destructor sends RST/close
      }
      ++count;
    }
  }
  // Round-robin from the single shard-0 listener.
  const size_t shard_index =
      next_shard_.fetch_add(1, std::memory_order_relaxed) % shards_.size();
  shards_[shard_index]->accepts.fetch_add(1, std::memory_order_relaxed);
  if (options_.profiling) profiler_.count_accept();
  const bool counted = options_.max_connections != 0;
  hand_off(shard_index, std::move(socket),
           [this, shard_index, counted,
            ip_key = std::move(ip_key)](net::TcpSocket sock) mutable {
             add_connection(shard_index, std::move(sock), std::move(ip_key),
                            counted);
           });
}

template <typename Adopt>
void Server::hand_off(size_t shard_index, net::TcpSocket socket,
                      Adopt adopt) {
  if (shard_index == 0) {
    adopt(std::move(socket));
    return;
  }
  // A posted std::function must be copyable, so the move-only socket rides
  // in a heap box.
  auto* raw = new net::TcpSocket(std::move(socket));
  shards_[shard_index]->reactor->post(
      [raw, adopt = std::move(adopt)]() mutable {
        net::TcpSocket sock(std::move(*raw));
        delete raw;
        adopt(std::move(sock));
      });
}

uint64_t Server::add_connection(size_t shard_index, net::TcpSocket socket,
                                std::string ip_key, bool counted) {
  const uint64_t id = next_conn_id_.fetch_add(1);
  auto& shard = *shards_[shard_index];
  auto conn = std::make_shared<Connection>(*this, *shard.reactor,
                                           std::move(socket), id, shard_index);
  conn->ip_key_ = std::move(ip_key);
  shard.connections.emplace(id, conn);
  if (options_.stats_export != StatsExport::kNone) {
    std::lock_guard lock(conn_registry_mutex_);
    conn_registry_.emplace(id, conn);
  }
  if (!counted) num_connections_.fetch_add(1);
  shard.open_connections.fetch_add(1, std::memory_order_relaxed);
  note_event(EventKind::kAccept, id, "accepted");
  if (options_.logging) {
    COPS_INFO("accepted connection " << id << " from " << conn->peer());
  }
  conn->start();
  return id;
}

void Server::connect_peer(const net::InetAddress& peer,
                          ConnectCallback on_done) {
  if (stopping_.load() || shards_.empty() || !shards_[0]->reactor->running()) {
    on_done(Status::unavailable("server not running"));
    return;
  }
  // The Connector lives on dispatcher 0; hop there to initiate.
  shards_[0]->reactor->post([this, peer,
                             on_done = std::move(on_done)]() mutable {
    auto status = connector_->connect(
        peer,
        [this, on_done = std::move(on_done)](
            Result<net::TcpSocket> socket) mutable {
          if (!socket.is_ok()) {
            on_done(socket.status());
            return;
          }
          // An outbound socket has no listener to inherit TCP_NODELAY from.
          (void)socket.value().set_nodelay(true);
          const size_t shard_index =
              next_shard_.fetch_add(1, std::memory_order_relaxed) %
              shards_.size();
          if (options_.profiling) profiler_.count_accept();
          hand_off(shard_index, std::move(socket).take(),
                   [this, shard_index, on_done = std::move(on_done)](
                       net::TcpSocket sock) {
                     on_done(add_connection(shard_index, std::move(sock)));
                   });
        });
    if (!status.is_ok()) on_done(status);
  });
}

void Server::set_accept_suspended(bool on) {
  // Runs on the shard-0 housekeeping thread, where the acceptor lives.
  if (on) {
    acceptor_->suspend();
  } else {
    acceptor_->resume();
  }
  accept_suspended_ = on;
}

void Server::remove_connection(Connection& conn) {
  auto& shard = *shards_[conn.shard_index()];
  if (options_.stats_export != StatsExport::kNone) {
    std::lock_guard lock(conn_registry_mutex_);
    conn_registry_.erase(conn.id());
  }
  if (shard.connections.erase(conn.id()) > 0) {
    num_connections_.fetch_sub(1);
    shard.open_connections.fetch_sub(1, std::memory_order_relaxed);
    if (!conn.ip_key_.empty()) {
      std::lock_guard lock(ip_counts_mutex_);
      auto it = ip_counts_.find(conn.ip_key_);
      if (it != ip_counts_.end() && --it->second == 0) ip_counts_.erase(it);
    }
    if (options_.profiling) profiler_.count_close();
    if (options_.logging) {
      COPS_INFO("closed connection " << conn.id());
    }
    hooks_->on_close(conn.id());
  }
}

// ---- pipeline ---------------------------------------------------------------

RequestContextPtr Server::make_context(
    const std::shared_ptr<Connection>& conn) {
  // Object + control block in one slab block: the per-request context
  // allocation becomes a free-list pop.
  return std::allocate_shared<RequestContext>(
      PoolAllocator<RequestContext>(shards_[conn->shard_index()]->ctx_pool),
      *this, conn);
}

void Server::submit_decode(const std::shared_ptr<Connection>& conn) {
  note_event(EventKind::kDecode, conn->id(), "queued");
  Event event;
  event.priority = conn->priority();
  event.action = [this, conn] { run_decode(conn); };
  processor_->submit(std::move(event));
}

void Server::run_decode(const std::shared_ptr<Connection>& conn) {
  if (conn->closed()) return;
  // The request's one context: Decode sees it, and Handle inherits it.
  auto ctx = make_context(conn);
  DecodeResult result;
  if (options_.encode_decode) {
    try {
      result = hooks_->decode(*ctx, conn->in_buffer());
    } catch (const std::exception& e) {
      COPS_WARN("decode hook threw: " << e.what());
      result = DecodeResult::error();
    }
  } else {
    // Fig. 2 variant: no Decode step — raw chunks go straight to Handle.
    // The buffer is never empty here (the same guarantee decode() has).
    result = DecodeResult::request_ready(conn->in_buffer().take_string());
  }

  switch (result.status) {
    case DecodeStatus::kNeedMore:
      conn->reactor().post([conn] { conn->resume_reading(); });
      return;
    case DecodeStatus::kError:
      if (options_.profiling) profiler_.count_decode_error();
      conn->reactor().post([conn] { conn->close("decode-error"); });
      return;
    case DecodeStatus::kReject:
      // Protocol-level rejection (400/413/501, ...): the carried response
      // goes through the normal Encode + Send path, then the connection
      // closes — deterministic for the peer, no parser desync for us.
      if (options_.profiling) profiler_.count_decode_error();
      note_event(EventKind::kEncode, conn->id(), "decode-reject");
      ctx->close_after_reply();
      ctx->reply(std::move(result.request));
      return;
    case DecodeStatus::kRequest:
      break;
  }

  if (options_.profiling) {
    profiler_.count_request();
    auto& trace = conn->trace();
    const int64_t now_us = trace_now_us();
    trace.decode_done_us.store(now_us, TraceContext::kRelaxed);
    profiler_.record_stage(Stage::kDecode,
                           TraceContext::elapsed(trace.read_done_us, now_us));
  }
  conn->note_request();
  conn->set_priority(result.priority);
  ctx->priority_ = result.priority;
  if (options_.event_scheduling) {
    // Scheduling generates a distinct Compute event so the priority queue
    // can reorder requests between Decode and Handle.
    note_event(EventKind::kCompute, conn->id(), "queued");
    Event event;
    event.priority = result.priority;
    auto request = std::make_shared<std::any>(std::move(result.request));
    event.action = [this, ctx, request] {
      run_handle(ctx, std::move(*request));
    };
    processor_->submit(std::move(event));
  } else {
    run_handle(ctx, std::move(result.request));
  }
}

void Server::run_handle(const RequestContextPtr& ctx, std::any request) {
  const auto& conn = ctx->conn_;
  if (conn->closed()) return;
  note_event(EventKind::kCompute, conn->id(), "handle");
  if (options_.profiling) {
    conn->trace().handle_start_us.store(trace_now_us(),
                                        TraceContext::kRelaxed);
  }
  try {
    hooks_->handle(*ctx, std::move(request));
  } catch (const std::exception& e) {
    COPS_WARN("handle hook threw: " << e.what());
    ctx->close();
  }
}

void Server::resolve_with_reply(RequestContext& ctx, std::any response) {
  if (!ctx.mark_resolved()) return;
  if (options_.profiling) {
    auto& trace = ctx.conn_->trace();
    const int64_t now_us = trace_now_us();
    trace.resolve_us.store(now_us, TraceContext::kRelaxed);
    profiler_.record_stage(
        Stage::kHandle, TraceContext::elapsed(trace.handle_start_us, now_us));
  }
  EncodedReply reply;
  if (options_.encode_decode) {
    note_event(EventKind::kEncode, ctx.conn_->id(), "encode");
    try {
      reply = hooks_->encode_reply(ctx, std::move(response));
    } catch (const std::exception& e) {
      COPS_WARN("encode hook threw: " << e.what());
      auto conn = ctx.conn_;
      conn->reactor().post([conn] { conn->close("encode-error"); });
      return;
    }
  } else {
    reply = EncodedReply::from_string(
        std::any_cast<std::string>(std::move(response)));
  }
  if (options_.profiling) {
    auto& trace = ctx.conn_->trace();
    const int64_t now_us = trace_now_us();
    trace.encode_done_us.store(now_us, TraceContext::kRelaxed);
    profiler_.record_stage(Stage::kEncode,
                           TraceContext::elapsed(trace.resolve_us, now_us));
  }
  ctx.conn_->send_reply(std::move(reply));
}

// ---- services ---------------------------------------------------------------

void Server::fetch_file(RequestContextPtr ctx, std::string path,
                        RequestContext::FetchCallback done) {
  if (cache_) {
    if (auto hit = cache_->lookup(path)) {
      done(*ctx, std::move(hit));
      return;
    }
  }
  // Misses of kSendfileMinBytes or more come back as open descriptors
  // (drained by the connection with sendfile) instead of in-memory bytes;
  // they bypass the cache, which keeps holding the small, hot files.
  if (options_.completion == CompletionMode::kAsynchronous && file_service_) {
    const uint64_t connection_id = ctx->connection_id();
    const int priority = ctx->priority();
    auto executor = [this, priority, connection_id](std::function<void()> fn) {
      note_event(EventKind::kCompletion, connection_id, "file");
      Event event;
      event.priority = priority;
      event.action = std::move(fn);
      processor_->submit(std::move(event));
    };
    file_service_->async_read(
        path,
        [this, ctx, done = std::move(done)](Result<FileDataPtr> result) {
          if (result.is_ok() && cache_ && result.value()->fd < 0) {
            cache_->insert(result.value()->path, result.value());
          }
          if (ctx->connection_closed()) return;  // stale completion
          done(*ctx, std::move(result));
        },
        std::move(executor));
  } else {
    // Synchronous completions (O4): block this processor thread.
    auto result = FileIoService::load_file(path);
    if (result.is_ok() && cache_ && result.value()->fd < 0) {
      cache_->insert(path, result.value());
    }
    done(*ctx, std::move(result));
  }
}

// ---- overload manager (O9) --------------------------------------------------

void Server::build_overload_manager() {
  if (options_.overload_mode == OverloadMode::kWatermark) {
    // The paper's watched queues: the Reactive Event Processor's and, with
    // asynchronous completions, the file-I/O queue.
    std::vector<WatchedQueue> queues;
    queues.push_back(
        {"reactive", [this] { return processor_->queue_depth(); }});
    if (file_service_) {
      queues.push_back(
          {"file-io", [this] { return file_service_->pending(); }});
    }
    overload_ = make_watermark_manager(
        options_.queue_high_watermark, options_.queue_low_watermark,
        options_.overload_shed, options_.overload_retry_after,
        std::move(queues));
  } else {
    build_adaptive_monitors();
  }

  // Graduated actions.  tick() runs from housekeeping on the reactor-0
  // thread, where the acceptor lives — suspend/resume need no hop.
  OverloadActions actions;
  actions.conserve = [this](bool on) {
    conserve_idle_.store(on, std::memory_order_relaxed);
    note_event(EventKind::kUser, 0,
               on ? "overload-conserve" : "overload-conserve-release");
  };
  actions.pause_low_priority = [this](bool on) {
    processor_->pause_low_priority(on);
    note_event(EventKind::kUser, 0,
               on ? "overload-pause-low-prio" : "overload-resume-low-prio");
  };
  actions.shed = [this](bool on) {
    note_event(EventKind::kUser, 0,
               on ? "overload-shed" : "overload-shed-release");
  };
  actions.stop_accept = [this](bool on) {
    if (!acceptor_) return;
    set_accept_suspended(on);
    if (on && options_.profiling) profiler_.count_overload_suspension();
    note_event(EventKind::kUser, 0,
               on ? "overload-suspend" : "overload-resume");
  };
  overload_->set_actions(std::move(actions));
}

void Server::build_adaptive_monitors() {
  OverloadManagerConfig cfg;
  cfg.target_delay = options_.overload_target_delay;
  cfg.interval = options_.overload_interval;
  cfg.ewma_alpha = options_.overload_ewma_alpha;
  cfg.hysteresis = options_.overload_hysteresis;
  cfg.retry_after_min = options_.overload_retry_after;
  cfg.retry_after_max = options_.overload_retry_after_max;
  overload_ = std::make_unique<OverloadManager>(cfg);

  // Queue-delay monitors (the CoDel admission signal).  With a separate
  // processor pool the probe rides the event queue itself; in SPED mode
  // nothing is ever queued (submit runs inline), so each shard measures
  // event-loop lag instead — how late the loop fires a periodic timer
  // (see schedule_loop_lag_probe), which is exactly the delay a newly
  // ready request experiences.
  if (!processor_->inline_mode()) {
    delay_monitors_.push_back(
        overload_->add_queue_delay_monitor("queue_delay"));
  } else {
    for (size_t i = 0; i < shards_.size(); ++i) {
      auto* monitor = overload_->add_queue_delay_monitor(
          "loop_delay_" + std::to_string(i));
      // A long pass starves the probe timer itself, so fold the pending
      // probe's overdue-ness into the window — the standing lag is visible
      // before the timer manages to fire.
      auto* shard = shards_[i].get();
      monitor->set_overdue_hint([shard] {
        const int64_t expected =
            shard->lag_probe_expected_ns.load(std::memory_order_relaxed);
        if (expected == 0) return 0.0;
        const int64_t now_ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                now().time_since_epoch())
                .count();
        return now_ns > expected ? static_cast<double>(now_ns - expected) *
                                       1e-9
                                 : 0.0;
      });
      delay_monitors_.push_back(monitor);
    }
  }

  if (options_.max_connections > 0) {
    overload_->add_monitor(std::make_unique<GaugeMonitor>(
        "connections",
        [this] { return static_cast<double>(num_connections_.load()); },
        static_cast<double>(options_.max_connections)));
  }
  // A rising pool-miss fraction means the recyclers are growing — the
  // request path left its zero-allocation steady state.  50% misses in a
  // tick window maps to pressure 1.0.
  auto misses = [this] {
    uint64_t n = 0;
    for (const auto& shard : shards_) {
      n += shard->ctx_pool->misses() + shard->read_buffer_pool->misses();
    }
    return n;
  };
  auto requests = [this] {
    uint64_t n = 0;
    for (const auto& shard : shards_) {
      n += shard->ctx_pool->hits() + shard->ctx_pool->misses() +
           shard->read_buffer_pool->hits() + shard->read_buffer_pool->misses();
    }
    return n;
  };
  overload_->add_monitor(std::make_unique<RateMonitor>(
      "pool_miss_rate", std::move(misses), std::move(requests), 0.5));
  if (options_.overload_max_heap_bytes > 0) {
    overload_->add_monitor(std::make_unique<GaugeMonitor>(
        "heap_bytes",
        [this] { return static_cast<double>(pool_live_bytes()); },
        static_cast<double>(options_.overload_max_heap_bytes)));
  }
}

void Server::launch_overload_probes() {
  // Watermark runs no probes; SPED lag samplers self-schedule.
  if (delay_monitors_.empty() || processor_->inline_mode()) return;
  const auto t0 = now();
  Event probe;
  probe.priority = 0;  // probes must not be parked by the tier-2 pause
  auto* monitor = delay_monitors_[0];
  probe.action = [monitor, t0] { monitor->record_delay(now() - t0); };
  processor_->submit(std::move(probe));
}

void Server::schedule_loop_lag_probe(size_t shard_index, Duration interval) {
  // A timer due at `expected` fires on the first poll pass after that
  // instant; every pass spent grinding through ready sockets pushes the
  // fire time out, so the lateness is exactly the standing loop lag.  A
  // one-off busy pass records one late sample that the sliding window's
  // min forgives; only sustained lag drives pressure up.
  auto* monitor = delay_monitors_[shard_index];
  const TimePoint expected = now() + interval;
  shards_[shard_index]->lag_probe_expected_ns.store(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          expected.time_since_epoch())
          .count(),
      std::memory_order_relaxed);
  shards_[shard_index]->reactor->run_after(
      interval, [this, shard_index, interval, monitor, expected] {
        if (stopping_.load()) return;
        monitor->record_delay(now() - expected);
        schedule_loop_lag_probe(shard_index, interval);
      });
}

// ---- housekeeping ------------------------------------------------------------

void Server::housekeeping() {
  if (stopping_.load()) return;

  if (overload_) {
    // Launch this tick's sentinel probes first (they record on a later
    // loop pass), then fold whatever has arrived into the control loop.
    launch_overload_probes();
    overload_->tick(now());
  }

  if (controller_) controller_->tick();

  if (options_.shutdown_long_idle || options_.header_read_timeout.count() > 0 ||
      conserve_idle_.load(std::memory_order_relaxed)) {
    reap_idle(*shards_[0]);
    for (size_t i = 1; i < shards_.size(); ++i) {
      auto* shard = shards_[i].get();
      shard->reactor->post([this, shard] { reap_idle(*shard); });
    }
  }

  shards_[0]->reactor->run_after(options_.housekeeping_interval,
                                 [this] { housekeeping(); });
}

void Server::reap_idle(Shard& shard) {
  // Adaptive O9 tier-1 action: under pressure, keep-alive connections are
  // a luxury — shrink the idle window to a quarter (floor 10ms) and reap
  // even when O7 is off.
  const bool conserve = conserve_idle_.load(std::memory_order_relaxed);
  auto idle_timeout = options_.idle_timeout;
  if (conserve) {
    idle_timeout = std::max(idle_timeout / 4,
                            std::chrono::milliseconds(10));
  }
  const bool reap_long_idle = options_.shutdown_long_idle || conserve;
  const auto idle_deadline = now() - idle_timeout;
  const bool slowloris = options_.header_read_timeout.count() > 0;
  const auto partial_deadline = now() - options_.header_read_timeout;
  std::vector<std::shared_ptr<Connection>> idle;
  std::vector<std::shared_ptr<Connection>> stalled;
  for (auto& [id, conn] : shard.connections) {
    if (conn->pipeline_active()) continue;
    // Slowloris defense: a connection stuck mid-request is judged against
    // the (shorter) header_read_timeout from the moment the partial request
    // began — last_activity() is irrelevant, since drip-feeding refreshes it.
    if (slowloris && conn->partial_since() != TimePoint{} &&
        conn->partial_since() < partial_deadline) {
      stalled.push_back(conn);
      continue;
    }
    if (reap_long_idle && conn->last_activity() < idle_deadline) {
      idle.push_back(conn);
    }
  }
  for (auto& conn : stalled) {
    if (options_.profiling) profiler_.count_header_timeout();
    conn->close("header-timeout");
  }
  for (auto& conn : idle) {
    if (options_.profiling) profiler_.count_idle_shutdown();
    conn->close("idle-timeout");
  }
}

// ---- misc ---------------------------------------------------------------------

void Server::note_event(EventKind kind, uint64_t conn_id, const char* detail) {
  if (tracer_) tracer_->record(kind, conn_id, detail);
}

ProfilerSnapshot Server::profile() const {
  auto snapshot = profiler_.snapshot(processor_ ? processor_->processed() : 0,
                                     cache_ ? cache_->hit_rate() : 0.0,
                                     cache_ ? cache_->invalidations() : 0);
  // Recycler totals, summed over the per-shard pools.
  for (const auto& shard : shards_) {
    snapshot.pool_hits +=
        shard->ctx_pool->hits() + shard->read_buffer_pool->hits();
    snapshot.pool_misses +=
        shard->ctx_pool->misses() + shard->read_buffer_pool->misses();
    snapshot.pool_alloc_bytes +=
        shard->ctx_pool->heap_bytes() + shard->read_buffer_pool->heap_bytes();
  }
  snapshot.pool_live_bytes = pool_live_bytes();
  return snapshot;
}

uint64_t Server::pool_live_bytes() const {
  uint64_t n = 0;
  for (const auto& shard : shards_) {
    n += shard->ctx_pool->live_bytes() + shard->read_buffer_pool->live_bytes();
  }
  return n;
}

StatsSnapshot Server::stats_snapshot() const {
  StatsSnapshot s;
  s.counters = profile();
  s.connections_open = num_connections_.load();
  s.queue_depth = processor_ ? processor_->queue_depth() : 0;
  s.processor_threads = processor_ ? processor_->num_threads() : 0;
  s.file_io_pending = file_service_ ? file_service_->pending() : 0;
  if (overload_) {
    s.has_overload = true;
    s.overload = overload_->snapshot();
  }
  if (cache_) {
    s.has_cache = true;
    s.cache_hits = cache_->hits();
    s.cache_misses = cache_->misses();
    s.cache_evictions = cache_->evictions();
    s.cache_invalidations = cache_->invalidations();
    s.cache_bytes = cache_->size_bytes();
    s.cache_capacity_bytes = cache_->capacity_bytes();
    s.cache_entries = cache_->entry_count();
  }
  s.shards.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    const auto& shard = *shards_[i];
    ShardStats row;
    row.shard = i;
    row.accepts = shard.accepts.load(std::memory_order_relaxed);
    row.connections_open =
        shard.open_connections.load(std::memory_order_relaxed);
    s.shards.push_back(row);
  }
  {
    std::lock_guard lock(conn_registry_mutex_);
    s.connections.reserve(conn_registry_.size());
    for (const auto& [id, weak] : conn_registry_) {
      auto conn = weak.lock();
      if (!conn || conn->closed()) continue;
      s.connections.push_back({id, conn->peer(), conn->bytes_read_total(),
                               conn->bytes_sent_total(),
                               conn->requests_total()});
    }
  }
  std::sort(s.connections.begin(), s.connections.end(),
            [](const ConnectionStats& a, const ConnectionStats& b) {
              return a.id < b.id;
            });
  return s;
}

}  // namespace cops::nserver
