#include "ftp/ftp_server.hpp"

#include <utility>

#include "common/string_util.hpp"

namespace cops::ftp {

void FtpAppHooks::on_connect(nserver::RequestContext& ctx) {
  ctx.send(service_ready().serialize());
}

nserver::DecodeResult FtpAppHooks::decode(nserver::RequestContext& ctx,
                                          ByteBuffer& in) {
  const size_t eol = in.find("\r\n");
  size_t line_len = eol;
  size_t term_len = 2;
  if (eol == std::string_view::npos) {
    // Be lenient with bare-LF clients.
    const size_t lf = in.find("\n");
    if (lf == std::string_view::npos) {
      return in.readable() > 1024 ? nserver::DecodeResult::error()
                                  : nserver::DecodeResult::need_more();
    }
    line_len = lf;
    term_len = 1;
  }
  const std::string_view line = in.view().substr(0, line_len);
  // Parse straight from the buffer into the session's recycled command
  // (verb/arg capacities survive across commands — no allocations in
  // steady state), then consume and pass Handle a pointer.
  FtpCommand& cmd = session_of(ctx).scratch_command;
  if (!parse_command_into(line, cmd)) {
    // Unrecognized syntax is an FTP-level error (500), not a connection
    // error: keep the session alive.
    cmd.verb.clear();
    cmd.arg.assign(line);
  }
  in.consume(line_len + term_len);
  return nserver::DecodeResult::request_ready(std::any(&cmd));
}

std::string FtpAppHooks::encode(nserver::RequestContext& /*ctx*/,
                                std::any response) {
  return std::any_cast<Reply>(std::move(response)).serialize();
}

FtpSession& FtpAppHooks::session_of(nserver::RequestContext& ctx) {
  auto& state = ctx.app_state();
  if (!state) state = std::make_shared<FtpSession>();
  return *std::static_pointer_cast<FtpSession>(state);
}

void FtpAppHooks::handle(nserver::RequestContext& ctx, std::any request) {
  commands_.fetch_add(1, std::memory_order_relaxed);
  // Decode passes a pointer to the session's scratch command.
  const FtpCommand& cmd = *std::any_cast<FtpCommand*>(request);
  auto& session = session_of(ctx);

  if (cmd.verb.empty()) {
    ctx.reply(syntax_error());
    return;
  }
  // ---- commands allowed before login --------------------------------------
  if (cmd.verb == "USER" || cmd.verb == "PASS") {
    handle_login(ctx, session, cmd);
    return;
  }
  if (cmd.verb == "QUIT") {
    ctx.close_after_reply();
    ctx.reply(goodbye());
    return;
  }
  if (cmd.verb == "SYST") {
    ctx.reply(syst());
    return;
  }
  if (cmd.verb == "NOOP") {
    ctx.reply(ok());
    return;
  }
  if (cmd.verb == "FEAT") {
    ctx.reply(reply(211, "End"));
    return;
  }
  if (!session.authenticated) {
    ctx.reply(not_logged_in());
    return;
  }
  // ---- authenticated commands ----------------------------------------------
  if (cmd.verb == "TYPE") {
    if (cmd.arg == "I" || cmd.arg == "A" || cmd.arg == "L 8") {
      session.transfer_type = cmd.arg.empty() ? 'I' : cmd.arg[0];
      ctx.reply(ok());
    } else {
      ctx.reply(bad_arguments());
    }
    return;
  }
  if (cmd.verb == "PWD" || cmd.verb == "CWD" || cmd.verb == "CDUP") {
    handle_navigation(ctx, session, cmd);
    return;
  }
  if (cmd.verb == "PASV" || cmd.verb == "PORT") {
    handle_transfer_setup(ctx, session, cmd);
    return;
  }
  if (cmd.verb == "RETR") {
    handle_retr(ctx, session, cmd.arg);
    return;
  }
  if (cmd.verb == "STOR") {
    handle_stor(ctx, session, cmd.arg);
    return;
  }
  if (cmd.verb == "LIST" || cmd.verb == "NLST") {
    handle_list(ctx, session, cmd.arg, cmd.verb == "NLST");
    return;
  }
  if (cmd.verb == "SIZE") {
    const auto path = FsView::resolve(session.cwd, cmd.arg);
    auto size = path.empty() ? Result<uint64_t>(Status::not_found(cmd.arg))
                             : fs_.file_size(path);
    if (size.is_ok()) {
      ctx.reply(reply(213, std::to_string(size.value())));
    } else {
      ctx.reply(file_unavailable(cmd.arg));
    }
    return;
  }
  if (cmd.verb == "DELE" || cmd.verb == "MKD" || cmd.verb == "RMD") {
    handle_mutation(ctx, session, cmd);
    return;
  }
  if (cmd.verb == "RNFR") {
    if (!users_->can_write(session.username)) {
      ctx.reply(reply(550, "Permission denied"));
      return;
    }
    const auto path = FsView::resolve(session.cwd, cmd.arg);
    if (path.empty() || !fs_.exists(path)) {
      ctx.reply(file_unavailable(cmd.arg));
      return;
    }
    session.rename_from = path;
    ctx.reply(reply(350, "Ready for RNTO"));
    return;
  }
  if (cmd.verb == "RNTO") {
    if (session.rename_from.empty()) {
      ctx.reply(reply(503, "RNFR first"));
      return;
    }
    const auto target = FsView::resolve(session.cwd, cmd.arg);
    const std::string source = std::exchange(session.rename_from, {});
    if (target.empty() || target == "/") {
      ctx.reply(bad_arguments());
      return;
    }
    auto status = fs_.rename(source, target);
    ctx.reply(status.is_ok() ? action_ok("Rename successful")
                             : reply(553, "Rename failed"));
    return;
  }
  ctx.reply(not_implemented());
}

void FtpAppHooks::handle_login(nserver::RequestContext& ctx,
                               FtpSession& session, const FtpCommand& cmd) {
  if (cmd.verb == "USER") {
    if (cmd.arg.empty()) {
      ctx.reply(bad_arguments());
      return;
    }
    session.username = cmd.arg;
    session.authenticated = false;
    ctx.reply(need_password());
    return;
  }
  // PASS
  if (session.username.empty()) {
    ctx.reply(reply(503, "Login with USER first"));
    return;
  }
  if (users_->authenticate(session.username, cmd.arg)) {
    session.authenticated = true;
    users_->record_login(session.username);
    ctx.reply(logged_in());
  } else {
    session.authenticated = false;
    ctx.reply(login_failed());
  }
}

void FtpAppHooks::handle_navigation(nserver::RequestContext& ctx,
                                    FtpSession& session,
                                    const FtpCommand& cmd) {
  if (cmd.verb == "PWD") {
    ctx.reply(reply(257, "\"" + session.cwd + "\" is the current directory"));
    return;
  }
  const std::string target = cmd.verb == "CDUP" ? ".." : cmd.arg;
  const auto resolved = FsView::resolve(session.cwd, target);
  if (resolved.empty() || !fs_.is_directory(resolved)) {
    ctx.reply(file_unavailable(target));
    return;
  }
  session.cwd = resolved;
  ctx.reply(action_ok("Directory changed to " + resolved));
}

void FtpAppHooks::handle_transfer_setup(nserver::RequestContext& ctx,
                                        FtpSession& session,
                                        const FtpCommand& cmd) {
  if (cmd.verb == "PASV") {
    auto port = session.enter_passive(config_.pasv_host);
    if (!port.is_ok()) {
      ctx.reply(cant_open_data());
      return;
    }
    ctx.reply(reply(227, "Entering Passive Mode " +
                             format_pasv(config_.pasv_host, port.value())));
    return;
  }
  // PORT
  auto target = parse_port_arg(cmd.arg);
  if (!target) {
    ctx.reply(bad_arguments());
    return;
  }
  session.set_port_target(target->first, target->second);
  ctx.reply(ok());
}

void FtpAppHooks::handle_retr(nserver::RequestContext& ctx,
                              FtpSession& session, const std::string& arg) {
  const auto path = FsView::resolve(session.cwd, arg);
  if (path.empty() || !fs_.exists(path) || fs_.is_directory(path)) {
    ctx.reply(file_unavailable(arg));
    return;
  }
  // fetch_file goes through the framework: with COPS-FTP's synchronous
  // completion mode this blocks the worker; with asynchronous mode the
  // continuation resumes as a Completion event.
  ctx.send(opening_data(arg).serialize());
  ctx.fetch_file(
      fs_.real_path(path),
      [this, &session](nserver::RequestContext& ctx,
                       Result<nserver::FileDataPtr> file) {
        if (!file.is_ok()) {
          ctx.reply(transfer_aborted());
          return;
        }
        auto data_conn = session.open_data_connection(config_.data_timeout_ms);
        if (!data_conn.is_ok()) {
          ctx.reply(cant_open_data());
          return;
        }
        // Files of nserver::kSendfileMinBytes or more arrive as an open
        // descriptor with no bytes in memory.
        const auto& data = *file.value();
        auto status = data.fd >= 0
                          ? data_conn.value().send_file(data.fd, data.fd_size)
                          : data_conn.value().send_all(data.bytes);
        data_conn.value().close();
        if (!status.is_ok()) {
          ctx.reply(transfer_aborted());
          return;
        }
        transfers_.fetch_add(1, std::memory_order_relaxed);
        ctx.reply(transfer_complete());
      });
}

void FtpAppHooks::handle_stor(nserver::RequestContext& ctx,
                              FtpSession& session, const std::string& arg) {
  if (!users_->can_write(session.username)) {
    ctx.reply(reply(550, "Permission denied"));
    return;
  }
  const auto path = FsView::resolve(session.cwd, arg);
  if (path.empty() || path == "/") {
    ctx.reply(bad_arguments());
    return;
  }
  ctx.send(opening_data(arg).serialize());
  auto data_conn = session.open_data_connection(config_.data_timeout_ms);
  if (!data_conn.is_ok()) {
    ctx.reply(cant_open_data());
    return;
  }
  auto contents = data_conn.value().read_all(config_.max_upload_bytes);
  data_conn.value().close();
  if (!contents.is_ok()) {
    ctx.reply(transfer_aborted());
    return;
  }
  auto status = fs_.write_file(path, contents.value());
  if (!status.is_ok()) {
    ctx.reply(reply(550, "Store failed"));
    return;
  }
  transfers_.fetch_add(1, std::memory_order_relaxed);
  ctx.reply(transfer_complete());
}

void FtpAppHooks::handle_list(nserver::RequestContext& ctx,
                              FtpSession& session, const std::string& arg,
                              bool names_only) {
  const auto path = FsView::resolve(session.cwd, arg.empty() ? "." : arg);
  auto entries = path.empty()
                     ? Result<std::vector<DirEntry>>(Status::not_found(arg))
                     : fs_.list(path);
  if (!entries.is_ok()) {
    ctx.reply(file_unavailable(arg));
    return;
  }
  std::string listing;
  for (const auto& entry : entries.value()) {
    listing += names_only ? entry.name + "\r\n"
                          : FsView::format_list_line(entry);
  }
  ctx.send(opening_data("file list").serialize());
  auto data_conn = session.open_data_connection(config_.data_timeout_ms);
  if (!data_conn.is_ok()) {
    ctx.reply(cant_open_data());
    return;
  }
  auto status = data_conn.value().send_all(listing);
  data_conn.value().close();
  ctx.reply(status.is_ok() ? transfer_complete() : transfer_aborted());
}

void FtpAppHooks::handle_mutation(nserver::RequestContext& ctx,
                                  FtpSession& session, const FtpCommand& cmd) {
  if (!users_->can_write(session.username)) {
    ctx.reply(reply(550, "Permission denied"));
    return;
  }
  const auto path = FsView::resolve(session.cwd, cmd.arg);
  if (path.empty() || path == "/") {
    ctx.reply(bad_arguments());
    return;
  }
  Status status = Status::ok();
  if (cmd.verb == "DELE") {
    status = fs_.remove_file(path);
    if (status.is_ok()) ctx.reply(action_ok("File deleted"));
  } else if (cmd.verb == "MKD") {
    status = fs_.make_directory(path);
    if (status.is_ok()) {
      ctx.reply(reply(257, "\"" + path + "\" directory created"));
    }
  } else {  // RMD
    status = fs_.remove_directory(path);
    if (status.is_ok()) ctx.reply(action_ok("Directory removed"));
  }
  if (!status.is_ok()) ctx.reply(file_unavailable(cmd.arg));
}

nserver::ServerOptions CopsFtpServer::default_options() {
  nserver::ServerOptions options;
  options.dispatcher_threads = 1;                                   // O1
  options.separate_processor_pool = true;                           // O2
  options.encode_decode = true;                                     // O3
  options.completion = nserver::CompletionMode::kSynchronous;       // O4
  options.thread_allocation = nserver::ThreadAllocation::kDynamic;  // O5
  options.min_processor_threads = 2;
  options.max_processor_threads = 16;
  options.cache_policy = nserver::CachePolicyKind::kNone;           // O6
  options.shutdown_long_idle = true;                                // O7
  options.idle_timeout = std::chrono::seconds(300);
  options.event_scheduling = false;                                 // O8
  options.overload_control = false;                                 // O9
  options.mode = nserver::ServerMode::kProduction;                  // O10
  options.profiling = false;                                        // O11
  options.logging = false;                                          // O12
  return options;
}

CopsFtpServer::CopsFtpServer(nserver::ServerOptions options,
                             FtpServerConfig config,
                             std::shared_ptr<UserDb> users)
    : hooks_(std::make_shared<FtpAppHooks>(
          std::move(config),
          users ? std::move(users) : std::make_shared<UserDb>())),
      server_(std::move(options), hooks_) {}

}  // namespace cops::ftp
