// COPS-FTP — the paper's event-driven FTP server as a runnable binary.
//
//   $ ./cops_ftp --root /srv/ftp --port 2121 --user alice:secret:rw
//   $ ftp 127.0.0.1 2121        (anonymous login enabled by default)
//
// Defaults follow the paper's Table 1 COPS-FTP column: synchronous
// completion events and dynamic event-thread allocation.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common/string_util.hpp"
#include "ftp/ftp_server.hpp"

int main(int argc, char** argv) {
  auto options = cops::ftp::CopsFtpServer::default_options();
  cops::ftp::FtpServerConfig config;
  auto users = std::make_shared<cops::ftp::UserDb>();
  int run_seconds = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--root") {
      config.root = next();
    } else if (arg == "--port") {
      options.listen_port = static_cast<uint16_t>(std::atoi(next()));
    } else if (arg == "--user") {
      // name:password[:rw]
      const auto parts = cops::split(next(), ':');
      if (parts.size() >= 2) {
        users->add_user(parts[0], parts[1],
                        parts.size() > 2 && parts[2] == "rw");
      }
    } else if (arg == "--no-anonymous") {
      config.allow_anonymous = false;
    } else if (arg == "--logging") {
      options.logging = true;
    } else if (arg == "--profiling") {
      options.profiling = true;
    } else if (arg == "--admin") {
      // O11+: admin/metrics endpoint; requires the profiler, so turn it on.
      options.profiling = true;
      options.stats_export = cops::nserver::StatsExport::kAdminHttp;
    } else if (arg == "--admin-port") {
      options.profiling = true;
      options.stats_export = cops::nserver::StatsExport::kAdminHttp;
      options.admin_port = static_cast<uint16_t>(std::atoi(next()));
    } else if (arg == "--run-seconds") {
      run_seconds = std::atoi(next());
    } else {
      std::puts(
          "cops_ftp --root DIR [--port N] [--user name:pass[:rw]]\n"
          "         [--no-anonymous] [--logging] [--profiling]\n"
          "         [--admin] [--admin-port N] [--run-seconds N]");
      return arg == "--help" ? 0 : 2;
    }
  }

  cops::ftp::CopsFtpServer server(options, config, users);
  auto status = server.start();
  if (!status.is_ok()) {
    std::fprintf(stderr, "start failed: %s\n", status.to_string().c_str());
    return 1;
  }
  std::printf("COPS-FTP listening on 127.0.0.1:%u (root %s)\n", server.port(),
              config.root.c_str());
  if (server.admin_port() != 0) {
    std::printf("admin endpoint at http://%s:%u/stats\n",
                options.admin_host.c_str(), server.admin_port());
  }
  std::fflush(stdout);  // a file or pipe would hold the line back
  if (run_seconds > 0) {
    std::this_thread::sleep_for(std::chrono::seconds(run_seconds));
    server.stop();
    return 0;
  }
  while (true) std::this_thread::sleep_for(std::chrono::seconds(1));
}
