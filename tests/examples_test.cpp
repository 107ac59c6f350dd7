// Smoke tests for the shipped example binaries.  Each one is started on
// port 0 and its port read from the start-up line it flushes to stdout;
// one protocol exchange then runs against it, and a second run with its
// bounded-run flag (--once or --run-seconds) must end on its own with exit
// 0.  cops_http_server is also sent SIGTERM mid-run and must drain and
// exit 0.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tests/test_util.hpp"

namespace cops {
namespace {

// One example process with its stdout on a pipe.
class ExampleProcess {
 public:
  ExampleProcess(const std::string& name, std::vector<std::string> args) {
    const std::string path = std::string(COPS_BINARY_DIR) + "/examples/" + name;
    args.insert(args.begin(), path);
    std::vector<char*> argv;
    for (auto& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) return;
    pid_ = ::fork();
    if (pid_ == 0) {
      ::dup2(fds[1], STDOUT_FILENO);
      ::execv(path.c_str(), argv.data());
      ::_exit(127);
    }
    ::close(fds[1]);
    out_fd_ = fds[0];
  }

  ~ExampleProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (out_fd_ >= 0) ::close(out_fd_);
  }

  // The port of the first stdout line naming "127.0.0.1:<port>"; 0 when
  // none arrives within the timeout.
  uint16_t read_port() {
    const std::string marker = "127.0.0.1:";
    while (read_more(std::chrono::seconds(10))) {
      const size_t at = output_.find(marker);
      if (at == std::string::npos) continue;
      const size_t end = output_.find_first_not_of("0123456789",
                                                   at + marker.size());
      if (end == std::string::npos) continue;  // the number may be partial
      return static_cast<uint16_t>(
          std::stoi(output_.substr(at + marker.size())));
    }
    return 0;
  }

  void signal(int sig) { ::kill(pid_, sig); }

  // Waits for the exit (reading stdout meanwhile) and returns the raw
  // wait status; -1 when the process is still running after `timeout`.
  int wait_exit(std::chrono::seconds timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (std::chrono::steady_clock::now() < deadline) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        while (read_more(std::chrono::milliseconds(0))) {
        }
        return status;
      }
      read_more(std::chrono::milliseconds(10));
    }
    return -1;
  }

  [[nodiscard]] const std::string& output() const { return output_; }

 private:
  // Appends what stdout has within `timeout`; false at EOF or timeout.
  bool read_more(std::chrono::milliseconds timeout) {
    if (out_fd_ < 0) return false;
    pollfd pfd{out_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(timeout.count())) <= 0) return false;
    char buf[4096];
    const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
    if (n <= 0) return false;
    output_.append(buf, static_cast<size_t>(n));
    return true;
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string output_;
};

bool exited_zero(int status) {
  return status != -1 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

// One request over a fresh connection, read until `marker`.
std::string exchange(uint16_t port, const std::string& request,
                     const std::string& marker) {
  test::BlockingClient client;
  if (!client.connect("127.0.0.1", port)) return {};
  if (!request.empty() && !client.send_all(request)) return {};
  return client.read_until(marker);
}

const char kGet[] =
    "GET /index.html HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
const char kBody[] = "<html>example</html>";

// Arguments that start `name` on port 0 and keep it serving until it is
// signalled; `origin` is the port of http_proxy's backend.
std::vector<std::string> serving_args(const std::string& name,
                                      const std::string& root,
                                      uint16_t origin) {
  if (name == "cops_http_server" || name == "cops_ftp_server") {
    return {"--root", root, "--port", "0"};
  }
  if (name == "http_cluster") {
    return {"--root", root, "--workers", "2", "--port", "0"};
  }
  if (name == "http_proxy") return {"0", "127.0.0.1", std::to_string(origin)};
  return {"0"};
}

// The example's own bounded-run flag.
std::vector<std::string> bounded_run(const std::string& name) {
  if (name == "cops_http_server" || name == "cops_ftp_server" ||
      name == "http_cluster") {
    return {"--run-seconds", "1"};
  }
  return {"--once"};
}

class ExamplesTest : public ::testing::TestWithParam<std::string> {
 protected:
  ExamplesTest() { docs_.write_file("index.html", kBody); }
  test::TempDir docs_;
};

// The exchange runs against an example that serves until SIGTERM, so no
// bounded-run window can end it early.  cops_http_server drains and exits
// 0 on the signal; the others keep the default action and die of it.
TEST_P(ExamplesTest, ServesOneExchange) {
  const std::string& name = GetParam();
  const std::string root = docs_.str();
  // http_proxy needs an origin: a COPS-HTTP server that outlives it.
  std::unique_ptr<ExampleProcess> origin;
  uint16_t origin_port = 0;
  if (name == "http_proxy") {
    origin = std::make_unique<ExampleProcess>(
        "cops_http_server", serving_args("cops_http_server", root, 0));
    origin_port = origin->read_port();
    ASSERT_NE(origin_port, 0) << origin->output();
  }
  ExampleProcess process(name, serving_args(name, root, origin_port));
  const uint16_t port = process.read_port();
  ASSERT_NE(port, 0) << "no start-up line from " << name << ": "
                     << process.output();

  if (name == "quickstart") {
    EXPECT_NE(exchange(port, "hi\n", "Z\n").find("Z\n"), std::string::npos);
  } else if (name == "echo_server") {
    EXPECT_NE(exchange(port, "hello\n", "\n").find("HELLO\n"),
              std::string::npos);
  } else if (name == "chat_server") {
    test::BlockingClient a;
    test::BlockingClient b;
    ASSERT_TRUE(a.connect("127.0.0.1", port));
    ASSERT_NE(a.read_until("\n").find("* welcome"), std::string::npos);
    ASSERT_TRUE(b.connect("127.0.0.1", port));
    ASSERT_NE(b.read_until("\n").find("* welcome"), std::string::npos);
    ASSERT_TRUE(a.send_all("hi there\n"));
    EXPECT_NE(b.read_until("hi there\n").find("] hi there\n"),
              std::string::npos);
  } else if (name == "mail_server") {
    test::BlockingClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", port));
    EXPECT_EQ(client.read_until("\r\n").substr(0, 3), "220");
    ASSERT_TRUE(client.send_all("HELO me\r\n"));
    EXPECT_EQ(client.read_until("\r\n").substr(0, 3), "250");
    ASSERT_TRUE(client.send_all("QUIT\r\n"));
    EXPECT_EQ(client.read_until("\r\n").substr(0, 3), "221");
  } else if (name == "cops_ftp_server") {
    EXPECT_EQ(exchange(port, "", "\r\n").substr(0, 3), "220");
  } else {
    // cops_http_server, http_cluster, http_proxy: one GET.
    const std::string reply = exchange(port, kGet, kBody);
    EXPECT_EQ(reply.substr(0, 15), "HTTP/1.1 200 OK") << reply;
    EXPECT_NE(reply.find(kBody), std::string::npos) << reply;
  }

  process.signal(SIGTERM);
  const int status = process.wait_exit(std::chrono::seconds(15));
  if (name == "cops_http_server") {
    EXPECT_TRUE(exited_zero(status))
        << "wait status " << status << ", output:\n" << process.output();
  } else {
    // Still serving when the signal came: no crash, no early exit.
    EXPECT_TRUE(status != -1 && WIFSIGNALED(status) &&
                WTERMSIG(status) == SIGTERM)
        << name << " wait status " << status << ", output:\n"
        << process.output();
  }
  if (origin) {
    origin->signal(SIGTERM);
    EXPECT_TRUE(exited_zero(origin->wait_exit(std::chrono::seconds(15))));
  }
}

// With its bounded-run flag each example flushes its start-up line, stops
// on its own and exits 0.  http_proxy's backend need not be up for that.
TEST_P(ExamplesTest, BoundedRunExitsZero) {
  const std::string& name = GetParam();
  std::vector<std::string> args = serving_args(name, docs_.str(), 1);
  for (auto& arg : bounded_run(name)) args.push_back(arg);
  ExampleProcess process(name, args);
  ASSERT_NE(process.read_port(), 0) << "no start-up line from " << name
                                    << ": " << process.output();
  const int status = process.wait_exit(std::chrono::seconds(15));
  EXPECT_TRUE(exited_zero(status))
      << name << " wait status " << status << ", output:\n"
      << process.output();
}

INSTANTIATE_TEST_SUITE_P(
    AllExamples, ExamplesTest,
    ::testing::Values("quickstart", "echo_server", "chat_server",
                      "mail_server", "cops_http_server", "cops_ftp_server",
                      "http_proxy", "http_cluster"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// SIGTERM drains the server and the process exits 0, long before its
// --run-seconds bound.
TEST(ExamplesSignalTest, CopsHttpServerDrainsOnSigterm) {
  test::TempDir docs;
  docs.write_file("index.html", kBody);
  ExampleProcess process("cops_http_server",
                         {"--root", docs.str(), "--port", "0",
                          "--run-seconds", "60"});
  const uint16_t port = process.read_port();
  ASSERT_NE(port, 0) << process.output();
  const std::string reply = exchange(port, kGet, kBody);
  EXPECT_NE(reply.find(kBody), std::string::npos) << reply;

  const auto sent = std::chrono::steady_clock::now();
  process.signal(SIGTERM);
  const int status = process.wait_exit(std::chrono::seconds(15));
  EXPECT_TRUE(exited_zero(status))
      << "wait status " << status << ", output:\n" << process.output();
  EXPECT_LT(std::chrono::steady_clock::now() - sent, std::chrono::seconds(10));
  EXPECT_NE(process.output().find("signal: draining\ndrained\n"),
            std::string::npos)
      << process.output();
}

}  // namespace
}  // namespace cops
