// Per-connection FTP session state and data-connection mechanics.
//
// COPS-FTP runs with the paper's Table 1 settings: synchronous completion
// events and dynamic event-thread allocation.  Data transfers therefore
// perform *blocking* socket I/O on the Event Processor worker that handles
// the command — the processor pool grows under load (ProcessorController) —
// while the control connections stay event-driven on the dispatcher.
#pragma once

#include <cstdint>
#include <string>

#include "common/status.hpp"
#include "ftp/command.hpp"

namespace cops::ftp {

// RAII blocking data-connection socket.
class DataConnection {
 public:
  DataConnection() = default;
  explicit DataConnection(int fd) : fd_(fd) {}
  ~DataConnection() { close(); }
  DataConnection(DataConnection&& other) noexcept : fd_(other.fd_) {
    other.fd_ = -1;
  }
  DataConnection(const DataConnection&) = delete;
  DataConnection& operator=(const DataConnection&) = delete;

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  Status send_all(const std::string& data);
  // Sends `len` bytes of the open file `file_fd` from offset 0 with
  // sendfile(2); fails if the file ends early.
  Status send_file(int file_fd, uint64_t len);
  // Reads to EOF, up to `max_bytes`.
  Result<std::string> read_all(size_t max_bytes = 64 * 1024 * 1024);
  void close();

 private:
  int fd_ = -1;
};

class FtpSession {
 public:
  ~FtpSession() { close_pasv(); }

  // ---- login state -------------------------------------------------------
  std::string username;
  bool authenticated = false;
  std::string cwd = "/";
  char transfer_type = 'I';
  // Pending RNFR source path (consumed by RNTO).
  std::string rename_from;

  // The Decode hook parses into this recycled command (verb/arg keep their
  // capacity) and Handle receives a pointer to it.
  // Safe because the pipeline token invariant allows at most one command in
  // flight per connection.
  FtpCommand scratch_command;

  // ---- data connection setup ----------------------------------------------
  // Passive mode: binds an ephemeral listener; the reply advertises its port.
  Result<uint16_t> enter_passive(const std::string& host);
  void close_pasv();
  [[nodiscard]] bool passive_armed() const { return pasv_fd_ >= 0; }

  // Active mode: remember the PORT target.
  void set_port_target(std::string host, uint16_t port);
  [[nodiscard]] bool port_armed() const { return port_target_set_; }

  // Establishes the data connection per the armed mode (blocking, with
  // timeout).  Consumes the armed state.
  Result<DataConnection> open_data_connection(int timeout_ms = 3000);

 private:
  int pasv_fd_ = -1;
  std::string port_host_;
  uint16_t port_port_ = 0;
  bool port_target_set_ = false;
};

}  // namespace cops::ftp
