// FileIoService — non-blocking file I/O emulation (Proactor pattern).
//
// Java (and POSIX, practically) offers no non-blocking file reads, so the
// paper emulates them: a pool of threads performs the blocking operation and
// the result comes back as a Completion Event (paper, Sections I/II:
// "non-blocking file I/O operations are emulated using a pool of threads").
// The pool is an EventProcessor of its own ("file-io"), apart from the
// reactive one: a blocking read on a reactive processor thread is option
// O4 = Synchronous.
//
// The caller provides an executor — typically the reactive processor's
// submit, with the issuing connection's priority — so the completion
// re-enters the normal event flow instead of running on the I/O thread.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>

#include "common/status.hpp"
#include "nserver/event_processor.hpp"

namespace cops::nserver {

// An open-and-read file snapshot ("File Handle" + contents in one immutable
// object; shared by the cache and in-flight replies).  A file of
// kSendfileMinBytes or more is *opened*, not read: `fd` then holds the
// descriptor (owned — closed on destruction), `bytes` stays empty, and the
// reply goes out through sendfile(2) without the bytes entering user space.
struct FileData {
  std::string path;
  std::string bytes;
  int64_t mtime_seconds = 0;
  int fd = -1;
  uint64_t fd_size = 0;

  FileData() = default;
  FileData(const FileData&) = delete;  // owns fd
  FileData& operator=(const FileData&) = delete;
  ~FileData();

  [[nodiscard]] size_t size() const {
    return fd >= 0 ? static_cast<size_t>(fd_size) : bytes.size();
  }
};

using FileDataPtr = std::shared_ptr<const FileData>;

// Files at or above this size load as an open descriptor: they bypass the
// cache, which keeps holding the small, hot files, and are sent with
// sendfile(2).  Smaller files are read, cached and gathered with writev.
inline constexpr size_t kSendfileMinBytes = 256 * 1024;

using FileCallback = std::function<void(Result<FileDataPtr>)>;
// Runs a completion on the appropriate event flow (see class comment).
using CompletionExecutor = std::function<void(std::function<void()>)>;

class FileIoService {
 public:
  explicit FileIoService(size_t threads);
  ~FileIoService();

  // Blocking read of a whole file into memory, whatever its size.
  static Result<FileDataPtr> read_file(const std::string& path);
  // Blocking load (synchronous completion mode O4, and the async path): a
  // full read below kSendfileMinBytes, an open descriptor at or above it.
  static Result<FileDataPtr> load_file(const std::string& path);

  // Asynchronous load_file: performs the blocking I/O on the pool, then
  // invokes `callback` via `executor`.  Dropped after stop().
  void async_read(std::string path, FileCallback callback,
                  CompletionExecutor executor);

  // Stops taking loads, runs the queued ones, joins the pool.
  void stop();

  // Loads queued and not yet started — the overload manager's file-io
  // watched queue.
  [[nodiscard]] size_t pending() const { return pool_.queue_depth(); }
  [[nodiscard]] uint64_t completed() const { return completed_.load(); }

  // Test hook: runs just before load_file's ::open, after any metadata
  // decision could have been made from a *different* file.  The TOCTOU
  // regression test swaps the file out here and asserts the served bytes
  // and mtime still agree.
  static void set_test_pre_open_hook(std::function<void(const std::string&)>);

 private:
  EventProcessor pool_;
  std::atomic<uint64_t> completed_{0};
};

namespace detail {
// Invokes the FileIoService test pre-open hook (no-op when unset).
void invoke_test_pre_open_hook(const std::string& path);
}  // namespace detail

}  // namespace cops::nserver
