// FileIoService — non-blocking file I/O emulation (Proactor pattern).
//
// Java (and POSIX, practically) offers no non-blocking file reads, so the
// paper emulates them: a pool of threads performs the blocking operation and
// the result comes back as a Completion Event carrying an Asynchronous
// Completion Token (paper, Sections I/II: "non-blocking file I/O operations
// are emulated using a pool of threads").
//
// The caller provides an executor — typically EventProcessor::submit bound
// with EventKind::kCompletion and the issuing connection's priority — so the
// completion re-enters the normal event flow instead of running on the I/O
// thread.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "common/status.hpp"
#include "common/thread_pool.hpp"
#include "nserver/event.hpp"

namespace cops::nserver {

// An open-and-read file snapshot ("File Handle" + contents in one immutable
// object; shared by the cache and in-flight replies).  On the sendfile send
// path a large uncached file is *opened*, not read: `fd` then holds the
// descriptor (owned — closed on destruction) and `bytes` stays empty.
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

// How fetch misses are materialised (see ServerOptions::send_path).
struct FileLoadOptions {
  // Open files >= sendfile_min_bytes for sendfile instead of reading them.
  bool open_for_sendfile = false;
  size_t sendfile_min_bytes = 0;
};
using FileCallback = std::function<void(Result<FileDataPtr>)>;
// Runs a completion on the appropriate event flow (see class comment).
using CompletionExecutor = std::function<void(std::function<void()>)>;

class FileIoService {
 public:
  explicit FileIoService(size_t threads);
  ~FileIoService();

  // Blocking read of a whole file (used in synchronous completion mode O4,
  // and internally by the async path).
  static Result<FileDataPtr> read_file(const std::string& path);
  // Blocking load honouring FileLoadOptions: either a full read (cacheable,
  // memory-backed) or — for sendfile-eligible sizes — an open descriptor.
  static Result<FileDataPtr> load_file(const std::string& path,
                                       const FileLoadOptions& load);

  // Asynchronous read: performs the blocking I/O on the pool, then invokes
  // `callback` via `executor`.  `token` travels with the request purely for
  // the caller's correlation (ACT pattern); this service does not interpret
  // it.
  void async_read(std::string path, CompletionToken token,
                  FileCallback callback, CompletionExecutor executor);
  // async_read with FileLoadOptions (the sendfile-aware variant).
  void async_load(std::string path, FileLoadOptions load,
                  CompletionToken token, FileCallback callback,
                  CompletionExecutor executor);

  void stop();

  [[nodiscard]] size_t pending() const { return pool_.queue_depth(); }
  [[nodiscard]] uint64_t completed() const { return completed_.load(); }

  // Test hook: runs just before load_file's ::open, after any metadata
  // decision could have been made from a *different* file.  The TOCTOU
  // regression test swaps the file out here and asserts the served bytes
  // and mtime still agree.
  static void set_test_pre_open_hook(std::function<void(const std::string&)>);

 private:
  ThreadPool pool_;
  std::atomic<uint64_t> completed_{0};
};

namespace detail {
// Invokes the FileIoService test pre-open hook (no-op when unset).
void invoke_test_pre_open_hook(const std::string& path);
}  // namespace detail

}  // namespace cops::nserver
