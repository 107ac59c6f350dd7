#include "nserver/file_io_service.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>

namespace cops::nserver {

namespace {
std::function<void(const std::string&)>& pre_open_hook() {
  static std::function<void(const std::string&)> hook;
  return hook;
}
}  // namespace

void FileIoService::set_test_pre_open_hook(
    std::function<void(const std::string&)> hook) {
  pre_open_hook() = std::move(hook);
}

namespace detail {
void invoke_test_pre_open_hook(const std::string& path) {
  if (pre_open_hook()) pre_open_hook()(path);
}
}  // namespace detail

FileData::~FileData() {
  if (fd >= 0) ::close(fd);
}

FileIoService::FileIoService(size_t threads)
    : pool_({.name = "file-io", .threads = threads}) {}

FileIoService::~FileIoService() { stop(); }

void FileIoService::stop() { pool_.stop(); }

namespace {

// Loads `path`, handing back the open descriptor instead of the bytes when
// the file has at least `fd_min_bytes`.
Result<FileDataPtr> open_file(const std::string& path, size_t fd_min_bytes) {
  // TOCTOU-safe: open the descriptor first and derive *everything* —
  // existence, type, size, mtime, bytes — from that one descriptor.  The
  // old stat-then-open shape could serve file B's bytes with file A's
  // size/mtime when the path was swapped between the two calls.
  detail::invoke_test_pre_open_hook(path);
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT || errno == ENOTDIR) return Status::not_found(path);
    return Status::from_errno("open");
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::from_errno("fstat");
  }
  if (!S_ISREG(st.st_mode)) {
    ::close(fd);
    return Status::invalid_argument(path + " is not a regular file");
  }
  auto data = std::make_shared<FileData>();
  data->path = path;
  data->mtime_seconds = static_cast<int64_t>(st.st_mtime);
  if (static_cast<size_t>(st.st_size) >= fd_min_bytes) {
    // sendfile-sized: hand back the open descriptor, no bytes in memory.
    data->fd = fd;
    data->fd_size = static_cast<uint64_t>(st.st_size);
    return FileDataPtr(std::move(data));
  }
  data->bytes.resize(static_cast<size_t>(st.st_size));
  size_t off = 0;
  while (off < data->bytes.size()) {
    const ssize_t n =
        ::read(fd, data->bytes.data() + off, data->bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Status::from_errno("read");
    }
    if (n == 0) {
      ::close(fd);
      return Status::io_error("short read on " + path);
    }
    off += static_cast<size_t>(n);
  }
  ::close(fd);
  return FileDataPtr(std::move(data));
}

}  // namespace

Result<FileDataPtr> FileIoService::read_file(const std::string& path) {
  return open_file(path, SIZE_MAX);
}

Result<FileDataPtr> FileIoService::load_file(const std::string& path) {
  return open_file(path, kSendfileMinBytes);
}

void FileIoService::async_read(std::string path, FileCallback callback,
                               CompletionExecutor executor) {
  Event load;
  load.action = [this, path = std::move(path), callback = std::move(callback),
                 executor = std::move(executor)]() mutable {
    auto result = load_file(path);
    completed_.fetch_add(1, std::memory_order_relaxed);
    executor([callback = std::move(callback), result = std::move(result)] {
      callback(result);
    });
  };
  pool_.submit(std::move(load));
}

}  // namespace cops::nserver
