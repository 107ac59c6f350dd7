// Compatibility stub: the server has no io_uring backend, so the probe is
// always false.  The benchmark's environment line reads it.
#pragma once

namespace cops::net {

[[nodiscard]] inline bool uring_available() { return false; }

}  // namespace cops::net
