// Events and Asynchronous Completion Tokens.
//
// The N-Server's unit of work.  Each of the five request-handling steps and
// every service completion is packaged as an Event and flows through an
// EventProcessor.  The priority field exists for option O8 (event
// scheduling): the paper notes this field crosscuts the Event and
// Communicator classes when scheduling is generated.  EventKind names the
// steps for the debug trace.
//
// The Asynchronous Completion Token (Harrison & Schmidt, 1997) names the
// connection that issued a service request (e.g. a file read).  In object
// form it is the RequestContext the completion closure holds: a completion
// whose connection closed meanwhile is dropped by
// RequestContext::connection_closed().  CompletionToken is the id form the
// generated completion configuration names.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace cops::nserver {

enum class EventKind : uint8_t {
  kAccept,      // new connection admitted
  kRead,        // socket readable (dispatcher-side, Read Request step)
  kDecode,      // Decode Request step
  kCompute,     // Handle Request step
  kEncode,      // Encode Reply step
  kSend,        // Send Reply step (dispatcher-side)
  kCompletion,  // asynchronous operation completed (file open/read, ...)
  kTimer,
  kUser,
  kShutdown,
};

[[nodiscard]] constexpr const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kAccept: return "Accept";
    case EventKind::kRead: return "Read";
    case EventKind::kDecode: return "Decode";
    case EventKind::kCompute: return "Compute";
    case EventKind::kEncode: return "Encode";
    case EventKind::kSend: return "Send";
    case EventKind::kCompletion: return "Completion";
    case EventKind::kTimer: return "Timer";
    case EventKind::kUser: return "User";
    case EventKind::kShutdown: return "Shutdown";
  }
  return "?";
}

// Asynchronous Completion Token: identifies the issuing connection.
struct CompletionToken {
  uint64_t connection_id = 0;

  friend bool operator==(const CompletionToken&,
                         const CompletionToken&) = default;
};

// A schedulable unit of work.  The action carries the bound step logic.
struct Event {
  int priority = 0;  // 0 = highest; used only with event scheduling (O8)
  // Submission timestamp (trace_now_us), stamped by the EventProcessor when
  // profiling is on; 0 otherwise.  Feeds the queue_wait stage histogram.
  int64_t enqueued_us = 0;
  std::function<void()> action;
};

}  // namespace cops::nserver
