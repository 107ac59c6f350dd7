// IPv4 socket address wrapper.
#pragma once

#include <netinet/in.h>

#include <cstdint>
#include <string>

#include "common/status.hpp"

namespace cops::net {

class InetAddress {
 public:
  InetAddress() { addr_ = {}; }
  // host may be a dotted quad or "localhost"; no DNS resolution beyond that
  // (the experiments all run on loopback).
  static Result<InetAddress> parse(const std::string& host, uint16_t port);
  static InetAddress loopback(uint16_t port);
  explicit InetAddress(const sockaddr_in& addr) : addr_(addr) {}

  [[nodiscard]] const sockaddr_in& raw() const { return addr_; }
  [[nodiscard]] sockaddr_in& raw() { return addr_; }
  [[nodiscard]] uint16_t port() const;
  [[nodiscard]] std::string host() const;
  [[nodiscard]] std::string to_string() const;

 private:
  sockaddr_in addr_{};
};

}  // namespace cops::net
