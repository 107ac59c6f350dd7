#include "net/inet_address.hpp"

#include <arpa/inet.h>

#include <cstring>

namespace cops::net {

Result<InetAddress> InetAddress::parse(const std::string& host, uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string h = host == "localhost" ? "127.0.0.1" : host;
  if (inet_pton(AF_INET, h.c_str(), &addr.sin_addr) != 1) {
    return Status::invalid_argument("bad IPv4 address: " + host);
  }
  return InetAddress(addr);
}

InetAddress InetAddress::loopback(uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return InetAddress(addr);
}

uint16_t InetAddress::port() const { return ntohs(addr_.sin_port); }

std::string InetAddress::host() const {
  char buf[INET_ADDRSTRLEN] = {};
  inet_ntop(AF_INET, &addr_.sin_addr, buf, sizeof(buf));
  return buf;
}

std::string InetAddress::to_string() const {
  return host() + ":" + std::to_string(port());
}

}  // namespace cops::net
