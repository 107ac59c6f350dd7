// User database for COPS-FTP logins.
//
// Stands in for the LDAP-backed user store of the Apache FTPServer code the
// paper's COPS-FTP reused (Table 3 "Reused code" covered "a database for
// LDAP access and user activity monitoring").
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace cops::ftp {

struct UserRecord {
  std::string password;
  bool write_allowed = false;
};

class UserDb {
 public:
  // Adds or replaces a user.
  void add_user(const std::string& name, const std::string& password,
                bool write_allowed = false);
  void allow_anonymous(bool allowed) { anonymous_ = allowed; }

  // Checks credentials; anonymous (any password) if enabled.
  [[nodiscard]] bool authenticate(const std::string& name,
                                  const std::string& password) const;
  [[nodiscard]] bool can_write(const std::string& name) const;

  // Activity monitoring (the reused substrate's feature).
  void record_login(const std::string& name);
  [[nodiscard]] uint64_t login_count(const std::string& name) const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, UserRecord> users_;
  std::map<std::string, uint64_t> logins_;
  bool anonymous_ = false;
};

}  // namespace cops::ftp
