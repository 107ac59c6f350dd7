#include "ftp/user_db.hpp"

namespace cops::ftp {

void UserDb::add_user(const std::string& name, const std::string& password,
                      bool write_allowed) {
  std::lock_guard lock(mutex_);
  users_[name] = {password, write_allowed};
}

bool UserDb::authenticate(const std::string& name,
                          const std::string& password) const {
  std::lock_guard lock(mutex_);
  if (anonymous_ && name == "anonymous") return true;
  auto it = users_.find(name);
  return it != users_.end() && it->second.password == password;
}

bool UserDb::can_write(const std::string& name) const {
  std::lock_guard lock(mutex_);
  auto it = users_.find(name);
  return it != users_.end() && it->second.write_allowed;
}

void UserDb::record_login(const std::string& name) {
  std::lock_guard lock(mutex_);
  logins_[name] += 1;
}

uint64_t UserDb::login_count(const std::string& name) const {
  std::lock_guard lock(mutex_);
  auto it = logins_.find(name);
  return it == logins_.end() ? 0 : it->second;
}

}  // namespace cops::ftp
