#include "http/http_date.hpp"

#include <cstdio>
#include <cstring>
#include <ctime>
#include <mutex>
#include <string_view>

#include "common/clock.hpp"

namespace cops::http {
namespace {

// Fixed English tables (RFC 7231 dates are locale-invariant by definition).
constexpr const char* kDays[7] = {"Sun", "Mon", "Tue", "Wed",
                                  "Thu", "Fri", "Sat"};
constexpr const char* kDaysLong[7] = {"Sunday",   "Monday", "Tuesday",
                                      "Wednesday", "Thursday", "Friday",
                                      "Saturday"};
constexpr const char* kMonths[12] = {"Jan", "Feb", "Mar", "Apr",
                                     "May", "Jun", "Jul", "Aug",
                                     "Sep", "Oct", "Nov", "Dec"};

int month_number(std::string_view token) {
  for (int m = 0; m < 12; ++m) {
    if (token == kMonths[m]) return m;
  }
  return -1;
}

bool known_day_name(std::string_view token) {
  for (const char* day : kDays) {
    if (token == day) return true;
  }
  return false;
}

bool known_long_day_name(std::string_view token) {
  for (const char* day : kDaysLong) {
    if (token == day) return true;
  }
  return false;
}

// Consumes exactly `digits` ASCII digits from the front of `in` into `out`.
bool eat_digits(std::string_view& in, size_t digits, int& out) {
  if (in.size() < digits) return false;
  int value = 0;
  for (size_t i = 0; i < digits; ++i) {
    const char c = in[i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + (c - '0');
  }
  in.remove_prefix(digits);
  out = value;
  return true;
}

bool eat_literal(std::string_view& in, std::string_view literal) {
  if (in.substr(0, literal.size()) != literal) return false;
  in.remove_prefix(literal.size());
  return true;
}

// HH:MM:SS with range checks (timegm would silently normalize 25:61:61).
bool eat_time(std::string_view& in, tm& out) {
  int hour = 0;
  int minute = 0;
  int second = 0;
  if (!eat_digits(in, 2, hour) || !eat_literal(in, ":") ||
      !eat_digits(in, 2, minute) || !eat_literal(in, ":") ||
      !eat_digits(in, 2, second)) {
    return false;
  }
  if (hour > 23 || minute > 59 || second > 59) return false;
  out.tm_hour = hour;
  out.tm_min = minute;
  out.tm_sec = second;
  return true;
}

int64_t finish(tm& parsed, int day, int month, int year) {
  if (day < 1 || day > 31) return -1;
  parsed.tm_mday = day;
  parsed.tm_mon = month;
  parsed.tm_year = year - 1900;
  const time_t t = ::timegm(&parsed);
  return t < 0 ? -1 : static_cast<int64_t>(t);
}

// IMF-fixdate after the "Sun, " prefix: "06 Nov 1994 08:49:37 GMT".
int64_t parse_imf_fixdate(std::string_view rest) {
  tm parsed{};
  int day = 0;
  int year = 0;
  if (!eat_digits(rest, 2, day) || !eat_literal(rest, " ")) return -1;
  const int month = month_number(rest.substr(0, 3));
  if (month < 0) return -1;
  rest.remove_prefix(3);
  if (!eat_literal(rest, " ") || !eat_digits(rest, 4, year) ||
      !eat_literal(rest, " ") || !eat_time(rest, parsed) ||
      !eat_literal(rest, " GMT") || !rest.empty()) {
    return -1;
  }
  return finish(parsed, day, month, year);
}

// RFC 850 after the "Sunday, " prefix: "06-Nov-94 08:49:37 GMT".
int64_t parse_rfc850(std::string_view rest) {
  tm parsed{};
  int day = 0;
  int year2 = 0;
  if (!eat_digits(rest, 2, day) || !eat_literal(rest, "-")) return -1;
  const int month = month_number(rest.substr(0, 3));
  if (month < 0) return -1;
  rest.remove_prefix(3);
  if (!eat_literal(rest, "-") || !eat_digits(rest, 2, year2) ||
      !eat_literal(rest, " ") || !eat_time(rest, parsed) ||
      !eat_literal(rest, " GMT") || !rest.empty()) {
    return -1;
  }
  // RFC 7231: a two-digit year that appears more than 50 years in the
  // future is in the past century.  The conventional pivot: 00-69 → 20xx.
  const int year = year2 < 70 ? 2000 + year2 : 1900 + year2;
  return finish(parsed, day, month, year);
}

// asctime: "Sun Nov  6 08:49:37 1994" (day-of-month space-padded).
int64_t parse_asctime(std::string_view value) {
  if (value.size() < 4 || !known_day_name(value.substr(0, 3))) return -1;
  std::string_view rest = value.substr(3);
  tm parsed{};
  int day = 0;
  int year = 0;
  if (!eat_literal(rest, " ")) return -1;
  const int month = month_number(rest.substr(0, 3));
  if (month < 0) return -1;
  rest.remove_prefix(3);
  if (!eat_literal(rest, " ")) return -1;
  if (eat_literal(rest, " ")) {  // " 6": single digit
    if (!eat_digits(rest, 1, day)) return -1;
  } else if (!eat_digits(rest, 2, day)) {
    return -1;
  }
  if (!eat_literal(rest, " ") || !eat_time(rest, parsed) ||
      !eat_literal(rest, " ") || !eat_digits(rest, 4, year) ||
      !rest.empty()) {
    return -1;
  }
  return finish(parsed, day, month, year);
}

}  // namespace

std::string format_http_date(int64_t unix_seconds) {
  // Civil date from the day count (Hinnant's civil_from_days), written
  // straight into the fixed-width form: no gmtime_r, no format parsing.
  int64_t days = unix_seconds / 86400;
  int64_t secs = unix_seconds % 86400;
  if (secs < 0) {
    secs += 86400;
    --days;
  }
  const int64_t z = days + 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const auto doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  const unsigned mday = doy - (153 * mp + 2) / 5 + 1;
  const unsigned mon = mp < 10 ? mp + 2 : mp - 10;  // 0 = January
  const int64_t year = static_cast<int64_t>(yoe) + era * 400 + (mon < 2);
  const auto wday = static_cast<unsigned>(((days % 7) + 11) % 7);  // 0 = Sun
  const auto hour = static_cast<unsigned>(secs / 3600);
  const auto min = static_cast<unsigned>(secs / 60 % 60);
  const auto sec = static_cast<unsigned>(secs % 60);
  if (year < 0 || year > 9999) {  // outside IMF-fixdate's four digits
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s, %02u %s %04lld %02u:%02u:%02u GMT",
                  kDays[wday], mday, kMonths[mon],
                  static_cast<long long>(year), hour, min, sec);
    return buf;
  }
  char out[kHttpDateLength + 1] = "Thu, 01 Jan 1970 00:00:00 GMT";
  const auto two = [&out](size_t at, unsigned v) {
    out[at] = static_cast<char>('0' + v / 10);
    out[at + 1] = static_cast<char>('0' + v % 10);
  };
  std::memcpy(out, kDays[wday], 3);
  two(5, mday);
  std::memcpy(out + 8, kMonths[mon], 3);
  two(12, static_cast<unsigned>(year / 100));
  two(14, static_cast<unsigned>(year % 100));
  two(17, hour);
  two(20, min);
  two(23, sec);
  return std::string(out, kHttpDateLength);
}

int64_t parse_http_date(const std::string& value) {
  const size_t comma = value.find(',');
  if (comma == std::string::npos) return parse_asctime(value);
  const std::string_view day_name(value.data(), comma);
  std::string_view rest(value);
  rest.remove_prefix(comma + 1);
  if (!eat_literal(rest, " ")) return -1;
  if (known_day_name(day_name)) return parse_imf_fixdate(rest);
  if (known_long_day_name(day_name)) return parse_rfc850(rest);
  return -1;
}

std::string now_http_date() {
  static std::mutex mutex;
  static time_t cached_second = 0;
  static std::string cached_value;
  const time_t t = static_cast<time_t>(cops::unix_now_seconds());
  std::lock_guard lock(mutex);
  if (t != cached_second) {
    cached_second = t;
    cached_value = format_http_date(static_cast<int64_t>(t));
  }
  return cached_value;
}

}  // namespace cops::http
