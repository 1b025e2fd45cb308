#pragma once
/// \file parse.hpp
/// \brief Checked number parsing for the interchange-format readers.

#include <charconv>
#include <cmath>
#include <limits>
#include <string_view>
#include <system_error>

#include "util/check.hpp"

namespace m3d::util {

/// Parse all of `token` as a T (int or double). Throws util::Error naming
/// `what` and the token when it is empty, not a number, has trailing
/// characters or does not fit in T. A single leading '+' is accepted, as
/// std::stoi/std::stod did.
template <typename T>
T parse_number(std::string_view token, std::string_view what) {
  std::string_view digits = token;
  if (digits.size() > 1 && digits.front() == '+') digits.remove_prefix(1);
  T value{};
  const char* last = digits.data() + digits.size();
  const auto [ptr, ec] = std::from_chars(digits.data(), last, value);
  M3D_CHECK_MSG(ec == std::errc() && ptr == last,
                "bad " << what << " '" << token << "'"
                       << (ec == std::errc::result_out_of_range
                               ? " (out of range)"
                               : ""));
  return value;
}

/// Convert a parsed number to int. Throws util::Error naming `what` and
/// the value when it is not finite, not integral or outside [lo, hi].
inline int checked_int(double value, std::string_view what,
                       int lo = std::numeric_limits<int>::min(),
                       int hi = std::numeric_limits<int>::max()) {
  M3D_CHECK_MSG(std::isfinite(value) && value == std::trunc(value) &&
                    value >= lo && value <= hi,
                "bad " << what << " " << value << " (want an integer in ["
                       << lo << ", " << hi << "])");
  return static_cast<int>(value);
}

}  // namespace m3d::util
