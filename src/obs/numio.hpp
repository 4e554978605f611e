// Locale-independent number I/O.
//
// printf("%g"), strtod and ostream<< all consult the global C/C++ locale:
// under a comma-decimal locale (de_DE, fr_FR, ...) they render "3,14" and
// refuse to parse "3.14", silently corrupting CSV tables, JSON protocol
// frames and metric exports the moment an embedding application calls
// setlocale(). Everything user-visible therefore funnels through
// std::to_chars / std::from_chars, which are specified to use the C locale
// always. to_chars(general, precision) is specified to format exactly as
// printf("%.*g") in the C locale, so swapping snprintf for it is
// byte-identical where it matters (golden CSV files); to_chars without a
// precision emits the shortest round-trip form.
#pragma once

#include <charconv>
#include <cstddef>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>

namespace tags::numio {

/// Format like printf("%.*g", precision, v) in the C locale. A negative
/// precision falls back to printf's default of 6.
inline std::string format_g(double v, int precision) {
  if (precision < 0) precision = 6;
  char buf[64];
  const auto [end, ec] =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, precision);
  if (ec != std::errc{}) return "?";  // cannot happen for double with this buffer
  return std::string(buf, end);
}

/// Shortest representation that parses back to exactly `v` (round-trip).
inline std::string format_roundtrip(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc{}) return "?";
  return std::string(buf, end);
}

/// Parse a whole token as a decimal integer of type T: nullopt unless the
/// entire token is consumed and fits T, so "2x", " 1", "" and, for an
/// unsigned T, "-1" are rejected rather than read as whatever prefix
/// strtol or atoi would make of them.
template <class T>
std::optional<T> parse_int(std::string_view s) {
  T v{};
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (s.empty() || ec != std::errc{} || p != s.data() + s.size()) return std::nullopt;
  return v;
}

/// Parse a whole token as a double, locale-independently, with strtod's
/// range semantics: a syntactically valid number whose magnitude overflows
/// yields +-infinity, one that underflows yields +-0.0 (from_chars alone
/// reports result_out_of_range and leaves the value unspecified, so the
/// direction is recovered from the token's decimal exponent). Returns
/// nullopt unless the entire token is consumed.
inline std::optional<double> parse_double(std::string_view s) {
  if (s.empty()) return std::nullopt;
  double v = 0.0;
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (p != s.data() + s.size()) return std::nullopt;
  if (ec == std::errc{}) return v;
  if (ec != std::errc::result_out_of_range) return std::nullopt;
  // Out of range: decide overflow vs underflow from the token. The true
  // decimal exponent is far outside [-324, 308], so its sign alone picks
  // the strtod result.
  const bool neg = s.front() == '-';
  std::string_view mant = s.substr(neg ? 1 : 0);
  long exp10 = 0;
  if (const std::size_t epos = mant.find_first_of("eE");
      epos != std::string_view::npos) {
    const std::string_view etok = mant.substr(epos + 1);
    mant = mant.substr(0, epos);
    long e = 0;
    const bool eneg = !etok.empty() && etok.front() == '-';
    for (const char c : etok) {
      if (c < '0' || c > '9') continue;
      if (e < 1000000) e = e * 10 + (c - '0');  // clamp: only the sign matters
    }
    exp10 = eneg ? -e : e;
  }
  // Exponent of the first significant digit relative to the decimal point.
  bool seen_point = false;
  bool seen_sig = false;
  long first_sig = 0;
  long int_digits = 0;
  for (const char c : mant) {
    if (c == '.') {
      seen_point = true;
      continue;
    }
    if (c < '0' || c > '9') break;
    if (!seen_point) {
      if (seen_sig || c != '0') ++int_digits;
      if (!seen_sig && c != '0') seen_sig = true;
    } else if (!seen_sig) {
      --first_sig;
      if (c != '0') seen_sig = true;
    }
  }
  if (int_digits > 0) first_sig = int_digits - 1;
  if (!seen_sig) return neg ? -0.0 : 0.0;  // defensive: zero never overflows
  const double huge = std::numeric_limits<double>::infinity();
  const bool overflow = first_sig + exp10 > 0;
  const double mag = overflow ? huge : 0.0;
  return neg ? -mag : mag;
}

}  // namespace tags::numio
