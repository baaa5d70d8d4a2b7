#ifndef SPRITE_COMMON_STRING_UTIL_H_
#define SPRITE_COMMON_STRING_UTIL_H_

#include <charconv>
#include <cstdarg>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace sprite {

// Lowercases ASCII letters in place; other bytes are untouched.
void AsciiLowerInPlace(std::string& s);

// Returns an ASCII-lowercased copy of `s`.
std::string AsciiLower(std::string_view s);

// Splits `s` on any character in `delims`, dropping empty pieces.
std::vector<std::string> SplitString(std::string_view s,
                                     std::string_view delims);

// Joins `parts` with `sep`.
std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep);

// True if `s` starts with / ends with the given prefix/suffix.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

// Trims ASCII whitespace from both ends.
std::string_view TrimWhitespace(std::string_view s);

// True when all of `text` is a decimal number that fits the unsigned `T`:
// no sign, no spaces, nothing before or after the digits. The one parser
// for numbers from flags, URLs and request bodies.
template <typename T>
bool ParseWhole(std::string_view text, T* out) {
  static_assert(std::is_unsigned_v<T>);
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && stop == end;
}

// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));
// The same over a va_list (for variadic wrappers); `args` is consumed.
std::string StrFormatV(const char* fmt, va_list args)
    __attribute__((format(printf, 1, 0)));

}  // namespace sprite

#endif  // SPRITE_COMMON_STRING_UTIL_H_
