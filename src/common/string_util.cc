#include "common/string_util.h"

#include <cstdarg>
#include <cstdio>

namespace sprite {

void AsciiLowerInPlace(std::string& s) {
  for (char& c : s) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
}

std::string AsciiLower(std::string_view s) {
  std::string out(s);
  AsciiLowerInPlace(out);
  return out;
}

std::vector<std::string> SplitString(std::string_view s,
                                     std::string_view delims) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || delims.find(s[i]) != std::string_view::npos) {
      if (i > start) out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string_view TrimWhitespace(std::string_view s) {
  const char* ws = " \t\r\n\f\v";
  size_t b = s.find_first_not_of(ws);
  if (b == std::string_view::npos) return std::string_view();
  size_t e = s.find_last_not_of(ws);
  return s.substr(b, e - b + 1);
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::string out = StrFormatV(fmt, args);
  va_end(args);
  return out;
}

std::string StrFormatV(const char* fmt, va_list args) {
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace sprite
