#include "common/flags.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/check.h"

namespace sprite {
namespace {

bool IsFlagName(std::string_view name) { return StartsWith(name, "--"); }

bool ParseNumber(std::string_view text, double* out) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || stop != end || !std::isfinite(value)) return false;
  *out = value;
  return true;
}

bool ParseHostPort(std::string_view text, std::string* host, uint16_t* port) {
  const size_t colon = text.rfind(':');
  uint16_t value = 0;
  if (colon == std::string_view::npos || colon == 0 ||
      !ParseWhole(text.substr(colon + 1), &value)) {
    return false;
  }
  *host = std::string(text.substr(0, colon));
  *port = value;
  return true;
}

}  // namespace

Flags& Flags::Port(std::string_view name, uint16_t* out) {
  // from_chars rejects a value over the type's maximum.
  return Add(name, "not a port (a whole decimal of at most 65535)",
             [out](std::string_view v) { return ParseWhole(v, out); });
}

Flags& Flags::Number(std::string_view name, double* out) {
  return Add(name, "not a finite decimal number",
             [out](std::string_view v) { return ParseNumber(v, out); });
}

Flags& Flags::String(std::string_view name, std::string* out) {
  return Add(name, "", [out](std::string_view v) {
    *out = std::string(v);
    return true;
  });
}

Flags& Flags::OneOf(std::string_view name, std::string* out,
                    std::vector<std::string> choices) {
  std::string invalid = "not one of " + JoinStrings(choices, "|");
  return Add(name, std::move(invalid),
             [out, choices = std::move(choices)](std::string_view v) {
               for (const std::string& choice : choices) {
                 if (v != choice) continue;
                 *out = choice;
                 return true;
               }
               return false;
             });
}

Flags& Flags::Switch(std::string_view name, bool* out) {
  return Add(
      name, "",
      [out](std::string_view) {
        *out = true;
        return true;
      },
      /*takes_value=*/false);
}

Flags& Flags::HostPort(std::string_view name, std::string* host,
                       uint16_t* port) {
  return Add(name, "not HOST:PORT with a port of at most 65535",
             [host, port](std::string_view v) {
               return ParseHostPort(v, host, port);
             });
}

Flags& Flags::Add(std::string_view name, std::string invalid,
                  std::function<bool(std::string_view)> set,
                  bool takes_value) {
  std::vector<Arg>& args = IsFlagName(name) ? flags_ : positionals_;
  for (const Arg& arg : args) SPRITE_CHECK(arg.name != name);
  SPRITE_CHECK(takes_value || &args == &flags_);
  args.push_back(
      Arg{std::string(name), std::move(invalid), takes_value, std::move(set)});
  return *this;
}

Status Flags::Parse(int argc, const char* const* argv, int first) const {
  const auto error = [](std::string_view reason, std::string_view arg) {
    return Status::InvalidArgument(std::string(reason) + ": " +
                                   std::string(arg));
  };
  size_t filled = 0;  // positionals taken so far
  for (int i = first; i < argc; ++i) {
    const std::string_view text = argv[i];
    const Arg* arg = nullptr;
    std::string_view value = text;
    if (IsFlagName(text)) {
      const size_t eq = text.find('=');
      for (const Arg& flag : flags_) {
        if (flag.name == text.substr(0, eq)) arg = &flag;
      }
      if (arg == nullptr) return error("unknown flag", text);
      if (arg->takes_value != (eq != std::string_view::npos)) {
        return error(arg->takes_value ? "wants a value" : "takes no value",
                     text);
      }
      value = arg->takes_value ? text.substr(eq + 1) : std::string_view();
    } else {
      if (filled == positionals_.size()) {
        return error("unexpected argument", text);
      }
      arg = &positionals_[filled++];
    }
    if (!arg->set(value)) return error(arg->invalid, text);
  }
  if (filled < positionals_.size()) {
    return error("missing argument", positionals_[filled].name);
  }
  return Status::OK();
}

void Flags::ParseOrExit(int argc, const char* const* argv, int first) const {
  const Status parsed = Parse(argc, argv, first);
  if (parsed.ok()) return;
  std::fprintf(stderr, "%s\n", parsed.message().c_str());
  if (!usage_.empty()) std::fprintf(stderr, "usage: %s\n", usage_.c_str());
  std::exit(2);
}

}  // namespace sprite
