#ifndef SPRITE_COMMON_FLAGS_H_
#define SPRITE_COMMON_FLAGS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/string_util.h"

namespace sprite {

// The one command-line parser of every binary: sprite_cli, sprite_daemon,
// bench_compare, the benches and the examples. A binary declares each of
// its arguments once, as a name and a typed destination, and Parse makes
// one pass over argv.
//
// A name starting with "--" declares a flag, written --name=VALUE on the
// command line (a Switch is a bare --name). Any other name, such as
// "<corpus.tsv>", declares a required positional argument; the arguments
// that do not start with "--" fill the positionals in declaration order.
// An unknown flag, a value that does not parse as its kind, and a missing
// or extra positional are usage errors naming the argument, so a typo
// never runs with a silent default.
//
//   size_t docs = 3000;
//   std::string out;
//   Flags().Whole("--docs", &docs).String("--out", &out)
//       .ParseOrExit(argc, argv);
class Flags {
 public:
  Flags() = default;
  // `usage` is printed after a usage error, as "usage: <usage>".
  explicit Flags(std::string usage) : usage_(std::move(usage)) {}

  // A whole decimal number (ParseWhole): no sign, nothing but digits.
  template <typename T>
  Flags& Whole(std::string_view name, T* out) {
    return Add(name, "not a whole decimal number",
               [out](std::string_view v) { return ParseWhole(v, out); });
  }
  // A whole decimal number of at most 65535.
  Flags& Port(std::string_view name, uint16_t* out);
  // A finite decimal number such as 4, -0.02 or 1.5e3; no inf or nan.
  Flags& Number(std::string_view name, double* out);
  // Any text, the empty string included.
  Flags& String(std::string_view name, std::string* out);
  // One of `choices`, spelled exactly.
  Flags& OneOf(std::string_view name, std::string* out,
               std::vector<std::string> choices);
  // A bare --name that takes no value and sets `*out` to true.
  Flags& Switch(std::string_view name, bool* out);
  // HOST:PORT, split at the last colon: a non-empty host and a port as
  // Port() takes it. `*host` and `*port` change only when both parse.
  Flags& HostPort(std::string_view name, std::string* host, uint16_t* port);

  // Parses argv[first..argc). A usage error is InvalidArgument with the
  // message "<reason>: <argument>"; destinations may be written by then.
  Status Parse(int argc, const char* const* argv, int first = 1) const;
  // Parse, but a usage error prints its message (and the usage line, when
  // there is one) to stderr and exits 2.
  void ParseOrExit(int argc, const char* const* argv, int first = 1) const;

 private:
  struct Arg {
    std::string name;
    std::string invalid;  // reason given when the value does not parse
    bool takes_value = true;
    std::function<bool(std::string_view)> set;
  };

  Flags& Add(std::string_view name, std::string invalid,
             std::function<bool(std::string_view)> set,
             bool takes_value = true);

  std::string usage_;
  std::vector<Arg> flags_;        // names starting with "--"
  std::vector<Arg> positionals_;  // in declaration order
};

}  // namespace sprite

#endif  // SPRITE_COMMON_FLAGS_H_
