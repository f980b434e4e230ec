#ifndef IMOLTP_TOOLS_FLAGS_H_
#define IMOLTP_TOOLS_FLAGS_H_

// The command-line flag table every tool in tools/ parses with. A tool
// declares each flag once (name, destination, type, help text); the
// table then parses `--name=value` arguments, refuses malformed values
// before the tool does any work, and generates the tool's --help from
// the same declarations, so usage text cannot drift from the parser.

#include <strings.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace imoltp::tools {

/// Parses a byte-size value like "10MB", "1GB", "512KB", or a bare
/// number (interpreted as MB). Returns 0 on any malformed input: empty,
/// non-numeric, zero, negative, non-finite, unknown suffix, trailing
/// garbage, or a size that does not fit in 64 bits.
inline uint64_t ParseSize(const char* s) {
  if (s == nullptr || ((*s < '0' || *s > '9') && *s != '.')) return 0;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || !std::isfinite(v) || v <= 0) return 0;
  double unit = 0;
  if (strcasecmp(end, "GB") == 0) {
    unit = 1ULL << 30;
  } else if (strcasecmp(end, "KB") == 0) {
    unit = 1ULL << 10;
  } else if (strcasecmp(end, "MB") == 0 || *end == '\0') {
    unit = 1ULL << 20;
  } else {
    return 0;
  }
  const double bytes = v * unit;
  if (bytes >= 18446744073709551616.0) return 0;  // 2^64
  return static_cast<uint64_t>(bytes);
}

/// Parses a decimal integer: digits only (no sign or space), at most
/// 2^64 - 1. Returns false on anything else.
inline bool ParseUnsigned(const std::string& v, uint64_t* out) {
  uint64_t n = 0;
  for (char c : v) {
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (c < '0' || c > '9' ||
        n > (std::numeric_limits<uint64_t>::max() - digit) / 10) {
      return false;
    }
    n = n * 10 + digit;
  }
  *out = n;
  return !v.empty();
}

/// Parses a finite, non-negative decimal number ("0.05", "2", ".5")
/// with nothing after it. Returns false on anything else.
inline bool ParseReal(const std::string& v, double* out) {
  if (v.empty() || ((v[0] < '0' || v[0] > '9') && v[0] != '.')) {
    return false;
  }
  char* end = nullptr;
  const double x = std::strtod(v.c_str(), &end);
  if (*end != '\0' || !std::isfinite(x)) return false;
  *out = x;
  return true;
}

/// The non-empty pieces of `s` between `sep` characters.
inline std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (pos <= s.size()) {
    size_t end = s.find(sep, pos);
    if (end == std::string::npos) end = s.size();
    if (end > pos) out.push_back(s.substr(pos, end - pos));
    pos = end + 1;
  }
  return out;
}

/// Reads a whole file into `out`. Returns false with `error` set when
/// the file cannot be opened or read.
inline bool ReadFile(const std::string& path, std::string* out,
                     std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    *error = "cannot open " + path;
    return false;
  }
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out->append(buf, n);
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) *error = "read error on " + path;
  return ok;
}

/// Prints "PROGRAM: ERROR" and a pointer to --help on stderr; returns
/// the usage-error exit code, 2.
inline int UsageError(const std::string& program, const std::string& error) {
  std::fprintf(stderr, "%s: %s\nrun '%s --help' for usage\n",
               program.c_str(), error.c_str(), program.c_str());
  return 2;
}

/// Alternative spellings a choice accepts and stores as the canonical
/// name: {alias, canonical}.
using FlagAliases = std::vector<std::pair<std::string, std::string>>;

class FlagTable {
 public:
  /// One declared flag. `set` validates and stores one value; it
  /// returns false with a reason when the value is refused.
  struct Flag {
    std::string name;          // without the leading "--"
    std::string metavar;       // empty: a switch that takes no value
    std::string help;
    std::string default_text;  // empty: no default shown
    std::string choices;       // space-separated; empty: free-form
    bool repeatable = false;
    std::function<bool(const std::string& value, std::string* why)> set;
  };

  /// `program` prefixes usage lines and errors ("imoltp_trace replay");
  /// `args` follows it in the usage line. The tool accepts at most
  /// `max_positional` arguments that are not flags.
  explicit FlagTable(std::string program, std::string args = "[flags]",
                     size_t max_positional = 0)
      : program_(std::move(program)),
        args_(std::move(args)),
        max_positional_(max_positional) {}

  const std::string& program() const { return program_; }

  // Each declaration records *dst as the flag's default for --help.

  /// Free-form text; the value must not be empty.
  void String(const char* name, std::string* dst, const char* metavar,
              const char* help) {
    Add(name, metavar, help, *dst,
        [dst](const std::string& v, std::string* why) {
          if (v.empty()) return *why = "empty value", false;
          *dst = v;
          return true;
        });
  }

  /// A switch: `--name` stores `value` into *dst; `--name=x` is refused.
  void Bool(const char* name, bool* dst, const char* help,
            bool value = true) {
    Add(name, "", help, "", [dst, value](const std::string&, std::string*) {
      *dst = value;
      return true;
    });
  }

  /// A decimal integer in [lo, hi]: digits only, no sign.
  void Unsigned(const char* name, uint64_t* dst, const char* help,
                uint64_t lo = 0,
                uint64_t hi = std::numeric_limits<uint64_t>::max()) {
    Integer(name, dst, lo, hi, help);
  }

  /// A decimal integer in [lo, hi], 0 <= lo <= hi.
  void Int(const char* name, int* dst, int lo, int hi, const char* help) {
    Integer(name, dst, static_cast<uint64_t>(lo), static_cast<uint64_t>(hi),
            help);
  }

  /// A finite real number, >= 0 (or > 0 unless `allow_zero`).
  void Real(const char* name, double* dst, const char* help,
            bool allow_zero) {
    char text[32];
    std::snprintf(text, sizeof(text), "%g", *dst);
    Add(name, "X", help, text,
        [dst, allow_zero](const std::string& v, std::string* why) {
          double x = 0;
          if (!ParseReal(v, &x) || (x == 0 && !allow_zero)) {
            return *why = allow_zero ? "want a number >= 0"
                                     : "want a number > 0",
                   false;
          }
          *dst = x;
          return true;
        });
  }

  /// A byte size with ParseSize semantics, at most `max` bytes.
  void Size(const char* name, uint64_t* dst, const char* help,
            uint64_t max = std::numeric_limits<uint64_t>::max()) {
    Add(name, "SIZE", help, FormatSize(*dst),
        [dst, max](const std::string& v, std::string* why) {
          const uint64_t bytes = ParseSize(v.c_str());
          if (bytes == 0) {
            return *why = "want a size like 512KB, 10MB or 1GB", false;
          }
          if (bytes > max) return *why = "above " + FormatSize(max), false;
          *dst = bytes;
          return true;
        });
  }

  /// One of the space-separated `choices` (or an alias, stored as its
  /// canonical name).
  void Choice(const char* name, std::string* dst, std::string choices,
              const char* help, FlagAliases aliases = {}) {
    Flag& f = Add(name, "NAME", help, *dst,
                  [dst, choices, aliases](const std::string& v,
                                          std::string* why) {
                    std::string canonical;
                    if (!Canonical(v, choices, aliases, &canonical)) {
                      return *why = "choices: " + choices, false;
                    }
                    *dst = canonical;
                    return true;
                  });
    f.choices = std::move(choices);
  }

  /// A comma-separated, non-empty list of `choices` (aliases stored as
  /// their canonical names). Empty entries are skipped.
  void List(const char* name, std::vector<std::string>* dst,
            std::string choices, const char* help,
            FlagAliases aliases = {}) {
    std::string joined;
    for (const std::string& s : *dst) joined += (joined.empty() ? "" : ",") + s;
    Flag& f = Add(name, "A,B,...", help, joined,
                  [dst, choices, aliases](const std::string& v,
                                          std::string* why) {
                    std::vector<std::string> items;
                    for (const std::string& item : Split(v, ',')) {
                      std::string canonical;
                      if (!Canonical(item, choices, aliases, &canonical)) {
                        return *why = "unknown '" + item +
                                      "'; choices: " + choices,
                               false;
                      }
                      items.push_back(canonical);
                    }
                    if (items.empty()) return *why = "empty list", false;
                    *dst = std::move(items);
                    return true;
                  });
    f.choices = std::move(choices);
  }

  /// A flag whose value `parse` validates and stores itself; `metavar`
  /// names its grammar in --help. The returned flag may be given a
  /// default text, choices, or marked repeatable (each occurrence is
  /// passed to `parse`; for the other kinds the last one wins).
  Flag& Custom(const char* name, const char* metavar, const char* help,
               std::function<bool(const std::string&, std::string*)> parse) {
    return Add(name, metavar, help, "", std::move(parse));
  }

  /// Parses argv[1..argc) (argv[0] is the program or subcommand name).
  /// Returns false with `error` naming the flag and the reason on the
  /// first unknown flag, malformed value, or excess positional
  /// argument. `--help` and `-h` set help() and parsing continues.
  bool Parse(int argc, char* const* argv, std::string* error) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        help_ = true;
        continue;
      }
      if (arg.compare(0, 2, "--") != 0) {
        if (positional_.size() >= max_positional_) {
          *error = "unexpected argument: " + arg;
          return false;
        }
        positional_.push_back(arg);
        continue;
      }
      const size_t eq = arg.find('=');
      const std::string name = arg.substr(2, eq - 2);
      const Flag* flag = Find(name);
      if (flag == nullptr) {
        *error = "unknown flag: --" + name;
        return false;
      }
      if (flag->metavar.empty() && eq != std::string::npos) {
        *error = "--" + name + " takes no value";
        return false;
      }
      if (!flag->metavar.empty() && eq == std::string::npos) {
        *error = "--" + name + " needs a value (--" + name + "=" +
                 flag->metavar + ")";
        return false;
      }
      const std::string value =
          eq == std::string::npos ? "" : arg.substr(eq + 1);
      std::string why;
      if (!flag->set(value, &why)) {
        *error = "bad value for --" + name + ": '" + value + "' (" + why +
                 ")";
        return false;
      }
    }
    return true;
  }

  /// Parse() for a tool's main: returns the exit code to leave with
  /// (0 after printing --help to stdout, 2 after printing the error),
  /// or nullopt when the tool should run.
  std::optional<int> ParseOrExit(int argc, char* const* argv) {
    std::string error;
    if (!Parse(argc, argv, &error)) return UsageError(program_, error);
    if (help_) {
      std::fputs(Usage().c_str(), stdout);
      return 0;
    }
    return std::nullopt;
  }

  bool help() const { return help_; }
  const std::vector<std::string>& positional() const { return positional_; }

  /// The generated usage: synopsis, then every flag with its value
  /// grammar, help, default and choices, wrapped to 80 columns.
  std::string Usage() const {
    std::string out = "usage: " + program_ + " " + args_ + "\n";
    for (const Flag& f : flags_) {
      std::string line = "  --" + f.name;
      if (!f.metavar.empty()) line += "=" + f.metavar;
      std::string text = f.help;
      if (f.repeatable) text += " (repeatable)";
      if (!f.default_text.empty()) text += " [default=" + f.default_text + "]";
      if (!f.choices.empty()) text += "\nchoices: " + f.choices;
      for (const std::string& para : Split(text, '\n')) {
        if (line.size() >= kHelpColumn) out += line + "\n", line.clear();
        line.resize(kHelpColumn, ' ');
        bool fresh = true;  // nothing after the indent yet
        for (const std::string& word : Split(para, ' ')) {
          if (!fresh && line.size() + 1 + word.size() > kWidth) {
            out += line + "\n";
            line.assign(kHelpColumn, ' ');
            fresh = true;
          }
          line += (fresh ? "" : " ") + word;
          fresh = false;
        }
        out += line + "\n";
        line.clear();
      }
    }
    return out;
  }

 private:
  static constexpr size_t kHelpColumn = 30;
  static constexpr size_t kWidth = 80;

  Flag& Add(const char* name, const char* metavar, std::string help,
            std::string default_text,
            std::function<bool(const std::string&, std::string*)> set) {
    Flag f;
    f.name = name;
    f.metavar = metavar;
    f.help = std::move(help);
    f.default_text = std::move(default_text);
    f.set = std::move(set);
    flags_.push_back(std::move(f));
    return flags_.back();
  }

  const Flag* Find(const std::string& name) const {
    for (const Flag& f : flags_) {
      if (f.name == name) return &f;
    }
    return nullptr;
  }

  /// Declares an integer flag; the range joins the help text, and a
  /// default outside it reads "none" (the flag is unset).
  template <typename T>
  void Integer(const char* name, T* dst, uint64_t lo, uint64_t hi,
               const char* help) {
    const std::string range = Range(lo, hi);
    const uint64_t dflt = static_cast<uint64_t>(*dst);
    Add(name, "N", range.empty() ? help : help + (" (" + range + ")"),
        dflt < lo ? "none" : std::to_string(dflt),
        [dst, lo, hi, range](const std::string& v, std::string* why) {
          uint64_t n = 0;
          if (!ParseUnsigned(v, &n)) {
            *why = "want an unsigned integer";
            if (!range.empty()) *why += " " + range;
            return false;
          }
          if (n < lo || n > hi) return *why = "out of range " + range, false;
          *dst = static_cast<T>(n);
          return true;
        });
  }

  /// "LO..HI", ">= LO", or "" when every uint64 is allowed.
  static std::string Range(uint64_t lo, uint64_t hi) {
    if (hi != std::numeric_limits<uint64_t>::max()) {
      return std::to_string(lo) + ".." + std::to_string(hi);
    }
    return lo == 0 ? "" : ">= " + std::to_string(lo);
  }

  static std::string FormatSize(uint64_t bytes) {
    if (bytes != 0 && bytes % (1ULL << 30) == 0) {
      return std::to_string(bytes >> 30) + "GB";
    }
    if (bytes != 0 && bytes % (1ULL << 20) == 0) {
      return std::to_string(bytes >> 20) + "MB";
    }
    return std::to_string(bytes >> 10) + "KB";
  }

  static bool Canonical(const std::string& v, const std::string& choices,
                        const FlagAliases& aliases, std::string* out) {
    for (const std::string& choice : Split(choices, ' ')) {
      if (v == choice) return *out = v, true;
    }
    for (const auto& [alias, canonical] : aliases) {
      if (v == alias) return *out = canonical, true;
    }
    return false;
  }

  std::string program_;
  std::string args_;
  size_t max_positional_;
  std::vector<Flag> flags_;
  std::vector<std::string> positional_;
  bool help_ = false;
};

}  // namespace imoltp::tools

#endif  // IMOLTP_TOOLS_FLAGS_H_
