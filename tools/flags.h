#ifndef HATTRICK_TOOLS_FLAGS_H_
#define HATTRICK_TOOLS_FLAGS_H_

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace hattrick {
namespace tools {

/// Minimal --key=value / --key value / --flag command-line parser for the
/// CLI tools (no external dependencies). Every getter records the key as
/// read, so a tool can reject the flags it never consumed (ReportUnread):
/// no option on a command line is silently ignored.
class Flags {
 public:
  /// Parses argv; unknown positional arguments are collected in order.
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        positional_.push_back(std::move(arg));
        continue;
      }
      arg = arg.substr(2);
      const size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) !=
                                     0) {
        values_[arg] = argv[++i];
      } else {
        values_[arg] = "true";
      }
    }
  }

  bool Has(const std::string& key) const {
    return Find(key) != values_.end();
  }

  std::string GetString(const std::string& key,
                        const std::string& fallback) const {
    const auto it = Find(key);
    return it == values_.end() ? fallback : it->second;
  }

  /// Integer flag; `fallback` when absent. Empty text, trailing garbage
  /// and values outside int are a usage error: the message goes to
  /// stderr and the process exits with status 2.
  int GetInt(const std::string& key, int fallback) const {
    const auto it = Find(key);
    if (it == values_.end()) return fallback;
    const char* text = it->second.c_str();
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE || v < INT_MIN ||
        v > INT_MAX) {
      UsageError(key, "an integer", text);
    }
    return static_cast<int>(v);
  }

  /// GetInt clamped to [lo, hi] — for knobs with a valid range (e.g.
  /// --dop, where 0 or a negative value would be meaningless).
  int GetBoundedInt(const std::string& key, int fallback, int lo,
                    int hi) const {
    const int v = GetInt(key, fallback);
    return v < lo ? lo : (v > hi ? hi : v);
  }

  /// Integer for strictly positive knobs (e.g. --batch-size); `fallback`
  /// when absent. Zero, negative, out-of-range and non-numeric values are
  /// a usage error: the message goes to stderr and the process exits
  /// with status 2.
  int GetPositiveInt(const std::string& key, int fallback) const {
    const auto it = Find(key);
    if (it == values_.end()) return fallback;
    const char* text = it->second.c_str();
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE || v < 1 ||
        v > INT_MAX) {
      UsageError(key, "a positive integer", text);
    }
    return static_cast<int>(v);
  }

  /// Floating-point flag; `fallback` when absent. Empty text, trailing
  /// garbage, overflow and non-finite values (inf, nan) are a usage
  /// error, like GetInt's.
  double GetDouble(const std::string& key, double fallback) const {
    const auto it = Find(key);
    if (it == values_.end()) return fallback;
    const char* text = it->second.c_str();
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno == ERANGE || !std::isfinite(v)) {
      UsageError(key, "a number", text);
    }
    return v;
  }

  bool GetBool(const std::string& key, bool fallback) const {
    const auto it = Find(key);
    if (it == values_.end()) return fallback;
    return it->second == "true" || it->second == "1" || it->second == "yes";
  }

  const std::vector<std::string>& positional() const { return positional_; }

  /// Flags given on the command line that no getter has read, in key
  /// order: typos and options the tool does not support.
  std::vector<std::string> Unread() const {
    std::vector<std::string> unread;
    for (const auto& [key, value] : values_) {
      if (read_.count(key) == 0) unread.push_back(key);
    }
    return unread;
  }

  /// Call after the tool has read every flag it supports: prints
  /// "<tool>: unknown flag(s): --a --b" to stderr and returns true when
  /// any flag went unread, so the tool can fail instead of running.
  bool ReportUnread(const char* tool) const {
    const std::vector<std::string> unread = Unread();
    if (unread.empty()) return false;
    std::fprintf(stderr, "%s: unknown flag(s):", tool);
    for (const std::string& key : unread) {
      std::fprintf(stderr, " --%s", key.c_str());
    }
    std::fprintf(stderr, "\n");
    return true;
  }

 private:
  /// Prints "--key: expected <what>, got '<text>'" and exits with
  /// status 2 (a usage error).
  [[noreturn]] static void UsageError(const std::string& key,
                                      const char* what, const char* text) {
    std::fprintf(stderr, "--%s: expected %s, got '%s'\n", key.c_str(), what,
                 text);
    std::exit(2);
  }

  std::map<std::string, std::string>::const_iterator Find(
      const std::string& key) const {
    read_.insert(key);
    return values_.find(key);
  }

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  // Keys any getter asked for (present or not); see Unread().
  mutable std::set<std::string> read_;
};

}  // namespace tools
}  // namespace hattrick

#endif  // HATTRICK_TOOLS_FLAGS_H_
