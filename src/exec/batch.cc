#include "exec/batch.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace hattrick {

size_t ParseBatchRows(const char* text) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || v < 1) {
    // A typo must not silently run (or benchmark) another vector width.
    std::fprintf(stderr,
                 "HATTRICK_BATCH_ROWS: invalid value '%s' "
                 "(expected a positive integer)\n",
                 text);
    std::abort();
  }
  return static_cast<size_t>(v);
}

size_t DefaultBatchRows() {
  static const size_t rows = [] {
    const char* env = std::getenv("HATTRICK_BATCH_ROWS");
    return env == nullptr ? kDefaultBatchRows : ParseBatchRows(env);
  }();
  return rows;
}

}  // namespace hattrick
