#include "src/common/logging.h"

#include <cstdarg>

namespace papd {
namespace {

// Messages below this level are dropped.
constexpr LogLevel kThreshold = LogLevel::kWarning;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

}  // namespace

void Logf(LogLevel level, const char* fmt, ...) {
  if (level < kThreshold) {
    return;
  }
  std::fprintf(stderr, "[papd %s] ", LevelName(level));
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fputc('\n', stderr);
}

}  // namespace papd
