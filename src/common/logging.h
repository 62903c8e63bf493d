// Minimal leveled logging.
//
// The daemon and simulator log sparingly; benches run with warnings only so
// their stdout stays a clean reproduction of the paper's tables.

#ifndef SRC_COMMON_LOGGING_H_
#define SRC_COMMON_LOGGING_H_

#include <cstdio>
#include <string>

namespace papd {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

// printf-style logging to stderr; debug and info messages are dropped.
void Logf(LogLevel level, const char* fmt, ...) __attribute__((format(printf, 2, 3)));

#define PAPD_LOG_DEBUG(...) ::papd::Logf(::papd::LogLevel::kDebug, __VA_ARGS__)
#define PAPD_LOG_INFO(...) ::papd::Logf(::papd::LogLevel::kInfo, __VA_ARGS__)
#define PAPD_LOG_WARN(...) ::papd::Logf(::papd::LogLevel::kWarning, __VA_ARGS__)
#define PAPD_LOG_ERROR(...) ::papd::Logf(::papd::LogLevel::kError, __VA_ARGS__)

}  // namespace papd

#endif  // SRC_COMMON_LOGGING_H_
