#include "src/obs/export.h"

#include <cstdio>

#include "src/common/json.h"
#include "src/common/logging.h"

namespace papd {
namespace obs {
namespace {

using json::Appendf;

// Ladder-state labels for TraceEvent code values (matching the
// DegradationState enum order; daemon.cc static_asserts the mapping).
const char* LadderName(int32_t code) {
  switch (code) {
    case 0:
      return "nominal";
    case 1:
      return "hold";
    case 2:
      return "fallback";
    default:
      return "?";
  }
}

// One trace_event JSON object (no trailing comma).
void AppendEvent(std::string* out, const TraceEvent& e) {
  const double ts_us = e.t.value() * 1e6;
  const int pid = e.shard;
  switch (e.type) {
    case TraceEventType::kPeriodBegin:
      Appendf(out,
              "{\"name\":\"daemon period\",\"cat\":\"daemon\",\"ph\":\"B\",\"ts\":%.3f,"
              "\"pid\":%d,\"tid\":0,\"args\":{\"period\":%d,\"state\":\"%s\","
              "\"pkg_w\":%.3f,\"limit_w\":%.3f}}",
              ts_us, pid, e.index, LadderName(e.code), e.a, e.b);
      break;
    case TraceEventType::kPeriodEnd:
      Appendf(out,
              "{\"name\":\"daemon period\",\"cat\":\"daemon\",\"ph\":\"E\",\"ts\":%.3f,"
              "\"pid\":%d,\"tid\":0,\"args\":{\"state\":\"%s\",\"latency_us\":%.3f}}",
              ts_us, pid, LadderName(e.code), e.a);
      break;
    case TraceEventType::kRedistribute:
      Appendf(out,
              "{\"name\":\"redistribute\",\"cat\":\"policy\",\"ph\":\"i\",\"s\":\"t\","
              "\"ts\":%.3f,\"pid\":%d,\"tid\":0,\"args\":{\"apps\":%d,\"changed\":%d,"
              "\"delta_w\":%.3f}}",
              ts_us, pid, e.index, e.code, e.a);
      break;
    case TraceEventType::kAppTarget:
      Appendf(out,
              "{\"name\":\"app%d target_mhz\",\"cat\":\"policy\",\"ph\":\"C\",\"ts\":%.3f,"
              "\"pid\":%d,\"args\":{\"mhz\":%.1f}}",
              e.index, ts_us, pid, e.b);
      break;
    case TraceEventType::kMinFundingRevoke:
      Appendf(out,
              "{\"name\":\"min-funding revoke\",\"cat\":\"policy\",\"ph\":\"i\",\"s\":\"t\","
              "\"ts\":%.3f,\"pid\":%d,\"tid\":0,\"args\":{\"entry\":%d,\"bound\":\"%s\","
              "\"value\":%.3f}}",
              ts_us, pid, e.index, e.code != 0 ? "max" : "min", e.a);
      break;
    case TraceEventType::kLadderTransition:
      Appendf(out,
              "{\"name\":\"ladder %s -> %s\",\"cat\":\"daemon\",\"ph\":\"i\",\"s\":\"t\","
              "\"ts\":%.3f,\"pid\":%d,\"tid\":0,\"args\":{\"from\":\"%s\",\"to\":\"%s\","
              "\"bad_streak\":%.0f}}",
              LadderName(e.index), LadderName(e.code), ts_us, pid, LadderName(e.index),
              LadderName(e.code), e.a);
      break;
    case TraceEventType::kPstateWrite:
      Appendf(out,
              "{\"name\":\"pstate write\",\"cat\":\"msr\",\"ph\":\"i\",\"s\":\"t\","
              "\"ts\":%.3f,\"pid\":%d,\"tid\":0,\"args\":{\"apps\":%d,\"verified\":%s,"
              "\"max_mhz\":%.1f,\"min_mhz\":%.1f}}",
              ts_us, pid, e.index, e.code != 0 ? "true" : "false", e.a, e.b);
      break;
    case TraceEventType::kClusterGrant:
      Appendf(out,
              "{\"name\":\"node%d level%d grant_w\",\"cat\":\"cluster\",\"ph\":\"C\",\"ts\":%.3f,"
              "\"pid\":%d,\"args\":{\"grant_w\":%.3f,\"reported_w\":%.3f}}",
              e.index, e.code, ts_us, pid, e.a, e.b);
      break;
    case TraceEventType::kSloShift:
      Appendf(out,
              "{\"name\":\"node%d level%d slo_bias\",\"cat\":\"cluster\",\"ph\":\"C\",\"ts\":%.3f,"
              "\"pid\":%d,\"args\":{\"bias\":%.4f,\"p90_s\":%.6f}}",
              e.index, e.code, ts_us, pid, e.a, e.b);
      break;
  }
}

}  // namespace

std::string ChromeTraceJson(const std::vector<TraceEvent>& events) {
  std::string out = "{\"traceEvents\":[\n";
  for (size_t i = 0; i < events.size(); i++) {
    AppendEvent(&out, events[i]);
    out.append(i + 1 < events.size() ? ",\n" : "\n");
  }
  out.append("],\"displayTimeUnit\":\"ms\"}\n");
  return out;
}

std::string MetricsCsv(const MetricsRegistry& registry) {
  std::string out = "t_s";
  for (const std::string& name : registry.scalar_names()) {
    out.push_back(',');
    out.append(name);
  }
  out.push_back('\n');
  const size_t columns = registry.scalar_names().size();
  for (const MetricsRegistry::Row& row : registry.rows()) {
    Appendf(&out, "%.3f", row.t.value());
    for (size_t c = 0; c < columns; c++) {
      // Rows snapshotted before a metric existed are padded with 0.
      Appendf(&out, ",%g", c < row.values.size() ? row.values[c] : 0.0);
    }
    out.push_back('\n');
  }
  return out;
}

std::string MetricsJson(const MetricsSnapshot& metrics) {
  std::string out = "{";
  bool first = true;
  for (const MetricValue& m : metrics) {
    if (!first) {
      out.append(", ");
    }
    first = false;
    if (m.kind == MetricValue::Kind::kHistogram) {
      Appendf(&out, "%s: {\"count\": %llu, \"sum\": %g, \"buckets\": [",
              json::Quote(m.name).c_str(), static_cast<unsigned long long>(m.count), m.value);
      for (size_t b = 0; b < m.bucket_counts.size(); b++) {
        out.append(b > 0 ? ", [" : "[");
        if (b < m.upper_bounds.size()) {
          Appendf(&out, "%g", m.upper_bounds[b]);
        } else {
          out.append("null");  // Implicit +inf overflow bucket.
        }
        Appendf(&out, ", %llu]", static_cast<unsigned long long>(m.bucket_counts[b]));
      }
      out.append("]}");
    } else {
      Appendf(&out, "%s: %g", json::Quote(m.name).c_str(), m.value);
    }
  }
  out.append("}");
  return out;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    PAPD_LOG_ERROR("obs: cannot open %s for writing", path.c_str());
    return false;
  }
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  // fclose flushes the stdio buffer, so a failed flush is a failed write.
  const bool closed = std::fclose(f) == 0;
  if (written != content.size() || !closed) {
    PAPD_LOG_ERROR("obs: short write to %s", path.c_str());
    return false;
  }
  return true;
}

}  // namespace obs
}  // namespace papd
