#include "bench_util.h"

#include <cinttypes>
#include <fstream>

namespace e2e {

namespace {

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

}  // namespace

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double end = s.end_us < 0 ? s.start_us : s.end_us;
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
        << ",\"ts\":" << Num(s.start_us) << ",\"dur\":" << Num(end - s.start_us)
        << ",\"args\":{\"id\":" << i + 1 << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const Metrics& metrics) {
  std::string s = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(attempted) +
                  ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i) s += ", ";
    s += "\"" + metrics[i].first + "\": {\"value\": " + Num(metrics[i].second.value) +
         ", \"unit\": \"" + metrics[i].second.unit + "\"}";
  }
  return s + "}}";
}

}  // namespace e2e
