#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.hpp"

namespace perfbench {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

namespace {
std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", std::isfinite(v) ? v : 0.0);
  return buf;
}
}  // namespace

bool Tracer::write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    f << "{\"id\":" << i << ",\"name\":\"" << json_escape(s.name)
      << "\",\"start\":" << number(s.start) << ",\"end\":" << number(s.end)
      << ",\"parent\":" << s.parent << ",\"request\":" << s.request << "}"
      << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  f << "]\n";
  return static_cast<bool>(f);
}

std::string Metrics::json() const {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const auto& r = rows_[i];
    os << (i > 0 ? ", " : "") << "\"" << json_escape(r.name) << "\": {\"value\": "
       << number(r.value) << ", \"unit\": \"" << json_escape(r.unit) << "\"}";
  }
  os << "}";
  return os.str();
}

}  // namespace perfbench
