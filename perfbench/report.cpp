#include "report.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>

#include "obs/json.hpp"
#include "util/error.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

void Report::add(std::string name, double value, std::string unit) {
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

double Report::get(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return m.value;
  }
  throw upsim::NotFoundError("no metric '" + name + "'");
}

std::string Report::to_text() const {
  std::string out;
  for (const Metric& m : metrics_) {
    char line[160];
    std::snprintf(line, sizeof line, "  %-44s %16.6g %s\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    out += line;
  }
  return out;
}

std::string Report::to_json(bool correct, unsigned long long attempted,
                            unsigned long long failed) const {
  upsim::obs::JsonWriter w;
  w.begin_object();
  w.key("correct");
  w.value(correct);
  w.key("attempted");
  w.value(static_cast<std::uint64_t>(attempted));
  w.key("failed");
  w.value(static_cast<std::uint64_t>(failed));
  w.key("metrics");
  w.begin_object();
  for (const Metric& m : metrics_) {
    w.key(m.name);
    w.begin_object();
    w.key("value");
    w.value(m.value);
    w.key("unit");
    w.value(m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return std::move(w).str();
}

}  // namespace perfbench
