// Named metrics of one run and the statistics they are computed with.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

/// Linear-interpolated quantile of `values` (copied; 0 when empty).
[[nodiscard]] double quantile(std::vector<double> values, double q);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Metrics in the order they were added.
class Report {
 public:
  void add(std::string name, double value, std::string unit);
  [[nodiscard]] double get(const std::string& name) const;
  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }

  /// One aligned "name  value unit" line per metric.
  [[nodiscard]] std::string to_text() const;
  /// The result line: {"correct":..,"attempted":..,"failed":..,
  /// "metrics":{name:{"value":..,"unit":..},...}}.
  [[nodiscard]] std::string to_json(bool correct, unsigned long long attempted,
                                    unsigned long long failed) const;

 private:
  std::vector<Metric> metrics_;
};

}  // namespace perfbench
