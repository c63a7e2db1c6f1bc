#include "telemetry/dashboard.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"

namespace kea::telemetry {

StatusOr<std::string> RenderScatter(const std::vector<ScatterPoint>& points,
                                    int rows, int cols, const std::string& x_label,
                                    const std::string& y_label) {
  if (points.empty()) return Status::InvalidArgument("no points to render");
  if (rows < 2 || cols < 2) return Status::InvalidArgument("grid too small");

  double x_min = points[0].x, x_max = points[0].x;
  double y_min = points[0].y, y_max = points[0].y;
  for (const auto& p : points) {
    x_min = std::min(x_min, p.x);
    x_max = std::max(x_max, p.x);
    y_min = std::min(y_min, p.y);
    y_max = std::max(y_max, p.y);
  }
  if (x_max - x_min < 1e-12) x_max = x_min + 1.0;
  if (y_max - y_min < 1e-12) y_max = y_min + 1.0;

  std::vector<std::vector<int>> counts(static_cast<size_t>(rows),
                                       std::vector<int>(static_cast<size_t>(cols), 0));
  for (const auto& p : points) {
    int col = static_cast<int>((p.x - x_min) / (x_max - x_min) * (cols - 1));
    int row = static_cast<int>((p.y - y_min) / (y_max - y_min) * (rows - 1));
    col = std::clamp(col, 0, cols - 1);
    row = std::clamp(row, 0, rows - 1);
    ++counts[static_cast<size_t>(row)][static_cast<size_t>(col)];
  }

  auto glyph = [](int count) {
    if (count == 0) return ' ';
    if (count <= 1) return '.';
    if (count <= 3) return ':';
    if (count <= 8) return '*';
    return '#';
  };

  std::string out;
  out += y_label + "\n";
  // Highest y at the top.
  for (int r = rows - 1; r >= 0; --r) {
    out += "|";
    for (int c = 0; c < cols; ++c) {
      out += glyph(counts[static_cast<size_t>(r)][static_cast<size_t>(c)]);
    }
    out += "\n";
  }
  out += "+";
  out.append(static_cast<size_t>(cols), '-');
  out += "> " + x_label + "\n";
  char range[128];
  std::snprintf(range, sizeof(range), "x: [%.3g, %.3g]  y: [%.3g, %.3g]\n", x_min,
                x_max, y_min, y_max);
  out += range;
  return out;
}

StatusOr<std::string> RenderSparkline(const std::vector<double>& values, int width) {
  if (values.empty()) return Status::InvalidArgument("no values to render");
  if (width < 2) return Status::InvalidArgument("width too small");

  double lo = values[0], hi = values[0];
  for (double v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  if (hi - lo < 1e-12) hi = lo + 1.0;

  static const char kLevels[] = {' ', '.', ':', '-', '=', '#', '@'};
  constexpr int kNumLevels = 7;

  // Bucket values into `width` columns (mean per bucket).
  size_t n = values.size();
  int columns = std::min<int>(width, static_cast<int>(n));
  std::string out;
  for (int c = 0; c < columns; ++c) {
    size_t begin = static_cast<size_t>(c) * n / static_cast<size_t>(columns);
    size_t end = static_cast<size_t>(c + 1) * n / static_cast<size_t>(columns);
    double sum = 0.0;
    for (size_t i = begin; i < end; ++i) sum += values[i];
    double mean = sum / static_cast<double>(end - begin);
    int level = static_cast<int>((mean - lo) / (hi - lo) * (kNumLevels - 1) + 0.5);
    out += kLevels[std::clamp(level, 0, kNumLevels - 1)];
  }
  return out;
}

StatusOr<std::string> RenderUtilizationWeek(const TelemetryStore& store,
                                            const RecordFilter& filter) {
  PerformanceMonitor monitor(&store);
  KEA_ASSIGN_OR_RETURN(auto hourly, monitor.HourlyClusterUtilization(filter));

  std::string out = "cluster CPU utilization by day (one column per hour)\n";
  std::vector<double> day_values;
  int current_day = hourly.front().first / sim::kHoursPerDay;
  auto flush = [&](int day) -> Status {
    if (day_values.empty()) return Status::OK();
    KEA_ASSIGN_OR_RETURN(std::string line, RenderSparkline(day_values, 24));
    out += "day " + std::to_string(day) + " |" + line + "|\n";
    day_values.clear();
    return Status::OK();
  };
  for (const auto& [hour, util] : hourly) {
    int day = hour / sim::kHoursPerDay;
    if (day != current_day) {
      KEA_RETURN_IF_ERROR(flush(current_day));
      current_day = day;
    }
    day_values.push_back(util);
  }
  KEA_RETURN_IF_ERROR(flush(current_day));
  return out;
}

std::string RenderObsPanel(bool include_timing) {
  std::string out = "== ops panel (kea::obs registry) ==\n";
  std::string body = obs::Registry::Get().RenderText(include_timing);
  if (body.empty()) {
    out += "(no instruments recorded)\n";
    return out;
  }
  out += body;
  if (!include_timing) {
    out += "(timing instruments hidden; pass include_timing for wall-clock)\n";
  }
  return out;
}

}  // namespace kea::telemetry
