#ifndef KEA_TELEMETRY_DASHBOARD_H_
#define KEA_TELEMETRY_DASHBOARD_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "telemetry/perf_monitor.h"

namespace kea::telemetry {

/// Text renderings of the performance monitor's views (Section 4.1: "the
/// resulting visualizations are embraced by the engineering teams"). These
/// power the bench/example output; they are not a plotting library, just the
/// monitor's scatter/series views in fixed-width ASCII.

/// Renders an x/y scatter as a rows x cols character grid. Multiple points
/// in one cell escalate the glyph (. : * #). Axis ranges are data-driven.
/// Returns InvalidArgument for empty input or degenerate grid sizes.
StatusOr<std::string> RenderScatter(const std::vector<ScatterPoint>& points,
                                    int rows, int cols,
                                    const std::string& x_label,
                                    const std::string& y_label);

/// Renders a series as one sparkline row per bucket using block characters
/// of increasing height (space . : - = # @). Values are min-max normalized.
StatusOr<std::string> RenderSparkline(const std::vector<double>& values,
                                      int width = 80);

/// Renders the hourly cluster utilization view of Figure 1 (one sparkline
/// per day) directly from a store.
StatusOr<std::string> RenderUtilizationWeek(const TelemetryStore& store,
                                            const RecordFilter& filter = nullptr);

/// Renders the kea::obs registry snapshot as a fixed-width ops panel: every
/// deterministic counter, and — when `include_timing` is set — the wall-clock
/// gauges and latency histograms too. This is the "ops view" that sits next
/// to the fleet report: what the pipeline *did* (fits, sweeps, ingestion
/// accept/quarantine, rollout waves) beside what the fleet *looked like*.
std::string RenderObsPanel(bool include_timing = false);

}  // namespace kea::telemetry

#endif  // KEA_TELEMETRY_DASHBOARD_H_
