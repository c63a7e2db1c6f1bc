#ifndef KEA_KEA_H_
#define KEA_KEA_H_

/// Umbrella header for the KEA library — the public API of the SIGMOD 2021
/// "KEA: Tuning an Exabyte-Scale Data Infrastructure" reproduction. Include
/// individual headers in production code; this is for exploration and
/// examples.

// Foundations.
#include "common/csv.h"       // IWYU pragma: export
#include "common/logging.h"   // IWYU pragma: export
#include "common/random.h"    // IWYU pragma: export
#include "common/retry.h"     // IWYU pragma: export
#include "common/status.h"    // IWYU pragma: export

// ML substrate.
#include "ml/empirical.h"        // IWYU pragma: export
#include "ml/forecast.h"         // IWYU pragma: export
#include "ml/matrix.h"           // IWYU pragma: export
#include "ml/mlp.h"              // IWYU pragma: export
#include "ml/regression.h"       // IWYU pragma: export
#include "ml/stats.h"            // IWYU pragma: export

// Optimization substrate.
#include "opt/lp.h"          // IWYU pragma: export
#include "opt/montecarlo.h"  // IWYU pragma: export
#include "opt/search.h"      // IWYU pragma: export

// Cluster simulator (the Cosmos stand-in).
#include "sim/cluster.h"        // IWYU pragma: export
#include "sim/fault_injector.h" // IWYU pragma: export
#include "sim/fluid_engine.h"   // IWYU pragma: export
#include "sim/job_sim.h"       // IWYU pragma: export
#include "sim/perf_model.h"    // IWYU pragma: export
#include "sim/sku.h"           // IWYU pragma: export
#include "sim/sku_io.h"        // IWYU pragma: export
#include "sim/workload.h"      // IWYU pragma: export

// Telemetry pipeline.
#include "telemetry/dashboard.h"     // IWYU pragma: export
#include "telemetry/ingestion.h"     // IWYU pragma: export
#include "telemetry/perf_monitor.h"  // IWYU pragma: export
#include "telemetry/record.h"        // IWYU pragma: export
#include "telemetry/store.h"         // IWYU pragma: export

// KEA core.
#include "core/deployment.h"         // IWYU pragma: export
#include "core/experiment.h"         // IWYU pragma: export
#include "core/experiment_fabric.h"  // IWYU pragma: export
#include "core/flighting.h"          // IWYU pragma: export
#include "core/guardrailed_rollout.h"  // IWYU pragma: export
#include "core/model_report.h"       // IWYU pragma: export
#include "core/power_analysis.h"     // IWYU pragma: export
#include "core/treatment.h"          // IWYU pragma: export
#include "core/validation.h"         // IWYU pragma: export
#include "core/whatif.h"             // IWYU pragma: export

// Applications.
#include "apps/capacity.h"          // IWYU pragma: export
#include "apps/capacity_planner.h"  // IWYU pragma: export
#include "apps/power_capping.h"     // IWYU pragma: export
#include "apps/queue_tuner.h"       // IWYU pragma: export
#include "apps/sc_selector.h"       // IWYU pragma: export
#include "apps/session.h"           // IWYU pragma: export
#include "apps/sku_designer.h"      // IWYU pragma: export
#include "apps/yarn_tuner.h"        // IWYU pragma: export

// Serving layer (multi-tenant tuning service).
#include "serve/request_queue.h"  // IWYU pragma: export
#include "serve/service.h"        // IWYU pragma: export
#include "serve/whatif_cache.h"   // IWYU pragma: export

#endif  // KEA_KEA_H_
