#ifndef KEA_CORE_MODEL_HEALTH_H_
#define KEA_CORE_MODEL_HEALTH_H_

#include <cstddef>
#include <string>

#include "common/status.h"
#include "core/guardrailed_rollout.h"
#include "core/validation.h"
#include "sim/types.h"

namespace kea::core {

/// Circuit breaker guarding the What-if models — the self-healing half of the
/// fleet fault model (DESIGN.md "fleet fault model & self-healing loop").
/// State machine:
///
///   HEALTHY ──drift alarm / residual inflation──▶ TRIPPED
///   TRIPPED ──refit due──▶ REFITTING
///   REFITTING ──validation gate passes──▶ RE-ARMED
///   REFITTING ──gate fails──▶ TRIPPED (retry after another refit interval)
///   RE-ARMED ──probation rounds clean──▶ HEALTHY
///   RE-ARMED ──new alarm / inflation──▶ TRIPPED
///
/// While TRIPPED or REFITTING the session is in *safe mode*: the last
/// known-good config is held, new deployments are refused, and only refits
/// run. While RE-ARMED, deployments resume under tightened guardrails
/// (probation). The breaker itself owns no models — KeaSession drives the
/// refits and reports validation results back.
class ModelHealth {
 public:
  enum class State { kHealthy, kTripped, kRefitting, kRearmed };

  struct Options {
    /// Trip when a validation pass reports relative error above this.
    double residual_tolerance = 0.3;
    /// Also trip when error exceeds this multiple of the first (known-good)
    /// validation error — catches slow inflation long before the absolute
    /// ceiling.
    double residual_inflation = 3.0;
    /// Floor on the inflation baseline so a near-perfect first fit does not
    /// make the inflation trigger hair-triggered.
    double min_baseline_error = 0.02;
    /// Hours after a trip before attempting a refit (lets post-drift
    /// telemetry accumulate).
    int refit_delay_hours = 24;
    /// Telemetry window for the refit: [now - lookback, now - holdout) is
    /// fitted, [now - holdout, now) is the held-out validation gate.
    int refit_lookback_hours = 120;
    int holdout_hours = 24;
    /// Maximum relative error on the held-out window for the gate to pass.
    double validation_tolerance = 0.25;
    /// Clean rounds in RE-ARMED before returning to HEALTHY.
    int probation_rounds = 2;
    /// Guardrail tightening during probation: allowed degradation margins
    /// shrink by this factor (0.5 = half the headroom).
    double probation_margin_scale = 0.5;
  };

  ModelHealth() : ModelHealth(Options()) {}
  explicit ModelHealth(const Options& options) : options_(options) {}

  State state() const { return state_; }
  static const char* StateName(State s);
  const std::string& trip_reason() const { return trip_reason_; }
  sim::HourIndex tripped_at() const { return tripped_at_; }

  /// True when the session may deploy configuration changes.
  bool deployments_allowed() const {
    return state_ == State::kHealthy || state_ == State::kRearmed;
  }
  bool in_safe_mode() const { return !deployments_allowed(); }

  /// Trips the breaker (drift alarm, staleness, residual inflation). No-op
  /// when already tripped; from RE-ARMED it re-trips.
  void Trip(const std::string& reason, sim::HourIndex hour);

  /// Folds a validation pass into residual tracking. The first healthy
  /// result becomes the inflation baseline. May trip the breaker; returns
  /// true when it did.
  bool ObserveValidation(const ValidationReport& report, sim::HourIndex hour);

  /// True when a refit should be attempted this round.
  bool RefitDue(sim::HourIndex now) const;
  /// Marks the refit as started (TRIPPED → REFITTING).
  void BeginRefit();
  /// Outcome of the held-out validation gate. Pass → RE-ARMED; fail →
  /// back to TRIPPED with the retry clock restarted at `now`.
  void CompleteRefit(bool gate_passed, sim::HourIndex now);

  /// Call once per tuning round. In RE-ARMED, counts down probation and
  /// returns to HEALTHY when it clears. In safe mode, counts the round.
  void NoteRound();

  /// Guardrails for the current state: the caller's thresholds, tightened
  /// while RE-ARMED (probation) — a freshly refitted model gets less rope.
  GuardrailThresholds EffectiveGuardrails(const GuardrailThresholds& base) const;

  size_t trips() const { return trips_; }
  size_t refits() const { return refits_; }
  size_t refit_failures() const { return refit_failures_; }
  size_t safe_mode_rounds() const { return safe_mode_rounds_; }
  double baseline_error() const { return baseline_error_; }
  double last_error() const { return last_error_; }

  const Options& options() const { return options_; }

  /// Bit-exact checkpoint of the breaker state. Options are
  /// construction-time.
  std::string SerializeState() const;
  Status RestoreState(const std::string& blob);

 private:
  template <typename Ar>
  friend void Persist(Ar& ar, ModelHealth& health);

  Options options_;
  State state_ = State::kHealthy;
  std::string trip_reason_;
  sim::HourIndex tripped_at_ = -1;
  sim::HourIndex retry_after_ = -1;
  int probation_left_ = 0;
  double baseline_error_ = 0.0;  ///< 0 = not yet established.
  double last_error_ = 0.0;
  size_t trips_ = 0;
  size_t refits_ = 0;
  size_t refit_failures_ = 0;
  size_t safe_mode_rounds_ = 0;
};

}  // namespace kea::core

#endif  // KEA_CORE_MODEL_HEALTH_H_
