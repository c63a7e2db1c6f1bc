#include "core/model_health.h"

#include <algorithm>

#include "common/snapshot.h"
#include "obs/metrics.h"

namespace kea::core {

namespace {

obs::Counter* TripsCounter() {
  static obs::Counter* c = obs::Registry::Get().GetCounter("model_health.trips");
  return c;
}
obs::Counter* RefitsCounter() {
  static obs::Counter* c =
      obs::Registry::Get().GetCounter("model_health.refits");
  return c;
}
obs::Counter* RefitFailuresCounter() {
  static obs::Counter* c =
      obs::Registry::Get().GetCounter("model_health.refit_failures");
  return c;
}
obs::Counter* SafeModeRoundsCounter() {
  static obs::Counter* c =
      obs::Registry::Get().GetCounter("model_health.safe_mode_rounds");
  return c;
}

}  // namespace

const char* ModelHealth::StateName(State s) {
  switch (s) {
    case State::kHealthy:
      return "HEALTHY";
    case State::kTripped:
      return "TRIPPED";
    case State::kRefitting:
      return "REFITTING";
    case State::kRearmed:
      return "RE-ARMED";
  }
  return "UNKNOWN";
}

void ModelHealth::Trip(const std::string& reason, sim::HourIndex hour) {
  if (state_ == State::kTripped || state_ == State::kRefitting) return;
  state_ = State::kTripped;
  trip_reason_ = reason;
  tripped_at_ = hour;
  retry_after_ = hour + options_.refit_delay_hours;
  probation_left_ = 0;
  ++trips_;
  TripsCounter()->Increment();
}

bool ModelHealth::ObserveValidation(const ValidationReport& report,
                                    sim::HourIndex hour) {
  double error = std::max(report.max_latency_error,
                          report.max_utilization_error);
  last_error_ = error;
  if (in_safe_mode()) return false;

  if (error > options_.residual_tolerance) {
    Trip("residual error above tolerance", hour);
    return true;
  }
  double baseline = std::max(baseline_error_, options_.min_baseline_error);
  if (baseline_error_ > 0.0 && error > options_.residual_inflation * baseline) {
    Trip("residual inflation over baseline", hour);
    return true;
  }
  // A healthy validation becomes (or refreshes toward) the known-good
  // baseline; keep the smallest seen so inflation is measured against the
  // model at its best.
  if (baseline_error_ == 0.0 || error < baseline_error_) {
    baseline_error_ = error;
  }
  return false;
}

bool ModelHealth::RefitDue(sim::HourIndex now) const {
  return state_ == State::kTripped && now >= retry_after_;
}

void ModelHealth::BeginRefit() {
  if (state_ != State::kTripped) return;
  state_ = State::kRefitting;
}

void ModelHealth::CompleteRefit(bool gate_passed, sim::HourIndex now) {
  if (state_ != State::kRefitting) return;
  if (gate_passed) {
    state_ = State::kRearmed;
    probation_left_ = options_.probation_rounds;
    // The refit's held-out error becomes the fresh inflation baseline once
    // the next healthy validation lands.
    baseline_error_ = 0.0;
    ++refits_;
    RefitsCounter()->Increment();
  } else {
    state_ = State::kTripped;
    retry_after_ = now + options_.refit_delay_hours;
    ++refit_failures_;
    RefitFailuresCounter()->Increment();
  }
}

void ModelHealth::NoteRound() {
  if (in_safe_mode()) {
    ++safe_mode_rounds_;
    SafeModeRoundsCounter()->Increment();
    return;
  }
  if (state_ == State::kRearmed && probation_left_ > 0) {
    if (--probation_left_ == 0) {
      state_ = State::kHealthy;
      trip_reason_.clear();
    }
  }
}

GuardrailThresholds ModelHealth::EffectiveGuardrails(
    const GuardrailThresholds& base) const {
  if (state_ != State::kRearmed) return base;
  GuardrailThresholds tightened = base;
  double s = options_.probation_margin_scale;
  tightened.max_latency_ratio = 1.0 + (base.max_latency_ratio - 1.0) * s;
  tightened.max_queue_p99_ratio = 1.0 + (base.max_queue_p99_ratio - 1.0) * s;
  tightened.queue_p99_floor_ms = base.queue_p99_floor_ms * s;
  return tightened;
}

template <typename Ar>
void Persist(Ar& ar, ModelHealth& h) {
  ar.template Enum<uint32_t>(h.state_, ModelHealth::State::kRearmed);
  ar(h.trip_reason_, h.tripped_at_, h.retry_after_, h.probation_left_,
     h.baseline_error_, h.last_error_, h.trips_, h.refits_, h.refit_failures_,
     h.safe_mode_rounds_);
}

std::string ModelHealth::SerializeState() const { return Encode(*this); }

Status ModelHealth::RestoreState(const std::string& blob) {
  return Decode(blob, this);
}

}  // namespace kea::core
