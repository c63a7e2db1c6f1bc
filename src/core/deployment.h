#ifndef KEA_CORE_DEPLOYMENT_H_
#define KEA_CORE_DEPLOYMENT_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "sim/cluster.h"

namespace kea::core {

/// A per-group configuration recommendation produced by an optimizer.
struct GroupRecommendation {
  sim::MachineGroupKey group;
  int current_max_containers = 0;
  int recommended_max_containers = 0;
};

template <typename Ar>
void Persist(Ar& ar, GroupRecommendation& rec) {
  ar(rec.group, rec.current_max_containers, rec.recommended_max_containers);
}

/// One change the deployment module actually applied.
struct AppliedChange {
  sim::MachineGroupKey group;
  int old_max_containers = 0;
  int new_max_containers = 0;
  bool clamped = false;  ///< True when the recommendation exceeded max_step.
};

/// AppliedChange's field list for the state archive. A batch of changes
/// (a vector) is the APPLY and MODULE_ROLLBACK ledger payloads and the
/// checkpointed history.
template <typename Ar>
void Persist(Ar& ar, AppliedChange& c) {
  ar(c.group, c.old_max_containers, c.new_max_containers, c.clamped);
}

/// The Deployment Module: rolls recommendations out to the full cluster with
/// the production guardrails of Section 5.2.2 — "we only modify the
/// configuration by a small margin, i.e. decrease or increase the maximum
/// running containers for each group of machines by one" (max_step below).
/// It keeps no journal: KeaSession journals each batch and hands Apply or
/// Undo the recorded one.
class DeploymentModule {
 public:
  struct Options {
    /// Largest per-round change in max_containers per group (>= 0).
    int max_step = 1;
    /// Floor for any group's max_containers (>= 1).
    int min_containers = 1;
  };

  DeploymentModule() : options_(Options()) {}
  explicit DeploymentModule(const Options& options) : options_(options) {}

  /// The one clamp rule, pure: each recommendation moves at most +-max_step
  /// from its current value and never below min_containers; no-ops are
  /// omitted. InvalidArgument unless max_step >= 0 and min_containers >= 1.
  static StatusOr<std::vector<AppliedChange>> Clamp(
      const std::vector<GroupRecommendation>& recommendations,
      const Options& options);

  /// Clamp with this module's options, then Apply. Returns the changes
  /// applied, which are also kept in history().
  StatusOr<std::vector<AppliedChange>> ApplyConservatively(
      const std::vector<GroupRecommendation>& recommendations,
      sim::Cluster* cluster);

  /// Sets each change's group to its new value, all or nothing: every group
  /// is checked before the first machine changes. The batch becomes the
  /// pending one and joins history().
  Status Apply(const std::vector<AppliedChange>& batch, sim::Cluster* cluster);

  /// All changes applied through this module, in order.
  const std::vector<AppliedChange>& history() const { return history_; }

  /// CSV dump of history() — one row per applied change, in order. Columns:
  ///   sc,sku,old_max_containers,new_max_containers,clamped
  std::string HistoryCsv() const;

  /// Restores the configuration prior to the last Apply (the rollback path
  /// when flighting invalidates a model) through Undo. Semantics are
  /// explicit because callers lean on them:
  ///   - OK no-op when the last apply produced no changes (all
  ///     recommendations clamped to no-ops) — there is nothing to restore,
  ///     and the fleet is already in the pre-apply state;
  ///   - idempotent FailedPrecondition on a second rollback (or before any
  ///     apply, or once the batch is superseded): the call never mutates
  ///     the cluster, so retrying it is safe and returns the same error.
  Status RollbackLast(sim::Cluster* cluster);

  /// Restores each change's old value, newest first and all or nothing, and
  /// clears the pending batch.
  Status Undo(const std::vector<AppliedChange>& batch, sim::Cluster* cluster);

  /// True while the last Apply has been neither undone nor superseded.
  bool has_pending_batch() const { return has_last_batch_; }
  const std::vector<AppliedChange>& pending_batch() const { return last_batch_; }
  /// A later deployment set the fleet anew: nothing is left to roll back.
  void SupersedePendingBatch();

  /// Bit-exact checkpoint of mutable state: history and the pending batch.
  /// Options are construction-time and not included.
  std::string SerializeState() const;
  Status RestoreState(const std::string& blob);

 private:
  template <typename Ar>
  friend void Persist(Ar& ar, DeploymentModule& module);

  Options options_;
  std::vector<AppliedChange> history_;
  std::vector<AppliedChange> last_batch_;
  bool has_last_batch_ = false;  ///< Applied; not rolled back or superseded.
};

}  // namespace kea::core

#endif  // KEA_CORE_DEPLOYMENT_H_
