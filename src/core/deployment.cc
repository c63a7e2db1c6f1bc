#include "core/deployment.h"

#include <algorithm>

#include "common/csv.h"
#include "common/snapshot.h"

namespace kea::core {
namespace {

/// Sets each change's group to its new value or, undoing, its old value
/// newest first — all or nothing: every change is checked before any is made.
Status SetGroups(const std::vector<AppliedChange>& batch, bool undo,
                 sim::Cluster* cluster) {
  if (cluster == nullptr) return Status::InvalidArgument("null cluster");
  auto value = [undo](const AppliedChange& c) {
    return undo ? c.old_max_containers : c.new_max_containers;
  };
  for (const AppliedChange& c : batch) {
    if (cluster->groups().count(c.group) == 0) {
      return Status::NotFound("no machines in group " + sim::GroupLabel(c.group));
    }
    if (value(c) <= 0) return Status::InvalidArgument("non-positive max_containers");
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    const AppliedChange& c = batch[undo ? batch.size() - 1 - i : i];
    KEA_RETURN_IF_ERROR(cluster->SetGroupMaxContainers(c.group, value(c)));
  }
  return Status::OK();
}

}  // namespace

StatusOr<std::vector<AppliedChange>> DeploymentModule::Clamp(
    const std::vector<GroupRecommendation>& recommendations,
    const Options& options) {
  if (options.max_step < 0 || options.min_containers < 1) {
    return Status::InvalidArgument(
        "deploy options need max_step >= 0 and min_containers >= 1");
  }
  std::vector<AppliedChange> batch;
  for (const GroupRecommendation& rec : recommendations) {
    int delta = rec.recommended_max_containers - rec.current_max_containers;
    int clamped_delta = std::clamp(delta, -options.max_step, options.max_step);
    int target = std::max(rec.current_max_containers + clamped_delta,
                          options.min_containers);
    if (target == rec.current_max_containers) continue;
    batch.push_back({rec.group, rec.current_max_containers, target,
                     clamped_delta != delta});
  }
  return batch;
}

StatusOr<std::vector<AppliedChange>> DeploymentModule::ApplyConservatively(
    const std::vector<GroupRecommendation>& recommendations, sim::Cluster* cluster) {
  if (cluster == nullptr) return Status::InvalidArgument("null cluster");
  if (recommendations.empty()) {
    return Status::InvalidArgument("no recommendations to deploy");
  }
  KEA_ASSIGN_OR_RETURN(std::vector<AppliedChange> applied,
                       Clamp(recommendations, options_));
  KEA_RETURN_IF_ERROR(Apply(applied, cluster));
  return applied;
}

Status DeploymentModule::Apply(const std::vector<AppliedChange>& batch,
                               sim::Cluster* cluster) {
  KEA_RETURN_IF_ERROR(SetGroups(batch, /*undo=*/false, cluster));
  last_batch_ = batch;
  has_last_batch_ = true;
  history_.insert(history_.end(), batch.begin(), batch.end());
  return Status::OK();
}

Status DeploymentModule::RollbackLast(sim::Cluster* cluster) {
  if (cluster == nullptr) return Status::InvalidArgument("null cluster");
  if (!has_last_batch_) {
    // Never applied, already rolled back, or superseded: idempotent error,
    // no mutation.
    return Status::FailedPrecondition("nothing to roll back");
  }
  // Empty batch (every recommendation clamped to a no-op): the cluster is
  // already in the pre-apply state, so rolling back is an OK no-op.
  return Undo(last_batch_, cluster);
}

Status DeploymentModule::Undo(const std::vector<AppliedChange>& batch,
                              sim::Cluster* cluster) {
  KEA_RETURN_IF_ERROR(SetGroups(batch, /*undo=*/true, cluster));
  SupersedePendingBatch();
  return Status::OK();
}

void DeploymentModule::SupersedePendingBatch() {
  last_batch_.clear();
  has_last_batch_ = false;
}

std::string DeploymentModule::HistoryCsv() const {
  CsvWriter writer;
  writer.SetHeader(
      {"sc", "sku", "old_max_containers", "new_max_containers", "clamped"});
  for (const AppliedChange& c : history_) {
    (void)writer.AppendRow({std::to_string(c.group.sc), std::to_string(c.group.sku),
                            std::to_string(c.old_max_containers),
                            std::to_string(c.new_max_containers),
                            c.clamped ? "1" : "0"});
  }
  return writer.ToString();
}

template <typename Ar>
void Persist(Ar& ar, DeploymentModule& m) {
  ar.Nested(m.history_);
  ar.Nested(m.last_batch_);
  ar(m.has_last_batch_);
}

std::string DeploymentModule::SerializeState() const { return Encode(*this); }

Status DeploymentModule::RestoreState(const std::string& blob) {
  return Decode(blob, this);
}

}  // namespace kea::core
