// DeploymentLedger::AppliedChangesCsv reads three payloads, each through
// its owner's Persist: the rollout's WAVE_APPLIED, the fabric's
// FLIGHT_STARTED and the APPLY batch of AppliedChange (deployment.h). It
// lives here, where all three are visible, so deployment_ledger.cc decodes
// only its own event framing.

#include "common/csv.h"
#include "common/snapshot.h"
#include "core/deployment.h"
#include "core/deployment_ledger.h"
#include "core/experiment_fabric.h"
#include "core/guardrailed_rollout.h"

namespace kea::core {

std::string DeploymentLedger::AppliedChangesCsv() const {
  CsvWriter writer;
  writer.SetHeader({"seq", "key", "kind", "sc", "sku", "machine_id",
                    "old_max_containers", "new_max_containers"});
  auto str = [](int64_t v) { return std::to_string(v); };
  for (const Event& event : events_) {
    const std::string seq = str(static_cast<int64_t>(event.seq));
    if (event.type == EventType::kWaveApplied) {
      std::vector<MachineDelta> deltas;
      if (!Decode(event.payload, &deltas).ok()) continue;
      for (const MachineDelta& d : deltas) {
        (void)writer.AppendRow({seq, event.key, "wave_machine", "-1", "-1",
                                str(d.machine), str(d.old_max),
                                str(d.new_max)});
      }
    } else if (event.type == EventType::kFlightStarted) {
      FlightStart start;
      if (!Decode(event.payload, &start).ok()) continue;
      for (const FlightStart::Arm& arm : start.arms) {
        for (const FlightStart::Prior& p : arm.priors) {
          (void)writer.AppendRow({seq, event.key, "flight_machine", str(p.sc),
                                  "-1", str(p.id), str(p.old_max),
                                  str(p.new_max)});
        }
      }
    } else if (event.type == EventType::kApply) {
      std::vector<AppliedChange> batch;
      if (!Decode(event.payload, &batch).ok()) continue;
      for (const AppliedChange& c : batch) {
        (void)writer.AppendRow({seq, event.key, "group", str(c.group.sc),
                                str(c.group.sku), "-1",
                                str(c.old_max_containers),
                                str(c.new_max_containers)});
      }
    }
  }
  return writer.ToString();
}

}  // namespace kea::core
