#ifndef FUXI_MASTER_MESSAGES_H_
#define FUXI_MASTER_MESSAGES_H_

#include <string>
#include <vector>

#include "cluster/resource_vector.h"
#include "common/ids.h"
#include "common/json.h"
#include "resource/protocol.h"
#include "wire/wire.h"

namespace fuxi::master {

// ---------------------------------------------------------------------
// Application master <-> FuxiMaster (the incremental resource protocol)
// ---------------------------------------------------------------------

/// Application master → FuxiMaster: stamped incremental (or full-state)
/// resource request.
struct RequestRpc {
  AppId app;
  NodeId reply_to;  ///< where grant deltas should be sent
  /// Application-master incarnation: bumps when the AM restarts, so the
  /// master knows to reset both delta channels (the restarted AM's
  /// sequence numbers start over).
  uint64_t incarnation = 1;
  resource::StampedRequest msg;
};

/// FuxiMaster → application master: stamped grant deltas / full state.
struct GrantRpc {
  resource::StampedGrant msg;
};

/// Either side → the other: "my receiver lost sync, send full state".
struct ResyncRpc {
  AppId app;
  NodeId reply_to;  ///< valid when sent by an application master
  uint64_t incarnation = 0;  ///< nonzero when sent by a restarted AM
};

/// Application master → FuxiMaster: report a machine it considers bad
/// (the job-level blacklist bubbling up for cross-job judgement, §4.3.2).
struct BadMachineReportRpc {
  AppId app;
  MachineId machine;
};

// ---------------------------------------------------------------------
// FuxiAgent <-> FuxiMaster
// ---------------------------------------------------------------------

/// One application's allocation on a machine, as the agent sees it.
struct AgentAllocation {
  AppId app;
  uint32_t slot_id = 0;
  resource::ScheduleUnitDef def;
  int64_t count = 0;
};

/// FuxiAgent → FuxiMaster: periodic heartbeat with health plug-in
/// metrics (§4.3.2's disk statistics / machine load / network I/O score)
/// and, on demand, the machine's full allocation state.
struct AgentHeartbeatRpc {
  MachineId machine;
  NodeId agent_node;
  uint64_t seq = 0;
  double health_score = 1.0;  ///< 1.0 healthy .. 0.0 dead
  cluster::ResourceVector capacity;
  bool carries_allocations = false;
  std::vector<AgentAllocation> allocations;
  /// Set by a restarted agent that lost its capacity table; the master
  /// answers with a full AgentCapacityRpc.
  bool need_capacity = false;
};

/// FuxiMaster → FuxiAgent: authoritative per-app capacity on the
/// machine (sent as deltas after scheduling decisions; as absolute
/// counts with `full` set, e.g. after an agent restart).
struct AgentCapacityRpc {
  struct Entry {
    AppId app;
    uint32_t slot_id = 0;
    resource::ScheduleUnitDef def;
    int64_t delta = 0;  ///< delta, or absolute count when `full`
  };
  /// Per-(master generation, machine) sequence number. Deltas commute,
  /// so reordering among them is harmless, but a duplicated delta would
  /// double-apply and a delta reordered behind a later full snapshot
  /// would re-add capacity the snapshot already covers. The agent drops
  /// any message whose seq it has already applied and any message older
  /// than the last full snapshot.
  uint64_t master_generation = 0;
  uint64_t seq = 0;
  bool full = false;
  std::vector<Entry> entries;
};

/// FuxiMaster → FuxiAgent: heartbeat acknowledgement. When the master
/// has no record of the agent (fresh election, or the agent was marked
/// down), it sets `need_allocations` and the agent's next heartbeat
/// carries its full allocation table so the master can restore the
/// soft state (Figure 7).
struct AgentHeartbeatAckRpc {
  uint64_t master_generation = 0;
  bool need_allocations = false;
};

/// FuxiMaster (newly elected primary) → everyone: "re-send your state".
/// Agents answer with a heartbeat carrying allocations; application
/// masters answer with a full-state RequestRpc (paper Figure 7).
struct MasterRecoveryAnnounceRpc {
  NodeId new_master;
  uint64_t master_generation = 0;
};

/// Shard primary → shard-directory replicas (src/shard): periodic load
/// and leadership report. Replicas keep the entry with the highest
/// generation, so a deposed primary's stale reports are fenced out the
/// same way its grants are.
struct ShardStatusRpc {
  int32_t shard = 0;
  NodeId primary;
  uint64_t generation = 0;
  int64_t machines_online = 0;
  cluster::ResourceVector total;    ///< capacity of online machines
  cluster::ResourceVector granted;  ///< currently promised to apps
};

// ---------------------------------------------------------------------
// Client <-> FuxiMaster (application lifecycle)
// ---------------------------------------------------------------------

/// Client → FuxiMaster: launch an application (e.g. a Fuxi job). The
/// description is the hard state checkpointed by the master.
///
/// v2: the flat `quota_group` became a hierarchical `tenant_path`
/// ("tenant/org/user"), plus a fair-share `weight` for the tenant leaf.
/// v1 frames still decode: the old group name lands in `tenant_path`
/// (a single-segment path *is* a root-level tenant) and the weight
/// defaults to 1.0.
struct SubmitAppRpc {
  AppId app;
  std::string tenant_path;
  Json description;
  NodeId client;
  double weight = 1.0;
};

/// FuxiMaster → client: submission outcome.
struct SubmitAppReplyRpc {
  AppId app;
  bool accepted = false;
  std::string error;
};

/// FuxiMaster → FuxiAgent: start an application master process for a
/// submitted app on this machine.
struct StartAppMasterRpc {
  AppId app;
  Json description;
};

/// Client or master → FuxiMaster: tear an application down.
struct StopAppRpc {
  AppId app;
};

// ---------------------------------------------------------------------
// Application master <-> FuxiAgent (work plans, §2.2)
// ---------------------------------------------------------------------

/// Application master → FuxiAgent: start a worker process under a
/// previously granted unit. `plan` carries package location / start-up
/// parameters (opaque to the agent).
struct StartWorkerRpc {
  AppId app;
  uint32_t slot_id = 0;
  NodeId am_node;
  uint64_t plan_id = 0;  ///< echo token for the reply
  Json plan;
};

/// FuxiAgent → application master: worker launch outcome. On a
/// capacity refusal the agent reports the workers it already runs for
/// that (app, slot): if the AM's original start reply was lost it can
/// adopt the orphan instead of retrying into the same refusal forever.
struct WorkerStartedRpc {
  uint64_t plan_id = 0;
  WorkerId worker;
  MachineId machine;
  bool ok = false;
  std::string error;
  std::vector<WorkerId> running;  ///< set only on refusal
};

/// Application master → FuxiAgent: stop a worker.
struct StopWorkerRpc {
  WorkerId worker;
};

/// FuxiAgent → application master: a worker died; if the agent could
/// restart it in place (paper: "FuxiAgent watches the worker's status
/// and restarts it if it crashes"), `restarted` is set and
/// `replacement` names the new process.
struct WorkerCrashedRpc {
  AppId app;
  uint32_t slot_id = 0;
  WorkerId worker;
  WorkerId replacement;
  MachineId machine;
  bool restarted = false;
};

/// Restarted FuxiAgent → application master: "I adopted these running
/// workers of yours; which should survive?" (agent failover, §4.3.1).
struct AdoptQueryRpc {
  AppId app;
  MachineId machine;
  NodeId agent_node;
  std::vector<WorkerId> workers;
};

/// Application master → restarted FuxiAgent: the workers to keep.
struct AdoptReplyRpc {
  AppId app;
  MachineId machine;
  std::vector<WorkerId> keep;
};

// ---------------------------------------------------------------------
// Wire layouts (fuxi::wire, DESIGN.md §10). Every RPC above is a framed
// top-level message. Bump its version when changing a layout.
// ---------------------------------------------------------------------

constexpr auto WireFields(const RequestRpc*) {
  return wire::FieldList<&RequestRpc::app, &RequestRpc::reply_to,
                         &RequestRpc::incarnation, &RequestRpc::msg>{};
}
// v2: the embedded StampedRequest carries PlanningHints (fuxi::planner).
FUXI_WIRE_MESSAGE(RequestRpc, 2)

constexpr auto WireFields(const GrantRpc*) {
  return wire::FieldList<&GrantRpc::msg>{};
}
FUXI_WIRE_MESSAGE(GrantRpc, 1)

constexpr auto WireFields(const ResyncRpc*) {
  return wire::FieldList<&ResyncRpc::app, &ResyncRpc::reply_to,
                         &ResyncRpc::incarnation>{};
}
FUXI_WIRE_MESSAGE(ResyncRpc, 1)

constexpr auto WireFields(const BadMachineReportRpc*) {
  return wire::FieldList<&BadMachineReportRpc::app,
                         &BadMachineReportRpc::machine>{};
}
FUXI_WIRE_MESSAGE(BadMachineReportRpc, 1)

constexpr auto WireFields(const AgentAllocation*) {
  return wire::FieldList<&AgentAllocation::app, &AgentAllocation::slot_id,
                         &AgentAllocation::def, &AgentAllocation::count>{};
}

constexpr auto WireFields(const AgentHeartbeatRpc*) {
  using M = AgentHeartbeatRpc;
  return wire::FieldList<&M::machine, &M::agent_node, &M::seq,
                         &M::health_score, &M::capacity,
                         &M::carries_allocations, &M::allocations,
                         &M::need_capacity>{};
}
FUXI_WIRE_MESSAGE(AgentHeartbeatRpc, 1)

constexpr auto WireFields(const AgentCapacityRpc::Entry*) {
  using M = AgentCapacityRpc::Entry;
  return wire::FieldList<&M::app, &M::slot_id, &M::def, &M::delta>{};
}

constexpr auto WireFields(const AgentCapacityRpc*) {
  using M = AgentCapacityRpc;
  return wire::FieldList<&M::master_generation, &M::seq, &M::full,
                         &M::entries>{};
}
FUXI_WIRE_MESSAGE(AgentCapacityRpc, 1)

constexpr auto WireFields(const AgentHeartbeatAckRpc*) {
  return wire::FieldList<&AgentHeartbeatAckRpc::master_generation,
                         &AgentHeartbeatAckRpc::need_allocations>{};
}
FUXI_WIRE_MESSAGE(AgentHeartbeatAckRpc, 1)

constexpr auto WireFields(const MasterRecoveryAnnounceRpc*) {
  return wire::FieldList<&MasterRecoveryAnnounceRpc::new_master,
                         &MasterRecoveryAnnounceRpc::master_generation>{};
}
FUXI_WIRE_MESSAGE(MasterRecoveryAnnounceRpc, 1)

constexpr auto WireFields(const ShardStatusRpc*) {
  using M = ShardStatusRpc;
  return wire::FieldList<&M::shard, &M::primary, &M::generation,
                         &M::machines_online, &M::total, &M::granted>{};
}
FUXI_WIRE_MESSAGE(ShardStatusRpc, 1)

// Hand-written (messages_wire.cc): v1 frames lack the trailing weight.
void WireEncode(wire::Writer& w, const SubmitAppRpc& m);
Status WireDecode(wire::Reader& r, SubmitAppRpc& m);
// v2: quota_group became tenant_path + weight (v1 frames still decode).
FUXI_WIRE_MESSAGE(SubmitAppRpc, 2, 1)

constexpr auto WireFields(const SubmitAppReplyRpc*) {
  return wire::FieldList<&SubmitAppReplyRpc::app, &SubmitAppReplyRpc::accepted,
                         &SubmitAppReplyRpc::error>{};
}
FUXI_WIRE_MESSAGE(SubmitAppReplyRpc, 1)

constexpr auto WireFields(const StartAppMasterRpc*) {
  return wire::FieldList<&StartAppMasterRpc::app,
                         &StartAppMasterRpc::description>{};
}
FUXI_WIRE_MESSAGE(StartAppMasterRpc, 1)

constexpr auto WireFields(const StopAppRpc*) {
  return wire::FieldList<&StopAppRpc::app>{};
}
FUXI_WIRE_MESSAGE(StopAppRpc, 1)

constexpr auto WireFields(const StartWorkerRpc*) {
  using M = StartWorkerRpc;
  return wire::FieldList<&M::app, &M::slot_id, &M::am_node, &M::plan_id,
                         &M::plan>{};
}
FUXI_WIRE_MESSAGE(StartWorkerRpc, 1)

constexpr auto WireFields(const WorkerStartedRpc*) {
  using M = WorkerStartedRpc;
  return wire::FieldList<&M::plan_id, &M::worker, &M::machine, &M::ok,
                         &M::error, &M::running>{};
}
FUXI_WIRE_MESSAGE(WorkerStartedRpc, 1)

constexpr auto WireFields(const StopWorkerRpc*) {
  return wire::FieldList<&StopWorkerRpc::worker>{};
}
FUXI_WIRE_MESSAGE(StopWorkerRpc, 1)

constexpr auto WireFields(const WorkerCrashedRpc*) {
  using M = WorkerCrashedRpc;
  return wire::FieldList<&M::app, &M::slot_id, &M::worker, &M::replacement,
                         &M::machine, &M::restarted>{};
}
FUXI_WIRE_MESSAGE(WorkerCrashedRpc, 1)

constexpr auto WireFields(const AdoptQueryRpc*) {
  using M = AdoptQueryRpc;
  return wire::FieldList<&M::app, &M::machine, &M::agent_node,
                         &M::workers>{};
}
FUXI_WIRE_MESSAGE(AdoptQueryRpc, 1)

constexpr auto WireFields(const AdoptReplyRpc*) {
  return wire::FieldList<&AdoptReplyRpc::app, &AdoptReplyRpc::machine,
                         &AdoptReplyRpc::keep>{};
}
FUXI_WIRE_MESSAGE(AdoptReplyRpc, 1)

}  // namespace fuxi::master

#endif  // FUXI_MASTER_MESSAGES_H_
