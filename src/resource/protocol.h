#ifndef FUXI_RESOURCE_PROTOCOL_H_
#define FUXI_RESOURCE_PROTOCOL_H_

#include <string>
#include <vector>

#include "resource/delta_channel.h"
#include "resource/request.h"

namespace fuxi::resource {

/// Absolute desired state for one ScheduleUnit, carried by the periodic
/// full-state sync (paper §3.1's "safety measurement": peers exchange
/// full state to repair any inconsistency the deltas left behind).
struct SlotAbsoluteState {
  ScheduleUnitDef def;
  int64_t total_count = 0;                ///< absolute outstanding ask
  std::vector<LocalityHint> hints;        ///< absolute preferred counts
  std::vector<std::string> avoid;         ///< absolute avoid list
  PlanningHints plan;                     ///< absolute planner metadata
};

/// Application master returns `count` granted units (paper: "only the
/// unit number needs to be sent").
struct ReleaseDelta {
  uint32_t slot_id = 0;
  MachineId machine;
  int64_t count = 0;
};

/// Absolute granted count for one (slot, machine), used in full syncs.
struct GrantAbsolute {
  uint32_t slot_id = 0;
  MachineId machine;
  int64_t count = 0;
};

/// Application-master → FuxiMaster request message. When stamped
/// `is_full`, `full_slots` + `held_grants` hold the authoritative
/// absolute state (outstanding asks and the grants the application
/// believes it holds) and the delta fields are ignored; otherwise
/// `delta`/`releases` carry incremental changes.
struct RequestMessage {
  ResourceRequest delta;
  std::vector<ReleaseDelta> releases;
  std::vector<SlotAbsoluteState> full_slots;
  std::vector<GrantAbsolute> held_grants;
};

/// One incremental grant change from FuxiMaster to an application
/// master: positive = newly granted units, negative = revoked.
struct GrantDelta {
  uint32_t slot_id = 0;
  MachineId machine;
  int64_t delta = 0;
  RevocationReason reason = RevocationReason::kAppRelease;
};

/// FuxiMaster → application-master grant message (delta or full).
struct GrantMessage {
  std::vector<GrantDelta> deltas;
  std::vector<GrantAbsolute> full_grants;
};

using StampedRequest = Stamped<RequestMessage>;
using StampedGrant = Stamped<GrantMessage>;

// ---------------------------------------------------------------------
// Wire layouts (fuxi::wire, DESIGN.md §10). The stamped wrappers are the
// protocol's unit of transmission, so they carry registry tags; exact
// measured sizes replace the old ApproxWireSize estimates everywhere
// (net::Network::Send, the incremental-vs-full ablation).
// ---------------------------------------------------------------------

constexpr auto WireFields(const SlotAbsoluteState*) {
  using M = SlotAbsoluteState;
  return wire::FieldList<&M::def, &M::total_count, &M::hints, &M::avoid,
                         &M::plan>{};
}
constexpr auto WireFields(const ReleaseDelta*) {
  return wire::FieldList<&ReleaseDelta::slot_id, &ReleaseDelta::machine,
                         &ReleaseDelta::count>{};
}
constexpr auto WireFields(const GrantAbsolute*) {
  return wire::FieldList<&GrantAbsolute::slot_id, &GrantAbsolute::machine,
                         &GrantAbsolute::count>{};
}
constexpr auto WireFields(const RequestMessage*) {
  using M = RequestMessage;
  return wire::FieldList<&M::delta, &M::releases, &M::full_slots,
                         &M::held_grants>{};
}
constexpr auto WireFields(const GrantDelta*) {
  return wire::FieldList<&GrantDelta::slot_id, &GrantDelta::machine,
                         &GrantDelta::delta,
                         wire::Enum(&GrantDelta::reason,
                                    RevocationReason::kReconcile)>{};
}
constexpr auto WireFields(const GrantMessage*) {
  return wire::FieldList<&GrantMessage::deltas, &GrantMessage::full_grants>{};
}
template <typename Delta>
constexpr auto WireFields(const Stamped<Delta>*) {
  using M = Stamped<Delta>;
  return wire::FieldList<&M::epoch, &M::seq, &M::is_full, &M::payload>{};
}

// v2: UnitRequestDelta grew has_plan + PlanningHints and
// SlotAbsoluteState grew a trailing PlanningHints (fuxi::planner).
FUXI_WIRE_MESSAGE(StampedRequest, 2)
FUXI_WIRE_MESSAGE(StampedGrant, 1)

}  // namespace fuxi::resource

#endif  // FUXI_RESOURCE_PROTOCOL_H_
