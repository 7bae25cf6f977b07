#include "reference_scheduler.h"

#include <algorithm>

#include "common/logging.h"

namespace fuxi::resource {

ReferenceScheduler::ReferenceScheduler(
    const cluster::ClusterTopology* topology, Options options)
    : topology_(topology), options_(options) {
  FUXI_CHECK(topology != nullptr);
  machines_.resize(topology->machine_count());
  for (const cluster::Machine& machine : topology->machines()) {
    Machine& state = machines_[static_cast<size_t>(machine.id.value())];
    state.online = true;
    state.capacity = machine.capacity;
    state.free = machine.capacity;
  }
  rr_cursor_ = MachineId(0);
}

Status ReferenceScheduler::CreateQuotaGroup(
    const std::string& name, const cluster::ResourceVector& quota) {
  return fairshare_.CreateNode(name, quota);
}

Status ReferenceScheduler::CreateTenantNode(
    const std::string& path, const cluster::ResourceVector& guarantee,
    double weight, int64_t preemption_budget) {
  return fairshare_.CreateNode(path, guarantee, {weight, preemption_budget});
}

Status ReferenceScheduler::EnsureTenantLeaf(const std::string& path,
                                            double weight) {
  return fairshare_.EnsureLeaf(path, weight);
}

Status ReferenceScheduler::RegisterApp(AppId app,
                                       const std::string& tenant_path) {
  if (apps_.count(app) > 0) {
    return Status::AlreadyExists("app already registered: " +
                                 app.ToString());
  }
  if (!tenant_path.empty()) {
    FUXI_RETURN_IF_ERROR(fairshare_.AssignApp(app, tenant_path));
  }
  apps_.emplace(app, std::set<uint32_t>{});
  return Status::Ok();
}

Status ReferenceScheduler::UnregisterApp(AppId app,
                                         SchedulingResult* result) {
  auto it = apps_.find(app);
  if (it == apps_.end()) {
    return Status::NotFound("app not registered: " + app.ToString());
  }
  // Sweep every machine in ascending order, revoking this app's grants
  // in key order, then re-offer the touched machines.
  std::vector<MachineId> touched;
  for (size_t m = 0; m < machines_.size(); ++m) {
    Machine& state = machines_[m];
    std::vector<std::pair<SlotKey, int64_t>> to_revoke;
    for (const auto& [key, count] : state.grants) {
      if (key.app == app) to_revoke.emplace_back(key, count);
    }
    for (const auto& [key, count] : to_revoke) {
      RevokeGrant(key, MachineId(static_cast<int64_t>(m)), count,
                  RevocationReason::kAppRelease, result);
    }
    if (!to_revoke.empty()) {
      touched.push_back(MachineId(static_cast<int64_t>(m)));
    }
  }
  for (uint32_t slot : it->second) {
    if (Demand* demand = FindDemand(SlotKey{app, slot})) {
      if (demand->total_remaining > 0) {
        fairshare_.OnWaitingChange(
            app, demand->def.resources * (-demand->total_remaining));
      }
    }
  }
  for (auto dit = demands_.begin(); dit != demands_.end();) {
    if (dit->first.app == app) {
      dit = demands_.erase(dit);
    } else {
      ++dit;
    }
  }
  if (fairshare_.HasApp(app)) {
    Status s = fairshare_.RemoveApp(app);
    FUXI_CHECK(s.ok()) << s.ToString();
  }
  apps_.erase(it);
  for (MachineId machine : touched) SchedulePass(machine, result);
  return Status::Ok();
}

Status ReferenceScheduler::ApplyRequest(const ResourceRequest& request,
                                        SchedulingResult* result) {
  auto it = apps_.find(request.app);
  if (it == apps_.end()) {
    return Status::NotFound("app not registered: " + request.app.ToString());
  }
  std::vector<SlotKey> touched;
  for (const UnitRequestDelta& delta : request.units) {
    FUXI_RETURN_IF_ERROR(ApplyUnitDelta(request.app, delta, &touched));
    it->second.insert(delta.slot_id);
  }
  for (const SlotKey& key : touched) {
    Demand* demand = FindDemand(key);
    if (demand != nullptr && demand->total_remaining > 0) {
      PlaceDemand(demand, result);
    }
  }
  if (options_.enable_preemption) {
    for (const SlotKey& key : touched) {
      Demand* demand = FindDemand(key);
      if (demand != nullptr && demand->total_remaining > 0) {
        TryPreempt(demand, result);
      }
    }
  }
  return Status::Ok();
}

Status ReferenceScheduler::ApplyUnitDelta(AppId app,
                                          const UnitRequestDelta& delta,
                                          std::vector<SlotKey>* touched) {
  SlotKey key{app, delta.slot_id};
  Demand* demand = FindDemand(key);
  if (demand == nullptr) {
    if (!delta.has_def) {
      return Status::InvalidArgument(
          "first request for slot " + std::to_string(delta.slot_id) +
          " of app " + app.ToString() + " must carry the unit definition");
    }
    if (delta.def.resources.AnyNegative() ||
        delta.def.resources.IsZero()) {
      return Status::InvalidArgument("schedule unit size must be positive");
    }
    Demand fresh;
    fresh.key = key;
    fresh.def = delta.def;
    fresh.effective_priority = delta.def.priority;
    fresh.enqueue_seq = next_seq_++;
    demand = &demands_.emplace(key, std::move(fresh)).first->second;
  }

  for (const std::string& hostname : delta.avoid_add) {
    FUXI_ASSIGN_OR_RETURN(MachineId machine,
                          topology_->FindByHostname(hostname));
    demand->avoid.insert(machine);
  }
  for (const std::string& hostname : delta.avoid_remove) {
    FUXI_ASSIGN_OR_RETURN(MachineId machine,
                          topology_->FindByHostname(hostname));
    demand->avoid.erase(machine);
  }

  if (options_.locality_tree) {
    for (const LocalityHint& hint : delta.hints) {
      switch (hint.level) {
        case LocalityLevel::kMachine: {
          FUXI_ASSIGN_OR_RETURN(MachineId machine,
                                topology_->FindByHostname(hint.value));
          int64_t& slot = demand->machine_remaining[machine];
          slot = std::max<int64_t>(0, slot + hint.count);
          if (slot == 0) demand->machine_remaining.erase(machine);
          break;
        }
        case LocalityLevel::kRack: {
          FUXI_ASSIGN_OR_RETURN(RackId rack,
                                topology_->FindRackByName(hint.value));
          int64_t& slot = demand->rack_remaining[rack];
          slot = std::max<int64_t>(0, slot + hint.count);
          if (slot == 0) demand->rack_remaining.erase(rack);
          break;
        }
        case LocalityLevel::kCluster:
          break;
      }
    }
  }

  if (delta.total_count_delta != 0) {
    int64_t before = demand->total_remaining;
    demand->total_remaining =
        std::max<int64_t>(0, before + delta.total_count_delta);
    int64_t applied = demand->total_remaining - before;
    if (applied != 0) {
      fairshare_.OnWaitingChange(app, demand->def.resources * applied);
    }
    if (before == 0 && demand->total_remaining > 0) {
      demand->waiting_since = now_hint_;
    }
  }
  touched->push_back(key);
  return Status::Ok();
}

int64_t ReferenceScheduler::FitCount(const Demand& demand,
                                     const Machine& machine,
                                     int64_t limit) const {
  if (!machine.online || limit <= 0) return 0;
  int64_t fit = machine.free.DivideBy(demand.def.resources);
  int64_t count = std::min(fit, limit);
  if (count <= 0) return 0;
  if (options_.enable_quota &&
      fairshare_.AnyCompetingDeficit(demand.key.app)) {
    const FairShareTree::Node* node = fairshare_.NodeOf(demand.key.app);
    if (node != nullptr) {
      cluster::ResourceVector headroom;
      if (fairshare_.ContentionHeadroom(*node, &headroom)) {
        count = std::min(count, headroom.DivideBy(demand.def.resources));
      }
    }
  }
  return std::max<int64_t>(count, 0);
}

void ReferenceScheduler::ConsumeGrant(Demand* demand, MachineId machine,
                                      int64_t count) {
  FUXI_CHECK_GT(count, 0);
  FUXI_CHECK_LE(count, demand->total_remaining);
  auto mit = demand->machine_remaining.find(machine);
  if (mit != demand->machine_remaining.end()) {
    mit->second = std::max<int64_t>(0, mit->second - count);
    if (mit->second == 0) demand->machine_remaining.erase(mit);
  }
  RackId rack = topology_->machine(machine).rack;
  auto rit = demand->rack_remaining.find(rack);
  if (rit != demand->rack_remaining.end()) {
    rit->second = std::max<int64_t>(0, rit->second - count);
    if (rit->second == 0) demand->rack_remaining.erase(rit);
  }
  demand->total_remaining -= count;
}

LocalityLevel ReferenceScheduler::WaitLevelFor(const Demand& demand,
                                               MachineId machine) const {
  auto mit = demand.machine_remaining.find(machine);
  if (mit != demand.machine_remaining.end() && mit->second > 0) {
    return LocalityLevel::kMachine;
  }
  RackId rack = topology_->machine(machine).rack;
  auto rit = demand.rack_remaining.find(rack);
  if (rit != demand.rack_remaining.end() && rit->second > 0) {
    return LocalityLevel::kRack;
  }
  return LocalityLevel::kCluster;
}

std::vector<MachineId> ReferenceScheduler::FreeMachines() const {
  std::vector<MachineId> out;
  for (size_t m = 0; m < machines_.size(); ++m) {
    if (machines_[m].online && !machines_[m].free.IsZero()) {
      out.push_back(MachineId(static_cast<int64_t>(m)));
    }
  }
  return out;
}

void ReferenceScheduler::PlaceDemand(Demand* demand,
                                     SchedulingResult* result) {
  // 1. Machine hints in ascending id order.
  if (options_.locality_tree && !demand->machine_remaining.empty()) {
    std::vector<MachineId> hinted;
    for (const auto& [machine, count] : demand->machine_remaining) {
      hinted.push_back(machine);
    }
    for (MachineId machine : hinted) {
      if (demand->total_remaining == 0) return;
      if (demand->Avoids(machine)) continue;
      auto hint_it = demand->machine_remaining.find(machine);
      if (hint_it == demand->machine_remaining.end()) continue;
      int64_t limit = std::min(hint_it->second, demand->total_remaining);
      int64_t count = FitCount(
          *demand, machines_[static_cast<size_t>(machine.value())], limit);
      if (count > 0) {
        CommitGrant(demand, machine, count, result);
        ConsumeGrant(demand, machine, count);
      }
    }
  }
  // 2. Rack hints in ascending id order; machines inside a rack in
  // topology order.
  if (options_.locality_tree && !demand->rack_remaining.empty()) {
    std::vector<RackId> racks;
    for (const auto& [rack, count] : demand->rack_remaining) {
      racks.push_back(rack);
    }
    for (RackId rack : racks) {
      for (MachineId machine : topology_->rack(rack).machines) {
        if (demand->total_remaining == 0) return;
        auto rack_it = demand->rack_remaining.find(rack);
        if (rack_it == demand->rack_remaining.end()) break;
        if (demand->Avoids(machine)) continue;
        int64_t limit = std::min(rack_it->second, demand->total_remaining);
        int64_t count = FitCount(
            *demand, machines_[static_cast<size_t>(machine.value())],
            limit);
        if (count > 0) {
          CommitGrant(demand, machine, count, result);
          ConsumeGrant(demand, machine, count);
        }
      }
    }
  }
  // 3. Cluster-wide round robin with the per-rotation spread cap.
  while (demand->total_remaining > 0) {
    std::vector<MachineId> free = FreeMachines();
    if (free.empty()) break;
    int64_t spread_cap = std::max<int64_t>(
        1,
        demand->total_remaining / static_cast<int64_t>(free.size()));
    std::vector<MachineId> rotation;
    rotation.reserve(free.size());
    auto start =
        std::upper_bound(free.begin(), free.end(), rr_cursor_);
    rotation.insert(rotation.end(), start, free.end());
    rotation.insert(rotation.end(), free.begin(), start);
    bool progressed = false;
    MachineId last_granted = rr_cursor_;
    for (MachineId machine : rotation) {
      if (demand->total_remaining == 0) break;
      if (demand->Avoids(machine)) continue;
      int64_t limit = std::min(demand->total_remaining, spread_cap);
      int64_t count = FitCount(
          *demand, machines_[static_cast<size_t>(machine.value())], limit);
      if (count > 0) {
        CommitGrant(demand, machine, count, result);
        ConsumeGrant(demand, machine, count);
        last_granted = machine;
        progressed = true;
      }
    }
    rr_cursor_ = last_granted;
    if (!progressed) break;
  }
}

void ReferenceScheduler::SchedulePass(MachineId machine,
                                      SchedulingResult* result) {
  Machine& state = machines_[static_cast<size_t>(machine.value())];
  if (!state.online || state.free.IsZero()) return;
  std::set<SlotKey> skipped;
  size_t examined = 0;
  while (true) {
    // Recompute the winner from scratch: among live demands that do not
    // avoid this machine and were not skipped this pass, maximize
    // (effective_priority desc, wait level asc, enqueue_seq asc,
    // key asc).
    Demand* best = nullptr;
    LocalityLevel best_level = LocalityLevel::kCluster;
    for (auto& [key, demand] : demands_) {
      if (demand.total_remaining <= 0) continue;
      if (skipped.count(key) > 0) continue;
      if (demand.Avoids(machine)) continue;
      LocalityLevel level = WaitLevelFor(demand, machine);
      if (best == nullptr) {
        best = &demand;
        best_level = level;
        continue;
      }
      bool wins;
      if (demand.effective_priority != best->effective_priority) {
        wins = demand.effective_priority > best->effective_priority;
      } else if (level != best_level) {
        wins = static_cast<int>(level) < static_cast<int>(best_level);
      } else if (demand.enqueue_seq != best->enqueue_seq) {
        wins = demand.enqueue_seq < best->enqueue_seq;
      } else {
        wins = key < best->key;
      }
      if (wins) {
        best = &demand;
        best_level = level;
      }
    }
    if (best == nullptr) return;
    if (options_.max_candidates_per_pass > 0 &&
        ++examined > options_.max_candidates_per_pass) {
      return;
    }
    int64_t limit = best->total_remaining;
    if (best_level == LocalityLevel::kMachine) {
      auto it = best->machine_remaining.find(machine);
      limit = std::min(
          limit, it == best->machine_remaining.end() ? 0 : it->second);
    } else if (best_level == LocalityLevel::kRack) {
      RackId rack = topology_->machine(machine).rack;
      auto it = best->rack_remaining.find(rack);
      limit = std::min(limit,
                       it == best->rack_remaining.end() ? 0 : it->second);
    }
    int64_t count = FitCount(*best, state, limit);
    if (count <= 0) {
      skipped.insert(best->key);
      continue;
    }
    CommitGrant(best, machine, count, result);
    ConsumeGrant(best, machine, count);
  }
}

void ReferenceScheduler::CommitGrant(Demand* demand, MachineId machine,
                                     int64_t count,
                                     SchedulingResult* result) {
  FUXI_CHECK_GT(count, 0);
  Machine& state = machines_[static_cast<size_t>(machine.value())];
  cluster::ResourceVector amount = demand->def.resources * count;
  FUXI_CHECK(amount.FitsIn(state.free))
      << "reference grant exceeds free pool on machine "
      << machine.value();
  state.free -= amount;
  state.grants[demand->key] += count;
  fairshare_.OnGrant(demand->key.app, amount);
  fairshare_.OnWaitingChange(demand->key.app,
                             demand->def.resources * (-count));
  result->assignments.push_back(
      Assignment{demand->key.app, demand->key.slot_id, machine, count});
}

int64_t ReferenceScheduler::RevokeGrant(const SlotKey& key, MachineId machine,
                                        int64_t count,
                                        RevocationReason reason,
                                        SchedulingResult* result) {
  Machine& state = machines_[static_cast<size_t>(machine.value())];
  auto it = state.grants.find(key);
  if (it == state.grants.end() || count <= 0) return 0;
  int64_t revoked = std::min(count, it->second);
  it->second -= revoked;
  if (it->second == 0) state.grants.erase(it);

  Demand* demand = FindDemand(key);
  FUXI_CHECK(demand != nullptr) << "grant without demand record";
  cluster::ResourceVector amount = demand->def.resources * revoked;
  state.free += amount;
  fairshare_.OnRevoke(key.app, amount);
  if (reason != RevocationReason::kAppRelease &&
      reason != RevocationReason::kReconcile) {
    demand->total_remaining += revoked;
    fairshare_.OnWaitingChange(key.app, amount);
  }
  result->revocations.push_back(
      Revocation{key.app, key.slot_id, machine, revoked, reason});
  return revoked;
}

Status ReferenceScheduler::RestoreGrant(AppId app,
                                        const ScheduleUnitDef& def,
                                        MachineId machine, int64_t count) {
  if (apps_.count(app) == 0) {
    return Status::NotFound("app not registered: " + app.ToString());
  }
  if (count <= 0) return Status::InvalidArgument("count must be positive");
  Machine& state = machines_[static_cast<size_t>(machine.value())];
  if (!state.online) {
    return Status::FailedPrecondition("machine offline: " +
                                      machine.ToString());
  }
  cluster::ResourceVector amount = def.resources * count;
  if (!amount.FitsIn(state.free)) {
    return Status::ResourceExhausted(
        "restored grant exceeds free capacity on machine " +
        machine.ToString());
  }
  SlotKey key{app, def.slot_id};
  if (FindDemand(key) == nullptr) {
    Demand fresh;
    fresh.key = key;
    fresh.def = def;
    fresh.effective_priority = def.priority;
    fresh.enqueue_seq = next_seq_++;
    demands_.emplace(key, std::move(fresh));
  }
  apps_[app].insert(def.slot_id);
  state.free -= amount;
  state.grants[key] += count;
  fairshare_.OnGrant(app, amount);
  return Status::Ok();
}

Status ReferenceScheduler::Release(AppId app, uint32_t slot_id,
                                   MachineId machine, int64_t count,
                                   SchedulingResult* result,
                                   RevocationReason reason) {
  SlotKey key{app, slot_id};
  Machine& state = machines_[static_cast<size_t>(machine.value())];
  auto it = state.grants.find(key);
  if (it == state.grants.end()) {
    return Status::NotFound("no grant for app " + app.ToString() +
                            " slot " + std::to_string(slot_id) +
                            " on machine " + machine.ToString());
  }
  if (count > it->second) {
    return Status::InvalidArgument("release exceeds granted count");
  }
  RevokeGrant(key, machine, count, reason, result);
  SchedulePass(machine, result);
  return Status::Ok();
}

void ReferenceScheduler::SetMachineOffline(MachineId machine,
                                           SchedulingResult* result) {
  Machine& state = machines_[static_cast<size_t>(machine.value())];
  if (!state.online) return;
  std::vector<std::pair<SlotKey, int64_t>> to_revoke(state.grants.begin(),
                                                     state.grants.end());
  for (const auto& [key, count] : to_revoke) {
    RevokeGrant(key, machine, count, RevocationReason::kMachineDown, result);
  }
  state.online = false;
  state.free = cluster::ResourceVector();
  for (const auto& [key, count] : to_revoke) {
    if (Demand* demand = FindDemand(key)) {
      if (demand->total_remaining > 0) PlaceDemand(demand, result);
    }
  }
}

void ReferenceScheduler::SetMachineOnline(MachineId machine,
                                          SchedulingResult* result,
                                          bool run_pass) {
  Machine& state = machines_[static_cast<size_t>(machine.value())];
  if (state.online) return;
  state.online = true;
  state.free = state.capacity;
  FUXI_CHECK(state.grants.empty());
  if (run_pass) SchedulePass(machine, result);
}

void ReferenceScheduler::RunSchedulePass(MachineId machine,
                                         SchedulingResult* result) {
  SchedulePass(machine, result);
}

void ReferenceScheduler::SetMachineCapacity(
    MachineId machine, const cluster::ResourceVector& capacity,
    SchedulingResult* result) {
  Machine& state = machines_[static_cast<size_t>(machine.value())];
  cluster::ResourceVector granted = state.capacity - state.free;
  state.capacity = capacity;
  cluster::ResourceVector new_free = capacity - granted;
  while (new_free.AnyNegative() && !state.grants.empty()) {
    SlotKey key = state.grants.begin()->first;
    RevokeGrant(key, machine, 1, RevocationReason::kCapacityShrink, result);
    granted = cluster::ResourceVector();
    for (const auto& [grant_key, count] : state.grants) {
      const Demand* demand = FindDemand(grant_key);
      FUXI_CHECK(demand != nullptr);
      granted += demand->def.resources * count;
    }
    new_free = capacity - granted;
  }
  state.free = new_free.ClampNonNegative();
  if (state.online) SchedulePass(machine, result);
}

void ReferenceScheduler::TryPreempt(Demand* demand,
                                    SchedulingResult* result) {
  if (demand->total_remaining <= 0) return;
  const FairShareTree::Node* my_node = fairshare_.NodeOf(demand->key.app);
  struct Victim {
    int level;
    double dominant;
    Priority priority;
    MachineId machine;
    SlotKey key;
    const FairShareTree::Node* node;
  };
  std::vector<Victim> victims;
  bool my_deficit = options_.enable_quota && my_node != nullptr &&
                    fairshare_.PathHasDeficit(*my_node);
  const bool drf = fairshare_.hierarchical();
  cluster::ResourceVector capacity;
  if (drf) capacity = TotalCapacity();
  fairshare_.BeginPreemptionSweep();
  // The oracle scans every grant on every machine, every time.
  for (size_t m = 0; m < machines_.size(); ++m) {
    MachineId machine(static_cast<int64_t>(m));
    const Machine& state = machines_[m];
    if (!state.online || demand->Avoids(machine)) continue;
    for (const auto& [key, count] : state.grants) {
      if (key.app == demand->key.app) continue;
      const Demand* victim_demand = FindDemand(key);
      FUXI_CHECK(victim_demand != nullptr);
      const FairShareTree::Node* victim_node = fairshare_.NodeOf(key.app);
      bool same_node = my_node != nullptr && victim_node == my_node;
      double dominant = 0.0;
      if (drf && victim_node != nullptr) {
        dominant = fairshare_.DominantShare(*victim_node, capacity);
      }
      if (same_node &&
          victim_demand->def.priority < demand->def.priority) {
        victims.push_back({0, dominant, victim_demand->def.priority,
                           machine, key, victim_node});
      } else if (my_deficit && victim_node != nullptr && !same_node &&
                 fairshare_.PathOverQuota(*victim_node)) {
        victims.push_back({1, dominant, victim_demand->def.priority,
                           machine, key, victim_node});
      }
    }
  }
  std::sort(victims.begin(), victims.end(),
            [](const Victim& a, const Victim& b) {
              if (a.level != b.level) return a.level < b.level;
              if (a.dominant != b.dominant) return a.dominant > b.dominant;
              if (a.priority != b.priority) return a.priority < b.priority;
              if (a.machine != b.machine) return a.machine < b.machine;
              return a.key < b.key;
            });
  for (const Victim& victim : victims) {
    if (demand->total_remaining <= 0) return;
    Machine& state =
        machines_[static_cast<size_t>(victim.machine.value())];
    while (demand->total_remaining > 0) {
      auto it = state.grants.find(victim.key);
      if (it == state.grants.end()) break;
      if (victim.node != nullptr &&
          !fairshare_.PreemptionBudgetAllows(*victim.node)) {
        break;
      }
      RevocationReason reason = victim.level == 0
                                    ? RevocationReason::kPreemptPriority
                                    : RevocationReason::kPreemptQuota;
      if (RevokeGrant(victim.key, victim.machine, 1, reason, result) == 0) {
        break;
      }
      if (victim.node != nullptr) {
        fairshare_.ChargePreemption(*victim.node, 1);
      }
      int64_t count = FitCount(*demand, state, demand->total_remaining);
      if (count > 0) {
        CommitGrant(demand, victim.machine, count, result);
        ConsumeGrant(demand, victim.machine, count);
      }
    }
  }
}

size_t ReferenceScheduler::AgeWaitingDemands(double now) {
  now_hint_ = now;
  if (options_.starvation_age_after <= 0) return 0;
  size_t boosted = 0;
  std::vector<SlotKey> to_boost;
  for (const auto& [key, demand] : demands_) {
    if (demand.total_remaining <= 0) continue;
    if (now - demand.waiting_since < options_.starvation_age_after) {
      continue;
    }
    if (demand.effective_priority - demand.def.priority >=
        options_.starvation_max_boost) {
      continue;
    }
    to_boost.push_back(key);
  }
  for (const SlotKey& key : to_boost) {
    Demand* demand = FindDemand(key);
    if (demand == nullptr) continue;
    demand->effective_priority += 1;
    demand->waiting_since = now;
    ++boosted;
    SchedulingResult result;
    PlaceDemand(demand, &result);
    aged_results_.push_back(std::move(result));
  }
  return boosted;
}

std::vector<SchedulingResult> ReferenceScheduler::TakeAgedResults() {
  return std::move(aged_results_);
}

cluster::ResourceVector ReferenceScheduler::TotalCapacity() const {
  cluster::ResourceVector total;
  for (const Machine& state : machines_) {
    if (state.online) total += state.capacity;
  }
  return total;
}

cluster::ResourceVector ReferenceScheduler::TotalGranted() const {
  cluster::ResourceVector total;
  for (const Machine& state : machines_) {
    if (!state.online) continue;
    total += state.capacity - state.free;
  }
  return total;
}

cluster::ResourceVector ReferenceScheduler::GrantedTo(AppId app) const {
  cluster::ResourceVector total;
  for (const Machine& state : machines_) {
    for (const auto& [key, count] : state.grants) {
      if (key.app != app) continue;
      const Demand* demand = FindDemand(key);
      FUXI_CHECK(demand != nullptr);
      total += demand->def.resources * count;
    }
  }
  return total;
}

int64_t ReferenceScheduler::GrantCount(AppId app, uint32_t slot_id,
                                       MachineId machine) const {
  const Machine& state = machines_[static_cast<size_t>(machine.value())];
  auto it = state.grants.find(SlotKey{app, slot_id});
  return it == state.grants.end() ? 0 : it->second;
}

std::vector<Scheduler::GrantEntry> ReferenceScheduler::GrantsOf(
    AppId app) const {
  std::vector<Scheduler::GrantEntry> out;
  for (size_t m = 0; m < machines_.size(); ++m) {
    for (const auto& [key, count] : machines_[m].grants) {
      if (key.app == app) {
        out.push_back(
            {key.slot_id, MachineId(static_cast<int64_t>(m)), count});
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Scheduler::GrantEntry& a,
               const Scheduler::GrantEntry& b) {
              if (a.slot_id != b.slot_id) return a.slot_id < b.slot_id;
              return a.machine < b.machine;
            });
  return out;
}

int64_t ReferenceScheduler::TotalWaitingUnits() const {
  int64_t total = 0;
  for (const auto& [key, demand] : demands_) {
    total += demand.total_remaining;
  }
  return total;
}

bool ReferenceScheduler::CheckInvariants() const {
  for (const Machine& state : machines_) {
    cluster::ResourceVector granted;
    for (const auto& [key, count] : state.grants) {
      if (count <= 0) return false;
      const Demand* demand = FindDemand(key);
      if (demand == nullptr) return false;
      granted += demand->def.resources * count;
    }
    if (state.online) {
      if (!(granted + state.free == state.capacity)) return false;
      if (state.free.AnyNegative()) return false;
    } else {
      if (!state.grants.empty()) return false;
    }
  }
  for (const auto& [key, demand] : demands_) {
    if (demand.total_remaining < 0) return false;
  }
  return true;
}

ReferenceScheduler::Demand* ReferenceScheduler::FindDemand(
    const SlotKey& key) {
  auto it = demands_.find(key);
  return it == demands_.end() ? nullptr : &it->second;
}

const ReferenceScheduler::Demand* ReferenceScheduler::FindDemand(
    const SlotKey& key) const {
  auto it = demands_.find(key);
  return it == demands_.end() ? nullptr : &it->second;
}

}  // namespace fuxi::resource
