#include "chaos/fault_schedule.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"
#include "common/rng.h"

namespace fuxi::chaos {

ChaosEngine::ChaosEngine(runtime::SimCluster* cluster)
    : cluster_(cluster), baseline_config_(*cluster->network().mutable_config()) {
  FUXI_CHECK(cluster != nullptr);
}

void ChaosEngine::Note(const std::string& what) {
  log_.push_back(InjectedFault{cluster_->sim().Now(), what});
}

void ChaosEngine::Inject(const Fault& fault) {
  Note(fault.description);
  fault.apply();
}

sim::EventHandle ChaosEngine::At(double when, Fault fault) {
  return cluster_->sim().ScheduleAt(
      when, [this, fault = std::move(fault)] { Inject(fault); });
}

Fault ChaosEngine::KillPrimaryMaster() {
  return {"KillPrimaryMaster", [this] { cluster_->KillPrimaryMaster(); }};
}

Fault ChaosEngine::RestartDeadMasters() {
  return {"RestartDeadMasters", [this] { cluster_->RestartDeadMasters(); }};
}

Fault ChaosEngine::MasterCrashLoop(int kills, double gap) {
  std::ostringstream name;
  name << "MasterCrashLoop(kills=" << kills << ", gap=" << gap << ")";
  return {name.str(), [this, kills, gap] {
            cluster_->KillPrimaryMaster();
            double now = cluster_->sim().Now();
            for (int i = 1; i < kills; ++i) {
              At(now + i * gap, {"MasterCrashLoop:kill-next-primary", [this] {
                                   cluster_->RestartDeadMasters();
                                   cluster_->KillPrimaryMaster();
                                 }});
            }
            At(now + kills * gap, RestartDeadMasters());
          }};
}

Fault ChaosEngine::HaltMachine(MachineId machine) {
  return {"HaltMachine(m" + std::to_string(machine.value()) + ")",
          [this, machine] { cluster_->HaltMachine(machine); }};
}

Fault ChaosEngine::ReviveMachine(MachineId machine) {
  return {"ReviveMachine(m" + std::to_string(machine.value()) + ")",
          [this, machine] { cluster_->ReviveMachine(machine); }};
}

Fault ChaosEngine::CrashAgent(MachineId machine) {
  return {"CrashAgent(m" + std::to_string(machine.value()) + ")",
          [this, machine] { cluster_->agent(machine)->Crash(); }};
}

Fault ChaosEngine::RestartAgent(MachineId machine) {
  return {"RestartAgent(m" + std::to_string(machine.value()) + ")",
          [this, machine] {
            agent::FuxiAgent* agent = cluster_->agent(machine);
            if (!agent->is_alive() && !cluster_->machine_halted(machine)) {
              agent->Restart();
            }
          }};
}

Fault ChaosEngine::RackPowerLoss(RackId rack) {
  return {"RackPowerLoss(r" + std::to_string(rack.value()) + ")",
          [this, rack] {
            const cluster::Rack& r =
                cluster_->topology().racks()[static_cast<size_t>(rack.value())];
            for (MachineId machine : r.machines) {
              cluster_->HaltMachine(machine);
            }
          }};
}

Fault ChaosEngine::RackRevive(RackId rack) {
  return {"RackRevive(r" + std::to_string(rack.value()) + ")",
          [this, rack] {
            const cluster::Rack& r =
                cluster_->topology().racks()[static_cast<size_t>(rack.value())];
            for (MachineId machine : r.machines) {
              if (cluster_->machine_halted(machine)) {
                cluster_->ReviveMachine(machine);
              }
            }
          }};
}

Fault ChaosEngine::CutAgentUplink(MachineId machine) {
  return {"CutAgentUplink(m" + std::to_string(machine.value()) + ")",
          [this, machine] {
            NodeId agent_node(100 + machine.value());
            for (int i = 0; i < cluster_->master_count(); ++i) {
              NodeId master_node = cluster_->master(i)->node();
              cluster_->network().CutLink(agent_node, master_node);
              cuts_.insert({agent_node, master_node});
            }
          }};
}

Fault ChaosEngine::HealAgentUplink(MachineId machine) {
  return {"HealAgentUplink(m" + std::to_string(machine.value()) + ")",
          [this, machine] {
            NodeId agent_node(100 + machine.value());
            for (int i = 0; i < cluster_->master_count(); ++i) {
              NodeId master_node = cluster_->master(i)->node();
              cluster_->network().HealLink(agent_node, master_node);
              cuts_.erase({agent_node, master_node});
            }
          }};
}

Fault ChaosEngine::FlapAgent(MachineId machine, double period, double duty) {
  std::ostringstream name;
  name << "FlapAgent(m" << machine.value() << ", period=" << period
       << ", duty=" << duty << ")";
  return {name.str(), [this, machine, period, duty] {
            NodeId agent_node(100 + machine.value());
            auto it = flaps_.find(machine);
            if (it != flaps_.end()) it->second.Cancel();
            flaps_[machine] =
                cluster_->network().Flap(agent_node, period, duty);
          }};
}

Fault ChaosEngine::StopFlap(MachineId machine) {
  return {"StopFlap(m" + std::to_string(machine.value()) + ")",
          [this, machine] {
            auto it = flaps_.find(machine);
            if (it != flaps_.end()) {
              it->second.Cancel();
              flaps_.erase(it);
            }
          }};
}

Fault ChaosEngine::DropBurst(double probability, double duration) {
  std::ostringstream name;
  name << "DropBurst(p=" << probability << ", d=" << duration << ")";
  return {name.str(), [this, probability, duration] {
            cluster_->network().mutable_config()->drop_probability =
                probability;
            At(cluster_->sim().Now() + duration,
               {"DropBurst:restore", [this] {
                  cluster_->network().mutable_config()->drop_probability =
                      baseline_config_.drop_probability;
                }});
          }};
}

Fault ChaosEngine::DuplicateBurst(double probability, double duration) {
  std::ostringstream name;
  name << "DuplicateBurst(p=" << probability << ", d=" << duration << ")";
  return {name.str(), [this, probability, duration] {
            cluster_->network().mutable_config()->duplicate_probability =
                probability;
            At(cluster_->sim().Now() + duration,
               {"DuplicateBurst:restore", [this] {
                  cluster_->network().mutable_config()->duplicate_probability =
                      baseline_config_.duplicate_probability;
                }});
          }};
}

Fault ChaosEngine::CorruptionBurst(double probability, double duration) {
  std::ostringstream name;
  name << "CorruptionBurst(p=" << probability << ", d=" << duration << ")";
  return {name.str(), [this, probability, duration] {
            cluster_->network().mutable_config()->corrupt_probability =
                probability;
            At(cluster_->sim().Now() + duration,
               {"CorruptionBurst:restore", [this] {
                  cluster_->network().mutable_config()->corrupt_probability =
                      baseline_config_.corrupt_probability;
                }});
          }};
}

Fault ChaosEngine::TruncationBurst(double probability, double duration) {
  std::ostringstream name;
  name << "TruncationBurst(p=" << probability << ", d=" << duration << ")";
  return {name.str(), [this, probability, duration] {
            cluster_->network().mutable_config()->truncate_probability =
                probability;
            At(cluster_->sim().Now() + duration,
               {"TruncationBurst:restore", [this] {
                  cluster_->network().mutable_config()->truncate_probability =
                      baseline_config_.truncate_probability;
                }});
          }};
}

Fault ChaosEngine::KillShardPrimary(int shard) {
  return {"KillShardPrimary(shard" + std::to_string(shard) + ")",
          [this, shard] { cluster_->KillShardPrimary(shard); }};
}

Fault ChaosEngine::ShardCrashLoop(int shard, int kills, double gap) {
  std::ostringstream name;
  name << "ShardCrashLoop(shard" << shard << ", kills=" << kills
       << ", gap=" << gap << ")";
  return {name.str(), [this, shard, kills, gap] {
            cluster_->KillShardPrimary(shard);
            double now = cluster_->sim().Now();
            for (int i = 1; i < kills; ++i) {
              At(now + i * gap,
                 {"ShardCrashLoop:kill-next-primary", [this, shard] {
                    cluster_->RestartDeadMasters();
                    cluster_->KillShardPrimary(shard);
                  }});
            }
            At(now + kills * gap, RestartDeadMasters());
          }};
}

Fault ChaosEngine::CutDirectoryReplica(int replica) {
  return {"CutDirectoryReplica(d" + std::to_string(replica) + ")",
          [this, replica] {
            NodeId node = cluster_->directory(replica)->node();
            cluster_->network().Partition(node);
            partitions_.insert(node);
          }};
}

Fault ChaosEngine::HealDirectoryReplica(int replica) {
  return {"HealDirectoryReplica(d" + std::to_string(replica) + ")",
          [this, replica] {
            NodeId node = cluster_->directory(replica)->node();
            cluster_->network().Heal(node);
            partitions_.erase(node);
          }};
}

namespace {

/// First booked machine of the lowest-id reservation matching `pred`
/// across every live primary's planner, or -1. Deterministic: masters
/// in index order, reservations in id order, bookings in key order.
template <typename Pred>
int64_t FindReservedMachine(runtime::SimCluster* cluster, Pred pred) {
  for (int i = 0; i < cluster->master_count(); ++i) {
    master::FuxiMaster* m = cluster->master(i);
    if (!m->is_alive() || !m->is_primary() || m->scheduler() == nullptr) {
      continue;
    }
    const planner::ClusterPlanner* planner = m->scheduler()->planner();
    if (planner == nullptr) continue;
    for (const auto& [id, res] : planner->reservations()) {
      (void)id;
      if (!pred(res)) continue;
      for (const auto& [key, bookings] : res.bookings) {
        (void)key;
        for (const planner::Reservation::Booking& booking : bookings) {
          if (booking.machine >= 0) return booking.machine;
        }
      }
    }
  }
  return -1;
}

}  // namespace

Fault ChaosEngine::ReservationChurn(double outage) {
  std::ostringstream name;
  name << "ReservationChurn(outage=" << outage << ")";
  return {name.str(), [this, outage] {
            int64_t target = FindReservedMachine(
                cluster_, [](const planner::Reservation&) { return true; });
            if (target < 0) {
              Note("ReservationChurn: no booked reservation to target");
              return;
            }
            MachineId machine(target);
            Inject(HaltMachine(machine));
            At(cluster_->sim().Now() + outage, ReviveMachine(machine));
          }};
}

Fault ChaosEngine::GangMemberLoss(double outage) {
  std::ostringstream name;
  name << "GangMemberLoss(outage=" << outage << ")";
  return {name.str(), [this, outage] {
            int64_t target =
                FindReservedMachine(cluster_, [](const planner::Reservation& r) {
                  return r.gang_id != 0;
                });
            if (target < 0) {
              Note("GangMemberLoss: no gang reservation to target");
              return;
            }
            MachineId machine(target);
            Inject(HaltMachine(machine));
            At(cluster_->sim().Now() + outage, ReviveMachine(machine));
          }};
}

Fault ChaosEngine::TornCheckpointWrite() {
  return {"TornCheckpointWrite", [this] {
            coord::CheckpointStore& store = cluster_->checkpoint();
            store.CorruptKey(store.last_put_key());
          }};
}

void ChaosEngine::ScheduleRandomCampaign(uint64_t seed,
                                         const CampaignPlanOptions& plan) {
  Rng rng(seed ^ 0xC4A05C4A05ull);

  // Deterministic machine pool for machine-scoped faults, with the tail
  // of the shuffle protected so the cluster stays schedulable.
  std::vector<MachineId> pool;
  for (const cluster::Machine& machine : cluster_->topology().machines()) {
    pool.push_back(machine.id);
  }
  for (size_t i = pool.size(); i > 1; --i) {
    std::swap(pool[i - 1], pool[rng.Uniform(i)]);
  }
  size_t protect =
      std::min(pool.size() > 1 ? pool.size() - 1 : 0, kProtectedMachines);
  size_t usable = pool.size() - protect;
  size_t next_machine = 0;
  auto take_machine = [&](MachineId* out) {
    if (next_machine >= usable) return false;
    *out = pool[next_machine++];
    return true;
  };

  enum Kind {
    kMachineBounce,
    kAgentBounce,
    kRackOutage,
    kMasterFailover,
    kMasterCrashLoop,
    kLinkCut,
    kFlap,
    kDropBurst,
    kDuplicateBurst,
    kShardCrashLoop,
    kDirectoryOutage,
    kReservationChurn,
    kGangMemberLoss,
  };
  std::vector<Kind> kinds = {
      kMachineBounce, kMachineBounce, kAgentBounce, kAgentBounce,
      kRackOutage, kMasterFailover, kMasterCrashLoop, kLinkCut, kFlap,
      kDropBurst, kDuplicateBurst};
  // Federation faults only exist in sharded clusters, so the unsharded
  // kind pool — and with it every rng draw below — is exactly the
  // legacy stream (golden replays pin this).
  if (cluster_->shard_count() > 1) {
    kinds.insert(kinds.end(), {kShardCrashLoop, kShardCrashLoop});
  }
  if (cluster_->shard_count() > 1 && cluster_->directory_count() > 0) {
    kinds.push_back(kDirectoryOutage);
  }
  // Planner faults are opt-in, so the legacy kind pool — and every rng
  // draw of the legacy schedule — is untouched by default.
  if (plan.planner_faults) {
    kinds.insert(kinds.end(), {kReservationChurn, kGangMemberLoss});
  }

  bool rack_done = false;
  double lease = master::FuxiMaster::kLockLease;
  for (int episode = 0; episode < plan.episodes; ++episode) {
    Kind kind = kinds[rng.Uniform(kinds.size())];
    double outage =
        kMinOutage + rng.NextDouble() * (kMaxOutage - kMinOutage);
    double latest = kPlanStart + std::max(plan.duration - outage, 0.0);
    double t0 = kPlanStart + rng.NextDouble() * (latest - kPlanStart);
    MachineId machine;
    switch (kind) {
      case kMachineBounce:
        if (!take_machine(&machine)) break;
        At(t0, HaltMachine(machine));
        At(t0 + outage, ReviveMachine(machine));
        break;
      case kAgentBounce:
        if (!take_machine(&machine)) break;
        // Daemon-only bounce: processes survive and must be re-adopted.
        At(t0, CrashAgent(machine));
        At(t0 + std::min(outage, 4.0), RestartAgent(machine));
        break;
      case kRackOutage: {
        if (rack_done || cluster_->topology().racks().size() < 2) break;
        rack_done = true;
        RackId rack(static_cast<int64_t>(
            rng.Uniform(cluster_->topology().racks().size())));
        At(t0, RackPowerLoss(rack));
        At(t0 + outage, RackRevive(rack));
        break;
      }
      case kMasterFailover:
        At(t0, KillPrimaryMaster());
        At(t0 + std::max(outage, lease), RestartDeadMasters());
        break;
      case kMasterCrashLoop: {
        // The loop's kills must land inside the fault window, or the
        // campaign would keep injecting after HealEverything().
        int kills = 1 + static_cast<int>(rng.Uniform(2));
        double gap = lease * 1.2;
        double span = kills * gap;
        if (span > plan.duration) {
          kills = 1;
          span = gap;
        }
        double last_start = kPlanStart + std::max(plan.duration - span, 0.0);
        double loop_t0 =
            kPlanStart + rng.NextDouble() * (last_start - kPlanStart);
        At(loop_t0, MasterCrashLoop(kills, gap));
        break;
      }
      case kLinkCut:
        if (!take_machine(&machine)) break;
        At(t0, CutAgentUplink(machine));
        At(t0 + outage, HealAgentUplink(machine));
        break;
      case kFlap:
        if (!take_machine(&machine)) break;
        At(t0, FlapAgent(machine, 1.0 + rng.NextDouble() * 2.0,
                         0.3 + rng.NextDouble() * 0.3));
        At(t0 + outage, StopFlap(machine));
        break;
      case kDropBurst:
        At(t0, DropBurst(0.05 + rng.NextDouble() * 0.2, outage));
        break;
      case kDuplicateBurst:
        At(t0, DuplicateBurst(0.05 + rng.NextDouble() * 0.3, outage));
        break;
      case kShardCrashLoop: {
        int shard = static_cast<int>(
            rng.Uniform(static_cast<size_t>(cluster_->shard_count())));
        int kills = 1 + static_cast<int>(rng.Uniform(2));
        double gap = lease * 1.2;
        double span = kills * gap;
        if (span > plan.duration) {
          kills = 1;
          span = gap;
        }
        double last_start = kPlanStart + std::max(plan.duration - span, 0.0);
        double loop_t0 =
            kPlanStart + rng.NextDouble() * (last_start - kPlanStart);
        At(loop_t0, ShardCrashLoop(shard, kills, gap));
        break;
      }
      case kDirectoryOutage: {
        int replica = static_cast<int>(
            rng.Uniform(static_cast<size_t>(cluster_->directory_count())));
        At(t0, CutDirectoryReplica(replica));
        At(t0 + outage, HealDirectoryReplica(replica));
        break;
      }
      case kReservationChurn:
        At(t0, ReservationChurn(std::min(outage, 5.0)));
        break;
      case kGangMemberLoss:
        At(t0, GangMemberLoss(std::min(outage, 5.0)));
        break;
    }
  }
}

void ChaosEngine::HealEverything() {
  Note("HealEverything");
  for (auto& [machine, handle] : flaps_) handle.Cancel();
  flaps_.clear();
  for (const auto& [from, to] : cuts_) {
    cluster_->network().HealLink(from, to);
  }
  cuts_.clear();
  for (NodeId node : partitions_) cluster_->network().Heal(node);
  partitions_.clear();
  net::Network::Config* config = cluster_->network().mutable_config();
  config->drop_probability = baseline_config_.drop_probability;
  config->duplicate_probability = baseline_config_.duplicate_probability;
  config->corrupt_probability = baseline_config_.corrupt_probability;
  config->truncate_probability = baseline_config_.truncate_probability;
  cluster_->RestartDeadMasters();
  std::set<MachineId> halted = cluster_->halted_machines();
  for (MachineId machine : halted) cluster_->ReviveMachine(machine);
  for (const cluster::Machine& machine : cluster_->topology().machines()) {
    agent::FuxiAgent* agent = cluster_->agent(machine.id);
    if (!agent->is_alive()) agent->Restart();
  }
}

std::string ChaosEngine::LogDump() const {
  std::ostringstream out;
  for (const InjectedFault& fault : log_) {
    out << "t=" << fault.time << " " << fault.description << "\n";
  }
  return out.str();
}

}  // namespace fuxi::chaos
