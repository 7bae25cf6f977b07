#ifndef FUXI_CHAOS_FAULT_SCHEDULE_H_
#define FUXI_CHAOS_FAULT_SCHEDULE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "net/network.h"
#include "runtime/sim_cluster.h"
#include "sim/simulator.h"

namespace fuxi::chaos {

/// One schedulable fault: a description (for the campaign trace) and
/// the action that applies it to the cluster. Composite faults (crash
/// loops, bursts) schedule their own follow-up steps through the
/// engine, so every sub-action still lands in the injection log.
struct Fault {
  std::string description;
  std::function<void()> apply;
};

/// Parameters of a seeded random campaign: `episodes` paired
/// onset/recovery fault episodes drawn over the window
/// [ChaosEngine::kPlanStart, kPlanStart + duration] (absolute virtual
/// time). Every episode schedules its own recovery, so the cluster is
/// nominally whole again shortly after the window closes;
/// HealEverything() is the belt and braces for anything a cancelled or
/// overlapping episode left broken. The mix always holds machine
/// halt/revive and agent bounces, rack power loss, primary kills and
/// crash loops, asymmetric uplink cuts, flaps and drop/duplicate
/// bursts; sharded clusters add shard crash loops and directory
/// outages.
struct CampaignPlanOptions {
  double duration = 40.0;
  int episodes = 6;
  /// fuxi::planner faults (reservation churn, gang-member machine
  /// loss). Default OFF: the legacy kind pool — and with it every rng
  /// draw of the seeded schedule — stays exactly the golden-pinned
  /// stream. Enable together with a planner workload.
  bool planner_faults = false;
};

/// Drives scripted and seeded-random fault campaigns over a SimCluster.
/// Faults are scheduled at absolute virtual times and are cancellable
/// via the returned simulator handle; every applied fault is logged
/// with its fire time so a failing campaign replays byte-identically
/// from its seed.
class ChaosEngine {
 public:
  struct InjectedFault {
    double time = 0;
    std::string description;
  };

  /// Random campaigns: the fault window opens here (absolute virtual
  /// time) and each episode's outage is drawn from
  /// [kMinOutage, kMaxOutage].
  static constexpr double kPlanStart = 6.0;
  static constexpr double kMinOutage = 2.0;
  static constexpr double kMaxOutage = 10.0;
  /// Machines excluded from machine-scoped faults, so the cluster keeps
  /// enough capacity to make progress through the worst of the window.
  static constexpr size_t kProtectedMachines = 2;

  explicit ChaosEngine(runtime::SimCluster* cluster);

  /// Schedules `fault` at absolute virtual time `when` (clamped to now).
  /// The handle cancels the injection if it has not fired yet.
  sim::EventHandle At(double when, Fault fault);

  /// Applies a fault immediately and logs it.
  void Inject(const Fault& fault);

  // --- fault constructors ----------------------------------------------

  Fault KillPrimaryMaster();
  Fault RestartDeadMasters();
  /// Kills the primary `kills` times, `gap` seconds apart, restarting
  /// dead replicas between kills so each takeover is freshly murdered —
  /// timed against lease expiry when gap > FuxiMaster::kLockLease.
  Fault MasterCrashLoop(int kills, double gap);
  Fault HaltMachine(MachineId machine);
  Fault ReviveMachine(MachineId machine);
  Fault CrashAgent(MachineId machine);
  Fault RestartAgent(MachineId machine);
  /// Correlated failure: every machine in the rack halts at once.
  Fault RackPowerLoss(RackId rack);
  Fault RackRevive(RackId rack);
  /// Cuts the agent→master direction of the machine's uplink (for every
  /// master replica): the master goes deaf to the machine while the
  /// machine still hears revocations — the asymmetric case.
  Fault CutAgentUplink(MachineId machine);
  Fault HealAgentUplink(MachineId machine);
  /// Starts a partition/heal flap of the machine's agent node.
  Fault FlapAgent(MachineId machine, double period, double duty);
  Fault StopFlap(MachineId machine);
  /// Raises the network drop (or duplicate) probability to `p` for
  /// `duration` seconds, then restores the campaign baseline.
  Fault DropBurst(double probability, double duration);
  Fault DuplicateBurst(double probability, double duration);
  /// Byte-level wire faults: flips one random byte of (or truncates)
  /// each affected frame before it is decoded on the receive path.
  /// Requires Config::serialize_on_send — damaged frames surface as
  /// counted decode drops, never as crashes. Not part of the default
  /// random-campaign mix; script them explicitly.
  Fault CorruptionBurst(double probability, double duration);
  Fault TruncationBurst(double probability, double duration);
  /// Sharded clusters: kills one shard's elected primary (its fault
  /// domain fails over; every other shard keeps scheduling).
  Fault KillShardPrimary(int shard);
  /// Crash-loops one shard: `kills` primary murders `gap` seconds
  /// apart, restarting dead replicas between kills, then a final
  /// restart — the isolation scenario of the federation campaign.
  Fault ShardCrashLoop(int shard, int kills, double gap);
  /// Partitions (heals) one shard-directory replica, forcing the
  /// submission router to fail over between replicas.
  Fault CutDirectoryReplica(int replica);
  Fault HealDirectoryReplica(int replica);
  /// fuxi::planner: halts the machine carrying the lowest-id
  /// reservation's first booking for `outage` seconds, forcing the
  /// planner to drop the claims and re-book the reservation elsewhere.
  /// No-op (logged) when no reservation is booked at fire time.
  Fault ReservationChurn(double outage);
  /// fuxi::planner: like ReservationChurn but targets a gang
  /// reservation's booking — the all-or-nothing transaction must
  /// dissolve and re-plan without ever leaking a partial placement.
  Fault GangMemberLoss(double outage);
  /// Torn checkpoint write: corrupts the record most recently Put into
  /// the checkpoint store, as if the process died mid-write. The next
  /// recovering master must skip-and-count it, not crash. Not part of
  /// the random mix; script it right after a kill.
  Fault TornCheckpointWrite();

  /// Expands `seed` into a deterministic schedule of paired
  /// onset/recovery episodes. Call before running the window.
  void ScheduleRandomCampaign(uint64_t seed, const CampaignPlanOptions& plan);

  /// Reverts every fault surface this engine touched: cancels flaps,
  /// heals its link cuts, restores the baseline network config,
  /// restarts dead masters and agents, and revives halted machines.
  void HealEverything();

  const std::vector<InjectedFault>& log() const { return log_; }
  std::string LogDump() const;

 private:
  void Note(const std::string& what);

  runtime::SimCluster* cluster_;
  std::vector<InjectedFault> log_;
  std::map<MachineId, net::FlapHandle> flaps_;
  std::set<std::pair<NodeId, NodeId>> cuts_;
  std::set<NodeId> partitions_;  ///< directory replicas this engine cut
  net::Network::Config baseline_config_;
};

}  // namespace fuxi::chaos

#endif  // FUXI_CHAOS_FAULT_SCHEDULE_H_
