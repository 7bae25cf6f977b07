#ifndef FUXI_TESTS_REFERENCE_SCHEDULER_H_
#define FUXI_TESTS_REFERENCE_SCHEDULER_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/topology.h"
#include "common/ids.h"
#include "common/status.h"
#include "resource/fairshare.h"
#include "resource/locality_tree.h"
#include "resource/request.h"
#include "resource/scheduler.h"

namespace fuxi::resource {

/// The scheduling oracle: a deliberately simple O(machines × demands)
/// reimplementation of the Scheduler contract with no incremental
/// indexes — every decision recomputes eligibility, fit and ordering
/// from first principles over flat state. It exists so the fast path
/// can be trusted: tests/scheduler_differential_test.cc replays
/// randomized request/release/failover streams through both
/// implementations and requires identical SchedulingResult sequences
/// (same assignments, same revocations, same order) at every step.
///
/// The tie-breaking contract both implementations satisfy:
///   * A scheduling pass on machine M repeatedly picks, among live
///     demands that do not avoid M and were not already skipped this
///     pass, the one maximizing (effective_priority desc, wait level
///     asc [machine < rack < cluster, via WaitLevelFor semantics],
///     enqueue_seq asc, key asc); the grant is capped by the count
///     remaining at that level. A demand that cannot be granted is
///     skipped for the rest of the pass.
///   * PlaceDemand tries machine hints in ascending machine-id order,
///     then rack hints in ascending rack-id order (machines inside a
///     rack in topology order), then rotates round-robin over free
///     machines starting after the shared cursor, capping each grant at
///     max(1, remaining / free_machine_count) per rotation.
///   * Preemption collects victims over all grants and processes them
///     sorted by (level [priority < quota], victim priority asc,
///     machine asc, key asc), revoking one unit at a time.
///   * Batch revocation paths (app teardown, machine offline, capacity
///     shrink) emit revocations in (machine, key) order and re-offer
///     freed machines in ascending machine order.
///
/// Options have the same meaning as SchedulerOptions (quota, preemption
/// and flat-queue ablations must flip identically on both sides).
class ReferenceScheduler {
 public:
  using Options = SchedulerOptions;

  explicit ReferenceScheduler(const cluster::ClusterTopology* topology,
                              Options options = {});

  Status CreateQuotaGroup(const std::string& name,
                          const cluster::ResourceVector& quota);
  Status CreateTenantNode(const std::string& path,
                          const cluster::ResourceVector& guarantee,
                          double weight = 1.0,
                          int64_t preemption_budget = -1);
  Status EnsureTenantLeaf(const std::string& path, double weight = 1.0);
  Status RegisterApp(AppId app, const std::string& tenant_path = "");
  Status UnregisterApp(AppId app, SchedulingResult* result);
  bool HasApp(AppId app) const { return apps_.count(app) > 0; }

  Status ApplyRequest(const ResourceRequest& request,
                      SchedulingResult* result);
  Status Release(AppId app, uint32_t slot_id, MachineId machine,
                 int64_t count, SchedulingResult* result,
                 RevocationReason reason = RevocationReason::kAppRelease);
  Status RestoreGrant(AppId app, const ScheduleUnitDef& def,
                      MachineId machine, int64_t count);

  void SetMachineOffline(MachineId machine, SchedulingResult* result);
  void SetMachineOnline(MachineId machine, SchedulingResult* result,
                        bool run_pass = true);
  void RunSchedulePass(MachineId machine, SchedulingResult* result);
  void SetMachineCapacity(MachineId machine,
                          const cluster::ResourceVector& capacity,
                          SchedulingResult* result);

  cluster::ResourceVector TotalCapacity() const;
  cluster::ResourceVector TotalGranted() const;
  cluster::ResourceVector GrantedTo(AppId app) const;
  int64_t GrantCount(AppId app, uint32_t slot_id, MachineId machine) const;
  std::vector<Scheduler::GrantEntry> GrantsOf(AppId app) const;
  int64_t TotalWaitingUnits() const;

  size_t AgeWaitingDemands(double now);
  std::vector<SchedulingResult> TakeAgedResults();

  bool CheckInvariants() const;

 private:
  /// Flat per-machine state; recomputed aggregates, no caches.
  struct Machine {
    bool online = true;
    cluster::ResourceVector capacity;
    cluster::ResourceVector free;
    std::map<SlotKey, int64_t> grants;
  };

  /// Flat demand record; plain ordered maps, no queues.
  struct Demand {
    SlotKey key;
    ScheduleUnitDef def;
    uint64_t enqueue_seq = 0;
    Priority effective_priority = 0;
    double waiting_since = 0;
    int64_t total_remaining = 0;
    std::map<MachineId, int64_t> machine_remaining;
    std::map<RackId, int64_t> rack_remaining;
    std::set<MachineId> avoid;

    bool Avoids(MachineId machine) const {
      return avoid.count(machine) > 0;
    }
  };

  Status ApplyUnitDelta(AppId app, const UnitRequestDelta& delta,
                        std::vector<SlotKey>* touched);
  void PlaceDemand(Demand* demand, SchedulingResult* result);
  void SchedulePass(MachineId machine, SchedulingResult* result);
  void CommitGrant(Demand* demand, MachineId machine, int64_t count,
                   SchedulingResult* result);
  int64_t RevokeGrant(const SlotKey& key, MachineId machine, int64_t count,
                      RevocationReason reason, SchedulingResult* result);
  void TryPreempt(Demand* demand, SchedulingResult* result);
  int64_t FitCount(const Demand& demand, const Machine& machine,
                   int64_t limit) const;
  /// Decrements the demand's machine/rack/total counts for a grant from
  /// `machine`, erasing zeroed entries.
  void ConsumeGrant(Demand* demand, MachineId machine, int64_t count);
  /// The level `demand` waits at for `machine` (machine hint beats rack
  /// hint beats cluster-wide), recomputed from the count maps.
  LocalityLevel WaitLevelFor(const Demand& demand, MachineId machine) const;
  /// All machines that are online with a non-empty free pool, ascending
  /// (recomputed by full scan — this is the oracle).
  std::vector<MachineId> FreeMachines() const;

  Demand* FindDemand(const SlotKey& key);
  const Demand* FindDemand(const SlotKey& key) const;

  const cluster::ClusterTopology* topology_;
  Options options_;
  FairShareTree fairshare_;
  std::vector<Machine> machines_;
  std::map<SlotKey, Demand> demands_;
  uint64_t next_seq_ = 0;
  MachineId rr_cursor_;
  std::unordered_map<AppId, std::set<uint32_t>> apps_;
  double now_hint_ = 0;
  std::vector<SchedulingResult> aged_results_;
};

}  // namespace fuxi::resource

#endif  // FUXI_TESTS_REFERENCE_SCHEDULER_H_
