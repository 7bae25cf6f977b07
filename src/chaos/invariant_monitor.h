#ifndef FUXI_CHAOS_INVARIANT_MONITOR_H_
#define FUXI_CHAOS_INVARIANT_MONITOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/ids.h"
#include "runtime/sim_cluster.h"

namespace fuxi::chaos {

/// One observed safety violation: what broke, when, and enough detail
/// to start debugging from the campaign dump alone.
struct Violation {
  double time = 0;
  std::string invariant;
  std::string detail;
};

/// Hooks the cluster's simulator and checks cross-component safety
/// invariants continuously — after every event transition, not just at
/// test checkpoints — so a campaign failure points at the exact virtual
/// time the cluster first left its safe envelope:
///   * at most one elected primary per lease epoch, and the lock
///     holder's generation never regresses
///   * grant conservation inside the scheduler (free + granted ==
///     capacity, per-machine granted <= capacity, quota consistency)
///   * no agent capacity table exceeding its machine's physical
///     capacity (the observable symptom of a double-grant after a
///     failover that skipped the Figure 7 soft-state rebuild)
///   * the blacklist never exceeds blacklist_cap_fraction
///   * a halted machine hosts no live processes, and no process
///     outlives its application past the reconcile grace (orphans)
///   * sharded clusters: a machine is online only in its owner shard's
///     scheduler (a foreign shard granting there double-books it even
///     when every per-shard audit passes), and the federation never
///     grants more than the online machines have
///   * planner timelines never admit overcommit at any future point,
///     and an unstarted gang holds no grants (trivially true when no
///     planner is live)
/// External liveness conditions (eventual job completion once faults
/// cease) are reported through Report() so everything lands in one
/// violation list.
class InvariantMonitor {
 public:
  /// Returns true while `app` is a live application (submitted, not
  /// finished). Installed by the campaign; without it the orphan check
  /// is skipped.
  using AppLiveness = std::function<bool(AppId)>;

  /// Minimum virtual time between heavy sweeps (full scheduler audit,
  /// per-machine capacity/process scans). Cheap checks (primary count,
  /// generation monotonicity) run after *every* simulator event.
  static constexpr double kHeavyCheckInterval = 0.25;
  /// Cross-component views are eventually consistent: a condition that
  /// involves more than one component (two masters both believing they
  /// are primary for an instant between lease expiry and renewal, an
  /// agent capacity table that a corrective delta has not reached yet)
  /// only counts as a violation when it persists beyond these windows.
  static constexpr double kSplitBrainGrace = 5.0;
  /// Must stay below the agent's periodic allocation-report repair
  /// interval, or real double-grant bugs get silently repaired before
  /// they count as sustained.
  static constexpr double kOvercommitGrace = 6.0;
  /// Must exceed the agent/master reconcile period (allocation report
  /// every ~10 heartbeats): a process whose stop request was lost is
  /// legitimately reaped only on the next reconcile.
  static constexpr double kOrphanGrace = 15.0;
  /// Sharded clusters: a shard crash-loop can swallow an app's
  /// FinishApp. The recovering primary resurrects the app from its
  /// checkpoint and only repairs it via the silent-AM restart
  /// (FuxiMaster::kAppMasterTimeout); the restarted AM re-finishes and
  /// releases the stray workers. The orphan grace must cover that whole
  /// repair path, not just the master→agent revocation hop.
  static constexpr double kShardedOrphanGrace =
      master::FuxiMaster::kAppMasterTimeout + 10.0;
  /// Stop recording after this many violations (one bad invariant can
  /// otherwise flood the report every heavy sweep).
  static constexpr size_t kMaxViolations = 64;

  explicit InvariantMonitor(runtime::SimCluster* cluster);
  ~InvariantMonitor();

  InvariantMonitor(const InvariantMonitor&) = delete;
  InvariantMonitor& operator=(const InvariantMonitor&) = delete;

  /// Installs the post-event hook. The monitor owns the simulator's
  /// single observer slot until Stop().
  void Start();
  void Stop();

  void set_app_liveness(AppLiveness fn) { app_live_ = std::move(fn); }

  /// Runs a full sweep immediately (tests use this at checkpoints).
  void CheckNow();

  /// Records an externally detected violation (e.g. the campaign's
  /// eventual-completion deadline).
  void Report(const std::string& invariant, const std::string& detail);

  const std::vector<Violation>& violations() const { return violations_; }

  /// Chrome trace_event JSON dumped from the cluster's flight recorder
  /// the instant the FIRST violation fired — the causal message history
  /// leading up to the failure, before later traffic overwrites the
  /// ring. Empty while no violation has been recorded (or when
  /// observability is off).
  const std::string& trace_dump() const { return trace_dump_; }

  /// Decision-audit JSON (obs::ExportAuditJson) dumped at the same
  /// instant as trace_dump: the scheduling decisions leading up to the
  /// first violation, ready for tools/fuxi_explain. Empty while no
  /// violation has been recorded (or when observability is off).
  const std::string& audit_dump() const { return audit_dump_; }

  uint64_t heavy_checks_run() const { return checks_; }
  /// FNV-1a digest folded over every heavy sweep's observed state.
  /// Identical seeds must replay to identical digests.
  uint64_t state_hash() const { return hash_; }
  std::string Summary() const;

 private:
  struct PendingCondition {
    double since = 0;
    bool fired = false;
    std::string detail;
  };

  void OnEvent(double now);
  void CheapChecks(double now);
  void HeavyChecks(double now);
  /// Sustained-condition tracker: `bad` must hold continuously for
  /// `grace` before a violation fires; it re-arms once the condition
  /// clears.
  void Sustained(const std::string& key, bool bad, double grace, double now,
                 const std::string& detail);
  void Record(double now, const std::string& invariant,
              const std::string& detail);
  void Fold(uint64_t value);
  void FoldTime(double value);

  runtime::SimCluster* cluster_;
  /// kOrphanGrace, or kShardedOrphanGrace on a sharded cluster.
  double orphan_grace_;
  AppLiveness app_live_;
  bool installed_ = false;
  double last_heavy_ = -1e18;
  /// Last observed election generation, per shard (one entry in the
  /// unsharded cluster).
  std::vector<uint64_t> last_shard_generation_;
  /// Machines owned by each shard (cached from the topology).
  std::vector<int64_t> shard_machine_count_;
  uint64_t checks_ = 0;
  uint64_t hash_ = 1469598103934665603ull;  // FNV-1a offset basis
  std::map<std::string, PendingCondition> pending_;
  std::vector<Violation> violations_;
  std::string trace_dump_;
  std::string audit_dump_;
};

}  // namespace fuxi::chaos

#endif  // FUXI_CHAOS_INVARIANT_MONITOR_H_
