#ifndef FUXI_SHARD_ROUTER_H_
#define FUXI_SHARD_ROUTER_H_

#include <map>
#include <string>
#include <vector>

#include "common/backoff.h"
#include "master/messages.h"
#include "net/network.h"
#include "obs/observability.h"
#include "shard/messages.h"
#include "sim/simulator.h"

namespace fuxi::shard {

/// The federation shape the router serves; SimCluster fills it in.
struct RouterOptions {
  int shards = 1;
  /// Directory replicas, tried in order; the router fails over to the
  /// next replica when the current one stops answering lookups.
  std::vector<NodeId> directory;
  uint64_t seed = 42;
};

/// The federation front door (degraded-mode spillover): application
/// clients submit RouteSubmitRpc here instead of talking to one
/// FuxiMaster. The router keeps a directory-fed view of every shard's
/// primary and load, sends the submission to the app's home shard
/// (app id modulo shard count), spills to the healthiest other shard
/// when the home is saturated or mid-failover, and retries with
/// jittered exponential backoff until some shard primary accepts —
/// so a crash-looping shard stalls only its own submissions, and only
/// until its election settles or a spill target absorbs them.
class SubmissionRouter : public sim::Actor {
 public:
  // Fixed timings and thresholds. Times are virtual seconds.
  static constexpr double kDirectoryRefresh = 0.5;  ///< table refresh cadence
  /// Replica silence before failover.
  static constexpr double kDirectoryTimeout = 1.5;
  /// A shard whose directory row is older than this is treated as
  /// mid-failover (its primary stopped reporting) and skipped.
  static constexpr double kStatusStaleAfter = 3.0;
  /// A shard whose free share (per physical dimension) drops below this
  /// fraction is saturated; submissions spill to a healthier shard.
  static constexpr double kSpillFreeFraction = 0.05;
  /// Resubmission backoff while no shard has accepted the app: jittered
  /// exponential, so a shard outage does not trigger a retry herd.
  static constexpr BackoffPolicy kSubmitBackoff{0.2, 2.0, 5.0, 0.3};

  SubmissionRouter(sim::Simulator* simulator, net::Network* network,
                   NodeId self, RouterOptions options);

  /// Registers the endpoint and starts the directory refresh loop.
  void Start();

  /// Wires the cluster-wide observability bundle in (null detaches).
  void set_observability(obs::Observability* obs);

  NodeId node() const { return self_; }
  int shard_of(AppId app) const {
    return static_cast<int>(app.value() % options_.shards);
  }

  // --- introspection (tests / campaign assertions) ---
  uint64_t submits() const { return submits_; }
  uint64_t spillovers() const { return spillovers_; }
  uint64_t retries() const { return retries_; }
  uint64_t directory_failovers() const { return directory_failovers_; }
  size_t pending_count() const { return pending_.size(); }
  /// Latest directory row for `shard` (default entry when unknown).
  ShardEntry entry(int32_t shard) const;

 private:
  struct Pending {
    std::string tenant_path;
    double weight = 1.0;
    Json description;
    NodeId client;          ///< original submitter, gets the RouteReplyRpc
    int32_t shard = -1;     ///< last shard tried
    uint64_t epoch = 0;     ///< invalidates stale retry timers
    Backoff backoff;

    explicit Pending(uint64_t seed) : backoff(kSubmitBackoff, seed) {}
  };

  void OnRouteSubmit(const RouteSubmitRpc& rpc);
  void OnSubmitReply(const net::Envelope& env,
                     const master::SubmitAppReplyRpc& rpc);
  void OnDirectoryReply(const ShardDirectoryReplyRpc& rpc);

  void RefreshDirectory();
  /// (Re)sends the pending submission for `app` to the chosen shard and
  /// arms the next backoff retry.
  void TrySubmit(AppId app);
  /// Routing decision: the home shard when healthy and unsaturated,
  /// else the healthiest spill target; -1 when no shard is routable.
  /// `why` receives a short reason for the audit note.
  int32_t PickShard(AppId app, std::string* why) const;
  bool Healthy(int32_t shard) const;
  bool Saturated(const ShardEntry& e) const;
  void AuditRoute(AppId app, int32_t shard, const std::string& why);

  net::Network* network_;
  NodeId self_;
  RouterOptions options_;
  net::Endpoint endpoint_;

  std::map<int32_t, ShardEntry> table_;
  std::map<AppId, Pending> pending_;
  size_t active_replica_ = 0;
  double last_directory_reply_ = -1;
  uint64_t next_request_id_ = 1;

  uint64_t submits_ = 0;
  uint64_t spillovers_ = 0;
  uint64_t retries_ = 0;
  uint64_t directory_failovers_ = 0;

  obs::Observability* obs_ = nullptr;
  obs::Counter* submits_counter_ = nullptr;
  obs::Counter* spillovers_counter_ = nullptr;
  obs::Counter* retries_counter_ = nullptr;
  obs::Counter* failovers_counter_ = nullptr;
};

}  // namespace fuxi::shard

#endif  // FUXI_SHARD_ROUTER_H_
