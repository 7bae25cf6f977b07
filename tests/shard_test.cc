#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/fault_schedule.h"
#include "common/backoff.h"
#include "coord/checkpoint_store.h"
#include "master/fuxi_master.h"
#include "master/messages.h"
#include "net/network.h"
#include "runtime/sim_cluster.h"
#include "runtime/synthetic_app.h"
#include "shard/messages.h"
#include "shard/router.h"
#include "shard/shard_directory.h"
#include "sweep/sweep_runner.h"

namespace fuxi::shard {
namespace {

runtime::SimClusterOptions ShardedOptions(int shards) {
  runtime::SimClusterOptions options;
  options.topology.racks = 4;
  options.topology.machines_per_rack = 4;
  options.topology.machine_capacity = cluster::ResourceVector(400, 8192);
  options.shards = shards;
  return options;
}

/// Minimal submission client: fires one RouteSubmitRpc at the router
/// and records the shard named in the accepted reply.
struct RouteClient {
  explicit RouteClient(runtime::SimCluster* cluster) : cluster_(cluster) {
    node = cluster->AllocateNodeId();
    endpoint.Handle<RouteReplyRpc>(
        [this](const net::Envelope&, const RouteReplyRpc& rpc) {
          if (rpc.accepted) assigned[rpc.app] = rpc.shard;
        });
    cluster->network().Register(node, &endpoint);
  }

  void Submit(AppId app) {
    RouteSubmitRpc submit;
    submit.app = app;
    submit.client = node;
    cluster_->network().Send(node, cluster_->router()->node(), submit);
  }

  runtime::SimCluster* cluster_;
  NodeId node;
  net::Endpoint endpoint;
  std::map<AppId, int32_t> assigned;
};

// ---------------------------------------------------------------------
// Federation bootstrap
// ---------------------------------------------------------------------

TEST(ShardFederation, ElectsOnePrimaryPerShard) {
  runtime::SimCluster cluster(ShardedOptions(4));
  cluster.Start();
  cluster.RunFor(3.0);

  std::set<NodeId> primaries;
  for (int k = 0; k < 4; ++k) {
    master::FuxiMaster* primary = cluster.shard_primary(k);
    ASSERT_NE(primary, nullptr) << "shard " << k << " has no primary";
    EXPECT_EQ(primary->lock_name(), cluster.shard_lock(k));
    EXPECT_EQ(cluster.locks().Holder(cluster.shard_lock(k)),
              primary->node());
    primaries.insert(primary->node());
  }
  // Four distinct primaries on four distinct leases.
  EXPECT_EQ(primaries.size(), 4u);
}

TEST(ShardFederation, DirectoryLearnsEveryShard) {
  runtime::SimCluster cluster(ShardedOptions(4));
  cluster.Start();
  cluster.RunFor(3.0);

  ASSERT_EQ(cluster.directory_count(), 2);
  for (int j = 0; j < cluster.directory_count(); ++j) {
    ShardDirectory* directory = cluster.directory(j);
    EXPECT_EQ(directory->known_shards(), 4u);
    for (int k = 0; k < 4; ++k) {
      ShardEntry entry = directory->entry(k);
      EXPECT_TRUE(entry.primary.valid());
      // 16 machines striped modulo 4 = 4 per shard, all heartbeating.
      EXPECT_EQ(entry.machines_online, 4);
      EXPECT_GT(entry.generation, 0u);
    }
  }
}

TEST(ShardFederation, DirectoryFencesStaleGenerations) {
  runtime::SimCluster cluster(ShardedOptions(2));
  cluster.Start();
  cluster.RunFor(3.0);

  ShardDirectory* directory = cluster.directory(0);
  ShardEntry before = cluster.directory(0)->entry(0);
  ASSERT_TRUE(before.primary.valid());

  // A deposed primary (generation below the stored row) reports in; the
  // directory must drop the report rather than shadow the real primary.
  master::ShardStatusRpc stale;
  stale.shard = 0;
  stale.primary = NodeId(999);
  stale.generation = 0;
  NodeId ghost = cluster.AllocateNodeId();
  cluster.network().Send(ghost, directory->node(), stale);
  cluster.RunFor(0.5);

  EXPECT_GE(directory->fenced_reports(), 1u);
  EXPECT_EQ(directory->entry(0).primary, before.primary);
}

// ---------------------------------------------------------------------
// Submission routing
// ---------------------------------------------------------------------

TEST(ShardRouter, RoutesToHomeShard) {
  runtime::SimCluster cluster(ShardedOptions(4));
  cluster.Start();
  cluster.RunFor(3.0);

  RouteClient client(&cluster);
  client.Submit(AppId(5));  // home shard = 5 % 4 = 1
  cluster.RunFor(1.0);

  ASSERT_TRUE(client.assigned.count(AppId(5)));
  EXPECT_EQ(client.assigned[AppId(5)], 1);
  EXPECT_GE(cluster.router()->submits(), 1u);
  EXPECT_EQ(cluster.router()->spillovers(), 0u);
  EXPECT_EQ(cluster.router()->pending_count(), 0u);
}

TEST(ShardRouter, SpillsWhenHomeShardIsDown) {
  runtime::SimCluster cluster(ShardedOptions(2));
  cluster.Start();
  cluster.RunFor(3.0);

  // Take out every master replica of shard 0: no failover candidate
  // remains, so the shard's directory row goes stale.
  for (int i = 0; i < cluster.master_count(); ++i) {
    if (cluster.master(i)->lock_name() == cluster.shard_lock(0)) {
      cluster.master(i)->Crash();
    }
  }
  cluster.RunFor(SubmissionRouter::kStatusStaleAfter + 1.0);

  RouteClient client(&cluster);
  client.Submit(AppId(2));  // home shard = 2 % 2 = 0, which is dead
  cluster.RunFor(1.0);

  ASSERT_TRUE(client.assigned.count(AppId(2)));
  EXPECT_EQ(client.assigned[AppId(2)], 1);
  EXPECT_GE(cluster.router()->spillovers(), 1u);
}

TEST(ShardRouter, RetriesUntilShardElectionSettles) {
  runtime::SimCluster cluster(ShardedOptions(2));
  cluster.Start();
  cluster.RunFor(3.0);

  // Kill shard 1's primary only. Its standby takes over once the lease
  // lapses; meanwhile shard 1's row goes stale and the home submission
  // spills or retries — either way it must land somewhere.
  cluster.KillShardPrimary(1);
  cluster.RunFor(4.0);

  RouteClient client(&cluster);
  client.Submit(AppId(3));  // home shard = 1, mid-failover
  // Lease expiry, then election and retry backoff.
  cluster.RunFor(master::FuxiMaster::kLockLease + 10.0);

  ASSERT_TRUE(client.assigned.count(AppId(3)));
  EXPECT_EQ(cluster.router()->pending_count(), 0u);
}

TEST(ShardRouter, FailsOverBetweenDirectoryReplicas) {
  runtime::SimCluster cluster(ShardedOptions(2));
  cluster.Start();
  cluster.RunFor(3.0);

  // Cut the replica the router is currently polling; after
  // SubmissionRouter::kDirectoryTimeout of silence it must rotate to the
  // other replica and keep its shard table fresh.
  cluster.network().Partition(cluster.directory(0)->node());
  cluster.RunFor(5.0);
  EXPECT_GE(cluster.router()->directory_failovers(), 1u);

  RouteClient client(&cluster);
  client.Submit(AppId(4));
  cluster.RunFor(1.0);
  ASSERT_TRUE(client.assigned.count(AppId(4)));

  cluster.network().Heal(cluster.directory(0)->node());
}

// ---------------------------------------------------------------------
// Fault-domain isolation
// ---------------------------------------------------------------------

TEST(ShardIsolation, CrashLoopStallsOnlyItsOwnShard) {
  runtime::SimClusterOptions options = ShardedOptions(2);
  runtime::SimCluster cluster(options);
  cluster.Start();
  cluster.RunFor(3.0);

  // An app pinned to shard 1 (home = 3 % 2 = 1), submitted directly to
  // the shard primary and following shard 1's election lease.
  master::FuxiMaster* shard1 = cluster.shard_primary(1);
  ASSERT_NE(shard1, nullptr);
  NodeId shard1_node = shard1->node();
  uint64_t shard1_generation = shard1->generation();

  master::SubmitAppRpc submit;
  submit.app = AppId(3);
  submit.client = cluster.AllocateNodeId();
  cluster.network().Send(submit.client, shard1_node, submit);
  cluster.RunFor(0.2);

  runtime::SyntheticStage stage;
  stage.workers = 4;
  stage.instances = 12;
  runtime::SyntheticApp app(&cluster, AppId(3), {stage}, 7);
  app.set_master_lock(cluster.shard_lock(1));
  app.MarkSubmitted(cluster.sim().Now());
  app.StartMaster();

  // Crash-loop shard 0 while the shard-1 app runs: three primary
  // murders, each given time to elect a successor before the next.
  for (int round = 0; round < 3; ++round) {
    cluster.KillShardPrimary(0);
    cluster.RunFor(15.0);
    cluster.RestartDeadMasters();
    cluster.RunFor(2.0);
  }
  cluster.RunFor(30.0);

  // Shard 1 never noticed: same primary, same generation, job done.
  master::FuxiMaster* shard1_after = cluster.shard_primary(1);
  ASSERT_NE(shard1_after, nullptr);
  EXPECT_EQ(shard1_after->node(), shard1_node);
  EXPECT_EQ(shard1_after->generation(), shard1_generation);
  EXPECT_TRUE(app.finished());
  EXPECT_EQ(app.stats().instances_done, 12);

  // Shard 0 recovered on its own lease.
  ASSERT_NE(cluster.shard_primary(0), nullptr);
  EXPECT_EQ(cluster.shard_primary(0)->lock_name(), cluster.shard_lock(0));
}

/// Boots a 2-shard federation, runs one seeded synthetic app on shard 1
/// to completion, and folds everything externally observable — shard
/// primaries and generations, every directory row, router counters and
/// app progress — into one string. Byte-equality of these fingerprints
/// is how the concurrency test below detects cross-talk between
/// federations sharing a process.
std::string ShardedClusterFingerprint(uint64_t seed) {
  runtime::SimCluster cluster(ShardedOptions(2));
  cluster.Start();
  cluster.RunFor(3.0);

  master::FuxiMaster* shard1 = cluster.shard_primary(1);
  if (shard1 == nullptr) return "no-primary";
  master::SubmitAppRpc submit;
  submit.app = AppId(3);  // home shard = 3 % 2 = 1
  submit.client = cluster.AllocateNodeId();
  cluster.network().Send(submit.client, shard1->node(), submit);
  cluster.RunFor(0.2);

  runtime::SyntheticStage stage;
  stage.workers = 4;
  stage.instances = 12;
  runtime::SyntheticApp app(&cluster, AppId(3), {stage}, seed);
  app.set_master_lock(cluster.shard_lock(1));
  app.MarkSubmitted(cluster.sim().Now());
  app.StartMaster();
  cluster.RunFor(60.0);

  std::ostringstream out;
  for (int k = 0; k < 2; ++k) {
    master::FuxiMaster* primary = cluster.shard_primary(k);
    out << "shard" << k << '='
        << (primary != nullptr ? primary->node().value() : -1) << '@'
        << (primary != nullptr ? primary->generation() : 0) << ';';
  }
  for (int j = 0; j < cluster.directory_count(); ++j) {
    ShardDirectory* directory = cluster.directory(j);
    out << "dir" << j << "={";
    for (int k = 0; k < 2; ++k) {
      ShardEntry entry = directory->entry(k);
      out << entry.primary.value() << '@' << entry.generation << '/'
          << entry.machines_online << ';';
    }
    out << "};";
  }
  out << "router=" << cluster.router()->submits() << '/'
      << cluster.router()->spillovers() << ';'
      << "done=" << app.stats().instances_done << ';'
      << "finished=" << app.finished() << ';'
      << "now=" << cluster.sim().Now();
  return out.str();
}

TEST(ShardFederation, ConcurrentShardedClustersStayIsolatedDifferential) {
  // Serial controls: each federation alone on the calling thread.
  const uint64_t kSeeds[] = {7, 8, 9};
  std::vector<std::string> control;
  for (uint64_t seed : kSeeds)
    control.push_back(ShardedClusterFingerprint(seed));

  // Same seeds again, all three federations live at once on worker
  // threads. Any shared mutable state between clusters — a process-wide
  // id counter, a static metrics table, a leaked singleton — shows up
  // as a fingerprint diff.
  std::vector<std::string> concurrent =
      ::fuxi::sweep::RunIndexed<std::string>(
          std::size(kSeeds),
          [&kSeeds](size_t i) {
            return ShardedClusterFingerprint(kSeeds[i]);
          },
          {static_cast<int>(std::size(kSeeds))});

  ASSERT_EQ(concurrent.size(), control.size());
  for (size_t i = 0; i < control.size(); ++i) {
    EXPECT_EQ(concurrent[i], control[i]) << "seed " << kSeeds[i];
    EXPECT_NE(control[i], "no-primary") << "seed " << kSeeds[i];
  }
}

// ---------------------------------------------------------------------
// Torn checkpoint writes
// ---------------------------------------------------------------------

TEST(TornCheckpoint, StoreReportsCorruptionUntilRewritten) {
  coord::CheckpointStore store;
  store.Put("fuxi/app/1", Json::MakeObject());
  EXPECT_TRUE(store.Get("fuxi/app/1").ok());
  EXPECT_EQ(store.last_put_key(), "fuxi/app/1");

  store.CorruptKey("fuxi/app/1");
  EXPECT_EQ(store.corrupt_count(), 1u);
  // The key still lists (the bytes are on disk) but no longer parses.
  EXPECT_EQ(store.ListKeys("fuxi/app/").size(), 1u);
  EXPECT_FALSE(store.Get("fuxi/app/1").ok());

  // A fresh complete Put repairs the record.
  store.Put("fuxi/app/1", Json::MakeObject());
  EXPECT_EQ(store.corrupt_count(), 0u);
  EXPECT_TRUE(store.Get("fuxi/app/1").ok());

  // Corrupting an absent key is a no-op.
  store.CorruptKey("no/such/key");
  EXPECT_EQ(store.corrupt_count(), 0u);
}

TEST(TornCheckpoint, RecoveringMasterSkipsAndCountsTornRecords) {
  runtime::SimClusterOptions options;
  options.topology.racks = 2;
  options.topology.machines_per_rack = 4;
  options.topology.machine_capacity = cluster::ResourceVector(400, 8192);
  runtime::SimCluster cluster(options);
  cluster.Start();
  cluster.RunFor(3.0);

  master::FuxiMaster* primary = cluster.primary();
  ASSERT_NE(primary, nullptr);
  master::SubmitAppRpc submit;
  submit.app = AppId(1);
  submit.client = cluster.AllocateNodeId();
  cluster.network().Send(submit.client, primary->node(), submit);
  cluster.RunFor(0.5);
  ASSERT_TRUE(cluster.checkpoint().Contains("fuxi/app/1"));

  // Crash the primary mid-write: the app record it just Put is torn.
  chaos::ChaosEngine engine(&cluster);
  engine.Inject(engine.KillPrimaryMaster());
  engine.Inject(engine.TornCheckpointWrite());
  EXPECT_EQ(cluster.checkpoint().corrupt_count(), 1u);

  // The standby takes over after the lease lapses; recovery must skip
  // the damaged record — counted, logged, not fatal.
  cluster.RunFor(15.0);
  master::FuxiMaster* successor = cluster.primary();
  ASSERT_NE(successor, nullptr);
  EXPECT_TRUE(successor->is_alive());
  EXPECT_EQ(successor->checkpoint_records_skipped(), 1u);
}

// ---------------------------------------------------------------------
// Backoff helper (shared by ResourceClient resends and the router)
// ---------------------------------------------------------------------

TEST(Backoff, DefaultPolicyIsLegacyFixedInterval) {
  // The defaults must degenerate to the old fixed-interval retry loop:
  // replay-pinned callers rely on this for byte-identical goldens.
  Backoff backoff{BackoffPolicy{}, 99};
  for (int i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(backoff.NextDelay(), 1.0);
  }
  EXPECT_EQ(backoff.attempts(), 5u);
}

TEST(Backoff, ExponentialGrowthIsCappedAtMaxDelay) {
  BackoffPolicy policy;
  policy.initial = 0.5;
  policy.multiplier = 2.0;
  policy.max_delay = 3.0;
  Backoff backoff{policy, 0};
  EXPECT_DOUBLE_EQ(backoff.NextDelay(), 0.5);
  EXPECT_DOUBLE_EQ(backoff.NextDelay(), 1.0);
  EXPECT_DOUBLE_EQ(backoff.NextDelay(), 2.0);
  EXPECT_DOUBLE_EQ(backoff.NextDelay(), 3.0);
  EXPECT_DOUBLE_EQ(backoff.NextDelay(), 3.0);  // capped
  backoff.Reset();
  EXPECT_DOUBLE_EQ(backoff.NextDelay(), 0.5);
  EXPECT_EQ(backoff.attempts(), 1u);
}

TEST(Backoff, JitterStaysInBandAndIsSeedDeterministic) {
  BackoffPolicy policy;
  policy.initial = 1.0;
  policy.multiplier = 2.0;
  policy.max_delay = 8.0;
  policy.jitter = 0.25;

  Backoff a{policy, 1234};
  Backoff b{policy, 1234};
  Backoff c{policy, 5678};
  double base = 1.0;
  bool diverged = false;
  for (int i = 0; i < 6; ++i) {
    double da = a.NextDelay();
    double db = b.NextDelay();
    double dc = c.NextDelay();
    EXPECT_DOUBLE_EQ(da, db) << "same seed must replay identically";
    if (da != dc) diverged = true;
    EXPECT_GE(da, base * (1.0 - policy.jitter) - 1e-12);
    EXPECT_LE(da, base * (1.0 + policy.jitter) + 1e-12);
    base = std::min(base * policy.multiplier, policy.max_delay);
  }
  EXPECT_TRUE(diverged) << "different seeds should not produce the "
                           "same jittered schedule";
}

}  // namespace
}  // namespace fuxi::shard
