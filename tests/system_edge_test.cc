// System-level edge cases: blacklist persistence across failovers,
// double failover, app teardown, blacklisted machines staying out, and
// SimCluster fault-injection plumbing.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "master/messages.h"
#include "resource/delta_channel.h"
#include "runtime/sim_cluster.h"
#include "runtime/synthetic_app.h"
#include "trace/workloads.h"

namespace fuxi::runtime {
namespace {

SimClusterOptions Opts() {
  SimClusterOptions options;
  options.topology.racks = 2;
  options.topology.machines_per_rack = 4;
  options.topology.machine_capacity = cluster::ResourceVector(400, 8192);
  return options;
}

TEST(SystemEdgeTest, DoubleMasterFailoverBumpsGenerationAndRecovers) {
  SimCluster cluster(Opts());
  cluster.Start();
  cluster.RunFor(2.0);
  ASSERT_EQ(cluster.primary()->generation(), 1u);

  // Kill primary; standby takes over (generation 2).
  master::FuxiMaster* first = cluster.primary();
  cluster.KillPrimaryMaster();
  cluster.RunFor(15.0);
  ASSERT_NE(cluster.primary(), nullptr);
  EXPECT_EQ(cluster.primary()->generation(), 2u);

  // Restart the dead one, kill the current primary: back to the first
  // node, generation 3 — the generation counter lives in the
  // checkpoint, not in any process.
  first->Restart();
  cluster.RunFor(2.0);
  cluster.KillPrimaryMaster();
  cluster.RunFor(15.0);
  ASSERT_NE(cluster.primary(), nullptr);
  EXPECT_EQ(cluster.primary(), first);
  EXPECT_EQ(cluster.primary()->generation(), 3u);
}

TEST(SystemEdgeTest, BlacklistSurvivesMasterFailover) {
  SimCluster cluster(Opts());
  cluster.Start();
  cluster.RunFor(2.0);
  // Health-based disable of machine 2.
  cluster.SetMachineHealth(MachineId(2), 0.05);
  cluster.RunFor(60.0);
  auto blacklisted = cluster.primary()->Blacklisted();
  ASSERT_NE(std::find(blacklisted.begin(), blacklisted.end(), MachineId(2)),
            blacklisted.end());

  cluster.KillPrimaryMaster();
  cluster.RunFor(20.0);
  ASSERT_NE(cluster.primary(), nullptr);
  // Hard state: the new primary re-reads the blacklist and keeps the
  // machine out even though its agent is heartbeating healthily again.
  cluster.SetMachineHealth(MachineId(2), 1.0);
  cluster.RunFor(10.0);
  blacklisted = cluster.primary()->Blacklisted();
  EXPECT_NE(std::find(blacklisted.begin(), blacklisted.end(), MachineId(2)),
            blacklisted.end());
  EXPECT_FALSE(
      cluster.primary()->scheduler()->machine_state(MachineId(2)).online);
}

TEST(SystemEdgeTest, StopAppTearsEverythingDown) {
  SimCluster cluster(Opts());
  cluster.Start();
  cluster.RunFor(2.0);
  SyntheticStage stage;
  stage.slot_id = 0;
  stage.workers = 4;
  stage.instances = 4000;
  stage.instance_duration = 1.0;
  SyntheticApp app(&cluster, AppId(1), {stage}, 3);
  master::SubmitAppRpc submit;
  submit.app = AppId(1);
  submit.client = cluster.AllocateNodeId();
  cluster.network().Send(submit.client, cluster.primary()->node(), submit);
  cluster.RunFor(0.5);
  app.StartMaster();
  cluster.RunFor(8.0);
  ASSERT_GT(app.running_workers(), 0);

  cluster.network().Send(submit.client, cluster.primary()->node(),
                         master::StopAppRpc{AppId(1)});
  cluster.RunFor(5.0);
  EXPECT_EQ(cluster.primary()->scheduler()->TotalGranted(),
            cluster::ResourceVector());
  EXPECT_FALSE(cluster.checkpoint().Contains("fuxi/app/1"));
  EXPECT_FALSE(app.master_running()) << "AM told to stop";
}

TEST(SystemEdgeTest, RevivedMachineRejoinsScheduling) {
  SimCluster cluster(Opts());
  cluster.Start();
  cluster.RunFor(2.0);
  cluster.HaltMachine(MachineId(5));
  cluster.RunFor(10.0);
  EXPECT_FALSE(
      cluster.primary()->scheduler()->machine_state(MachineId(5)).online);
  cluster.ReviveMachine(MachineId(5));
  cluster.RunFor(5.0);
  EXPECT_TRUE(
      cluster.primary()->scheduler()->machine_state(MachineId(5)).online);
}

TEST(SystemEdgeTest, FaultPlanAppliesToSimCluster) {
  SimCluster cluster(Opts());
  cluster.Start();
  cluster.RunFor(2.0);
  trace::FaultPlan plan =
      trace::MakeFaultPlan(0.25, cluster.topology().machine_count(), 9);
  ASSERT_GT(plan.total_faulty(), 0u);
  for (MachineId m : plan.node_down) cluster.HaltMachine(m);
  for (MachineId m : plan.slow_machine) cluster.SetMachineSlowdown(m, 4.0);
  for (MachineId m : plan.partial_worker_failure) {
    cluster.SetMachineHealth(m, 0.2);
  }
  cluster.RunFor(10.0);
  for (MachineId m : plan.node_down) {
    EXPECT_FALSE(cluster.agent(m)->is_alive());
    EXPECT_FALSE(cluster.primary()->scheduler()->machine_state(m).online);
  }
  for (MachineId m : plan.slow_machine) {
    EXPECT_DOUBLE_EQ(cluster.machine_slowdown(m), 4.0);
  }
}

TEST(SystemEdgeTest, SimultaneousElectionYieldsOnePrimary) {
  // Both masters call Start() in the same event turn; exactly one may
  // win and the loser must become a watcher, not a second primary.
  SimCluster cluster(Opts());
  cluster.Start();
  cluster.sim().RunUntil(0.0);  // no time passes at all
  int primaries = 0;
  for (int i = 0; i < cluster.master_count(); ++i) {
    if (cluster.master(i)->is_primary()) ++primaries;
  }
  EXPECT_EQ(primaries, 1);
}

TEST(SystemEdgeTest, FullSyncZeroesOnlyTheSlotItsAppOmits) {
  // Two apps share slot ids. App A's periodic full sync stops mentioning
  // its slot 2: exactly A/2 is zeroed, and app B's demands (B/2
  // included) are untouched.
  SimCluster cluster(Opts());
  cluster.Start();
  cluster.RunFor(2.0);
  const AppId a(1);
  const AppId b(2);
  std::map<AppId, NodeId> am_node;
  std::map<AppId, resource::DeltaSender<resource::RequestMessage>> sender;
  for (AppId app : {a, b}) {
    master::SubmitAppRpc submit;
    submit.app = app;
    submit.client = cluster.AllocateNodeId();
    cluster.network().Send(submit.client, cluster.primary()->node(), submit);
    am_node[app] = cluster.AllocateNodeId();
  }
  cluster.RunFor(0.5);
  auto slot = [](uint32_t id, int64_t total) {
    resource::SlotAbsoluteState state;
    state.def.slot_id = id;
    state.def.priority = 5;
    state.def.resources = cluster::ResourceVector(100, 1024);
    state.total_count = total;
    return state;
  };
  auto full_sync = [&](AppId app,
                       std::vector<resource::SlotAbsoluteState> slots) {
    resource::RequestMessage full;
    full.full_slots = std::move(slots);
    master::RequestRpc rpc;
    rpc.app = app;
    rpc.reply_to = am_node[app];
    rpc.msg = sender[app].StampFull(std::move(full));
    cluster.network().Send(am_node[app], cluster.primary()->node(), rpc);
    cluster.RunFor(0.5);
  };
  // B fills all 32 unit slots of the cluster first, so every later
  // demand waits and the reconcile shows in the outstanding counts.
  full_sync(b, {slot(0, 40), slot(2, 6)});
  full_sync(a, {slot(0, 5), slot(1, 5), slot(2, 5)});
  const resource::Scheduler* scheduler = cluster.primary()->scheduler();
  auto waiting = [&](AppId app, uint32_t id) {
    const resource::PendingDemand* demand =
        scheduler->locality_tree().Find(resource::SlotKey{app, id});
    return demand == nullptr ? int64_t{-1} : demand->total_remaining;
  };
  ASSERT_EQ(waiting(b, 0), 8);
  ASSERT_EQ(waiting(b, 2), 6);
  ASSERT_EQ(waiting(a, 2), 5);

  full_sync(a, {slot(0, 5), slot(1, 5)});
  EXPECT_EQ(waiting(a, 0), 5);
  EXPECT_EQ(waiting(a, 1), 5);
  EXPECT_EQ(waiting(a, 2), 0);
  EXPECT_EQ(waiting(b, 0), 8);
  EXPECT_EQ(waiting(b, 2), 6);
  EXPECT_EQ(scheduler->GrantedTo(b), cluster::ResourceVector(3200, 32 * 1024));
  EXPECT_TRUE(scheduler->CheckInvariants());
}

TEST(SystemEdgeTest, NodeIdsNeverCollide) {
  SimCluster cluster(Opts());
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(seen.insert(cluster.AllocateNodeId().value()).second);
  }
}

}  // namespace
}  // namespace fuxi::runtime
