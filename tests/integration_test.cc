#include <gtest/gtest.h>

#include <memory>

#include "runtime/sim_cluster.h"
#include "runtime/synthetic_app.h"

namespace fuxi::runtime {
namespace {

/// A 2-rack x 4-machine cluster with a hot-standby master pair.
SimClusterOptions SmallClusterOptions() {
  SimClusterOptions options;
  options.topology.racks = 2;
  options.topology.machines_per_rack = 4;
  options.topology.machine_capacity = cluster::ResourceVector(400, 8192);
  return options;
}

class IntegrationTest : public ::testing::Test {
 protected:
  IntegrationTest() : cluster_(SmallClusterOptions()) {
    cluster_.Start();
    cluster_.RunFor(2.0);  // election + first heartbeats
  }

  /// Creates + submits a synthetic app and starts its master directly
  /// (bypassing the AM-launch-on-agent hop unless a launcher is set).
  SyntheticApp* AddApp(AppId app, std::vector<SyntheticStage> stages) {
    apps_.push_back(
        std::make_unique<SyntheticApp>(&cluster_, app, stages, 7));
    SyntheticApp* synthetic = apps_.back().get();
    master::SubmitAppRpc submit;
    submit.app = app;
    submit.client = cluster_.AllocateNodeId();
    cluster_.network().Send(submit.client, cluster_.primary()->node(),
                            submit);
    cluster_.RunFor(0.1);
    synthetic->MarkSubmitted(cluster_.sim().Now());
    synthetic->StartMaster();
    return synthetic;
  }

  SimCluster cluster_;
  std::vector<std::unique_ptr<SyntheticApp>> apps_;
};

TEST_F(IntegrationTest, ElectionProducesExactlyOnePrimary) {
  ASSERT_NE(cluster_.primary(), nullptr);
  int primaries = 0;
  for (int i = 0; i < cluster_.master_count(); ++i) {
    if (cluster_.master(i)->is_primary()) ++primaries;
  }
  EXPECT_EQ(primaries, 1);
}

TEST_F(IntegrationTest, HeartbeatsBringMachinesOnline) {
  const resource::Scheduler* scheduler = cluster_.primary()->scheduler();
  ASSERT_NE(scheduler, nullptr);
  for (const cluster::Machine& machine : cluster_.topology().machines()) {
    EXPECT_TRUE(scheduler->machine_state(machine.id).online)
        << "machine " << machine.id.value();
  }
}

TEST_F(IntegrationTest, SmallJobRunsToCompletion) {
  SyntheticStage stage;
  stage.slot_id = 0;
  stage.workers = 4;
  stage.instances = 12;
  stage.instance_duration = 1.0;
  SyntheticApp* app = AddApp(AppId(1), {stage});
  cluster_.RunFor(30.0);
  EXPECT_TRUE(app->finished());
  EXPECT_EQ(app->stats().instances_done, 12);
  // All resources returned after completion.
  EXPECT_EQ(cluster_.primary()->scheduler()->TotalGranted(),
            cluster::ResourceVector());
}

TEST_F(IntegrationTest, MapReduceStageDependencyRespected) {
  SyntheticStage map;
  map.slot_id = 0;
  map.workers = 4;
  map.instances = 8;
  map.instance_duration = 0.5;
  SyntheticStage reduce;
  reduce.slot_id = 1;
  reduce.workers = 2;
  reduce.instances = 2;
  reduce.instance_duration = 0.5;
  reduce.depends_on = 0;
  SyntheticApp* app = AddApp(AppId(1), {map, reduce});
  cluster_.RunFor(30.0);
  EXPECT_TRUE(app->finished());
  EXPECT_EQ(app->stats().instances_done, 10);
}

TEST_F(IntegrationTest, WorkersActuallyRunOnAgents) {
  SyntheticStage stage;
  stage.slot_id = 0;
  stage.workers = 3;
  stage.instances = 300;  // long enough to observe steady state
  stage.instance_duration = 1.0;
  AddApp(AppId(1), {stage});
  cluster_.RunFor(10.0);
  size_t running = 0;
  for (const cluster::Machine& machine : cluster_.topology().machines()) {
    running += cluster_.host(machine.id)->alive_count();
  }
  EXPECT_EQ(running, 3u);
}

TEST_F(IntegrationTest, MasterFailoverIsTransparentToRunningJob) {
  SyntheticStage stage;
  stage.slot_id = 0;
  stage.workers = 4;
  stage.instances = 2000;
  stage.instance_duration = 1.0;
  SyntheticApp* app = AddApp(AppId(1), {stage});
  cluster_.RunFor(10.0);
  int64_t workers_before = app->running_workers();
  ASSERT_EQ(workers_before, 4);
  master::FuxiMaster* old_primary = cluster_.primary();

  cluster_.KillPrimaryMaster();
  // Lease expiry, then takeover and soft-state rebuild.
  cluster_.RunFor(master::FuxiMaster::kLockLease + 10.0);

  master::FuxiMaster* new_primary = cluster_.primary();
  ASSERT_NE(new_primary, nullptr);
  EXPECT_NE(new_primary, old_primary);
  // The job never lost its workers.
  EXPECT_EQ(app->running_workers(), workers_before);
  EXPECT_FALSE(app->finished());
  // The new master's scheduler rebuilt the soft state: the app's grants
  // are visible again.
  EXPECT_EQ(new_primary->scheduler()->GrantedTo(AppId(1)),
            cluster::ResourceVector(50 * 4, 2048 * 4));
  // And progress continues.
  int64_t done_before = app->stats().instances_done;
  cluster_.RunFor(10.0);
  EXPECT_GT(app->stats().instances_done, done_before);
}

TEST_F(IntegrationTest, MasterFailoverPreservesWaitingDemand) {
  // Fill the cluster completely (8 machines x 8 big units).
  SyntheticStage big;
  big.slot_id = 0;
  big.unit = cluster::ResourceVector(400, 8192);
  big.workers = 8;
  big.instances = 4000;
  big.instance_duration = 1.0;
  AddApp(AppId(1), {big});
  cluster_.RunFor(5.0);

  SyntheticStage waiting;
  waiting.slot_id = 0;
  waiting.unit = cluster::ResourceVector(400, 8192);
  waiting.workers = 2;
  waiting.instances = 4;
  waiting.instance_duration = 0.5;
  SyntheticApp* waiter = AddApp(AppId(2), {waiting});
  cluster_.RunFor(2.0);
  EXPECT_EQ(waiter->running_workers(), 0);

  cluster_.KillPrimaryMaster();
  cluster_.RunFor(20.0);
  ASSERT_NE(cluster_.primary(), nullptr);
  // Waiting demand was rebuilt from the AM's full-state resend.
  EXPECT_EQ(cluster_.primary()
                ->scheduler()
                ->locality_tree()
                .TotalWaitingUnits(),
            2);
}

TEST_F(IntegrationTest, JobMasterFailoverKeepsWorkersRunning) {
  SyntheticStage stage;
  stage.slot_id = 0;
  stage.workers = 4;
  stage.instances = 2000;
  stage.instance_duration = 1.0;
  SyntheticApp* app = AddApp(AppId(1), {stage});
  cluster_.RunFor(10.0);
  ASSERT_EQ(app->running_workers(), 4);

  app->CrashMaster();
  cluster_.RunFor(3.0);
  // Processes keep running on the machines while the JobMaster is away.
  size_t running = 0;
  for (const cluster::Machine& machine : cluster_.topology().machines()) {
    running += cluster_.host(machine.id)->alive_count();
  }
  EXPECT_EQ(running, 4u);

  app->RestartMaster();
  cluster_.RunFor(10.0);
  EXPECT_EQ(app->running_workers(), 4);
  int64_t done_before = app->stats().instances_done;
  cluster_.RunFor(10.0);
  EXPECT_GT(app->stats().instances_done, done_before);
}

TEST_F(IntegrationTest, NodeDownMigratesWorkAutomatically) {
  SyntheticStage stage;
  stage.slot_id = 0;
  stage.workers = 4;
  stage.instances = 2000;
  stage.instance_duration = 1.0;
  SyntheticApp* app = AddApp(AppId(1), {stage});
  cluster_.RunFor(10.0);
  ASSERT_EQ(app->running_workers(), 4);

  // Find a machine running one of our workers and halt it.
  MachineId victim;
  for (const cluster::Machine& machine : cluster_.topology().machines()) {
    if (cluster_.host(machine.id)->alive_count() > 0) {
      victim = machine.id;
      break;
    }
  }
  ASSERT_TRUE(victim.valid());
  size_t victim_workers = cluster_.host(victim)->alive_count();
  cluster_.HaltMachine(victim);
  // FuxiMaster::kHeartbeatTimeout, then migration.
  cluster_.RunFor(15.0);
  EXPECT_EQ(app->running_workers(), 4)
      << "the " << victim_workers
      << " workers on the dead machine must be replaced elsewhere";
  EXPECT_EQ(cluster_.host(victim)->alive_count(), 0u);
  EXPECT_FALSE(
      cluster_.primary()->scheduler()->machine_state(victim).online);
}

TEST_F(IntegrationTest, AgentRestartAdoptsRunningWorkers) {
  SyntheticStage stage;
  stage.slot_id = 0;
  stage.workers = 8;
  stage.instances = 4000;
  stage.instance_duration = 1.0;
  SyntheticApp* app = AddApp(AppId(1), {stage});
  cluster_.RunFor(10.0);
  ASSERT_EQ(app->running_workers(), 8);

  MachineId machine;
  for (const cluster::Machine& m : cluster_.topology().machines()) {
    if (cluster_.host(m.id)->alive_count() > 0) {
      machine = m.id;
      break;
    }
  }
  ASSERT_TRUE(machine.valid());
  size_t before = cluster_.host(machine)->alive_count();
  cluster_.agent(machine)->Crash();
  cluster_.RunFor(1.0);
  // The daemon is gone but the processes are not.
  EXPECT_EQ(cluster_.host(machine)->alive_count(), before);
  cluster_.agent(machine)->Restart();
  cluster_.RunFor(5.0);
  // Adoption kept them all (the AM still wants them).
  EXPECT_EQ(cluster_.host(machine)->alive_count(), before);
  EXPECT_EQ(app->running_workers(), 8);
}

TEST_F(IntegrationTest, SlowMachineIsDisabledByHealthPlugin) {
  SyntheticStage stage;
  stage.slot_id = 0;
  stage.workers = 2;
  stage.instances = 4000;
  stage.instance_duration = 1.0;
  AddApp(AppId(1), {stage});
  cluster_.RunFor(5.0);
  MachineId slow;
  for (const cluster::Machine& m : cluster_.topology().machines()) {
    if (cluster_.host(m.id)->alive_count() > 0) {
      slow = m.id;
      break;
    }
  }
  ASSERT_TRUE(slow.valid());
  cluster_.SetMachineHealth(slow, 0.05);
  // EWMA must fall below threshold and stay there past the disable
  // window, then a roll-up tick blacklists the machine.
  cluster_.RunFor(60.0);
  auto blacklisted = cluster_.primary()->Blacklisted();
  EXPECT_NE(std::find(blacklisted.begin(), blacklisted.end(), slow),
            blacklisted.end());
  EXPECT_FALSE(cluster_.primary()->scheduler()->machine_state(slow).online);
  // The blacklist is hard state: it survives in the checkpoint.
  EXPECT_TRUE(cluster_.checkpoint().Contains("fuxi/blacklist"));
}

TEST_F(IntegrationTest, CrossJobBlacklistVotingDisablesMachine) {
  // Three distinct apps report the same machine as bad.
  SyntheticStage tiny;
  tiny.slot_id = 0;
  tiny.workers = 1;
  tiny.instances = 4000;
  tiny.instance_duration = 1.0;
  AddApp(AppId(1), {tiny});
  AddApp(AppId(2), {tiny});
  AddApp(AppId(3), {tiny});
  cluster_.RunFor(3.0);
  MachineId bad(5);
  for (int64_t app = 1; app <= 3; ++app) {
    master::BadMachineReportRpc report;
    report.app = AppId(app);
    report.machine = bad;
    cluster_.network().Send(apps_[static_cast<size_t>(app - 1)]->node(),
                            cluster_.primary()->node(), report);
  }
  cluster_.RunFor(15.0);  // roll-up tick evaluates the votes
  auto blacklisted = cluster_.primary()->Blacklisted();
  EXPECT_NE(std::find(blacklisted.begin(), blacklisted.end(), bad),
            blacklisted.end());
}

TEST_F(IntegrationTest, BlacklistRespectsCapFraction) {
  SyntheticStage tiny;
  tiny.slot_id = 0;
  tiny.workers = 1;
  tiny.instances = 1000;
  tiny.instance_duration = 1.0;
  AddApp(AppId(1), {tiny});
  AddApp(AppId(2), {tiny});
  AddApp(AppId(3), {tiny});
  cluster_.RunFor(3.0);
  // Report every machine bad; with cap fraction 0.1 on 8 machines only
  // 1 may be disabled.
  for (const cluster::Machine& m : cluster_.topology().machines()) {
    for (int64_t app = 1; app <= 3; ++app) {
      master::BadMachineReportRpc report;
      report.app = AppId(app);
      report.machine = m.id;
      cluster_.network().Send(apps_[static_cast<size_t>(app - 1)]->node(),
                              cluster_.primary()->node(), report);
    }
  }
  cluster_.RunFor(15.0);
  EXPECT_EQ(cluster_.primary()->Blacklisted().size(), 1u);
}

TEST_F(IntegrationTest, LossyNetworkConvergesViaPeriodicReconcile) {
  cluster_.network().mutable_config()->drop_probability = 0.1;
  cluster_.network().mutable_config()->duplicate_probability = 0.05;
  SyntheticStage stage;
  stage.slot_id = 0;
  stage.workers = 4;
  stage.instances = 24;
  stage.instance_duration = 0.5;
  SyntheticApp* app = AddApp(AppId(1), {stage});
  cluster_.RunFor(120.0);
  EXPECT_TRUE(app->finished())
      << "done " << app->stats().instances_done << "/24";
}

TEST_F(IntegrationTest, SubmitViaMasterLaunchesAppMasterOnAgent) {
  // Wire the launcher: the agent starts the synthetic app's master.
  std::unique_ptr<SyntheticApp> app;
  SyntheticStage stage;
  stage.slot_id = 0;
  stage.workers = 2;
  stage.instances = 4;
  stage.instance_duration = 0.5;
  app = std::make_unique<SyntheticApp>(&cluster_, AppId(9),
                                       std::vector<SyntheticStage>{stage},
                                       3);
  MachineId launched_on;
  cluster_.SetAppMasterLauncher(
      [&](const master::StartAppMasterRpc& rpc, MachineId machine) {
        if (rpc.app == AppId(9) && !app->master_running()) {
          launched_on = machine;
          app->StartMaster();
        }
      });
  master::SubmitAppRpc submit;
  submit.app = AppId(9);
  submit.client = cluster_.AllocateNodeId();
  app->MarkSubmitted(cluster_.sim().Now());
  cluster_.network().Send(submit.client, cluster_.primary()->node(),
                          submit);
  cluster_.RunFor(20.0);
  EXPECT_TRUE(launched_on.valid());
  EXPECT_TRUE(app->finished());
  // Hard state for the app was checkpointed on submission.
  EXPECT_TRUE(cluster_.checkpoint().Contains("fuxi/app/9"));
}

TEST_F(IntegrationTest, ReviveMachineReschedulesWorkOntoIt) {
  // Capacity-bound: 16 workers of (100, 4096) fill all 8 machines
  // exactly (memory-bound, 2 per machine).
  SyntheticStage stage;
  stage.slot_id = 0;
  stage.unit = cluster::ResourceVector(100, 4096);
  stage.workers = 16;
  stage.instances = 4000;
  stage.instance_duration = 1.0;
  SyntheticApp* app = AddApp(AppId(1), {stage});
  cluster_.RunFor(10.0);
  ASSERT_EQ(app->running_workers(), 16);

  MachineId victim(0);
  ASSERT_GT(cluster_.host(victim)->alive_count(), 0u);
  cluster_.HaltMachine(victim);
  cluster_.RunFor(15.0);
  // The displaced workers cannot all migrate: the other 7 machines are
  // already full, so demand waits.
  EXPECT_EQ(app->running_workers(), 14);
  EXPECT_EQ(cluster_.host(victim)->alive_count(), 0u);

  cluster_.ReviveMachine(victim);
  cluster_.RunFor(10.0);
  // The fresh agent's heartbeats bring the machine back online and the
  // waiting demand is granted onto it.
  EXPECT_TRUE(cluster_.primary()->scheduler()->machine_state(victim).online);
  EXPECT_EQ(cluster_.host(victim)->alive_count(), 2u);
  EXPECT_EQ(app->running_workers(), 16);
  // And the job keeps making progress on the revived machine.
  int64_t done_before = app->stats().instances_done;
  cluster_.RunFor(10.0);
  EXPECT_GT(app->stats().instances_done, done_before);
}

TEST(BlacklistEvictionTest, CapPrefersMostVotedThenLowestMachineId) {
  SimClusterOptions options = SmallClusterOptions();
  options.master.blacklist_cap_fraction = 0.25;  // 8 machines -> cap 2
  SimCluster cluster(options);
  cluster.Start();
  cluster.RunFor(2.0);

  std::vector<std::unique_ptr<SyntheticApp>> apps;
  SyntheticStage tiny;
  tiny.slot_id = 0;
  tiny.workers = 1;
  tiny.instances = 1000;
  tiny.instance_duration = 1.0;
  for (int64_t id = 1; id <= 4; ++id) {
    apps.push_back(std::make_unique<SyntheticApp>(
        &cluster, AppId(id), std::vector<SyntheticStage>{tiny}, 7));
    master::SubmitAppRpc submit;
    submit.app = AppId(id);
    submit.client = cluster.AllocateNodeId();
    cluster.network().Send(submit.client, cluster.primary()->node(), submit);
    cluster.RunFor(0.1);
    apps.back()->StartMaster();
  }
  cluster.RunFor(3.0);

  // m5 is reported bad by 4 apps, m2 and m7 by 3 each; only 2 blacklist
  // slots exist, so the most-voted machine wins one and the tie between
  // m2 and m7 breaks toward the lower id.
  auto report = [&](MachineId machine, std::vector<int64_t> voters) {
    for (int64_t app : voters) {
      master::BadMachineReportRpc rpc;
      rpc.app = AppId(app);
      rpc.machine = machine;
      cluster.network().Send(apps[static_cast<size_t>(app - 1)]->node(),
                             cluster.primary()->node(), rpc);
    }
  };
  report(MachineId(5), {1, 2, 3, 4});
  report(MachineId(2), {1, 2, 3});
  report(MachineId(7), {2, 3, 4});
  cluster.RunFor(15.0);  // roll-up tick evaluates the votes

  std::vector<MachineId> expected = {MachineId(2), MachineId(5)};
  EXPECT_EQ(cluster.primary()->Blacklisted(), expected);
}

TEST_F(IntegrationTest, MasterKillAddsOnlySmallDelay) {
  // The §5.4 observation: killing FuxiMaster once adds only seconds.
  SyntheticStage stage;
  stage.slot_id = 0;
  stage.workers = 8;
  stage.instances = 160;
  stage.instance_duration = 1.0;
  SyntheticApp* app = AddApp(AppId(1), {stage});
  cluster_.RunFor(8.0);
  cluster_.KillPrimaryMaster();
  cluster_.RunFor(200.0);
  ASSERT_TRUE(app->finished());
  double elapsed = app->stats().finished_at - app->stats().am_started_at;
  // Ideal time is ~160/8 = 20s x ~1s instances; with failover the job
  // must still finish well under 2x ideal.
  EXPECT_LT(elapsed, 45.0);
}

}  // namespace
}  // namespace fuxi::runtime
