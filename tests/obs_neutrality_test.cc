// Observability neutrality battery. Tracing, the decision audit and
// telemetry are strictly observational, so turning them off
// (ObsOptions::enabled = false) must leave every campaign unchanged:
// each case sweeps the same seeds twice through chaos::RunSeedSweep,
// once per setting, and compares them seed by seed. The replay digest
// folds each campaign's event count and state hash (ReplayDigest), so
// equal digests pin those too; the verdicts are compared directly.

#include <gtest/gtest.h>

#include <cstdint>

#include "chaos/campaign.h"
#include "sweep/sweep_runner.h"

namespace fuxi::chaos {
namespace {

void ExpectObsNeutral(CampaignConfig config, uint64_t first_seed,
                      int count) {
  config.cluster.obs.enabled = true;
  SweepResult on = RunSeedSweep(first_seed, count, config,
                                ::fuxi::sweep::DefaultSweepJobs());
  config.cluster.obs.enabled = false;
  SweepResult off = RunSeedSweep(first_seed, count, config,
                                 ::fuxi::sweep::DefaultSweepJobs());

  EXPECT_EQ(on.passed, count)
      << (on.failures.empty() ? "" : FormatCampaignFailure(on.failures[0]));
  EXPECT_EQ(on.passed, off.passed);
  EXPECT_EQ(on.failing_seeds, off.failing_seeds);
  ASSERT_EQ(on.digests.size(), off.digests.size());
  for (size_t i = 0; i < on.digests.size(); ++i) {
    EXPECT_EQ(on.digests[i], off.digests[i])
        << "seed " << first_seed + i << " replays differently with "
        << "observability off";
  }
  ASSERT_EQ(on.failures.size(), off.failures.size());
  for (size_t i = 0; i < on.failures.size(); ++i) {
    EXPECT_EQ(on.failures[i].state_hash, off.failures[i].state_hash);
    EXPECT_EQ(on.failures[i].events, off.failures[i].events);
  }
}

TEST(ObsNeutrality, FiftyDefaultSeeds) {
  ExpectObsNeutral(CampaignConfig{}, 1, 50);
}

TEST(ObsNeutrality, TenShardedSeeds) {
  ExpectObsNeutral(ShardedCampaignConfig(4), 1, 10);
}

TEST(ObsNeutrality, TenPlannerSeeds) {
  CampaignConfig config;
  config.planner_apps = 1;
  config.plan.planner_faults = true;
  ExpectObsNeutral(config, 1, 10);
}

TEST(ObsNeutrality, TenTenantSeeds) {
  CampaignConfig config;
  config.tenants = 6;
  ExpectObsNeutral(config, 1, 10);
}

}  // namespace
}  // namespace fuxi::chaos
