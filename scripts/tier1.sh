#!/usr/bin/env bash
# Tier-1 verification: the full build + test suite (including the
# observability neutrality battery, which replays campaigns with
# ObsOptions::enabled on and off and diffs them), a smoke of the three
# tools against a generated replay, then the chaos campaign sweep again
# under ASan/UBSan (memory errors in failover and fault-recovery paths
# are exactly what the campaigns shake out) and the parallel sweep
# engine under TSan (data races between concurrent SimClusters are exactly
# what --jobs N adds). Three build trees in all: build, build-asan and
# build-tsan.
#
# The campaign legs run with --jobs 4: the sweep fans seeds across the
# work-stealing pool and each leg's stdout stays byte-identical to a
# serial run (the determinism battery in tests/sweep_test.cc asserts
# this; these legs exercise it end to end). The per-leg sweep wall-clock
# is printed to stderr so CI logs record the speedup.
#
# Usage: scripts/tier1.sh [--skip-asan] [--skip-tsan]
set -euo pipefail
cd "$(dirname "$0")/.."

skip_asan=0
skip_tsan=0
for arg in "$@"; do
  case "$arg" in
    --skip-asan) skip_asan=1 ;;
    --skip-tsan) skip_tsan=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

echo "== tier-1: build + full test suite =="
cmake -B build -S . >/dev/null
cmake --build build -j"$(nproc)"
(cd build && ctest --output-on-failure -j"$(nproc)")

echo "== tier-1: Figure 9 scheduling-time smoke vs checked-in baseline =="
./build/bench/bench_fig9_scheduling_time --smoke --json build/BENCH_fig9_smoke.json
python3 scripts/check_fig9_regression.py build/BENCH_fig9_smoke.json

echo "== tier-1: tool smoke against a generated replay =="
# A single-seed replay writes fuxi_telemetry_seed3.json,
# fuxi_metrics_seed3.csv and fuxi_audit_seed3.json. The dashboard, the
# per-series table (including a histogram's .p99 percentile series),
# the event timeline and both exports, the wire-volume table and the
# audit summary must all render non-empty output from them.
cmake --build build -j"$(nproc)" --target fuxi_dash trace_stats fuxi_explain >/dev/null
# grep without -q so it drains the pipe fully: -q exits at first match
# and the dashboard's remaining writes die of SIGPIPE under pipefail.
(cd build &&
 ../build/bench/bench_chaos_campaign --seed 3 >/dev/null 2>&1 &&
 test -s fuxi_telemetry_seed3.json &&
 ./tools/fuxi_dash fuxi_telemetry_seed3.json | grep "fuxi telemetry:" >/dev/null &&
 ./tools/fuxi_dash fuxi_telemetry_seed3.json --list | grep "master.grant_units" >/dev/null &&
 ./tools/fuxi_dash fuxi_telemetry_seed3.json --series master.grant_units | grep "tick" >/dev/null &&
 ./tools/fuxi_dash fuxi_telemetry_seed3.json --csv | grep "^series,kind" >/dev/null &&
 ./tools/fuxi_dash fuxi_telemetry_seed3.json --json | grep "fuxi_telemetry_decoded" >/dev/null &&
 ./tools/fuxi_dash fuxi_telemetry_seed3.json --list | grep "\.p99 .* percentile " >/dev/null &&
 ./tools/trace_stats --metrics fuxi_metrics_seed3.csv | grep "^master.GrantRpc " >/dev/null &&
 ./tools/trace_stats --metrics fuxi_metrics_seed3.csv | grep "exact encoded frame sizes" >/dev/null &&
 ./tools/fuxi_explain fuxi_audit_seed3.json | grep "decision records" >/dev/null &&
 echo "tool smoke OK")

echo "== tier-1: federated chaos sweep (shard crash-loops + spillover) =="
# Four shard masters on their own election leases, a replicated shard
# directory, and the submission router in the loop: shard crash-loops,
# directory-replica outages and the mid-window spillover wave must hold
# every per-shard AND global invariant on each seed.
./build/bench/bench_chaos_campaign --shards 4 --seeds 10 --jobs 4
./build/bench/bench_chaos_campaign --shards 4 --serialize-on-send --seeds 10 --jobs 4

echo "== tier-1: serialize-on-send campaign leg (wire codecs live) =="
# Every control-plane message round-trips through its fuxi::wire codec
# at Send; hashes must match the default in-memory-delivery mode (the
# SerializeOnSendIsInvisibleToTheSimulation test checks the equality,
# this leg sweeps more seeds in the ON configuration).
./build/bench/bench_chaos_campaign --serialize-on-send --seeds 10 --jobs 4

echo "== tier-1: hierarchical fair-share gates + multi-tenant chaos =="
# bench_fairshare pins starvation-freedom (1,000 Zipf-skewed tenants on
# a 2x-oversubscribed cluster) and the DRF dominant-share equilibrium.
# The tenant campaigns then run the fault battery with every master
# carrying a tenant tree, hierarchical and depth-1 (the flat quota
# shape); per-node conservation is checked inside every heavy invariant
# sweep.
./build/bench/bench_fairshare
./build/bench/bench_chaos_campaign --tenants 6 --seeds 10 --jobs 4
./build/bench/bench_chaos_campaign --tenants 6 --tenant-depth 1 --seeds 10 --jobs 4

if [[ "$skip_asan" == 1 ]]; then
  echo "== tier-1: ASan/UBSan pass skipped =="
else
  echo "== tier-1: chaos campaign, wire/JSON fuzz and scheduler suites under ASan/UBSan =="
  # The scheduler suites hold raw PendingDemand pointers across demand
  # creation and teardown; together they add about a second here.
  cmake -B build-asan -S . -DFUXI_SANITIZE=address,undefined >/dev/null
  cmake --build build-asan -j"$(nproc)" --target fuxi_tests
  (cd build-asan &&
   ./tests/fuxi_tests \
     --gtest_filter='*ChaosCampaign.*:Shard*:ScriptedChaosTest.*:Wire*:JsonTest.*:NetworkTest.*:Planner*:LocalityTree*:*LocalityTreeFuzzTest.*:SchedulerTest.*:*SchedulerFuzzTest.*:SchedulerDifferentialSweepTest.*')
fi

if [[ "$skip_tsan" == 1 ]]; then
  echo "== tier-1: TSan pass skipped =="
else
  echo "== tier-1: parallel sweep engine under TSan =="
  # The work-stealing pool, the concurrent SimClusters and the parallel
  # differential suite — every place campaign threads touch shared
  # memory — under the race detector.
  cmake -B build-tsan -S . -DFUXI_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j"$(nproc)" --target fuxi_tests bench_chaos_campaign
  (cd build-tsan &&
   ./tests/fuxi_tests \
     --gtest_filter='SweepRunnerTest.*:SweepDeterminism.*:SweepViolation.*:ConcurrentClusters.*:*DifferentialSweep*')
  ./build-tsan/bench/bench_chaos_campaign --seeds 10 --jobs 4
  ./build-tsan/bench/bench_chaos_campaign --shards 4 --seeds 10 --jobs 4
fi

echo "tier-1 OK"
