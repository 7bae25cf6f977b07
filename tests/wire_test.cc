// fuxi::wire property tests (DESIGN.md §10).
//
// The wire format promises three things, and each gets a battery here:
//
//  1. Canonical round trips: for EVERY tagged message type, random
//     instances satisfy encode→decode→encode byte-identity, and the
//     counting writer agrees exactly with the serializing writer.
//  2. Graceful rejection: any single flipped byte and any truncation of
//     a valid frame decodes to a kCorruption Status — never a crash,
//     never a silently wrong message.
//  3. No resource amplification: corrupted lengths and counts cannot
//     drive giant allocations or deep recursion.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>

#include "common/rng.h"
#include "coord/messages.h"
#include "job/messages.h"
#include "master/messages.h"
#include "resource/protocol.h"
#include "shard/messages.h"
#include "wire/wire.h"

namespace fuxi {
namespace {

// ------------------------------------------------ random value builders

int64_t RandI64(Rng& rng) {
  // Mostly small values (realistic), sometimes the full 64-bit range so
  // zigzag extremes and 10-byte varints get exercised.
  if (rng.Uniform(4) == 0) return static_cast<int64_t>(rng.Next());
  return static_cast<int64_t>(rng.Uniform(1000)) - 100;
}

uint64_t RandU64(Rng& rng) {
  if (rng.Uniform(4) == 0) return rng.Next();
  return rng.Uniform(1000);
}

std::string RandStr(Rng& rng) {
  std::string s;
  size_t len = rng.Uniform(20);
  for (size_t i = 0; i < len; ++i) {
    s.push_back(static_cast<char>(rng.Uniform(256)));
  }
  return s;
}

Json RandJson(Rng& rng, int depth) {
  switch (depth > 0 ? rng.Uniform(6) : rng.Uniform(4)) {
    case 0: return Json();
    case 1: return Json(rng.Uniform(2) == 1);
    case 2: return Json(rng.NextDouble() * 1e6);
    case 3: return Json(RandStr(rng));
    case 4: {
      Json::Array a;
      for (uint64_t i = rng.Uniform(4); i > 0; --i) {
        a.push_back(RandJson(rng, depth - 1));
      }
      return Json(std::move(a));
    }
    default: {
      Json::Object o;
      for (uint64_t i = rng.Uniform(4); i > 0; --i) {
        o[RandStr(rng)] = RandJson(rng, depth - 1);
      }
      return Json(std::move(o));
    }
  }
}

cluster::ResourceVector RandRes(Rng& rng) {
  return cluster::ResourceVector(static_cast<int64_t>(rng.Uniform(2000)),
                                 static_cast<int64_t>(rng.Uniform(1 << 20)));
}

resource::LocalityHint RandHint(Rng& rng) {
  resource::LocalityHint h;
  h.level = static_cast<resource::LocalityLevel>(rng.Uniform(3));
  h.value = RandStr(rng);
  h.count = RandI64(rng);
  return h;
}

resource::ScheduleUnitDef RandDef(Rng& rng) {
  resource::ScheduleUnitDef d;
  d.slot_id = static_cast<uint32_t>(rng.Uniform(16));
  d.priority = static_cast<int32_t>(rng.Uniform(5000)) - 100;
  d.resources = RandRes(rng);
  return d;
}

resource::UnitRequestDelta RandUnit(Rng& rng) {
  resource::UnitRequestDelta u;
  u.slot_id = static_cast<uint32_t>(rng.Uniform(16));
  u.has_def = rng.Uniform(2) == 1;
  if (u.has_def) u.def = RandDef(rng);
  u.total_count_delta = RandI64(rng);
  for (uint64_t i = rng.Uniform(4); i > 0; --i) u.hints.push_back(RandHint(rng));
  for (uint64_t i = rng.Uniform(3); i > 0; --i) u.avoid_add.push_back(RandStr(rng));
  for (uint64_t i = rng.Uniform(3); i > 0; --i) u.avoid_remove.push_back(RandStr(rng));
  return u;
}

resource::RequestMessage RandRequestMessage(Rng& rng) {
  resource::RequestMessage m;
  m.delta.app = AppId(RandI64(rng));
  for (uint64_t i = rng.Uniform(3); i > 0; --i) m.delta.units.push_back(RandUnit(rng));
  for (uint64_t i = rng.Uniform(3); i > 0; --i) {
    m.releases.push_back({static_cast<uint32_t>(rng.Uniform(16)),
                          MachineId(RandI64(rng)), RandI64(rng)});
  }
  for (uint64_t i = rng.Uniform(2); i > 0; --i) {
    resource::SlotAbsoluteState slot;
    slot.def = RandDef(rng);
    slot.total_count = RandI64(rng);
    for (uint64_t h = rng.Uniform(3); h > 0; --h) slot.hints.push_back(RandHint(rng));
    for (uint64_t a = rng.Uniform(3); a > 0; --a) slot.avoid.push_back(RandStr(rng));
    m.full_slots.push_back(std::move(slot));
  }
  for (uint64_t i = rng.Uniform(4); i > 0; --i) {
    m.held_grants.push_back({static_cast<uint32_t>(rng.Uniform(16)),
                             MachineId(RandI64(rng)), RandI64(rng)});
  }
  return m;
}

resource::GrantMessage RandGrantMessage(Rng& rng) {
  resource::GrantMessage m;
  for (uint64_t i = rng.Uniform(5); i > 0; --i) {
    m.deltas.push_back({static_cast<uint32_t>(rng.Uniform(16)),
                        MachineId(RandI64(rng)), RandI64(rng),
                        static_cast<resource::RevocationReason>(rng.Uniform(6))});
  }
  for (uint64_t i = rng.Uniform(4); i > 0; --i) {
    m.full_grants.push_back({static_cast<uint32_t>(rng.Uniform(16)),
                             MachineId(RandI64(rng)), RandI64(rng)});
  }
  return m;
}

resource::StampedRequest RandStampedRequest(Rng& rng) {
  return {RandU64(rng), RandU64(rng), rng.Uniform(2) == 1,
          RandRequestMessage(rng)};
}

resource::StampedGrant RandStampedGrant(Rng& rng) {
  return {RandU64(rng), RandU64(rng), rng.Uniform(2) == 1,
          RandGrantMessage(rng)};
}

master::AgentAllocation RandAllocation(Rng& rng) {
  master::AgentAllocation a;
  a.app = AppId(RandI64(rng));
  a.slot_id = static_cast<uint32_t>(rng.Uniform(16));
  a.def = RandDef(rng);
  a.count = RandI64(rng);
  return a;
}

master::ShardStatusRpc RandShardStatus(Rng& rng) {
  return {static_cast<int32_t>(rng.Uniform(64)), NodeId(RandI64(rng)),
          RandU64(rng), RandI64(rng), RandRes(rng), RandRes(rng)};
}

shard::ShardDirectoryReplyRpc RandDirectoryReply(Rng& rng) {
  shard::ShardDirectoryReplyRpc m;
  m.request_id = RandU64(rng);
  for (uint64_t e = rng.Uniform(4); e > 0; --e) {
    m.entries.push_back({static_cast<int32_t>(rng.Uniform(64)),
                         NodeId(RandI64(rng)), RandU64(rng), RandI64(rng),
                         RandRes(rng), RandRes(rng), rng.NextDouble() * 1000});
  }
  return m;
}

shard::RouteSubmitRpc RandRouteSubmit(Rng& rng) {
  return {AppId(RandI64(rng)), RandStr(rng), RandJson(rng, 3),
          NodeId(RandI64(rng)), 1.0 + rng.NextDouble()};
}

// ------------------------------------------------ the property harness

/// encode→decode→encode must be byte-identical, and the counting writer
/// must agree with the bytes actually produced.
template <typename T>
void CheckRoundTrip(const T& msg) {
  std::string bytes = wire::EncodeToString(msg);
  ASSERT_EQ(bytes.size(), wire::FramedSize(msg))
      << "counting and serializing writers disagree";
  T decoded;
  Status status = wire::DecodeFramed(bytes, &decoded);
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(wire::EncodeToString(decoded), bytes)
      << "re-encode of the decoded message is not byte-identical";
}

/// Every single-byte flip and every strict prefix of a valid frame must
/// decode to a non-OK Status (and never crash). The checksum covers the
/// whole prefix and FNV-1a steps are injective, so one flipped byte is a
/// guaranteed mismatch, not a probabilistic one.
template <typename T>
void CheckDamageRejected(const T& msg, Rng& rng) {
  const std::string bytes = wire::EncodeToString(msg);
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string bad = bytes;
    bad[i] = static_cast<char>(static_cast<uint8_t>(bad[i]) ^
                               static_cast<uint8_t>(1 + rng.Uniform(255)));
    T decoded;
    EXPECT_FALSE(wire::DecodeFramed(bad, &decoded).ok())
        << "flip at byte " << i << "/" << bytes.size() << " was accepted";
  }
  for (size_t len = 0; len < bytes.size(); ++len) {
    T decoded;
    EXPECT_FALSE(
        wire::DecodeFramed(std::string_view(bytes.data(), len), &decoded).ok())
        << "prefix of " << len << "/" << bytes.size() << " bytes was accepted";
  }
}

constexpr int kFuzzIterations = 25;

// ------------------------------------------------ round trips, per layer

TEST(WireRoundTripTest, ResourceProtocolMessages) {
  Rng rng(101);
  for (int i = 0; i < kFuzzIterations; ++i) {
    CheckRoundTrip(RandStampedRequest(rng));
    CheckRoundTrip(RandStampedGrant(rng));
  }
}

TEST(WireRoundTripTest, MasterControlPlaneMessages) {
  Rng rng(202);
  for (int i = 0; i < kFuzzIterations; ++i) {
    master::RequestRpc request;
    request.app = AppId(RandI64(rng));
    request.reply_to = NodeId(RandI64(rng));
    request.incarnation = RandU64(rng);
    request.msg = RandStampedRequest(rng);
    CheckRoundTrip(request);

    master::GrantRpc grant;
    grant.msg = RandStampedGrant(rng);
    CheckRoundTrip(grant);

    CheckRoundTrip(master::ResyncRpc{AppId(RandI64(rng)), NodeId(RandI64(rng)),
                                     RandU64(rng)});
    CheckRoundTrip(
        master::BadMachineReportRpc{AppId(RandI64(rng)), MachineId(RandI64(rng))});

    master::AgentHeartbeatRpc hb;
    hb.machine = MachineId(RandI64(rng));
    hb.agent_node = NodeId(RandI64(rng));
    hb.seq = RandU64(rng);
    hb.health_score = rng.NextDouble();
    hb.capacity = RandRes(rng);
    hb.carries_allocations = rng.Uniform(2) == 1;
    for (uint64_t a = rng.Uniform(4); a > 0; --a) {
      hb.allocations.push_back(RandAllocation(rng));
    }
    hb.need_capacity = rng.Uniform(2) == 1;
    CheckRoundTrip(hb);

    master::AgentCapacityRpc capacity;
    capacity.master_generation = RandU64(rng);
    capacity.seq = RandU64(rng);
    capacity.full = rng.Uniform(2) == 1;
    for (uint64_t e = rng.Uniform(4); e > 0; --e) {
      capacity.entries.push_back({AppId(RandI64(rng)),
                                  static_cast<uint32_t>(rng.Uniform(16)),
                                  RandDef(rng), RandI64(rng)});
    }
    CheckRoundTrip(capacity);

    CheckRoundTrip(
        master::AgentHeartbeatAckRpc{RandU64(rng), rng.Uniform(2) == 1});
    CheckRoundTrip(
        master::MasterRecoveryAnnounceRpc{NodeId(RandI64(rng)), RandU64(rng)});

    master::SubmitAppRpc submit;
    submit.app = AppId(RandI64(rng));
    submit.tenant_path = RandStr(rng);
    submit.description = RandJson(rng, 3);
    submit.client = NodeId(RandI64(rng));
    submit.weight = 1.0 + rng.NextDouble();
    CheckRoundTrip(submit);

    CheckRoundTrip(master::SubmitAppReplyRpc{AppId(RandI64(rng)),
                                             rng.Uniform(2) == 1, RandStr(rng)});
    CheckRoundTrip(
        master::StartAppMasterRpc{AppId(RandI64(rng)), RandJson(rng, 3)});
    CheckRoundTrip(master::StopAppRpc{AppId(RandI64(rng))});

    master::StartWorkerRpc start;
    start.app = AppId(RandI64(rng));
    start.slot_id = static_cast<uint32_t>(rng.Uniform(16));
    start.am_node = NodeId(RandI64(rng));
    start.plan_id = RandU64(rng);
    start.plan = RandJson(rng, 3);
    CheckRoundTrip(start);

    master::WorkerStartedRpc started;
    started.plan_id = RandU64(rng);
    started.worker = WorkerId(RandI64(rng));
    started.machine = MachineId(RandI64(rng));
    started.ok = rng.Uniform(2) == 1;
    started.error = RandStr(rng);
    for (uint64_t r = rng.Uniform(4); r > 0; --r) {
      started.running.push_back(WorkerId(RandI64(rng)));
    }
    CheckRoundTrip(started);

    CheckRoundTrip(master::StopWorkerRpc{WorkerId(RandI64(rng))});
    CheckRoundTrip(master::WorkerCrashedRpc{
        AppId(RandI64(rng)), static_cast<uint32_t>(rng.Uniform(16)),
        WorkerId(RandI64(rng)), WorkerId(RandI64(rng)), MachineId(RandI64(rng)),
        rng.Uniform(2) == 1});

    master::AdoptQueryRpc adopt;
    adopt.app = AppId(RandI64(rng));
    adopt.machine = MachineId(RandI64(rng));
    adopt.agent_node = NodeId(RandI64(rng));
    for (uint64_t k = rng.Uniform(4); k > 0; --k) {
      adopt.workers.push_back(WorkerId(RandI64(rng)));
    }
    CheckRoundTrip(adopt);

    master::AdoptReplyRpc adopt_reply;
    adopt_reply.app = AppId(RandI64(rng));
    adopt_reply.machine = MachineId(RandI64(rng));
    for (uint64_t k = rng.Uniform(4); k > 0; --k) {
      adopt_reply.keep.push_back(WorkerId(RandI64(rng)));
    }
    CheckRoundTrip(adopt_reply);
  }
}

TEST(WireRoundTripTest, JobControlPlaneMessages) {
  Rng rng(303);
  for (int i = 0; i < kFuzzIterations; ++i) {
    CheckRoundTrip(job::WorkerReadyRpc{AppId(RandI64(rng)), RandStr(rng),
                                       WorkerId(RandI64(rng)),
                                       MachineId(RandI64(rng)),
                                       NodeId(RandI64(rng))});
    CheckRoundTrip(job::ExecuteInstanceRpc{RandI64(rng), rng.Uniform(2) == 1,
                                           rng.NextDouble() * 100, RandI64(rng),
                                           1.0 + rng.NextDouble()});
    CheckRoundTrip(job::CancelInstanceRpc{RandI64(rng)});
    CheckRoundTrip(job::InstanceDoneRpc{
        AppId(RandI64(rng)), RandStr(rng), RandI64(rng), rng.Uniform(2) == 1,
        WorkerId(RandI64(rng)), MachineId(RandI64(rng)), rng.NextDouble()});

    job::WorkerStatusReportRpc report;
    report.app = AppId(RandI64(rng));
    report.task = RandStr(rng);
    report.worker = WorkerId(RandI64(rng));
    report.machine = MachineId(RandI64(rng));
    report.worker_node = NodeId(RandI64(rng));
    report.running_instance = RandI64(rng);
    report.progress = rng.NextDouble();
    for (uint64_t c = rng.Uniform(6); c > 0; --c) {
      report.completed.push_back(RandI64(rng));
    }
    CheckRoundTrip(report);
  }
}

TEST(WireRoundTripTest, CoordLeaseMessages) {
  Rng rng(404);
  for (int i = 0; i < kFuzzIterations; ++i) {
    CheckRoundTrip(coord::LeaseAcquireRpc{RandStr(rng), NodeId(RandI64(rng)),
                                          rng.NextDouble() * 10, RandU64(rng)});
    CheckRoundTrip(coord::LeaseRenewRpc{RandStr(rng), NodeId(RandI64(rng)),
                                        rng.NextDouble() * 10, RandU64(rng)});
    CheckRoundTrip(coord::LeaseReleaseRpc{RandStr(rng), NodeId(RandI64(rng)),
                                          RandU64(rng)});
    CheckRoundTrip(coord::LeaseReplyRpc{RandU64(rng), rng.Uniform(2) == 1,
                                        NodeId(RandI64(rng)), RandU64(rng),
                                        RandStr(rng)});
  }
}

TEST(WireRoundTripTest, ShardFederationMessages) {
  Rng rng(707);
  for (int i = 0; i < kFuzzIterations; ++i) {
    CheckRoundTrip(RandShardStatus(rng));
    CheckRoundTrip(shard::ShardLookupRpc{NodeId(RandI64(rng)), RandU64(rng)});
    CheckRoundTrip(RandDirectoryReply(rng));
    CheckRoundTrip(RandRouteSubmit(rng));
    CheckRoundTrip(shard::RouteReplyRpc{
        AppId(RandI64(rng)), static_cast<int32_t>(rng.Uniform(64)) - 1,
        rng.Uniform(2) == 1, RandStr(rng)});
  }
}

// ------------------------------------------- frame bytes, pinned golden
//
// One fixed, fully populated instance of every registered top-level
// message. The digest of their concatenated frames pins the exact bytes
// each codec writes, so a codec refactor that changes one byte fails
// here instead of passing every round trip. Every field holds a
// non-default value (negative ints, multi-byte varints, non-zero enums,
// both presence flags of UnitRequestDelta set and clear), and adjacent
// scalar fields encode to different bytes where their types allow, so
// swapping two of them moves the digest too.

resource::ScheduleUnitDef GoldenDef(uint32_t slot) {
  resource::ScheduleUnitDef d;
  d.slot_id = slot;
  d.priority = -1000 + static_cast<int32_t>(slot);
  d.resources = cluster::ResourceVector(150, 4096);
  d.resources.Set(5, -3);
  return d;
}

resource::PlanningHints GoldenPlan() {
  resource::PlanningHints p;
  p.estimated_seconds = 12.5;
  p.reservation = true;
  p.reserve_start = 3.25;
  p.deadline = 99.75;
  p.gang_id = uint64_t{1} << 40;
  p.gang_size = 300;
  return p;
}

std::vector<resource::LocalityHint> GoldenHints() {
  return {{resource::LocalityLevel::kMachine, "r01m07", 3},
          {resource::LocalityLevel::kRack, "r01", -2},
          {resource::LocalityLevel::kCluster, "", 1}};
}

resource::StampedRequest GoldenStampedRequest() {
  resource::StampedRequest s;
  s.epoch = 7;
  s.seq = 300;
  s.is_full = true;
  resource::RequestMessage& m = s.payload;
  m.delta.app = AppId(-42);
  resource::UnitRequestDelta with_both;
  with_both.slot_id = 3;
  with_both.has_def = true;
  with_both.def = GoldenDef(3);
  with_both.total_count_delta = -5;
  with_both.hints = GoldenHints();
  with_both.avoid_add = {"r02m01", "r02m02"};
  with_both.avoid_remove = {"r03m09"};
  with_both.has_plan = true;
  with_both.plan = GoldenPlan();
  resource::UnitRequestDelta with_neither;
  with_neither.slot_id = 200;
  with_neither.total_count_delta = 1 << 20;
  with_neither.avoid_add = {""};
  m.delta.units = {with_both, with_neither};
  m.releases = {{3, MachineId(17), 2}, {4, MachineId(-1), -9}};
  resource::SlotAbsoluteState slot;
  slot.def = GoldenDef(9);
  slot.total_count = 64;
  slot.hints = GoldenHints();
  slot.avoid = {"r04m04"};
  slot.plan = GoldenPlan();
  m.full_slots = {slot};
  m.held_grants = {{3, MachineId(17), 5}, {9, MachineId(1000000), 1}};
  return s;
}

resource::StampedGrant GoldenStampedGrant() {
  resource::StampedGrant s;
  s.epoch = 2;
  s.seq = 1;
  s.is_full = false;
  s.payload.deltas = {
      {3, MachineId(17), 4, resource::RevocationReason::kAppRelease},
      {3, MachineId(18), -1, resource::RevocationReason::kPreemptPriority},
      {8, MachineId(19), -2, resource::RevocationReason::kReconcile}};
  s.payload.full_grants = {{3, MachineId(17), 4}, {8, MachineId(20), 1}};
  return s;
}

Json GoldenJson() {
  Json::Object o;
  o["name"] = Json(std::string("wordcount"));
  o["retries"] = Json(3.0);
  o["speculative"] = Json(true);
  o["none"] = Json();
  o["tasks"] = Json(Json::Array{Json(std::string("map")), Json(-0.5)});
  return Json(std::move(o));
}

cluster::ResourceVector GoldenTotal() {
  return cluster::ResourceVector(400000, 1 << 27);
}

/// Calls `fn` on the golden instance of every registered top-level
/// message, in tag order.
template <typename Fn>
void ForEachGoldenMessage(Fn&& fn) {
  fn(GoldenStampedRequest());
  fn(GoldenStampedGrant());

  fn(master::RequestRpc{AppId(-42), NodeId(1001), 3, GoldenStampedRequest()});
  fn(master::GrantRpc{GoldenStampedGrant()});
  fn(master::ResyncRpc{AppId(42), NodeId(1001), 4});
  fn(master::BadMachineReportRpc{AppId(42), MachineId(77)});
  master::AgentHeartbeatRpc hb;
  hb.machine = MachineId(77);
  hb.agent_node = NodeId(2077);
  hb.seq = 123456789;
  hb.health_score = 0.375;
  hb.capacity = cluster::ResourceVector(1200, 98304);
  hb.carries_allocations = true;
  hb.allocations = {{AppId(42), 3, GoldenDef(3), 2},
                    {AppId(43), 1, GoldenDef(1), -1}};
  hb.need_capacity = true;
  fn(hb);
  master::AgentCapacityRpc capacity;
  capacity.master_generation = 5;
  capacity.seq = 1 << 14;
  capacity.full = true;
  capacity.entries = {{AppId(42), 3, GoldenDef(3), 2},
                      {AppId(44), 7, GoldenDef(7), -6}};
  fn(capacity);
  fn(master::AgentHeartbeatAckRpc{5, true});
  fn(master::MasterRecoveryAnnounceRpc{NodeId(3), 7});
  fn(master::SubmitAppRpc{AppId(42), "prod/search/indexer", GoldenJson(),
                          NodeId(9), 2.5});
  fn(master::SubmitAppReplyRpc{AppId(42), true, "queued behind quota"});
  fn(master::StartAppMasterRpc{AppId(42), GoldenJson()});
  fn(master::StopAppRpc{AppId(42)});
  fn(master::StartWorkerRpc{AppId(42), 3, NodeId(1001), 99, GoldenJson()});
  fn(master::WorkerStartedRpc{99, WorkerId(500), MachineId(77), true,
                              "capacity refused", {WorkerId(498), WorkerId(499)}});
  fn(master::StopWorkerRpc{WorkerId(500)});
  fn(master::WorkerCrashedRpc{AppId(42), 3, WorkerId(500), WorkerId(501),
                              MachineId(77), true});
  fn(master::AdoptQueryRpc{AppId(42), MachineId(77), NodeId(2077),
                           {WorkerId(500), WorkerId(501)}});
  fn(master::AdoptReplyRpc{AppId(42), MachineId(77), {WorkerId(501)}});

  fn(job::WorkerReadyRpc{AppId(42), "map", WorkerId(500), MachineId(77),
                         NodeId(3500)});
  fn(job::ExecuteInstanceRpc{17, true, 4.5, int64_t{1} << 33, 1.75});
  fn(job::CancelInstanceRpc{17});
  fn(job::InstanceDoneRpc{AppId(42), "map", 17, true, WorkerId(500),
                          MachineId(77), 6.125});
  fn(job::WorkerStatusReportRpc{AppId(42), "reduce", WorkerId(500),
                                MachineId(77), NodeId(3500), 18, 0.625,
                                {1, 2, 3, 1000}});

  fn(coord::LeaseAcquireRpc{"fuxi/master", NodeId(3), 10.5, 11});
  fn(coord::LeaseRenewRpc{"fuxi/master", NodeId(3), 10.5, 12});
  fn(coord::LeaseReleaseRpc{"fuxi/master", NodeId(3), 13});
  fn(coord::LeaseReplyRpc{13, true, NodeId(3), 4, "held elsewhere"});

  fn(master::ShardStatusRpc{2, NodeId(3), 5, 1250, GoldenTotal(),
                            cluster::ResourceVector(1500, 1 << 20)});
  fn(shard::ShardLookupRpc{NodeId(8000), 21});
  shard::ShardDirectoryReplyRpc directory;
  directory.request_id = 21;
  directory.entries = {
      {0, NodeId(3), 4, 1250, GoldenTotal(), cluster::ResourceVector(10, 20),
       88.5},
      {1, NodeId(), 0, 0, cluster::ResourceVector(), cluster::ResourceVector(),
       -1}};
  fn(directory);
  fn(shard::RouteSubmitRpc{AppId(42), "prod/search", GoldenJson(), NodeId(9),
                           0.5});
  fn(shard::RouteReplyRpc{AppId(42), 2, true, "spilled from shard 1"});
}

/// 64-bit FNV-1a.
uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t h = 14695981039346656037ull;
  for (char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

TEST(WireGoldenTest, FrameBytesArePinned) {
  std::string frames;
  std::set<wire::MsgTag> covered;
  ForEachGoldenMessage([&](const auto& msg) {
    using T = std::decay_t<decltype(msg)>;
    const wire::MsgTag tag = wire::TypeInfoOf<T>().tag;
    const std::string frame = wire::EncodeToString(msg);
    EXPECT_EQ(wire::FramedSize(msg), frame.size()) << wire::MsgTagName(tag);
    T decoded;
    Status status = wire::DecodeFramed(frame, &decoded);
    EXPECT_TRUE(status.ok()) << wire::MsgTagName(tag) << ": " << status.message();
    EXPECT_TRUE(covered.insert(tag).second) << wire::MsgTagName(tag);
    frames += frame;
  });

  // Every registered tag has a golden instance, except the sentinel,
  // the test-only tags and the retired resource.ResyncRequest.
  for (int raw = 0; raw < 256; ++raw) {
    const auto tag = static_cast<wire::MsgTag>(raw);
    if (wire::MsgTagName(tag) == "wire.unknown") continue;
    const bool exempt = tag == wire::MsgTag::kInvalid ||
                        tag == wire::MsgTag::kResyncRequest ||
                        tag == wire::MsgTag::kTestPing ||
                        tag == wire::MsgTag::kTestPong;
    EXPECT_EQ(covered.count(tag), exempt ? 0u : 1u) << wire::MsgTagName(tag);
  }

  // Recorded from the hand-written codecs that predate the field-list
  // codec; any change here is a wire-format change and needs a version
  // bump, not a new digest.
  EXPECT_EQ(frames.size(), 1449u);
  EXPECT_EQ(Fnv1a64(frames), 0xafaa2fc41936e1e9ull);
}

// --------------------------------------- damage batteries, per layer

TEST(WireDamageTest, EveryFlipAndEveryTruncationRejected) {
  Rng rng(505);
  // One representative per layer, including nested vectors and Json.
  CheckDamageRejected(RandStampedRequest(rng), rng);
  CheckDamageRejected(RandStampedGrant(rng), rng);

  master::AgentHeartbeatRpc hb;
  hb.machine = MachineId(3);
  hb.agent_node = NodeId(103);
  hb.seq = 7;
  hb.health_score = 0.25;
  hb.capacity = RandRes(rng);
  hb.carries_allocations = true;
  hb.allocations.push_back(RandAllocation(rng));
  CheckDamageRejected(hb, rng);

  master::SubmitAppRpc submit;
  submit.app = AppId(9);
  submit.tenant_path = "batch";
  submit.description = RandJson(rng, 3);
  submit.client = NodeId(1);
  CheckDamageRejected(submit, rng);

  job::WorkerStatusReportRpc report;
  report.app = AppId(2);
  report.task = "map";
  report.worker = WorkerId(11);
  report.machine = MachineId(4);
  report.worker_node = NodeId(104);
  report.running_instance = 17;
  report.progress = 0.5;
  report.completed = {1, 2, 3, 5, 8};
  CheckDamageRejected(report, rng);

  CheckDamageRejected(
      coord::LeaseReplyRpc{42, true, NodeId(7), 3, "held elsewhere"}, rng);
}

TEST(WireDamageTest, FederationFlipsAndTruncationsRejected) {
  Rng rng(808);
  CheckDamageRejected(RandShardStatus(rng), rng);
  CheckDamageRejected(shard::ShardLookupRpc{NodeId(8000), 21}, rng);
  shard::ShardDirectoryReplyRpc directory = RandDirectoryReply(rng);
  directory.entries.push_back({1, NodeId(3), 4, 1250, RandRes(rng),
                               RandRes(rng), 88.5});
  CheckDamageRejected(directory, rng);
  shard::RouteSubmitRpc submit = RandRouteSubmit(rng);
  ASSERT_EQ(static_cast<uint8_t>(wire::EncodeToString(submit)[1]), 2)
      << "route submissions are written at v2";
  CheckDamageRejected(submit, rng);
  CheckDamageRejected(shard::RouteReplyRpc{AppId(42), 2, true, "spilled"},
                      rng);
}

TEST(WireDamageTest, WrongTagRejected) {
  job::CancelInstanceRpc cancel{5};
  std::string bytes = wire::EncodeToString(cancel);
  master::StopAppRpc other;
  Status status = wire::DecodeFramed(bytes, &other);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("tag"), std::string::npos)
      << status.message();
}

TEST(WireDamageTest, WrongVersionRejected) {
  // Rewrite the version byte (index 1: the tag varint of every current
  // message is a single byte) and fix the checksum so ONLY the version
  // check can reject.
  job::CancelInstanceRpc cancel{5};
  std::string bytes = wire::EncodeToString(cancel);
  bytes[1] = 2;
  uint32_t sum = wire::FrameChecksum(
      std::string_view(bytes.data(), bytes.size() - wire::kChecksumBytes));
  for (size_t i = 0; i < wire::kChecksumBytes; ++i) {
    bytes[bytes.size() - wire::kChecksumBytes + i] =
        static_cast<char>(sum >> (8 * i));
  }
  job::CancelInstanceRpc decoded;
  Status status = wire::DecodeFramed(bytes, &decoded);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("version"), std::string::npos)
      << status.message();
}

// ------------------------------- version migration (tenant refactor)
//
// SubmitAppRpc and RouteSubmitRpc moved from v1 (flat quota_group) to
// v2 (tenant_path + weight) with min_version = 1: old frames must keep
// decoding — the group name lands in tenant_path, the weight defaults —
// while versions outside [1, 2] stay hard corruption errors.

/// Appends a valid checksum to a hand-built frame prefix.
std::string SealFrame(std::string frame) {
  uint32_t sum = wire::FrameChecksum(frame);
  for (size_t i = 0; i < wire::kChecksumBytes; ++i) {
    frame.push_back(static_cast<char>(sum >> (8 * i)));
  }
  return frame;
}

/// The pre-hierarchy SubmitAppRpc body: ends at the client id.
std::string V1SubmitFrame(uint64_t tag, uint8_t version) {
  std::string frame;
  wire::Writer w(&frame);
  w.U64(tag);
  w.Byte(version);
  w.Id(AppId(42));
  w.Str("batch");
  wire::WireEncode(w, Json(std::string("job-desc")));
  w.Id(NodeId(7));
  return SealFrame(std::move(frame));
}

TEST(WireVersionMigrationTest, V1SubmitAppFrameStillDecodes) {
  std::string frame =
      V1SubmitFrame(static_cast<uint64_t>(wire::MsgTag::kSubmitAppRpc), 1);
  master::SubmitAppRpc decoded;
  Status status = wire::DecodeFramed(frame, &decoded);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(decoded.app, AppId(42));
  EXPECT_EQ(decoded.tenant_path, "batch")
      << "old flat group name is a root-level tenant path";
  EXPECT_EQ(decoded.client, NodeId(7));
  EXPECT_DOUBLE_EQ(decoded.weight, 1.0) << "missing field keeps default";
}

TEST(WireVersionMigrationTest, V1RouteSubmitFrameStillDecodes) {
  std::string frame =
      V1SubmitFrame(static_cast<uint64_t>(wire::MsgTag::kRouteSubmitRpc), 1);
  shard::RouteSubmitRpc decoded;
  Status status = wire::DecodeFramed(frame, &decoded);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(decoded.tenant_path, "batch");
  EXPECT_DOUBLE_EQ(decoded.weight, 1.0);
}

TEST(WireVersionMigrationTest, CurrentSubmitFramesAreVersion2) {
  master::SubmitAppRpc submit;
  submit.app = AppId(1);
  submit.tenant_path = "t/org/user";
  submit.weight = 2.5;
  std::string bytes = wire::EncodeToString(submit);
  EXPECT_EQ(static_cast<uint8_t>(bytes[1]), 2)
      << "tag is a one-byte varint, version byte follows";
  master::SubmitAppRpc decoded;
  ASSERT_TRUE(wire::DecodeFramed(bytes, &decoded).ok());
  EXPECT_EQ(decoded.tenant_path, "t/org/user");
  EXPECT_DOUBLE_EQ(decoded.weight, 2.5);
}

TEST(WireVersionMigrationTest, VersionsOutsideTheRangeStayRejected) {
  for (uint8_t version : {0, 3, 9}) {
    std::string frame = V1SubmitFrame(
        static_cast<uint64_t>(wire::MsgTag::kSubmitAppRpc), version);
    master::SubmitAppRpc decoded;
    Status status = wire::DecodeFramed(frame, &decoded);
    ASSERT_FALSE(status.ok()) << "version " << int(version);
    EXPECT_NE(status.message().find("version"), std::string::npos)
        << status.message();
  }
}

TEST(WireDamageTest, HugeVectorCountCannotDriveAllocation) {
  // Hand-build a frame whose vector count claims 2^40 elements behind a
  // VALID checksum: the decoder must reject on count-vs-remaining, not
  // try to reserve a terabyte.
  std::string frame;
  wire::Writer w(&frame);
  w.U64(static_cast<uint64_t>(wire::MsgTag::kAdoptReplyRpc));
  w.Byte(1);
  w.Id(AppId(7));
  w.Id(MachineId(3));
  w.U64(uint64_t{1} << 40);  // keep.size(), absurd
  uint32_t sum = wire::FrameChecksum(frame);
  for (size_t i = 0; i < wire::kChecksumBytes; ++i) {
    frame.push_back(static_cast<char>(sum >> (8 * i)));
  }
  master::AdoptReplyRpc decoded;
  Status status = wire::DecodeFramed(frame, &decoded);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("vector count"), std::string::npos)
      << status.message();
}

TEST(WireDamageTest, OversizedStringLengthRejected) {
  std::string body;
  wire::Writer w(&body);
  w.U64(1000);  // claimed string length far beyond the actual bytes
  body += "abc";
  wire::Reader r(body);
  std::string out;
  EXPECT_FALSE(r.Str(&out).ok());
}

// --------------------------------------------------- primitive behaviour

TEST(WirePrimitiveTest, NonMinimalVarintRejected) {
  // 0x80 0x00 denotes 0 in two bytes; canonical form is the single 0x00.
  wire::Reader bad(std::string_view("\x80\x00", 2));
  uint64_t v;
  EXPECT_FALSE(bad.U64(&v).ok());

  wire::Reader good(std::string_view("\x80\x01", 2));
  ASSERT_TRUE(good.U64(&v).ok());
  EXPECT_EQ(v, 128u);
}

TEST(WirePrimitiveTest, ZigzagExtremesRoundTrip) {
  for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{1},
                    std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::max()}) {
    std::string bytes;
    wire::Writer w(&bytes);
    w.I64(v);
    wire::Reader r(bytes);
    int64_t out;
    ASSERT_TRUE(r.I64(&out).ok());
    EXPECT_EQ(out, v);
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(WirePrimitiveTest, DoubleBitsAreExact) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double v : {0.0, -0.0, 1.5, -1e300, nan,
                   std::numeric_limits<double>::infinity()}) {
    std::string bytes;
    wire::Writer w(&bytes);
    w.F64(v);
    wire::Reader r(bytes);
    double out;
    ASSERT_TRUE(r.F64(&out).ok());
    uint64_t in_bits, out_bits;
    std::memcpy(&in_bits, &v, sizeof(in_bits));
    std::memcpy(&out_bits, &out, sizeof(out_bits));
    EXPECT_EQ(out_bits, in_bits);
  }
}

TEST(WirePrimitiveTest, BoolMustBeZeroOrOne) {
  wire::Reader r(std::string_view("\x02", 1));
  bool b;
  EXPECT_FALSE(r.Bool(&b).ok());
}

TEST(WirePrimitiveTest, U32RangeChecked) {
  std::string bytes;
  wire::Writer w(&bytes);
  w.U64(uint64_t{1} << 33);
  wire::Reader r(bytes);
  uint32_t out;
  EXPECT_FALSE(r.U32(&out).ok());
}

TEST(WirePrimitiveTest, EnumRangeChecked) {
  std::string bytes;
  wire::Writer w(&bytes);
  w.U64(99);
  wire::Reader r(bytes);
  resource::RevocationReason reason;
  EXPECT_FALSE(r.Enum(&reason, resource::RevocationReason::kReconcile).ok());
}

// --------------------------------------------------------- Json codec

TEST(WireJsonTest, StructuralRoundTripIsExact) {
  Rng rng(606);
  for (int i = 0; i < kFuzzIterations; ++i) {
    Json doc = RandJson(rng, 4);
    std::string bytes = wire::EncodeBody(doc);
    Json decoded;
    Status status = wire::DecodeBody(bytes, &decoded);
    ASSERT_TRUE(status.ok()) << status.message();
    EXPECT_EQ(decoded, doc);
    EXPECT_EQ(wire::EncodeBody(decoded), bytes);
  }
}

TEST(WireJsonTest, NestingDepthCapped) {
  Json doc = Json(1.0);
  for (int i = 0; i < 80; ++i) {
    doc = Json(Json::Array{std::move(doc)});
  }
  std::string bytes = wire::EncodeBody(doc);
  Json decoded;
  EXPECT_FALSE(wire::DecodeBody(bytes, &decoded).ok())
      << "decoder accepted nesting past the recursion cap";
}

// ------------------------------------------------------- tag registry

TEST(WireTagTest, NamesAreRegisteredAndStable) {
  EXPECT_EQ(wire::MsgTagName(wire::MsgTag::kStampedRequest),
            "resource.StampedRequest");
  EXPECT_EQ(wire::MsgTagName(wire::MsgTag::kRequestRpc), "master.RequestRpc");
  EXPECT_EQ(wire::MsgTagName(wire::MsgTag::kWorkerReadyRpc),
            "job.WorkerReadyRpc");
  EXPECT_EQ(wire::MsgTagName(wire::MsgTag::kLeaseAcquireRpc),
            "coord.LeaseAcquireRpc");
  EXPECT_EQ(wire::MsgTagName(wire::MsgTag::kInvalid), "unencoded");
  EXPECT_EQ(wire::MsgTagName(static_cast<wire::MsgTag>(9999)), "wire.unknown");
}

}  // namespace
}  // namespace fuxi
