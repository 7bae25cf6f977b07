#include "chaos/invariant_monitor.h"

#include <cstring>
#include <sstream>

#include "common/logging.h"
#include "obs/exporters.h"

namespace fuxi::chaos {

InvariantMonitor::InvariantMonitor(runtime::SimCluster* cluster)
    : cluster_(cluster) {
  FUXI_CHECK(cluster != nullptr);
  orphan_grace_ =
      cluster->shard_count() > 1 ? kShardedOrphanGrace : kOrphanGrace;
  size_t shards = static_cast<size_t>(cluster->shard_count());
  last_shard_generation_.assign(shards, 0);
  shard_machine_count_.assign(shards, 0);
  for (const cluster::Machine& machine : cluster->topology().machines()) {
    ++shard_machine_count_[static_cast<size_t>(
        cluster->shard_of_machine(machine.id))];
  }
}

InvariantMonitor::~InvariantMonitor() { Stop(); }

void InvariantMonitor::Start() {
  if (installed_) return;
  installed_ = true;
  cluster_->sim().SetPostEventHook([this](double now) { OnEvent(now); });
}

void InvariantMonitor::Stop() {
  if (!installed_) return;
  installed_ = false;
  cluster_->sim().SetPostEventHook(nullptr);
}

void InvariantMonitor::OnEvent(double now) {
  CheapChecks(now);
  if (now - last_heavy_ >= kHeavyCheckInterval) {
    last_heavy_ = now;
    HeavyChecks(now);
  }
}

void InvariantMonitor::CheckNow() {
  double now = cluster_->sim().Now();
  CheapChecks(now);
  last_heavy_ = now;
  HeavyChecks(now);
}

void InvariantMonitor::Report(const std::string& invariant,
                              const std::string& detail) {
  Record(cluster_->sim().Now(), invariant, detail);
}

void InvariantMonitor::Record(double now, const std::string& invariant,
                              const std::string& detail) {
  if (violations_.size() >= kMaxViolations) return;
  FUXI_LOG(kWarning) << "invariant violated at t=" << now << ": "
                     << invariant << " (" << detail << ")";
  const obs::Observability& obs = cluster_->obs();
  if (violations_.empty() && obs.trace.enabled()) {
    // Dump the flight recorder NOW, before the traffic that follows the
    // first failure overwrites the causal history that produced it.
    trace_dump_ = obs::ExportChromeTrace(obs.trace.Snapshot());
  }
  if (violations_.empty() && obs.audit.enabled()) {
    // Same urgency for the decision audit: the ring must be frozen
    // before post-failure scheduling overwrites the decisions at fault.
    audit_dump_ = obs::ExportAuditJson(obs.audit.Snapshot());
  }
  violations_.push_back(Violation{now, invariant, detail});
}

void InvariantMonitor::Sustained(const std::string& key, bool bad,
                                 double grace, double now,
                                 const std::string& detail) {
  auto it = pending_.find(key);
  if (!bad) {
    if (it != pending_.end()) pending_.erase(it);
    return;
  }
  if (it == pending_.end()) {
    pending_.emplace(key, PendingCondition{now, false, detail});
    return;
  }
  it->second.detail = detail;
  if (!it->second.fired && now - it->second.since >= grace) {
    it->second.fired = true;
    Record(now, key,
           detail + " (sustained since t=" + std::to_string(it->second.since) +
               ")");
  }
}

void InvariantMonitor::Fold(uint64_t value) {
  // FNV-1a over the value's bytes.
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (value >> (i * 8)) & 0xFF;
    hash_ *= 1099511628211ull;
  }
}

void InvariantMonitor::FoldTime(double value) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  Fold(bits);
}

void InvariantMonitor::CheapChecks(double now) {
  // One pass per shard (the unsharded cluster is the one-shard case and
  // produces exactly the legacy condition keys). Masters are matched to
  // their shard by election lease so the loop never depends on
  // construction order.
  int shards = cluster_->shard_count();
  for (int k = 0; k < shards; ++k) {
    const std::string lock = cluster_->shard_lock(k);
    const std::string suffix =
        shards > 1 ? ":shard" + std::to_string(k) : "";
    NodeId holder = cluster_->locks().Holder(lock);
    int primaries = 0;
    master::FuxiMaster* holder_primary = nullptr;
    for (int i = 0; i < cluster_->master_count(); ++i) {
      master::FuxiMaster* m = cluster_->master(i);
      if (m->lock_name() != lock) continue;
      bool acting_primary = m->is_alive() && m->is_primary();
      if (acting_primary) {
        ++primaries;
        if (m->node() == holder) holder_primary = m;
      }
      // A primary that no longer holds the lock must notice at its next
      // renewal and step down; staying in charge past the grace window
      // means two masters could be dispatching grants concurrently.
      Sustained(
          "primary-without-lock:node" + std::to_string(m->node().value()),
          acting_primary && m->node() != holder, kSplitBrainGrace, now,
          "master node " + std::to_string(m->node().value()) +
              " acts as primary but the lock is held by node " +
              std::to_string(holder.value()));
    }
    Sustained("single-primary" + suffix, primaries > 1, kSplitBrainGrace,
              now,
              std::to_string(primaries) + " masters act as primary at once");
    if (holder_primary != nullptr) {
      uint64_t generation = holder_primary->generation();
      uint64_t& last_generation =
          last_shard_generation_[static_cast<size_t>(k)];
      if (generation < last_generation) {
        Record(now, "generation-monotonic" + suffix,
               "lock holder node " +
                   std::to_string(holder_primary->node().value()) +
                   " acts with generation " + std::to_string(generation) +
                   " after generation " + std::to_string(last_generation) +
                   " was seen");
      } else {
        last_generation = generation;
      }
    }
  }
}

void InvariantMonitor::HeavyChecks(double now) {
  ++checks_;
  FoldTime(now);

  // Per-shard sweep. With one shard the fold sequence and condition
  // keys below are byte-identical to the pre-federation monitor — the
  // golden replay digests pin this.
  int shards = cluster_->shard_count();
  std::vector<master::FuxiMaster*> primaries(
      static_cast<size_t>(shards), nullptr);
  for (int k = 0; k < shards; ++k) {
    const std::string lock = cluster_->shard_lock(k);
    const std::string suffix =
        shards > 1 ? ":shard" + std::to_string(k) : "";
    NodeId holder = cluster_->locks().Holder(lock);
    master::FuxiMaster* primary = nullptr;
    for (int i = 0; i < cluster_->master_count(); ++i) {
      master::FuxiMaster* m = cluster_->master(i);
      if (m->lock_name() != lock) continue;
      if (m->is_alive() && m->is_primary() && m->node() == holder) primary = m;
    }
    primaries[static_cast<size_t>(k)] = primary;
    Fold(primary != nullptr ? primary->generation() : 0);

    if (primary != nullptr && primary->scheduler() != nullptr) {
      if (!primary->scheduler()->CheckInvariants()) {
        Record(now, "scheduler-conservation" + suffix,
               "scheduler cross-structure audit failed (free+granted vs "
               "capacity, quota accounting, or locality-tree totals)");
      }
      // fuxi::planner invariants. No Fold: the planner is absent in
      // legacy runs and the golden replays pin the fold stream.
      if (!primary->scheduler()->PlannerOvercommitOk()) {
        Record(now, "planner-overcommit" + suffix,
               "a machine or rack timeline admits booked load above "
               "free-now + expected releases at some scheduled point");
      }
      if (!primary->scheduler()->PlannerGangAtomicityOk()) {
        Record(now, "gang-atomicity" + suffix,
               "an unstarted gang holds grants on at least one member "
               "(all-or-nothing transaction leaked a partial placement)");
      }
      size_t cap = static_cast<size_t>(
          cluster_->options().master.blacklist_cap_fraction *
          static_cast<double>(shard_machine_count_[static_cast<size_t>(k)]));
      if (cap < 1) cap = 1;
      size_t blacklisted = primary->Blacklisted().size();
      Fold(blacklisted);
      if (blacklisted > cap) {
        Record(now, "blacklist-cap" + suffix,
               std::to_string(blacklisted) +
                   " machines blacklisted, cap is " + std::to_string(cap));
      }
    }
  }

  // Cross-shard accounting (sharded clusters only, so the unsharded
  // fold stream is untouched): the federation as a whole must never
  // promise more than the online machines physically have, even while
  // spillover moves load between shards.
  if (shards > 1) {
    cluster::ResourceVector global_granted;
    cluster::ResourceVector global_capacity;
    for (master::FuxiMaster* primary : primaries) {
      if (primary == nullptr || primary->scheduler() == nullptr) continue;
      global_granted += primary->scheduler()->TotalGranted();
      global_capacity += primary->scheduler()->TotalCapacity();
    }
    Fold(static_cast<uint64_t>(global_granted.cpu()));
    Fold(static_cast<uint64_t>(global_granted.memory()));
    if (!global_granted.FitsIn(global_capacity)) {
      Record(now, "global-conservation",
             "federation grants " + global_granted.ToString() +
                 " exceed online capacity " + global_capacity.ToString());
    }
  }

  for (const cluster::Machine& machine : cluster_->topology().machines()) {
    master::FuxiMaster* primary = primaries[static_cast<size_t>(
        cluster_->shard_of_machine(machine.id))];
    std::string mtag = "m";
    mtag += std::to_string(machine.id.value());
    agent::FuxiAgent* agent = cluster_->agent(machine.id);
    agent::ProcessHost* host = cluster_->host(machine.id);

    // A dead agent has no table; the sustained window restarts from
    // scratch once it revives (a stale `since` would fire spuriously).
    bool over = false;
    cluster::ResourceVector promised;
    if (agent->is_alive()) {
      promised = agent->TotalGrantedCapacity();
      Fold(static_cast<uint64_t>(promised.cpu()));
      Fold(static_cast<uint64_t>(promised.memory()));
      over = !promised.FitsIn(machine.capacity);
    }
    Sustained("agent-overcommit:" + mtag, over, kOvercommitGrace, now,
              "agent on machine " + std::to_string(machine.id.value()) +
                  " holds capacity " + promised.ToString() +
                  " above physical " + machine.capacity.ToString());

    if (shards > 1) {
      // Fault-domain isolation: only the owning shard's scheduler may
      // have this machine online. A foreign shard granting here would
      // double-book the machine globally while every per-shard
      // conservation audit still passes.
      int owner = cluster_->shard_of_machine(machine.id);
      int foreign = -1;
      for (int k = 0; k < shards; ++k) {
        if (k == owner) continue;
        master::FuxiMaster* other = primaries[static_cast<size_t>(k)];
        if (other != nullptr && other->scheduler() != nullptr &&
            other->scheduler()->machine_state(machine.id).online) {
          foreign = k;
          break;
        }
      }
      Sustained("shard-isolation:" + mtag, foreign >= 0,
                kSplitBrainGrace, now,
                "machine " + std::to_string(machine.id.value()) +
                    " owned by shard " + std::to_string(owner) +
                    " is online in shard " + std::to_string(foreign) +
                    "'s scheduler");
    }

    size_t alive = host->alive_count();
    Fold(alive);
    if (cluster_->machine_halted(machine.id) && alive > 0) {
      // Instantaneous: HaltMachine kills every process synchronously,
      // so any survivor was resurrected on a dead machine.
      Record(now, "halted-machine-processes",
             "halted machine " + std::to_string(machine.id.value()) +
                 " hosts " + std::to_string(alive) + " live processes");
    }

    if (app_live_) {
      std::map<AppId, std::string> dead_app_processes;
      for (const agent::Process* process : host->Alive()) {
        if (!app_live_(process->app)) {
          std::ostringstream entry;
          entry << " w" << process->id.value() << "@am"
                << process->owner_am.value() << " since t="
                << process->started_at;
          dead_app_processes[process->app] += entry.str();
        }
      }
      for (const auto& [app, workers] : dead_app_processes) {
        // Cleanup of strays the application master does not know about
        // travels master -> agent (capacity revocation), so the clock
        // only runs while a primary is elected; the window restarts
        // when the control plane recovers from an outage.
        std::ostringstream detail;
        detail << "processes of finished app " << app.value()
               << " still run on machine " << machine.id.value() << ":"
               << workers;
        Sustained(
            "orphan-processes:" + mtag + ":app" + std::to_string(app.value()),
            primary != nullptr, orphan_grace_, now, detail.str());
      }
      // Clear sustained trackers for apps that no longer have strays.
      for (auto it = pending_.begin(); it != pending_.end();) {
        const std::string prefix = "orphan-processes:" + mtag + ":app";
        if (it->first.rfind(prefix, 0) == 0) {
          AppId app(std::stoll(it->first.substr(prefix.size())));
          if (dead_app_processes.count(app) == 0) {
            it = pending_.erase(it);
            continue;
          }
        }
        ++it;
      }
    }
  }
}

std::string InvariantMonitor::Summary() const {
  std::ostringstream out;
  out << "heavy_checks=" << checks_ << " state_hash=" << std::hex << hash_
      << std::dec << " violations=" << violations_.size();
  for (const Violation& v : violations_) {
    out << "\n  t=" << v.time << " [" << v.invariant << "] " << v.detail;
  }
  return out.str();
}

}  // namespace fuxi::chaos
