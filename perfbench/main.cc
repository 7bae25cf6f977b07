// Benchmark harness for the Fuxi reproduction: one process runs one
// workload and prints its metrics, ending with one JSON line.
//
//   fuxi_perfbench --workload fig9_5k|sort_failover
//                  --seed N --seconds S --trace 0|1 [--out DIR]
//
// Every layer is measured from outside: the harness times its own
// calls into public entry points (Simulator::Step, SimCluster,
// JobRuntime::Submit) and reads counters the program already exposes
// (public accessors, obs::MetricsRegistry, and the
// CampaignResult::metrics_csv of chaos::RunCampaign, see the layer
// probe). All load runs on this one thread.
//
// A workload is a list of units of work (a fig9 window, one sort fault
// seed), each built from the seed on a fresh cluster; --seconds sets
// how many units a run has. A run executes every unit once, then every
// unit's timed span again. A re-run must reproduce its unit's
// deterministic values exactly, or the run fails as a determinism bug.
// Wall-clock metrics take the faster execution of each piece of work
// (see Fastest) and are scaled to a reference host speed (see
// HostMeter). With --trace 1 only the last unit re-runs, traced: each
// simulator step is timed and classified by which public counter it
// moved (see StepDriver), and the spans are written to
// DIR/spans-<workload>.csv at exit.
//
// NOTES.md in this directory gives the rationale for each workload and
// the layer -> metric predictions.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "chaos/campaign.h"
#include "job/job_runtime.h"
#include "obs/exporters.h"
#include "trace/workloads.h"

namespace {

using namespace fuxi;
using Clock = std::chrono::steady_clock;

const Clock::time_point kProcessStart = Clock::now();

double SecondsSince(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

int64_t NanosSinceStart(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t -
                                                              kProcessStart)
      .count();
}

/// Linear-interpolated quantile, q in [0, 1]; 0 for no samples.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Sum(const std::vector<double>& values) {
  double total = 0;
  for (double v : values) total += v;
  return total;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ---------------------------------------------------------------------
// Host speed reference
// ---------------------------------------------------------------------

/// A fixed kernel, independent of the program, that does what the
/// simulator spends its time on: dependent loads over a working set
/// larger than a core's private caches, binary-heap pushes and pops,
/// and hash-table upserts. It allocates nothing while timed and reads
/// its working set once untimed first, so what the program did before
/// does not move its time; how busy the host is does.
class ReferenceKernel {
 public:
  ReferenceKernel() : chain_(kChainWords), table_(kTableSlots) {
    std::vector<uint32_t> order(kChainWords);
    for (uint32_t i = 0; i < kChainWords; ++i) order[i] = i;
    uint64_t x = 0x9e3779b97f4a7c15ull;
    for (uint32_t i = kChainWords - 1; i > 0; --i) {
      x = Next(x);
      std::swap(order[i], order[x % (i + 1)]);
    }
    for (uint32_t i = 0; i < kChainWords; ++i) {
      chain_[order[i]] = order[(i + 1) % kChainWords];
    }
    heap_.reserve(kHeapSize + 1);
  }

  /// Seconds one pass takes now.
  double Run() {
    uint64_t touched = 0;
    for (uint32_t word : chain_) touched += word;
    std::fill(table_.begin(), table_.end(), 0);
    heap_.clear();
    Clock::time_point start = Clock::now();
    uint32_t at = 0;
    for (int i = 0; i < kChainLoads; ++i) at = chain_[at];
    uint64_t x = at;
    for (int i = 0; i < kHeapSize; ++i) {
      x = Next(x);
      heap_.push_back(x);
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    }
    for (int i = 0; i < kHeapOps; ++i) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      x = Next(x);
      heap_.back() += x >> 40;
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    }
    for (int i = 0; i < kTableOps; ++i) {
      x = Next(x);
      size_t slot = (x >> 20) % kTableSlots;
      while (table_[slot] != 0 && table_[slot] != (x >> 48 | 1)) {
        slot = (slot + 1) % kTableSlots;
      }
      table_[slot] = x >> 48 | 1;
    }
    const double seconds = SecondsSince(start);
    sink_ = touched + at + heap_.front() + table_[x % kTableSlots];
    return seconds;
  }

 private:
  static uint64_t Next(uint64_t x) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  }
  static constexpr uint32_t kChainWords = 1u << 21;  // 8 MB
  static constexpr int kChainLoads = 60000;
  static constexpr int kHeapSize = 4096;
  static constexpr int kHeapOps = 40000;
  static constexpr size_t kTableSlots = 1u << 16;  // 512 KB
  static constexpr int kTableOps = 40000;  // fills at most 61% of the slots
  std::vector<uint32_t> chain_;
  std::vector<uint64_t> table_;
  std::vector<uint64_t> heap_;
  volatile uint64_t sink_ = 0;
};

/// Tracks how fast the host runs. A shared host runs the same work up to
/// 1.7x slower while its neighbours are busy, for tens of seconds at a
/// time, so raw wall times of two runs are not comparable. The harness
/// times the reference kernel between pieces of work, about every
/// kIntervalS, and scales the run's wall times by
/// kReferenceS / (lower quartile of the kernel times): the time the work
/// would take on a host where the kernel takes kReferenceS, about this
/// harness's development host when idle. The lower quartile matches the
/// fastest-piece rule that the work's own times follow (see Fastest):
/// both leave out short bursts. The kernel's time is never work time.
class HostMeter {
 public:
  static constexpr double kReferenceS = 0.008;
  static constexpr double kIntervalS = 0.25;

  /// Times the kernel, unless the last time was taken under kIntervalS
  /// ago.
  void Tick() {
    if (!samples_.empty() && SecondsSince(last_) < kIntervalS) return;
    samples_.push_back(kernel_.Run());
    last_ = Clock::now();
  }
  /// The lower quartile of the kernel times so far.
  double typical_s() const { return Quantile(samples_, 0.25); }
  /// Multiplies a wall time of this run to reference speed.
  double scale() const { return samples_.empty() ? 1 : kReferenceS / typical_s(); }

 private:
  ReferenceKernel kernel_;
  std::vector<double> samples_;
  Clock::time_point last_ = Clock::now();
};

/// Wall time `work` takes, in seconds; the host meter may time its
/// kernel first.
template <typename Work>
double TimeIt(HostMeter* host, Work work) {
  host->Tick();
  Clock::time_point start = Clock::now();
  work();
  return SecondsSince(start);
}

// ---------------------------------------------------------------------
// Counters read from the program
// ---------------------------------------------------------------------

/// Flat name -> value view of a metrics registry: counters and gauges
/// by name, histograms as <name>.count.
using Counters = std::map<std::string, double>;

Counters Snapshot(const obs::MetricsRegistry& registry) {
  Counters out;
  for (const auto& [name, counter] : registry.counters()) {
    out[name] = static_cast<double>(counter->value());
  }
  for (const auto& [name, gauge] : registry.gauges()) out[name] = gauge->value();
  for (const auto& [name, histogram] : registry.histograms()) {
    out[name + ".count"] = static_cast<double>(histogram->count());
  }
  return out;
}

/// Same view, plus <name>.p50 / .p99 for histograms, parsed from obs::MetricsToCsv output
/// (kind,name,count,value,mean,p50,p95,p99,min,max,realtime).
Counters ParseMetricsCsv(const std::string& csv) {
  Counters out;
  std::istringstream lines(csv);
  std::string line;
  std::getline(lines, line);  // header
  while (std::getline(lines, line)) {
    std::vector<std::string> f;
    std::stringstream fields(line);
    std::string field;
    while (std::getline(fields, field, ',')) f.push_back(field);
    if (f.size() != 11) continue;
    if (f[0] == "histogram") {
      out[f[1] + ".count"] = std::atof(f[2].c_str());
      out[f[1] + ".p50"] = std::atof(f[5].c_str());
      out[f[1] + ".p99"] = std::atof(f[7].c_str());
    } else {
      out[f[1]] = std::atof(f[3].c_str());
    }
  }
  return out;
}

double At(const Counters& counters, const std::string& name) {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

const obs::Counter* FindCounter(const obs::MetricsRegistry& registry,
                                const std::string& name) {
  auto it = registry.counters().find(name);
  return it == registry.counters().end() ? nullptr : it->second.get();
}

uint64_t ValueOf(const obs::Counter* counter) {
  return counter == nullptr ? 0 : counter->value();
}

/// Requests handled by any master so far (FuxiMaster's per-request
/// timer, the Figure 9 measurement).
uint64_t RequestsHandled(runtime::SimCluster& cluster) {
  uint64_t total = 0;
  for (int m = 0; m < cluster.master_count(); ++m) {
    total += cluster.master(m)->decision_micros().size();
  }
  return total;
}

// ---------------------------------------------------------------------
// Spans and the traced step loop
// ---------------------------------------------------------------------

/// In-memory span log of a traced run, written out at exit. A unit's
/// span (a fig9 cluster seed, a fault seed) has parent 0, its phase
/// spans (setup, warm-up, window) point at it, and step spans name their
/// step class and point at their phase.
class SpanLog {
 public:
  uint32_t Begin(const std::string& name, uint32_t parent = 0) {
    spans_.push_back({name, parent, NanosSinceStart(Clock::now()), -1});
    return static_cast<uint32_t>(spans_.size());
  }
  void End(uint32_t id) {
    if (id > 0) spans_[id - 1].end_ns = NanosSinceStart(Clock::now());
  }
  void AddStep(const char* name, uint32_t parent, Clock::time_point start,
               Clock::time_point end) {
    steps_.push_back({name, parent, NanosSinceStart(start),
                      NanosSinceStart(end)});
  }
  size_t size() const { return spans_.size() + steps_.size(); }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "id,parent,name,start_us,end_us\n";
    auto row = [&out](size_t id, uint32_t parent, const std::string& name,
                      int64_t start_ns, int64_t end_ns) {
      out << id << ',' << parent << ',' << name << ',' << start_ns / 1000.0
          << ',' << end_ns / 1000.0 << '\n';
    };
    for (size_t i = 0; i < spans_.size(); ++i) {
      row(i + 1, spans_[i].parent, spans_[i].name, spans_[i].start_ns,
          spans_[i].end_ns);
    }
    for (size_t i = 0; i < steps_.size(); ++i) {
      row(spans_.size() + i + 1, steps_[i].parent, steps_[i].name,
          steps_[i].start_ns, steps_[i].end_ns);
    }
    return static_cast<bool>(out);
  }

 private:
  struct Phase {
    std::string name;
    uint32_t parent;
    int64_t start_ns;
    int64_t end_ns;
  };
  struct Step {
    const char* name;
    uint32_t parent;
    int64_t start_ns;
    int64_t end_ns;
  };
  std::vector<Phase> spans_;
  std::vector<Step> steps_;
};

/// Step classes, in the order a step is tested against them: the first
/// public counter that moved during the step names its class.
enum StepClass {
  kRequest,    // a master handled a resource request
  kRecover,    // a master election (standby became primary)
  kHeartbeat,  // a scheduling pass ran or was skipped without a request
  kJobDispatch,  // a JobMaster instance finished
  kAgentStart,   // an agent started a worker
  kNetHandler,   // any other message delivery
  kTimer,        // nothing of the above: a timer with no delivery
  kClassCount,
};
constexpr const char* kClassNames[kClassCount] = {
    "master.request", "master.recover", "master.heartbeat", "job.dispatch",
    "agent.start",    "net.handler",    "sim.timer"};

/// Per-class step timings accumulated over every traced step.
struct StepStats {
  std::vector<double> class_us[kClassCount];
  std::vector<double> all_us;
  size_t pending_max = 0;
  double stepped_wall_s = 0;  // wall time of the traced loops
  double traced_speed = 0;    // sim_speed of the traced execution
  std::vector<double> failover_gap_vs;  // kill -> new primary's first grant
};

/// Drives a cluster one simulator event at a time. Untraced, it is the
/// bare Step() loop; traced, it times every step and classifies it.
/// Both produce the same event sequence, so traced and untraced
/// executions of one seed must agree on every deterministic counter.
/// It can time the loop: untraced in chunks of kChunkSteps events (the
/// chunks of two executions of one seed hold the same events), traced
/// as a whole; between chunks the host meter may sample its kernel.
class StepDriver {
 public:
  static constexpr uint32_t kChunkSteps = 1024;

  StepDriver(runtime::SimCluster* cluster, HostMeter* host, StepStats* stats,
             SpanLog* spans, const job::JobMaster* job = nullptr)
      : cluster_(cluster), host_(host), stats_(stats), spans_(spans), job_(job) {
    const obs::MetricsRegistry& registry = cluster->obs().metrics;
    elections_ = FindCounter(registry, "master.elections");
    passes_ = FindCounter(registry, "sched.schedule_passes");
    skipped_ = FindCounter(registry, "sched.passes_skipped");
    started_ = FindCounter(registry, "agent.workers_started");
    delivered_ = FindCounter(registry, "net.messages_delivered");
    grants_ = FindCounter(registry, "master.grant_units");
  }

  bool traced() const { return stats_ != nullptr; }
  void set_phase(uint32_t phase) { phase_ = phase; }
  /// Loops append their times here (null: not timed).
  void set_chunks(std::vector<double>* chunks) { chunks_ = chunks; }

  /// Measures the virtual time from a primary kill at `kill_time` to the
  /// first grant after the next election (traced executions only).
  void WatchFailover(double kill_time) {
    kill_time_ = kill_time;
    watch_ = kWaitElection;
  }

  /// Runs events until `done()` holds or the queue drains.
  template <typename Done>
  void RunUntil(Done done) {
    sim::Simulator& sim = cluster_->sim();
    if (!traced()) {
      Clock::time_point chunk_start = Clock::now();
      uint32_t steps = 0;
      while (!done() && sim.Step()) {
        if (chunks_ != nullptr && ++steps == kChunkSteps) {
          chunks_->push_back(SecondsSince(chunk_start));
          host_->Tick();
          chunk_start = Clock::now();
          steps = 0;
        }
      }
      if (chunks_ != nullptr) chunks_->push_back(SecondsSince(chunk_start));
      return;
    }
    Clock::time_point loop_start = Clock::now();
    Reading before = Read();
    while (!done()) {
      stats_->pending_max = std::max(stats_->pending_max, sim.PendingEvents());
      Clock::time_point start = Clock::now();
      bool ran = sim.Step();
      Clock::time_point end = Clock::now();
      if (!ran) break;
      Reading after = Read();
      StepClass cls = Classify(before, after);
      double us = std::chrono::duration<double, std::micro>(end - start).count();
      stats_->class_us[cls].push_back(us);
      stats_->all_us.push_back(us);
      if (spans_ != nullptr) spans_->AddStep(kClassNames[cls], phase_, start, end);
      ObserveFailover(before, after);
      before = after;
    }
    const double loop_s = SecondsSince(loop_start);
    stats_->stepped_wall_s += loop_s;
    if (chunks_ != nullptr) chunks_->push_back(loop_s);
  }

  void RunUntilTime(double until) {
    sim::Simulator& sim = cluster_->sim();
    RunUntil([&sim, until] { return sim.Now() >= until; });
  }

 private:
  struct Reading {
    uint64_t requests, elections, passes, started, delivered, grants;
    int64_t instances;
  };

  Reading Read() const {
    return {RequestsHandled(*cluster_),
            ValueOf(elections_),
            ValueOf(passes_) + ValueOf(skipped_),
            ValueOf(started_),
            ValueOf(delivered_),
            ValueOf(grants_),
            job_ == nullptr ? 0 : job_->stats().instances_done};
  }

  static StepClass Classify(const Reading& a, const Reading& b) {
    if (b.requests != a.requests) return kRequest;
    if (b.elections != a.elections) return kRecover;
    if (b.passes != a.passes) return kHeartbeat;
    if (b.instances != a.instances) return kJobDispatch;
    if (b.started != a.started) return kAgentStart;
    if (b.delivered != a.delivered) return kNetHandler;
    return kTimer;
  }

  void ObserveFailover(const Reading& a, const Reading& b) {
    if (watch_ == kOff || cluster_->sim().Now() < kill_time_) return;
    if (watch_ == kWaitElection && b.elections != a.elections) {
      watch_ = kWaitGrant;
    }
    if (watch_ == kWaitGrant && b.grants != a.grants) {
      stats_->failover_gap_vs.push_back(cluster_->sim().Now() - kill_time_);
      watch_ = kOff;
    }
  }

  runtime::SimCluster* cluster_;
  HostMeter* host_;
  StepStats* stats_;
  SpanLog* spans_;
  const job::JobMaster* job_;
  std::vector<double>* chunks_ = nullptr;
  uint32_t phase_ = 0;
  const obs::Counter* elections_;
  const obs::Counter* passes_;
  const obs::Counter* skipped_;
  const obs::Counter* started_;
  const obs::Counter* delivered_;
  const obs::Counter* grants_;
  enum { kOff, kWaitElection, kWaitGrant } watch_ = kOff;
  double kill_time_ = 0;
};


// ---------------------------------------------------------------------
// Units, checks and the determinism fingerprint
// ---------------------------------------------------------------------

/// What one execution of a unit of work (a fig9 window, one sort fault
/// seed) produced. The wall times come in the same
/// pieces in every execution of the unit (set-ups, chunks of the same
/// events, requests in handling order), so two executions can be
/// combined piece by piece (see Fastest). `fingerprint` holds every
/// deterministic value, formatted exactly; a re-run of the unit must
/// reproduce it.
struct UnitResult {
  std::vector<double> setup_s;
  double speed_virtual_s = 0;         // virtual time of the span sim_speed covers
  std::vector<double> speed_chunks_s;  // wall time of that span, in pieces
  std::vector<double> request_us;      // per request, in handling order
  // Where the timed span is cut into slices: the end of each in request_us.
  std::vector<size_t> request_slice_ends;
  uint64_t request_samples = 0;
  // Merged only: each unit's sim_speed and request p99.
  std::vector<double> unit_speeds, unit_request_p99_us;
  // A unit added to every run whatever the seed (sort's fault seed 2)
  // counts towards the tails, not the medians: Merge leaves it out of
  // jobs_per_vmin and the sampled_* lists.
  bool anchor = false;
  std::vector<double> jobs_per_vmin;  // per unit
  std::vector<double> turnaround_vs;  // per job
  std::vector<double> makespan_vs;    // per unit
  std::vector<double> sampled_turnaround_vs, sampled_makespan_vs;  // merged only
  std::vector<double> mem_planned_pct;
  std::vector<double> worker_start_vs;  // per application master
  std::vector<double> dirty_drain_p99;
  Counters counters;  // program counters over the measured span
  double sim_events = 0;
  double spans_begun = 0;
  double checkpoint_writes = 0, checkpoint_bytes = 0;
  double heavy_checks = 0, violations = 0;
  double job_instances = 0, job_backups = 0, job_failures = 0, job_workers = 0;
  double app_instances = 0;
  std::vector<std::pair<std::string, std::string>> fingerprint;
  bool partial = false;  // stopped after the timed span; fingerprint is a prefix

  double speed() const { return Ratio(speed_virtual_s, Sum(speed_chunks_s)); }
  /// p50 (q = 0.5) or p99 (q = 0.99) of the unit's request times. A p99
  /// of a sliced span is the median of the slices' p99s: a burst of host
  /// load fills the slowest 1% of the slice it hits, not of the others.
  double RequestUs(double q) const {
    if (q > 0.9 && !request_slice_ends.empty()) {
      std::vector<double> per_slice;
      size_t begin = 0;
      for (size_t end : request_slice_ends) {
        per_slice.push_back(
            Quantile(std::vector<double>(request_us.begin() + static_cast<std::ptrdiff_t>(begin),
                                         request_us.begin() + static_cast<std::ptrdiff_t>(end)),
                     q));
        begin = end;
      }
      return Median(per_slice);
    }
    return Quantile(request_us, q);
  }
  void Pin(const std::string& name, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    fingerprint.emplace_back(name, buf);
  }
  void Pin(const std::string& name, const std::string& value) {
    fingerprint.emplace_back(name, value);
  }
  /// Pins the deterministic program counters; realtime-tagged
  /// instruments are excluded by the registry's own tagging.
  void PinRegistry(const obs::MetricsRegistry& registry) {
    Pin("metrics_csv", obs::StripRealtimeRows(obs::MetricsToCsv(registry)));
  }
};

void Append(std::vector<double>* to, const std::vector<double>& from) {
  to->insert(to->end(), from.begin(), from.end());
}

/// Piece-by-piece minimum of two executions' wall times.
std::vector<double> Fastest(const std::vector<double>& a, const std::vector<double>& b) {
  std::vector<double> out = a;
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) out[i] = std::min(a[i], b[i]);
  return out;
}

/// A unit's wall times as the faster of two executions, piece by piece.
/// Besides slow spells, the host slows work down in bursts of a second
/// or so; two executions of a unit run seconds apart, so a burst rarely
/// hits the same piece in both. Everything else is taken from `first`,
/// and a piece `second` did not reach stays as it is.
UnitResult Fastest(const UnitResult& first, const UnitResult& second) {
  UnitResult out = first;
  out.setup_s = Fastest(first.setup_s, second.setup_s);
  out.speed_chunks_s = Fastest(first.speed_chunks_s, second.speed_chunks_s);
  out.request_us = Fastest(first.request_us, second.request_us);
  return out;
}

/// Sums counts and concatenates samples of several units.
UnitResult Merge(const std::vector<UnitResult>& units) {
  UnitResult total;
  for (const UnitResult& u : units) {
    Append(&total.setup_s, u.setup_s);
    total.speed_virtual_s += u.speed_virtual_s;
    Append(&total.speed_chunks_s, u.speed_chunks_s);
    total.unit_speeds.push_back(u.speed());
    Append(&total.request_us, u.request_us);
    total.unit_request_p99_us.push_back(u.RequestUs(0.99));
    total.request_samples += u.request_samples;
    Append(&total.turnaround_vs, u.turnaround_vs);
    Append(&total.makespan_vs, u.makespan_vs);
    if (!u.anchor) {
      Append(&total.jobs_per_vmin, u.jobs_per_vmin);
      Append(&total.sampled_turnaround_vs, u.turnaround_vs);
      Append(&total.sampled_makespan_vs, u.makespan_vs);
    }
    Append(&total.mem_planned_pct, u.mem_planned_pct);
    Append(&total.worker_start_vs, u.worker_start_vs);
    Append(&total.dirty_drain_p99, u.dirty_drain_p99);
    for (const auto& [name, value] : u.counters) total.counters[name] += value;
    total.sim_events += u.sim_events;
    total.spans_begun += u.spans_begun;
    total.checkpoint_writes += u.checkpoint_writes;
    total.checkpoint_bytes += u.checkpoint_bytes;
    total.heavy_checks += u.heavy_checks;
    total.violations += u.violations;
    total.job_instances += u.job_instances;
    total.job_backups += u.job_backups;
    total.job_failures += u.job_failures;
    total.job_workers += u.job_workers;
    total.app_instances += u.app_instances;
  }
  return total;
}

/// Counter differences over a measured span; histogram percentiles are
/// not differences and are dropped (units record the ones they use).
Counters CountersSince(const Counters& before, const Counters& after) {
  Counters out;
  for (const auto& [name, value] : after) {
    if (name.ends_with(".p50") || name.ends_with(".p99")) continue;
    out[name] = value - At(before, name);
  }
  return out;
}

double HistogramP99(const obs::MetricsRegistry& registry, const std::string& name) {
  auto it = registry.histograms().find(name);
  return it == registry.histograms().end() ? 0 : it->second->Percentile(99);
}

/// Output checks: each is one attempted operation; a failure is printed
/// by name and counted, and never stops the run.
struct Checks {
  int attempted = 0;
  int failed = 0;
  void Expect(const std::string& name, bool ok, const std::string& detail = "") {
    ++attempted;
    if (!ok) {
      ++failed;
      std::printf("check FAILED: %s %s\n", name.c_str(), detail.c_str());
    }
  }
};

/// A re-run of a unit must reproduce its first execution exactly (same
/// binary, same seed), up to where it stopped; any difference is a
/// determinism bug.
void CheckDeterminism(const std::string& unit, const UnitResult& first,
                      const UnitResult& rerun, Checks* checks) {
  std::string mismatch;
  if (rerun.partial ? rerun.fingerprint.size() > first.fingerprint.size()
                    : rerun.fingerprint.size() != first.fingerprint.size()) {
    mismatch = "fingerprint length differs";
  }
  for (size_t i = 0; i < rerun.fingerprint.size() && mismatch.empty(); ++i) {
    if (first.fingerprint[i] != rerun.fingerprint[i]) {
      mismatch = first.fingerprint[i].first + ": " + first.fingerprint[i].second +
                 " vs " + rerun.fingerprint[i].second;
    }
  }
  checks->Expect("determinism." + unit, mismatch.empty(), mismatch);
}

/// Peak resident set of this process.
double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// What one execution of a unit uses besides its seed: the run's host
/// meter, step statistics and a span log when the execution is traced
/// (null otherwise), the checks it reports to, and how far to run.
struct Exec {
  HostMeter* host = nullptr;
  StepStats* traced = nullptr;
  SpanLog* spans = nullptr;
  Checks* checks = nullptr;
  // Stop once the timed span is done (a re-run that only sharpens the
  // wall times); units whose timed span is the whole run ignore it.
  bool timed_span_only = false;
};

/// One unit of a workload.
struct Unit {
  std::string name;
  std::function<UnitResult(const Exec&)> run;
};

// Set-up takes 1-60 ms, so each unit times a few extra builds for the
// set-up median.
constexpr int kExtraSetups = 4;

/// Units in a run of `seconds`, at `unit_s` seconds an execution: the
/// first executions of all take half the run on an idle host, and the
/// re-runs most of the rest.
uint64_t UnitsFor(double seconds, double unit_s, uint64_t min_units) {
  return std::max<uint64_t>(min_units, static_cast<uint64_t>(0.5 * seconds / unit_s));
}

// ---------------------------------------------------------------------
// Workload: fig9_5k
// ---------------------------------------------------------------------

// The paper testbed (Figure 9): 5,000 machines in 100 racks of 50 and
// the bench ladder's 5k point of 1,000 concurrent synthetic jobs, no
// faults. Warm-up lets the queues deepen before the measured window.
// Each unit has its own cluster seed.
constexpr int kFig9Machines = 5000;
constexpr int kFig9Jobs = 1000;
constexpr double kFig9WarmupVs = 25;
constexpr double kFig9WindowVs = 50;
constexpr double kFig9SliceVs = 2;  // mem_planned_pct is sampled per slice
constexpr double kFig9UnitS = 10;   // one execution of a unit, here

runtime::SimClusterOptions Fig9Options(uint64_t seed) {
  runtime::SimClusterOptions options = bench::BenchClusterOptions(kFig9Machines);
  options.seed = seed;
  return options;
}

UnitResult RunFig9(uint64_t seed, const Exec& exec) {
  UnitResult out;
  const std::string name = "cluster_seed" + std::to_string(seed);
  uint32_t unit_span = exec.spans ? exec.spans->Begin(name) : 0;
  for (int i = 0; i < kExtraSetups; ++i) {
    out.setup_s.push_back(TimeIt(exec.host, [seed] {
      runtime::SimCluster cluster(Fig9Options(seed));
      cluster.Start();
      cluster.RunFor(2.0);
    }));
  }
  uint32_t setup_span = exec.spans ? exec.spans->Begin("setup", unit_span) : 0;
  std::unique_ptr<runtime::SimCluster> owned;
  out.setup_s.push_back(TimeIt(exec.host, [&owned, seed] {
    owned = std::make_unique<runtime::SimCluster>(Fig9Options(seed));
    owned->Start();
    owned->RunFor(2.0);
  }));
  runtime::SimCluster& cluster = *owned;
  if (exec.spans) exec.spans->End(setup_span);
  for (int m = 0; m < cluster.master_count(); ++m) {
    cluster.master(m)->EnableDecisionTiming(true);
  }

  bench::BenchScale scale;
  scale.machines = kFig9Machines;
  scale.concurrent_jobs = kFig9Jobs;
  bench::WorkloadDriver driver(&cluster, scale, seed);
  driver.Start();
  // Warm-up is stepped untimed and untraced in every execution; only the
  // window is timed and traced.
  uint32_t warmup_span = exec.spans ? exec.spans->Begin("warmup", unit_span) : 0;
  StepDriver(&cluster, exec.host, nullptr, nullptr).RunUntilTime(cluster.sim().Now() + kFig9WarmupVs);
  if (exec.spans) exec.spans->End(warmup_span);

  StepDriver stepper(&cluster, exec.host, exec.traced, exec.spans);
  stepper.set_chunks(&out.speed_chunks_s);
  uint32_t window_span = exec.spans ? exec.spans->Begin("window", unit_span) : 0;
  stepper.set_phase(window_span);
  const double window_start = cluster.sim().Now();
  const uint64_t events_before = cluster.sim().ExecutedEvents();
  const uint64_t spans_before = cluster.obs().trace.spans_begun();
  const uint64_t ckpt_writes_before = cluster.checkpoint().write_count();
  const uint64_t ckpt_bytes_before = cluster.checkpoint().bytes_written();
  const Counters counters_before = Snapshot(cluster.obs().metrics);
  master::FuxiMaster* primary = cluster.primary();
  FUXI_CHECK(primary != nullptr);
  const resource::Scheduler* scheduler = primary->scheduler();
  const size_t requests_before = primary->decision_micros().size();
  for (double slice_end = window_start + kFig9SliceVs;
       slice_end <= window_start + kFig9WindowVs + 1e-9; slice_end += kFig9SliceVs) {
    stepper.RunUntilTime(slice_end);
    out.request_slice_ends.push_back(primary->decision_micros().size() - requests_before);
    out.mem_planned_pct.push_back(
        100.0 * Ratio(static_cast<double>(scheduler->TotalGranted().memory()),
                      static_cast<double>(scheduler->TotalCapacity().memory())));
  }
  if (exec.spans) exec.spans->End(window_span);
  const double window_end = cluster.sim().Now();
  out.speed_virtual_s = window_end - window_start;
  const std::vector<double>& samples = primary->decision_micros();
  out.request_us.assign(samples.begin() + static_cast<std::ptrdiff_t>(requests_before),
                        samples.end());
  out.request_samples = out.request_us.size();

  for (const auto& app : driver.apps()) {
    const runtime::SyntheticApp::Stats& stats = app->stats();
    if (app->finished() && stats.finished_at > window_start &&
        stats.finished_at <= window_end) {
      out.turnaround_vs.push_back(stats.finished_at - stats.submitted_at);
    }
    out.app_instances += static_cast<double>(stats.instances_done);
    if (stats.worker_start_count > 0) {
      out.worker_start_vs.push_back(stats.worker_start_latency_sum /
                                    static_cast<double>(stats.worker_start_count));
    }
  }
  // A closed loop has no end: each job it finishes is a unit of work.
  out.makespan_vs = out.turnaround_vs;
  out.jobs_per_vmin.push_back(static_cast<double>(out.turnaround_vs.size()) /
                              ((window_end - window_start) / 60.0));
  out.counters = CountersSince(counters_before, Snapshot(cluster.obs().metrics));
  out.counters["master.requests"] = static_cast<double>(out.request_samples);
  out.dirty_drain_p99.push_back(HistogramP99(cluster.obs().metrics, "sched.dirty_drain_size"));
  out.sim_events = static_cast<double>(cluster.sim().ExecutedEvents() - events_before);
  out.spans_begun = static_cast<double>(cluster.obs().trace.spans_begun() - spans_before);
  out.checkpoint_writes =
      static_cast<double>(cluster.checkpoint().write_count() - ckpt_writes_before);
  out.checkpoint_bytes =
      static_cast<double>(cluster.checkpoint().bytes_written() - ckpt_bytes_before);

  exec.checks->Expect(name + ".scheduler_invariants", scheduler->CheckInvariants());
  exec.checks->Expect(name + ".granted_within_capacity",
                      scheduler->TotalGranted().FitsIn(scheduler->TotalCapacity()),
                      scheduler->TotalGranted().ToString() + " > " +
                          scheduler->TotalCapacity().ToString());
  out.Pin("window_events", out.sim_events);
  out.Pin("window_requests", static_cast<double>(out.request_samples));
  out.Pin("jobs_finished", static_cast<double>(out.turnaround_vs.size()));
  out.Pin("turnaround_sum_vs", Sum(out.turnaround_vs));
  out.Pin("mem_planned_sum", Sum(out.mem_planned_pct));
  out.Pin("window_end_vs", window_end);
  out.PinRegistry(cluster.obs().metrics);
  if (exec.spans) exec.spans->End(unit_span);
  return out;
}

// ---------------------------------------------------------------------
// Workload: sort_failover
// ---------------------------------------------------------------------

// Table 3's shape: 100 machines, one two-phase sort job of 2-core/12 GB
// units (bench_table3's job), the 5% fault mix and a primary kill 200 s
// after submission. Fault seed 2 is in every run: with the kill it hits
// a known failover defect (NOTES.md) that sets makespan_max_vs. About a
// fifth of other fault seeds hit a milder form of it, so the derived
// seeds are many enough to keep the medians on the common case.
constexpr int kSortMachines = 100;
constexpr double kSortFaultRatio = 0.05;
constexpr double kSortKillAfterVs = 200;
constexpr double kSortDeadlineVs = 30000;
// The wall-clock metrics cover the first 400 vs after submission: the
// kill, the failover and 200 vs of recovery. Every fault seed runs
// nearly the same events there (~345,000, within 0.3%); later, seeds
// differ widely (a few flood the master with small requests, and those
// with the failover defect idle), so the mix of seeds in a run would
// move the metrics more than the program does.
constexpr double kSortTimedSpanVs = 400;
constexpr uint64_t kSortAnchorFaultSeed = 2;
// Sizing: a fault seed takes 1.1-4 s here; the makespan medians need
// about ten seeds drawn from --seed, so a run has ~12 units and fewer
// re-runs than the other workloads.
constexpr double kSortUnitS = 1.1;

job::JobDescription SortJob() {
  job::JobDescription desc;
  desc.name = "fault-injection-sort";
  job::TaskConfig map;
  map.name = "map";
  map.instances = kSortMachines * 48;
  map.max_workers = kSortMachines * 4;
  map.unit = cluster::ResourceVector(200, 12 * 1024);
  map.instance_seconds = 40;
  map.backup_normal_seconds = 120;
  job::TaskConfig reduce;
  reduce.name = "reduce";
  reduce.instances = kSortMachines * 16;
  reduce.max_workers = kSortMachines * 4;
  reduce.unit = cluster::ResourceVector(200, 12 * 1024);
  reduce.instance_seconds = 60;
  reduce.backup_normal_seconds = 180;
  desc.tasks = {map, reduce};
  desc.pipes.push_back({"map", "reduce", ""});
  return desc;
}

/// The §5.4 injections, spread over the first part of the run, plus the
/// FuxiMaster kill (bench_table3's schedule).
void ScheduleSortFaults(runtime::SimCluster* cluster, uint64_t fault_seed) {
  trace::FaultPlan plan = trace::MakeFaultPlan(
      kSortFaultRatio, static_cast<size_t>(kSortMachines), fault_seed);
  double at = 30;
  for (MachineId m : plan.node_down) {
    cluster->sim().Schedule(at, [cluster, m] { cluster->HaltMachine(m); });
    at += 25;
  }
  for (MachineId m : plan.partial_worker_failure) {
    cluster->sim().Schedule(at, [cluster, m] {
      for (const agent::Process* p : cluster->host(m)->Alive()) {
        cluster->agent(m)->InjectWorkerCrash(p->id);
      }
      cluster->SetMachineHealth(m, 0.1);
    });
    at += 25;
  }
  for (MachineId m : plan.slow_machine) {
    cluster->sim().Schedule(at, [cluster, m] { cluster->SetMachineSlowdown(m, 3.0); });
    at += 10;
  }
  cluster->sim().Schedule(kSortKillAfterVs, [cluster] { cluster->KillPrimaryMaster(); });
}

UnitResult RunSortSeed(uint64_t fault_seed, const Exec& exec) {
  UnitResult out;
  const std::string name = "fault_seed" + std::to_string(fault_seed);
  uint32_t unit_span = exec.spans ? exec.spans->Begin(name) : 0;
  for (int i = 0; i < kExtraSetups; ++i) {
    out.setup_s.push_back(TimeIt(exec.host, [] {
      runtime::SimCluster cluster(bench::BenchClusterOptions(kSortMachines));
      job::JobRuntime runtime(&cluster);
      cluster.Start();
      cluster.RunFor(2.0);
    }));
  }
  std::unique_ptr<runtime::SimCluster> owned;
  std::unique_ptr<job::JobRuntime> runtime;
  out.setup_s.push_back(TimeIt(exec.host, [&owned, &runtime] {
    owned = std::make_unique<runtime::SimCluster>(bench::BenchClusterOptions(kSortMachines));
    runtime = std::make_unique<job::JobRuntime>(owned.get());
    owned->Start();
    owned->RunFor(2.0);
  }));
  runtime::SimCluster& cluster = *owned;
  for (int m = 0; m < cluster.master_count(); ++m) {
    cluster.master(m)->EnableDecisionTiming(true);
  }
  const Counters counters_before = Snapshot(cluster.obs().metrics);
  const uint64_t events_before = cluster.sim().ExecutedEvents();
  const uint64_t spans_before = cluster.obs().trace.spans_begun();
  const uint64_t ckpt_writes_before = cluster.checkpoint().write_count();
  const uint64_t ckpt_bytes_before = cluster.checkpoint().bytes_written();

  Result<job::JobMaster*> submitted = runtime->Submit(SortJob());
  FUXI_CHECK(submitted.ok()) << submitted.status();
  const job::JobMaster* job = *submitted;
  const double start = cluster.sim().Now();
  ScheduleSortFaults(&cluster, fault_seed);

  StepDriver stepper(&cluster, exec.host, exec.traced, exec.spans, job);
  stepper.set_phase(unit_span);
  if (exec.traced != nullptr) stepper.WatchFailover(start + kSortKillAfterVs);
  auto done_by = [&cluster, job](double until) {
    return [&cluster, job, until] { return job->finished() || cluster.sim().Now() >= until; };
  };
  stepper.set_chunks(&out.speed_chunks_s);
  stepper.RunUntil(done_by(start + kSortTimedSpanVs));
  out.speed_virtual_s = cluster.sim().Now() - start;
  for (int m = 0; m < cluster.master_count(); ++m) {
    Append(&out.request_us, cluster.master(m)->decision_micros());
  }
  out.request_samples = out.request_us.size();
  out.Pin("span_events", static_cast<double>(cluster.sim().ExecutedEvents() - events_before));
  out.Pin("span_requests", static_cast<double>(out.request_samples));
  if (exec.timed_span_only) {
    out.partial = true;
    if (exec.spans) exec.spans->End(unit_span);
    return out;
  }
  stepper.set_chunks(nullptr);
  stepper.RunUntil(done_by(start + kSortDeadlineVs));
  const double end = cluster.sim().Now();
  if (exec.spans) exec.spans->End(unit_span);

  const job::JobMaster::Stats& stats = job->stats();
  int64_t expected = 0;
  for (const job::TaskConfig& task : job->description().tasks) expected += task.instances;
  exec.checks->Expect(name + ".job_finished", job->finished());
  exec.checks->Expect(name + ".instances_done", stats.instances_done == expected,
                      std::to_string(stats.instances_done) + "/" + std::to_string(expected));
  const double makespan = (job->finished() ? stats.finished_at : end) - start;
  out.makespan_vs.push_back(makespan);
  out.turnaround_vs.push_back(makespan);
  out.jobs_per_vmin.push_back(job->finished() ? 60.0 / makespan : 0);
  out.anchor = fault_seed == kSortAnchorFaultSeed;

  out.counters = CountersSince(counters_before, Snapshot(cluster.obs().metrics));
  out.counters["master.requests"] = static_cast<double>(out.request_samples);
  out.dirty_drain_p99.push_back(HistogramP99(cluster.obs().metrics, "sched.dirty_drain_size"));
  out.sim_events = static_cast<double>(cluster.sim().ExecutedEvents() - events_before);
  out.spans_begun = static_cast<double>(cluster.obs().trace.spans_begun() - spans_before);
  out.checkpoint_writes =
      static_cast<double>(cluster.checkpoint().write_count() - ckpt_writes_before);
  out.checkpoint_bytes =
      static_cast<double>(cluster.checkpoint().bytes_written() - ckpt_bytes_before);
  out.job_instances = static_cast<double>(stats.instances_done);
  out.job_backups = static_cast<double>(stats.backups_launched);
  out.job_failures = static_cast<double>(stats.instance_failures);
  out.job_workers = static_cast<double>(stats.workers_started);
  if (stats.worker_start_count > 0) {
    out.worker_start_vs.push_back(stats.worker_start_latency_sum /
                                  static_cast<double>(stats.worker_start_count));
  }
  out.Pin("makespan_vs", makespan);
  out.Pin("instances_done", out.job_instances);
  out.Pin("backups", out.job_backups);
  out.Pin("failures", out.job_failures);
  out.Pin("events", out.sim_events);
  out.Pin("requests", static_cast<double>(out.request_samples));
  out.PinRegistry(cluster.obs().metrics);
  return out;
}

// ---------------------------------------------------------------------
// Layer probe: composed chaos campaigns
// ---------------------------------------------------------------------

// The shard router and directory, fair-share clamps, planner backfill
// and gangs, the wire codecs and the invariant monitor run only in a
// composed campaign: 4 shards over 200 machines, 32 apps of 2,000
// instances, a 6-leaf tenant tree, 2 planner gang apps, every message
// round-tripped through the wire codecs, the full fault battery
// (planner faults included) and the invariant monitor. Its wall-clock
// figures spread too widely on a shared host to bound a change against
// (NOTES.md), so it is not a workload: sort_failover's traced run also
// runs kProbeCampaigns of them, serially, and reports these layers'
// counters from them.
constexpr uint64_t kProbeCampaigns = 2;

chaos::CampaignConfig ComposedConfig() {
  chaos::CampaignConfig config = chaos::ShardedCampaignConfig(4);
  config.cluster.topology.racks = 10;
  config.cluster.topology.machines_per_rack = 20;
  config.apps = 32;
  config.instances_per_app = 2000;
  config.workers_per_app = 8;
  config.tenants = 6;
  config.planner_apps = 2;
  config.plan.planner_faults = true;
  config.cluster.network.serialize_on_send = true;
  return config;
}

/// Runs one composed campaign, checks that it is ok(), and returns its
/// counters.
UnitResult RunProbeCampaign(uint64_t campaign_seed, Checks* checks) {
  const chaos::CampaignResult result = chaos::RunCampaign(campaign_seed, ComposedConfig());
  checks->Expect("campaign" + std::to_string(campaign_seed) + ".ok", result.ok(),
                 result.ok() ? "" : chaos::FormatCampaignFailure(result));
  UnitResult out;
  out.counters = CountersSince({}, ParseMetricsCsv(result.metrics_csv));
  out.heavy_checks = static_cast<double>(result.heavy_checks);
  out.violations = static_cast<double>(result.violations.size());
  return out;
}

std::vector<Unit> MakeUnits(const std::string& workload, uint64_t seed, double seconds) {
  std::vector<Unit> units;
  if (workload == "fig9_5k") {
    const uint64_t count = UnitsFor(seconds, kFig9UnitS, 1);
    for (uint64_t s = count * seed; s < count * (seed + 1); ++s) {
      units.push_back({"cluster_seed" + std::to_string(s),
                       [s](const Exec& exec) { return RunFig9(s, exec); }});
    }
  } else {
    const uint64_t derived = UnitsFor(seconds, kSortUnitS, 3) - 2;  // seed 2 costs two
    std::vector<uint64_t> fault_seeds{kSortAnchorFaultSeed};
    for (uint64_t i = 0; i < derived; ++i) fault_seeds.push_back(3 + derived * seed + i);
    for (uint64_t fault_seed : fault_seeds) {
      units.push_back({"fault_seed" + std::to_string(fault_seed),
                       [fault_seed](const Exec& exec) {
                         return RunSortSeed(fault_seed, exec);
                       }});
    }
  }
  return units;
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, std::isfinite(value) ? value : 0, unit});
  }
  const std::vector<Metric>& all() const { return metrics_; }
  void Print(const char* heading) const {
    std::printf("%s\n", heading);
    for (const Metric& m : metrics_) {
      std::printf("  %-36s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }

 private:
  std::vector<Metric> metrics_;
};

/// End-to-end metrics over `work`: every unit, its wall times the
/// faster of its executions piece by piece, and scaled by `scale` to the
/// reference host speed.
MetricSet EndToEnd(const UnitResult& work, double scale, const Checks& checks) {
  MetricSet out;
  // The units of a workload (the fault seeds' timed spans) are nearly the
  // same work, and a burst of host load slows a whole one down, so
  // across units the fastest is taken. A p50 over the requests of every
  // unit moves little with a burst, so it pools them; a p99 is the
  // slowest 1%, which a burst fills, so it is the fastest unit's.
  out.Set("request_p50_us", scale * Quantile(work.request_us, 0.5), "us");
  out.Set("request_p99_us", scale * Quantile(work.unit_request_p99_us, 0), "us");
  out.Set("sim_speed", Quantile(work.unit_speeds, 1) / scale, "vs/s");
  out.Set("setup_s", scale * Median(work.setup_s), "s");
  out.Set("peak_rss_mb", PeakRssMb(), "MB");
  out.Set("jobs_per_vmin", Median(work.jobs_per_vmin), "jobs/vmin");
  out.Set("job_turnaround_p50_vs", Quantile(work.sampled_turnaround_vs, 0.5), "vs");
  out.Set("job_turnaround_p99_vs", Quantile(work.turnaround_vs, 0.99), "vs");
  out.Set("makespan_p50_vs", Quantile(work.sampled_makespan_vs, 0.5), "vs");
  out.Set("makespan_max_vs", Quantile(work.makespan_vs, 1.0), "vs");
  out.Set("success_ratio", 1.0 - Ratio(checks.failed, checks.attempted), "fraction");
  return out;
}

/// Per-layer metrics, named after the src/ modules: counts from `work`
/// and, for the layers only a composed campaign reaches, from `probe`
/// (empty without the layer probe), step timings (as measured) from the
/// traced execution, and the host meter's view.
MetricSet PerLayer(const UnitResult& work, const UnitResult& probe, const StepStats& steps,
                   const HostMeter& host, double untraced_speed, double traced_speed) {
  const Counters& c = work.counters;
  const Counters& p = probe.counters;
  MetricSet out;
  out.Set("host.kernel_ms", host.typical_s() * 1000.0, "ms");
  out.Set("host.scale", host.scale(), "ratio");
  // sim
  out.Set("sim.events", work.sim_events, "count");
  out.Set("sim.events_per_s",
          Ratio(static_cast<double>(steps.all_us.size()), steps.stepped_wall_s), "1/s");
  out.Set("sim.event_us_p50", Quantile(steps.all_us, 0.5), "us");
  out.Set("sim.event_us_p99", Quantile(steps.all_us, 0.99), "us");
  out.Set("sim.pending_max", static_cast<double>(steps.pending_max), "count");
  // net / wire
  out.Set("net.messages_sent", At(c, "net.messages_sent"), "count");
  out.Set("net.messages_delivered", At(c, "net.messages_delivered"), "count");
  out.Set("net.messages_dropped", At(c, "net.messages_dropped"), "count");
  out.Set("net.bytes_sent", At(c, "net.bytes_sent"), "bytes");
  out.Set("net.request_bytes_per_msg",
          Ratio(At(c, "net.bytes.master.RequestRpc"), At(c, "net.msgs.master.RequestRpc")),
          "bytes");
  out.Set("net.decode_drops", At(p, "net.decode_drops"), "count");
  // master
  out.Set("master.requests", At(c, "master.requests"), "count");
  out.Set("master.grant_units", At(c, "master.grant_units"), "count");
  out.Set("master.revoke_units", At(c, "master.revoke_units"), "count");
  out.Set("master.elections", At(c, "master.elections"), "count");
  out.Set("master.failover_gap_vs", Median(steps.failover_gap_vs), "vs");
  // resource
  out.Set("resource.schedule_passes", At(c, "sched.schedule_passes"), "count");
  out.Set("resource.passes_skipped", At(c, "sched.passes_skipped"), "count");
  const double negfit = At(c, "sched.negfit_cache_hits");
  out.Set("resource.negfit_hit_ratio",
          Ratio(negfit, negfit + At(c, "sched.negfit_cache_misses")), "fraction");
  const double machine_units = At(c, "sched.grant_units.machine");
  out.Set("resource.machine_local_ratio",
          Ratio(machine_units, machine_units + At(c, "sched.grant_units.rack") +
                                   At(c, "sched.grant_units.cluster")),
          "fraction");
  out.Set("resource.preempt_units", At(c, "sched.preempt_units"), "count");
  out.Set("resource.dirty_drain_p99", Median(work.dirty_drain_p99), "count");
  out.Set("resource.mem_planned_pct", Median(work.mem_planned_pct), "%");
  // fairshare / planner (probe)
  out.Set("fairshare.headroom_clamps", At(p, "fairshare.headroom_clamps"), "count");
  out.Set("fairshare.preempt_budget_denials", At(p, "fairshare.preempt_budget_denials"),
          "count");
  const double backfill = At(p, "planner.backfill_hits");
  out.Set("planner.backfill_hit_ratio",
          Ratio(backfill, backfill + At(p, "planner.backfill_misses")), "fraction");
  out.Set("planner.gang_aborts", At(p, "planner.gang_aborts"), "count");
  // agent / runtime / job
  const double started = At(c, "agent.workers_started");
  out.Set("agent.workers_started", started, "count");
  out.Set("agent.workers_killed",
          At(c, "agent.workers_killed_for_capacity") + At(c, "agent.workers_killed_for_overload"),
          "count");
  out.Set("runtime.reuse_ratio", Ratio(work.app_instances, started), "instances/worker");
  out.Set("runtime.worker_start_vs", Median(work.worker_start_vs), "vs");
  out.Set("job.instances_done", work.job_instances, "count");
  out.Set("job.backups_launched", work.job_backups, "count");
  out.Set("job.instance_failures", work.job_failures, "count");
  out.Set("job.reuse_ratio", Ratio(work.job_instances, work.job_workers), "instances/worker");
  // coord / shard / chaos / obs
  out.Set("coord.checkpoint_writes", work.checkpoint_writes, "count");
  out.Set("coord.checkpoint_bytes", work.checkpoint_bytes, "bytes");
  out.Set("shard.submits", At(p, "router.submits"), "count");
  out.Set("shard.spillovers", At(p, "router.spillovers"), "count");
  out.Set("shard.retries", At(p, "router.retries"), "count");
  out.Set("shard.directory_failovers", At(p, "router.directory_failovers"), "count");
  out.Set("chaos.heavy_checks", probe.heavy_checks, "count");
  out.Set("chaos.violations", probe.violations, "count");
  out.Set("obs.spans_begun", work.spans_begun, "count");
  out.Set("obs.spans_per_event", Ratio(work.spans_begun, work.sim_events), "spans/event");
  // Traced step classes: count, total and p50/p99 of each.
  double classified_us = 0;
  for (int k = 0; k < kClassCount; ++k) {
    const std::vector<double>& us = steps.class_us[k];
    const std::string name = kClassNames[k];
    classified_us += Sum(us);
    if (k == kRecover) {
      out.Set("master.recover_steps", static_cast<double>(us.size()), "count");
      out.Set("master.recover_wall_ms", Median(us) / 1000.0, "ms");
      continue;
    }
    out.Set(name + "_steps", static_cast<double>(us.size()), "count");
    out.Set(name + "_us_total", Sum(us), "us");
    out.Set(name + "_step_us_p50", Quantile(us, 0.5), "us");
    out.Set(name + "_step_us_p99", Quantile(us, 0.99), "us");
    if (k == kRequest) out.Set(name + "_step_us_p999", Quantile(us, 0.999), "us");
  }
  out.Set("trace.stepped_wall_s", steps.stepped_wall_s, "s");
  out.Set("trace.classified_share", Ratio(classified_us / 1e6, steps.stepped_wall_s),
          "fraction");
  out.Set("trace.sim_speed", traced_speed, "vs/s");
  out.Set("trace.untraced_sim_speed", untraced_speed, "vs/s");
  out.Set("trace.overhead_pct",
          traced_speed > 0 ? 100.0 * (untraced_speed / traced_speed - 1.0) : 0, "%");
  return out;
}

void PrintJson(const Checks& checks, const MetricSet& metrics) {
  std::string json = "{\"correct\": ";
  json += checks.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(checks.attempted);
  json += ", \"failed\": " + std::to_string(checks.failed);
  json += ", \"metrics\": {";
  bool comma = false;
  for (const Metric& m : metrics.all()) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += (comma ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
    comma = true;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload fig9_5k|sort_failover "
               "--seed N --seconds S --trace 0|1 [--out DIR]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kError);
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string out_dir = ".";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--out") {
      out_dir = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || seconds <= 0 || (trace != 0 && trace != 1) ||
      (workload != "fig9_5k" && workload != "sort_failover")) {
    return Usage(argv[0]);
  }

  const Clock::time_point run_start = Clock::now();
  const std::vector<Unit> units = MakeUnits(workload, seed, seconds);
  Checks checks;
  StepStats steps;
  SpanLog spans;
  HostMeter host;
  std::vector<UnitResult> first;
  std::vector<double> first_s;  // wall time of each first execution
  for (const Unit& unit : units) {
    Clock::time_point start = Clock::now();
    first.push_back(unit.run({&host, nullptr, nullptr, &checks}));
    first_s.push_back(SecondsSince(start));
  }
  // Then every unit runs again, from the last one backwards, so each
  // piece of wall time has two executions to take the faster of (see
  // Fastest). The last unit re-runs to the end; the others stop after
  // their timed span. Each re-run must reproduce its first execution.
  // With --trace 1 only the last unit re-runs: the traced execution,
  // right after its untraced twin, so the overhead figure compares runs
  // made under the same host load.
  std::vector<UnitResult> best = first;
  size_t reruns = 0;
  for (size_t i = 0; i < (trace == 1 ? 1 : units.size()); ++i, ++reruns) {
    const size_t k = units.size() - 1 - i;
    const bool traced = trace == 1;
    Checks rerun_checks;
    UnitResult rerun = units[k].run({&host, traced ? &steps : nullptr,
                                     traced ? &spans : nullptr, &rerun_checks, i > 0});
    if (rerun_checks.failed > 0) checks.Expect(units[k].name + ".rerun_checks", false);
    CheckDeterminism(units[k].name, first[k], rerun, &checks);
    if (traced) {
      steps.traced_speed = rerun.speed();
    } else {
      best[k] = Fastest(best[k], rerun);
    }
  }
  UnitResult probe;
  if (trace == 1 && workload == "sort_failover") {
    std::vector<UnitResult> campaigns;
    for (uint64_t s = 1 + kProbeCampaigns * seed; s <= kProbeCampaigns * (seed + 1); ++s) {
      campaigns.push_back(RunProbeCampaign(s, &checks));
    }
    probe = Merge(campaigns);
  }

  const UnitResult work = Merge(first);
  for (size_t k = 0; k < units.size(); ++k) {
    std::printf("unit %-16s first execution %6.2f s, timed span %6.3f s (fastest %6.3f s),"
                " requests p50 %.2f p99 %.2f us (fastest)\n",
                units[k].name.c_str(), first_s[k], Sum(first[k].speed_chunks_s),
                Sum(best[k].speed_chunks_s), best[k].RequestUs(0.5), best[k].RequestUs(0.99));
  }
  std::printf("workload=%s seed=%llu units=%zu executions=%zu trace=%d wall=%.1fs\n",
              workload.c_str(), static_cast<unsigned long long>(seed), units.size(),
              units.size() + reruns, trace, SecondsSince(run_start));
  std::printf("request samples in the measured spans: %llu\n",
              static_cast<unsigned long long>(work.request_samples));
  const MetricSet end_to_end = EndToEnd(Merge(best), host.scale(), checks);
  const MetricSet per_layer =
      PerLayer(work, probe, steps, host, trace == 1 ? first.back().speed() : 0, steps.traced_speed);
  end_to_end.Print("end-to-end:");
  per_layer.Print("per-layer:");
  if (trace == 1 && spans.size() > 0) {
    const std::string path = out_dir + "/spans-" + workload + ".csv";
    std::printf("spans: %zu written to %s\n", spans.size(),
                spans.Write(path) ? path.c_str() : "(write failed)");
  }
  PrintJson(checks, trace == 1 ? per_layer : end_to_end);
  return 0;
}
