#include "obs/telemetry.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/strings.h"

namespace fuxi::obs {

namespace {

constexpr std::string_view kSeriesKindNames[] = {
    "counter", "gauge", "derived", "percentile"};

constexpr std::string_view kRuleKindNames[] = {
    "threshold", "rate", "sustained"};

/// Format marker of the dump; TelemetryDumpFromJson refuses others.
constexpr int64_t kDumpVersion = 2;

}  // namespace

std::string_view TelemetrySeriesKindName(TelemetrySeries::Kind kind) {
  return kSeriesKindNames[static_cast<size_t>(kind)];
}

std::string_view SloRuleKindName(SloRuleKind kind) {
  return kRuleKindNames[static_cast<size_t>(kind)];
}

void TelemetrySeries::Append(int64_t tick, double value) {
  // The dump is JSON, which has no NaN or infinity: NaN is stored as 0
  // and infinities saturate at the largest finite double.
  constexpr double kMax = std::numeric_limits<double>::max();
  value = std::isnan(value) ? 0.0 : std::clamp(value, -kMax, kMax);
  if (count_ == 0) first_tick_ = tick;
  if (count_ < values_.size()) {
    values_[(head_ + count_) % values_.size()] = value;
    ++count_;
  } else {
    // Ring full: the newest value takes the oldest one's slot and the
    // retained window slides forward by one.
    values_[head_] = value;
    head_ = (head_ + 1) % values_.size();
    ++first_tick_;
  }
  ++total_;
}

std::vector<double> TelemetrySeries::Values() const {
  std::vector<double> out;
  out.reserve(count_);
  for (size_t i = 0; i < count_; ++i) out.push_back(At(i));
  return out;
}

bool TelemetrySeries::ValueAt(int64_t tick, double* out) const {
  if (count_ == 0 || tick < first_tick_ || tick > last_tick()) return false;
  *out = At(static_cast<size_t>(tick - first_tick_));
  return true;
}

TelemetrySeries& TelemetrySampler::Slot(const std::string& name,
                                        TelemetrySeries::Kind kind,
                                        bool realtime) {
  auto it = series_.find(name);
  if (it == series_.end()) {
    it = series_
             .emplace(name, TelemetrySeries(kind, kRingCapacity, realtime))
             .first;
  }
  return it->second;
}

void TelemetrySampler::SampleTick(int64_t tick) {
  for (const auto& [name, counter] : metrics_->counters()) {
    Slot(name, TelemetrySeries::Kind::kCounter, metrics_->is_realtime(name))
        .Append(tick, static_cast<double>(counter->value()));
  }
  for (const auto& [name, gauge] : metrics_->gauges()) {
    Slot(name, TelemetrySeries::Kind::kGauge, metrics_->is_realtime(name))
        .Append(tick, gauge->value());
  }
  for (const auto& [name, histogram] : metrics_->histograms()) {
    bool realtime = metrics_->is_realtime(name);
    Slot(name + ".p50", TelemetrySeries::Kind::kPercentile, realtime)
        .Append(tick, histogram->Percentile(50));
    Slot(name + ".p99", TelemetrySeries::Kind::kPercentile, realtime)
        .Append(tick, histogram->Percentile(99));
  }
  for (const auto& [name, probe] : probes_) {
    Slot(name, TelemetrySeries::Kind::kDerived, false)
        .Append(tick, probe());
  }
  for (auto& [name, last] : rates_) {
    auto it = metrics_->counters().find(name);
    uint64_t current = it == metrics_->counters().end()
                           ? 0
                           : it->second->value();
    // First sample has no baseline: report zero rather than the whole
    // warmup accumulation as one spike.
    double rate = total_rate_samples_ == 0
                      ? 0.0
                      : (static_cast<double>(current) -
                         static_cast<double>(last)) /
                            kInterval;
    last = current;
    Slot(name + ".rate", TelemetrySeries::Kind::kDerived,
         metrics_->is_realtime(name))
        .Append(tick, rate);
  }
  ++total_rate_samples_;
  if (on_sample_) on_sample_(TickTime(tick));
}

void SloWatchdog::Evaluate(const TelemetrySampler& sampler, double now) {
  for (size_t i = 0; i < rules_.size(); ++i) {
    const SloRule& rule = rules_[i];
    RuleState& state = states_[i];
    const TelemetrySeries* series = sampler.series(rule.series);
    if (series == nullptr || series->empty()) {
      state.breach_since = -1;
      continue;
    }
    double latest = series->Latest();
    switch (rule.kind) {
      case SloRuleKind::kThreshold: {
        bool breach = rule.above ? latest >= rule.threshold
                                 : latest <= rule.threshold;
        if (breach && now - state.last_fire >= rule.cooldown) {
          state.last_fire = now;
          Fire(rule, now, latest);
        }
        break;
      }
      case SloRuleKind::kRate: {
        constexpr double interval = TelemetrySampler::kInterval;
        int64_t lookback = rule.window > 0
                               ? std::max<int64_t>(
                                     1, std::llround(rule.window / interval))
                               : 1;
        double previous = 0;
        if (!series->ValueAt(series->last_tick() - lookback, &previous)) {
          break;  // not enough history yet
        }
        double rate = (latest - previous) /
                      (static_cast<double>(lookback) * interval);
        bool breach = rule.above ? rate >= rule.threshold
                                 : rate <= rule.threshold;
        if (breach && now - state.last_fire >= rule.cooldown) {
          state.last_fire = now;
          Fire(rule, now, rate);
        }
        break;
      }
      case SloRuleKind::kSustained: {
        bool breach = rule.above ? latest >= rule.threshold
                                 : latest <= rule.threshold;
        if (!breach) {
          state.breach_since = -1;
          break;
        }
        if (state.breach_since < 0) state.breach_since = now;
        if (now - state.breach_since >= rule.window &&
            now - state.last_fire >= rule.cooldown) {
          state.last_fire = now;
          Fire(rule, now, latest);
        }
        break;
      }
    }
  }
}

void SloWatchdog::Fire(const SloRule& rule, double now, double value) {
  if (events_.size() < max_events_) {
    events_.push_back(HealthEvent{now, rule.name, rule.series, value,
                                  rule.threshold, rule.detail});
  } else {
    ++events_dropped_;
  }
  if (trace_ != nullptr) {
    // rules_ is a deque, so rule.name's c_str() stays stable for the
    // flight recorder's interned pointer.
    uint64_t span = trace_->BeginSpan("health", rule.name.c_str());
    trace_->EndSpan(span);
  }
  if (audit_ != nullptr) {
    DecisionRecord record;
    record.kind = DecisionKind::kHealth;
    record.note = StrFormat("%s: %s=%.6g threshold=%.6g",
                            rule.name.c_str(), rule.series.c_str(), value,
                            rule.threshold);
    audit_->Commit(std::move(record));
  }
}

// --- export / import ---------------------------------------------------

Json TelemetryJson(const TelemetrySampler& sampler,
                   const SloWatchdog& watchdog, bool include_realtime) {
  Json doc = Json::MakeObject();
  doc["fuxi_telemetry"] = kDumpVersion;
  doc["interval"] = TelemetrySampler::kInterval;
  doc["samples"] = sampler.samples_taken();
  Json series = Json::MakeArray();
  for (const auto& [name, s] : sampler.all_series()) {
    if (!include_realtime && s.realtime()) continue;
    Json entry = Json::MakeObject();
    entry["name"] = name;
    entry["kind"] = std::string(TelemetrySeriesKindName(s.kind()));
    if (s.realtime()) entry["realtime"] = true;
    entry["first_tick"] = s.first_tick();
    entry["total"] = s.total_appended();
    Json values = Json::MakeArray();
    for (double v : s.Values()) values.Append(v);
    entry["values"] = std::move(values);
    series.Append(std::move(entry));
  }
  doc["series"] = std::move(series);
  Json events = Json::MakeArray();
  for (const HealthEvent& ev : watchdog.events()) {
    Json entry = Json::MakeObject();
    entry["t"] = ev.time;
    entry["rule"] = ev.rule;
    entry["series"] = ev.series;
    entry["value"] = ev.value;
    entry["threshold"] = ev.threshold;
    if (!ev.detail.empty()) entry["detail"] = ev.detail;
    events.Append(std::move(entry));
  }
  doc["events"] = std::move(events);
  doc["events_dropped"] = watchdog.events_dropped();
  return doc;
}

std::string ExportTelemetryJson(const TelemetrySampler& sampler,
                                const SloWatchdog& watchdog,
                                bool include_realtime) {
  return TelemetryJson(sampler, watchdog, include_realtime).Dump();
}

const TelemetryDump::Series* TelemetryDump::Find(
    const std::string& name) const {
  for (const Series& s : series) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

TelemetryDump TelemetryDumpFromJson(const Json& doc) {
  TelemetryDump dump;
  if (doc.GetInt("fuxi_telemetry", 0) != kDumpVersion) return dump;
  dump.interval = doc.GetNumber("interval", 1.0);
  dump.samples = doc.GetInt("samples", 0);
  dump.events_dropped = static_cast<uint64_t>(doc.GetInt("events_dropped", 0));
  if (const Json* series = doc.Find("series");
      series != nullptr && series->is_array()) {
    for (const Json& entry : series->as_array()) {
      TelemetryDump::Series s;
      s.name = entry.GetString("name", "");
      s.kind = entry.GetString("kind", "gauge");
      s.realtime = entry.GetBool("realtime", false);
      s.first_tick = entry.GetInt("first_tick", 0);
      s.total = static_cast<uint64_t>(entry.GetInt("total", 0));
      if (const Json* values = entry.Find("values");
          values != nullptr && values->is_array()) {
        s.values.reserve(values->as_array().size());
        for (const Json& v : values->as_array()) {
          s.values.push_back(v.is_number() ? v.as_number() : 0);
        }
      }
      dump.series.push_back(std::move(s));
    }
  }
  if (const Json* events = doc.Find("events");
      events != nullptr && events->is_array()) {
    for (const Json& entry : events->as_array()) {
      HealthEvent ev;
      ev.time = entry.GetNumber("t", 0);
      ev.rule = entry.GetString("rule", "");
      ev.series = entry.GetString("series", "");
      ev.value = entry.GetNumber("value", 0);
      ev.threshold = entry.GetNumber("threshold", 0);
      ev.detail = entry.GetString("detail", "");
      dump.events.push_back(std::move(ev));
    }
  }
  return dump;
}

}  // namespace fuxi::obs
