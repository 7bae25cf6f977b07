// Renders a fuxi telemetry dump (obs::TelemetryJson, e.g.
// fuxi_telemetry_seed<N>.json from bench_chaos_campaign) as an ASCII
// dashboard:
//
//   fuxi_dash dump.json                 # sparkline dashboard, all series
//   fuxi_dash dump.json --list          # series names, kinds, lengths
//   fuxi_dash dump.json --series NAME   # full tick-by-tick value table
//   fuxi_dash dump.json --events        # watchdog health-event timeline
//   fuxi_dash dump.json --csv           # long-form CSV of every sample
//   fuxi_dash dump.json --json          # decoded dump
//
// The dashboard shows, per series: kind, sample count, min/mean/max/
// latest over the retained window, and a sparkline of the values scaled
// to the series' own [min, max]. Series tagged realtime (wall-clock
// measurements) are marked with '~' — they vary run to run and are
// excluded from determinism comparisons. Health events render inline
// under the dashboard so a degradation signal is never off-screen.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "obs/telemetry.h"

namespace {

using fuxi::obs::TelemetryDump;

/// Eight-level ASCII ramp. Unicode block elements would be prettier but
/// plain ASCII survives every terminal and CI log viewer.
const char kRamp[] = " .:-=+*#@";

std::string Sparkline(const std::vector<double>& values, size_t width) {
  if (values.empty()) return "";
  double lo = values[0];
  double hi = values[0];
  for (double v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  // Downsample to `width` buckets, each showing its bucket max — spikes
  // must survive compression, troughs may not.
  size_t n = values.size();
  size_t cols = std::min(width, n);
  std::string out;
  out.reserve(cols);
  for (size_t c = 0; c < cols; ++c) {
    size_t begin = c * n / cols;
    size_t end = std::max(begin + 1, (c + 1) * n / cols);
    double bucket = values[begin];
    for (size_t i = begin + 1; i < end; ++i) {
      bucket = std::max(bucket, values[i]);
    }
    size_t level = 0;
    if (hi > lo) {
      level = static_cast<size_t>((bucket - lo) / (hi - lo) * 8.0 + 0.5);
      level = std::min<size_t>(level, 8);
    } else if (hi != 0) {
      level = 4;  // flat nonzero line at mid-ramp
    }
    out.push_back(kRamp[level]);
  }
  return out;
}

struct Extents {
  double lo = 0;
  double hi = 0;
  double mean = 0;
};

Extents SeriesExtents(const std::vector<double>& values) {
  Extents e;
  if (values.empty()) return e;
  e.lo = values[0];
  e.hi = values[0];
  double sum = 0;
  for (double v : values) {
    e.lo = std::min(e.lo, v);
    e.hi = std::max(e.hi, v);
    sum += v;
  }
  e.mean = sum / static_cast<double>(values.size());
  return e;
}

void PrintDashboard(const TelemetryDump& dump) {
  std::printf("fuxi telemetry: %lld samples @ %.3gs interval, %zu series\n",
              static_cast<long long>(dump.samples), dump.interval,
              dump.series.size());
  std::printf("%-44s %-10s %6s %12s %12s %12s  %s\n", "series", "kind",
              "n", "min", "max", "latest", "sparkline");
  for (const TelemetryDump::Series& s : dump.series) {
    Extents e = SeriesExtents(s.values);
    double latest = s.values.empty() ? 0 : s.values.back();
    std::string name = s.name;
    if (s.realtime) name += " ~";
    std::printf("%-44.44s %-10s %6zu %12.6g %12.6g %12.6g  |%s|\n",
                name.c_str(), s.kind.c_str(), s.values.size(), e.lo, e.hi,
                latest, Sparkline(s.values, 40).c_str());
  }
  if (!dump.events.empty() || dump.events_dropped > 0) {
    std::printf("\nwatchdog: %zu health events (%llu dropped)\n",
                dump.events.size(),
                static_cast<unsigned long long>(dump.events_dropped));
    for (const fuxi::obs::HealthEvent& ev : dump.events) {
      std::printf("  t=%-9.3f [%s] %s=%.6g threshold=%.6g%s%s\n", ev.time,
                  ev.rule.c_str(), ev.series.c_str(), ev.value, ev.threshold,
                  ev.detail.empty() ? "" : " -- ", ev.detail.c_str());
    }
  }
}

void PrintList(const TelemetryDump& dump) {
  for (const TelemetryDump::Series& s : dump.series) {
    std::printf("%-44s %-10s n=%-6zu total=%-8llu%s\n", s.name.c_str(),
                s.kind.c_str(), s.values.size(),
                static_cast<unsigned long long>(s.total),
                s.realtime ? " realtime" : "");
  }
}

int PrintSeries(const TelemetryDump& dump, const char* name) {
  const TelemetryDump::Series* s = dump.Find(name);
  if (s == nullptr) {
    std::fprintf(stderr, "fuxi_dash: no series named %s (try --list)\n",
                 name);
    return 1;
  }
  std::printf("%s (%s%s): %zu retained of %llu sampled\n", s->name.c_str(),
              s->kind.c_str(), s->realtime ? ", realtime" : "",
              s->values.size(), static_cast<unsigned long long>(s->total));
  std::printf("%8s %12s %16s\n", "tick", "t(s)", "value");
  for (size_t i = 0; i < s->values.size(); ++i) {
    int64_t tick = s->first_tick + static_cast<int64_t>(i);
    std::printf("%8lld %12.3f %16.6f\n", static_cast<long long>(tick),
                static_cast<double>(tick) * dump.interval, s->values[i]);
  }
  return 0;
}

void PrintEvents(const TelemetryDump& dump) {
  std::printf("time,rule,series,value,threshold,detail\n");
  for (const fuxi::obs::HealthEvent& ev : dump.events) {
    std::printf("%.6f,%s,%s,%.6g,%.6g,%s\n", ev.time, ev.rule.c_str(),
                ev.series.c_str(), ev.value, ev.threshold,
                ev.detail.c_str());
  }
  if (dump.events_dropped > 0) {
    std::fprintf(stderr, "fuxi_dash: %llu further events dropped at the "
                 "watchdog's ring cap\n",
                 static_cast<unsigned long long>(dump.events_dropped));
  }
}

/// Long-form CSV: one row per (series, tick) — trivially pivotable.
void PrintCsv(const TelemetryDump& dump) {
  std::printf("series,kind,realtime,tick,time,value\n");
  for (const TelemetryDump::Series& s : dump.series) {
    for (size_t i = 0; i < s.values.size(); ++i) {
      int64_t tick = s.first_tick + static_cast<int64_t>(i);
      std::printf("%s,%s,%d,%lld,%.6f,%.6f\n", s.name.c_str(),
                  s.kind.c_str(), s.realtime ? 1 : 0,
                  static_cast<long long>(tick),
                  static_cast<double>(tick) * dump.interval, s.values[i]);
    }
  }
}

/// Decoded JSON: the dump's series and events re-emitted in the layout
/// TelemetryDump holds — what a plotting notebook wants to ingest.
void PrintJson(const TelemetryDump& dump) {
  fuxi::Json doc = fuxi::Json::MakeObject();
  doc["fuxi_telemetry_decoded"] = fuxi::Json(int64_t{1});
  doc["interval"] = fuxi::Json(dump.interval);
  doc["samples"] = fuxi::Json(dump.samples);
  fuxi::Json series = fuxi::Json::MakeArray();
  for (const TelemetryDump::Series& s : dump.series) {
    fuxi::Json entry = fuxi::Json::MakeObject();
    entry["name"] = fuxi::Json(s.name);
    entry["kind"] = fuxi::Json(s.kind);
    if (s.realtime) entry["realtime"] = fuxi::Json(true);
    entry["first_tick"] = fuxi::Json(s.first_tick);
    entry["total"] = fuxi::Json(static_cast<int64_t>(s.total));
    fuxi::Json values = fuxi::Json::MakeArray();
    for (double v : s.values) values.Append(fuxi::Json(v));
    entry["values"] = std::move(values);
    series.Append(std::move(entry));
  }
  doc["series"] = std::move(series);
  fuxi::Json events = fuxi::Json::MakeArray();
  for (const fuxi::obs::HealthEvent& ev : dump.events) {
    fuxi::Json entry = fuxi::Json::MakeObject();
    entry["t"] = fuxi::Json(ev.time);
    entry["rule"] = fuxi::Json(ev.rule);
    entry["series"] = fuxi::Json(ev.series);
    entry["value"] = fuxi::Json(ev.value);
    entry["threshold"] = fuxi::Json(ev.threshold);
    if (!ev.detail.empty()) entry["detail"] = fuxi::Json(ev.detail);
    events.Append(std::move(entry));
  }
  doc["events"] = std::move(events);
  std::printf("%s\n", doc.Dump().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = nullptr;
  const char* series_name = nullptr;
  bool list = false;
  bool events = false;
  bool csv = false;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--list") == 0) {
      list = true;
    } else if (std::strcmp(argv[i], "--events") == 0) {
      events = true;
    } else if (std::strcmp(argv[i], "--csv") == 0) {
      csv = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--series") == 0 && i + 1 < argc) {
      series_name = argv[++i];
    } else if (argv[i][0] != '-' && path == nullptr) {
      path = argv[i];
    } else {
      std::fprintf(stderr,
                   "usage: %s <telemetry.json> [--list] [--series NAME] "
                   "[--events] [--csv] [--json]\n",
                   argv[0]);
      return 2;
    }
  }
  if (path == nullptr) {
    std::fprintf(stderr,
                 "usage: %s <telemetry.json> [--list] [--series NAME] "
                 "[--events] [--csv] [--json]\n",
                 argv[0]);
    return 2;
  }

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "fuxi_dash: cannot open %s\n", path);
    return 2;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  fuxi::Result<fuxi::Json> parsed = fuxi::Json::Parse(buffer.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "fuxi_dash: %s: %s\n", path,
                 parsed.status().message().c_str());
    return 2;
  }
  TelemetryDump dump = fuxi::obs::TelemetryDumpFromJson(parsed.value());
  if (dump.series.empty() && dump.samples == 0) {
    std::fprintf(stderr,
                 "fuxi_dash: %s is not a version-2 telemetry dump "
                 "(fuxi_telemetry marker) or sampled nothing\n",
                 path);
    return 1;
  }

  if (list) {
    PrintList(dump);
  } else if (series_name != nullptr) {
    return PrintSeries(dump, series_name);
  } else if (events) {
    PrintEvents(dump);
  } else if (csv) {
    PrintCsv(dump);
  } else if (json) {
    PrintJson(dump);
  } else {
    PrintDashboard(dump);
  }
  return 0;
}
