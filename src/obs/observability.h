#ifndef FUXI_OBS_OBSERVABILITY_H_
#define FUXI_OBS_OBSERVABILITY_H_

#include "obs/audit.h"
#include "obs/metrics_registry.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace fuxi::obs {

struct ObsOptions {
  /// The one observability switch. When false the trace recorder
  /// begins no spans, the audit log commits nothing and the telemetry
  /// sampler never attaches; the metrics registry stays live. Either
  /// way the simulation itself is unchanged (the neutrality battery in
  /// tests/obs_neutrality_test.cc diffs replays with it on and off).
  bool enabled = true;
};

/// The per-cluster observability bundle: one trace recorder, one
/// decision audit log, one metrics registry, one telemetry sampler and
/// one SLO watchdog shared by every component of a SimCluster. Owned by
/// the cluster (constructed right after the Simulator, before the
/// network) so instruments outlive everything that points at them.
struct Observability {
  explicit Observability(sim::Simulator* sim, const ObsOptions& options = {})
      : trace(sim, options.enabled),
        audit(sim, &trace, AuditLog::kDefaultCapacity, options.enabled),
        telemetry(&metrics),
        watchdog(&trace, &audit) {
    // Every sample tick runs the watchdog's rules; with observability
    // off the sampler is never polled and the lambda never fires.
    telemetry.SetOnSample(
        [this](double now) { watchdog.Evaluate(telemetry, now); });
  }

  TraceRecorder trace;
  AuditLog audit;
  MetricsRegistry metrics;
  TelemetrySampler telemetry;
  SloWatchdog watchdog;
};

}  // namespace fuxi::obs

#endif  // FUXI_OBS_OBSERVABILITY_H_
