#!/usr/bin/env python3
"""Guard the incremental-scheduling fast path against perf regressions.

Compares a freshly generated Figure 9 report (bench_fig9_scheduling_time
--smoke/--ladder --json ...) against the checked-in baseline
bench/baselines/BENCH_fig9.json. Points are matched by cluster size;
p50 and p99 per-request scheduling times may not regress by more than
--threshold (default 2x). Sub-floor values (< --floor-ms) are treated as
equal: at tens of microseconds and below, a request's wall time is
dominated by host noise (scheduling, caches, frequency scaling), which
alone can move a percentile 2x between runs of the same binary, so a
2x ratio there is noise, not a regression.

Exit status: 0 OK, 1 regression, 2 usage/IO error.

Usage:
  scripts/check_fig9_regression.py CANDIDATE.json [BASELINE.json]
      [--threshold 2.0] [--floor-ms 0.02]
"""

import json
import os
import sys

DEFAULT_BASELINE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    os.pardir, "bench", "baselines", "BENCH_fig9.json")

METRICS = ("p50_ms", "p99_ms")


def load_points(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    except (OSError, ValueError) as err:
        print("check_fig9: cannot read %s: %s" % (path, err), file=sys.stderr)
        sys.exit(2)
    points = report.get("points")
    if not isinstance(points, list) or not points:
        print("check_fig9: %s has no points" % path, file=sys.stderr)
        sys.exit(2)
    return {int(p["machines"]): p for p in points}


def main(argv):
    threshold = 2.0
    floor_ms = 0.02
    paths = []
    i = 1
    while i < len(argv):
        arg = argv[i]
        if arg == "--threshold" and i + 1 < len(argv):
            threshold = float(argv[i + 1])
            i += 2
        elif arg == "--floor-ms" and i + 1 < len(argv):
            floor_ms = float(argv[i + 1])
            i += 2
        elif arg.startswith("--"):
            print(__doc__, file=sys.stderr)
            return 2
        else:
            paths.append(arg)
            i += 1
    if not paths or len(paths) > 2:
        print(__doc__, file=sys.stderr)
        return 2

    candidate_path = paths[0]
    baseline_path = paths[1] if len(paths) == 2 else DEFAULT_BASELINE
    candidate = load_points(candidate_path)
    baseline = load_points(baseline_path)

    compared = 0
    failures = []
    for machines, cand in sorted(candidate.items()):
        base = baseline.get(machines)
        if base is None:
            print("check_fig9: no baseline point for %d machines, skipping"
                  % machines)
            continue
        for metric in METRICS:
            cand_ms = float(cand[metric])
            base_ms = float(base[metric])
            compared += 1
            if cand_ms <= floor_ms and base_ms <= floor_ms:
                verdict = "ok (sub-floor)"
            elif cand_ms > max(base_ms, floor_ms) * threshold:
                verdict = "REGRESSION (>%.1fx)" % threshold
                failures.append((machines, metric, base_ms, cand_ms))
            else:
                verdict = "ok"
            print("  %5d machines %-7s baseline=%.4fms candidate=%.4fms %s"
                  % (machines, metric, base_ms, cand_ms, verdict))

    if compared == 0:
        print("check_fig9: no comparable points between %s and %s"
              % (candidate_path, baseline_path), file=sys.stderr)
        return 2
    if failures:
        print("check_fig9: FAIL — scheduling time regressed vs %s"
              % baseline_path, file=sys.stderr)
        return 1
    print("check_fig9: OK (%d comparisons, threshold %.1fx)"
          % (compared, threshold))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
