"""Compare two result sets of the benchmark, one row per workload and metric.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the lines `run.py --out FILE` appended (untraced runs are
compared; traced runs are skipped).  A row gives each side's median and
quartiles over its runs and a verdict against the metric's bound in
BENCHMARK.json:

  regressed      the new median is worse than the base median by more
                 than the bound, and either both spreads are within the
                 bound or every new run is worse than every base run
  unresolved     a side's spread (quartile distance over median) exceeds
                 the bound, so a change within it cannot be told from noise,
                 unless every new run is better or every new run is worse
                 than every base run
  improved       the new side wins at least nine tenths of the runs paired
                 by seed (all cross pairs when seeds do not match) and the
                 medians differ by more than the base quartile distance
  within bound   none of the above

The exit code is 1 when any row regressed.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    """{(workload, metric): [(seed, value), ...]} of the untraced runs."""
    out = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            det = rec["details"]
            if det["trace"]:
                continue
            for name, m in rec["result"]["metrics"].items():
                out[(det["workload"], name)].append((det["seed"], m["value"]))
    return out


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q = statistics.quantiles(values, n=4)
    return med, q[0], q[2]


def spread(med, q1, q3):
    return (q3 - q1) / abs(med) if med else 0.0


def win_fraction(base, new, better):
    """Share of paired runs the new side wins; ties count for neither."""
    by_seed = dict(base)
    pairs = [(by_seed[s], v) for s, v in new if s in by_seed]
    if not pairs:
        pairs = [(b, v) for _, b in base for _, v in new]
    wins = sum(1 for b, v in pairs if (v < b if better == "lower" else v > b))
    return wins / len(pairs)


def verdict(base, new, better, bound):
    bvals = [v for _, v in base]
    nvals = [v for _, v in new]
    bm, bq1, bq3 = summary(bvals)
    nm, _, _ = summary(nvals)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (nm - bm) / abs(bm) if bm else 0.0
    if better == "lower":
        every_better = max(nvals) < min(bvals)
        every_worse = min(nvals) > max(bvals)
    else:
        every_better = min(nvals) > max(bvals)
        every_worse = max(nvals) < min(bvals)
    noisy = max(spread(*summary(bvals)), spread(*summary(nvals))) > bound
    if worse > bound and (every_worse or not noisy):
        return worse, "regressed"
    if noisy and not every_better:
        return worse, "unresolved"
    if (win_fraction(base, new, better) >= 0.9
            and sign * (bm - nm) > (bq3 - bq1)):
        return worse, "improved"
    return worse, "within bound"


def compare(base, new, spec):
    rows = []
    for m in spec["end_to_end"]:
        for wl in (w["name"] for w in spec["workloads"]):
            key = (wl, m["name"])
            if key not in base or key not in new:
                continue
            worse, what = verdict(base[key], new[key], m["better"], m["bound"])
            rows.append((wl, m["name"], summary([v for _, v in base[key]]),
                         len(base[key]), summary([v for _, v in new[key]]),
                         len(new[key]), worse, m["bound"], what))
    return rows


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(load(argv[0]), load(argv[1]), spec)
    print("%-11s %-12s %-34s %-34s %8s %6s  %s" % (
        "workload", "metric", "base median [q1, q3] (n)",
        "new median [q1, q3] (n)", "worse", "bound", "verdict"))
    for wl, name, b, bn, n, nn, worse, bound, what in rows:
        print("%-11s %-12s %-34s %-34s %+7.1f%% %5.0f%%  %s" % (
            wl, name, "%.4g [%.4g, %.4g] (%d)" % (b + (bn,)),
            "%.4g [%.4g, %.4g] (%d)" % (n + (nn,)), 100 * worse,
            100 * bound, what))
    return 1 if any(r[-1] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
