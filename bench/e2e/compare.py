#!/usr/bin/env python3
"""Compares two sets of BENCH_e2e.json run records (run.py --all).

    python3 bench/e2e/compare.py BASE... --vs HEAD...

Each argument is a record file or a directory of them. For every
workload x metric it prints the median and quartiles of both sets and a
verdict:

  sim / model / count clock: "identical" when every run of both sets
      reads the same value, else "CHANGED" (or "NONDETERMINISTIC" when
      runs within one set differ). These metrics are exact by design.
  wall clock: with bound b (BENCHMARK.json for end-to-end metrics, a
      nominal 10% for per-layer ones) and spread s, the larger of the
      two sets' quartile distances over their medians:
        s > b            -> "unresolved", unless every head run beats
                            (or loses to) every base run;
        worse by > b     -> "regressed";
        better by > b    -> "improved";
        otherwise        -> "unchanged".

Exit status 1 when an end-to-end metric regressed or an exact metric
changed, else 0. Standard library only.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
LAYER_BOUND = 0.10


def load_records(paths):
    records = []
    for p in map(Path, paths):
        files = sorted(p.glob("*.json")) if p.is_dir() else [p]
        for f in files:
            with open(f) as fh:
                records.append(json.load(fh))
    if not records:
        raise SystemExit(f"no run records in {paths}")
    return records


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values_of(records, workload, kind, name):
    out = []
    for r in records:
        w = r["workloads"].get(workload)
        if w is not None and name in w.get(kind, {}):
            out.append(float(w[kind][name]))
    return out


def verdict_exact(base, head):
    if len(set(base)) > 1 or len(set(head)) > 1:
        return "NONDETERMINISTIC"
    return "identical" if base[0] == head[0] else "CHANGED"


def verdict_wall(base, head, bound, better):
    sign = 1.0 if better == "lower" else -1.0
    b1, bm, b3 = quartiles(base)
    h1, hm, h3 = quartiles(head)
    if bm == 0 or hm == 0:
        return ("unchanged" if bm == hm else "unresolved"), 0.0
    worse = sign * (hm - bm) / abs(bm)
    spread = max((b3 - b1) / abs(bm), (h3 - h1) / abs(hm))
    if spread > bound:
        if all(sign * (h - b) < 0 for h in head for b in base):
            return "improved", worse
        if all(sign * (h - b) > 0 for h in head for b in base):
            return "regressed", worse
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    if worse < -bound:
        return "improved", worse
    return "unchanged", worse


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", nargs="+")
    parser.add_argument("--vs", nargs="+", required=True, dest="head")
    args = parser.parse_args()

    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    with open(HERE / "metrics.json") as f:
        registry = json.load(f)["metrics"]
    base = load_records(args.base)
    head = load_records(args.head)
    print(f"base: {len(base)} runs   head: {len(head)} runs")

    failed = False
    header = (f"{'metric':34s} {'clock':6s} {'base median [q1, q3]':>32s} "
              f"{'head median [q1, q3]':>32s} {'delta':>8s}  verdict")
    for workload in [w["name"] for w in bench["workloads"]]:
        print(f"\n=== {workload}")
        print(header)
        for kind, metrics in (("end_to_end", bench["end_to_end"]),
                              ("per_layer", bench["per_layer"])):
            for m in metrics:
                name = m["name"]
                b = values_of(base, workload, kind, name)
                h = values_of(head, workload, kind, name)
                if not b or not h:
                    print(f"{name:34s} missing")
                    failed = failed or kind == "end_to_end"
                    continue
                clock = registry[name]["clock"]
                if clock == "wall":
                    bound = m.get("bound", LAYER_BOUND)
                    verdict, worse = verdict_wall(b, h, bound, m["better"])
                    if kind == "end_to_end" and verdict == "regressed":
                        failed = True
                    delta = f"{100 * worse:+7.1f}%"
                else:
                    verdict = verdict_exact(b, h)
                    failed = failed or verdict != "identical"
                    delta = ""
                if kind == "per_layer" and clock == "wall":
                    verdict += " (nominal)"
                bq, hq = quartiles(b), quartiles(h)
                bs = f"{bq[1]:.5g} [{bq[0]:.4g}, {bq[2]:.4g}]"
                hs = f"{hq[1]:.5g} [{hq[0]:.4g}, {hq[2]:.4g}]"
                print(f"{name:34s} {clock:6s} {bs:>32s} {hs:>32s} "
                      f"{delta:>8s}  {verdict}")
    print("\nresult:", "FAIL" if failed else "ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
