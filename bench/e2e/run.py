#!/usr/bin/env python3
"""Builds swdnn_bench from source and runs the end-to-end benchmark.

One workload, as the benchmark command:

    python3 bench/e2e/run.py --workload train_mesh --seed 1 --seconds 25 --trace 0

prints every metric with its unit and clock and, as the last line, the
result object {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 they are its per-layer metrics, and the run also writes
trace_<workload>.json. A per-layer metric of a layer the workload does
not exercise (metrics.json, "applies") reads 0.

Every workload, untraced then traced, each in its own process:

    python3 bench/e2e/run.py --all --seed 1 --seconds 25 --out BENCH_e2e.json

writes one run record, the input of compare.py.

Each pass runs pinned to one CPU, with one malloc arena, so that runs
on a shared host compare.

Run from anywhere inside a full checkout: the build goes to
.bench_build/e2e at the checkout root, trace files to .bench_build/e2e/out.
Without the library sources next to bench/e2e the build fails, and so
does the run, without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "e2e"
OUT = BUILD / "out"
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build():
    """Configures (once) and builds swdnn_bench; returns its path."""
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        # Build logs go to stderr: stdout carries the results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build failed: " + " ".join(cmd))
    return BUILD / "swdnn_bench"


def run_binary(binary, workload, seed, seconds, trace):
    """Runs one workload pass; returns the driver's JSON report."""
    OUT.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out-dir", str(OUT)]
    # One CPU per pass (swdnn_bench sizes its task pool to match). Each
    # simulator launch hands work across 64 CPE threads; spread over the
    # vCPUs of a shared host, those hand-offs made step times swing by
    # 10-20% between runs and grow two- to tenfold while the host was
    # busy, far more than on one CPU.
    cpu = max(os.sched_getaffinity(0))
    # One malloc arena: how many arenas glibc opens depends on which
    # threads happened to contend, and with it the peak RSS of a run.
    env = dict(os.environ, MALLOC_ARENA_MAX="1")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=env,
                              preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").splitlines()
    for line in lines[:-1]:
        print(line)
    # Exit 1 means a failed gate or operation, still with a report.
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError(f"{workload}: driver exited {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        raise BenchError(f"{workload}: no JSON report")


def applies(entry, workload):
    return entry["applies"] == "all" or workload in entry["applies"]


def select(report, declared, registry, workload):
    """The declared metrics, in order, as {name: value}."""
    known = set(registry)
    unknown = set(report["metrics"]) - known
    if unknown:
        raise BenchError(f"{workload}: undeclared metrics {sorted(unknown)}")
    values = {}
    for metric in declared:
        name = metric["name"]
        if name in report["metrics"]:
            values[name] = report["metrics"][name]
        elif not applies(registry[name], workload):
            values[name] = 0.0
        else:
            raise BenchError(f"{workload}: metric {name} missing")
    return values


def print_table(workload, values, declared, registry):
    units = {m["name"]: m["unit"] for m in declared}
    print(f"--- {workload}")
    for name, value in values.items():
        print(f"  {name:34s} {value:>16.6g} {units[name]:9s} "
              f"{registry[name]['clock']}")


def one_run(args, bench, registry):
    binary = build()
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    report = run_binary(binary, args.workload, args.seed, args.seconds,
                        args.trace)
    values = select(report, declared, registry, args.workload)
    print_table(args.workload, values, declared, registry)
    units = {m["name"]: m["unit"] for m in declared}
    print(json.dumps({
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))


def all_runs(args, bench, registry):
    binary = build()
    record = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in [w["name"] for w in bench["workloads"]]:
        entry = {}
        for trace, declared, key in ((0, bench["end_to_end"], "end_to_end"),
                                     (1, bench["per_layer"], "per_layer")):
            report = run_binary(binary, workload, args.seed, args.seconds,
                                trace)
            values = select(report, declared, registry, workload)
            print_table(workload, values, declared, registry)
            entry["machine"] = report["machine"]
            entry[key] = values
            entry["info" if trace == 0 else "trace_info"] = report["info"]
            entry["correct"] = entry.get("correct", True) and report["correct"]
            entry["attempted"] = entry.get("attempted", 0) + report["attempted"]
            entry["failed"] = entry.get("failed", 0) + report["failed"]
            entry.setdefault("failures", []).extend(report["failures"])
        ok = ok and entry["correct"] and entry["failed"] == 0
        record["workloads"][workload] = entry
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.out}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="every workload, both passes; writes --out")
    parser.add_argument("--out", default="BENCH_e2e.json")
    args = parser.parse_args()

    try:
        bench = load_json(ROOT / "BENCHMARK.json")
        registry = load_json(HERE / "metrics.json")["metrics"]
        if args.seconds is None:
            args.seconds = bench["run_seconds"]
        if args.all:
            return 0 if all_runs(args, bench, registry) else 1
        names = [w["name"] for w in bench["workloads"]]
        if args.workload not in names:
            parser.error(f"--workload must be one of {names}")
        one_run(args, bench, registry)
        return 0
    except (BenchError, OSError, KeyError, ValueError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
