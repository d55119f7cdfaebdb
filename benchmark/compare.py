#!/usr/bin/env python3
"""Summarize and compare sets of sealdl-bench runs (standard library only).

A run set is a directory with one subdirectory per workload, each holding
one `*.out` file per run: the run's stdout, whose last line is the result
object (or the file `sealdl-bench --out` wrote).

  python3 benchmark/compare.py summarize RUNS [--commit SHA] [--seed N]
  python3 benchmark/compare.py compare PARENT_RUNS CHANGE_RUNS

Both commands first check the catalog: every emitted metric is declared in
BENCHMARK.json, every untraced run emits exactly the end-to-end metrics and
every traced run exactly the per-layer ones, and every declared per-layer
metric is measured (non-zero) by some workload's traced run.

compare applies the rule of the choosing-metrics guide per end-to-end
metric x workload, pairing run i of each side:
  * at least 10 pairs per workload, else the workload is reported;
  * "unresolved" when the parent's spread (interquartile range / median)
    exceeds the bound, unless every change run beats every parent run;
  * "regression" when the change's median is worse than the parent's by
    more than the bound (a share of the parent's median);
  * "gain" when the change wins at least 9/10 of the pairs (ties count for
    neither) and the medians differ by more than the parent's interquartile
    range; otherwise "ok".
Simulated metrics must read the same in every run of both sides. Any failed
op (failed / attempted > 0) on the change side is reported. The exit code is
1 when anything is reported, else 0.
"""

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Deterministic for any seed: a change in them is a change of the model.
SIMULATED = {"ipc_err_seal_d", "ipc_err_seal_c", "lat_err_seal_d", "lat_err_seal_c"}


def load_catalog(path):
    with open(path) as f:
        spec = json.load(f)
    return spec, {m["name"]: m for m in spec["end_to_end"]}, {
        m["name"]: m for m in spec["per_layer"]}


def load_runs(root):
    """{workload: [result, ...]} with results in file-name order."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(root, "*", "*.out"))):
        with open(path) as f:
            lines = [line for line in f.read().splitlines() if line.strip()]
        if not lines:
            raise SystemExit(f"{path}: empty run output")
        result = json.loads(lines[-1])
        result["_file"] = path
        runs.setdefault(os.path.basename(os.path.dirname(path)), []).append(result)
    return runs


def is_traced(result, end_to_end):
    """Untraced runs emit the end-to-end metrics, traced runs the per-layer."""
    return not set(result["metrics"]) & set(end_to_end)


def split(results, end_to_end):
    """(untraced runs, traced runs)."""
    return ([r for r in results if not is_traced(r, end_to_end)],
            [r for r in results if is_traced(r, end_to_end)])


def check_catalog(runs, end_to_end, per_layer):
    problems = []
    measured = set()
    for results in runs.values():
        for r in results:
            names = set(r["metrics"])
            catalog = per_layer if is_traced(r, end_to_end) else end_to_end
            for name in sorted(names - set(catalog)):
                problems.append(f"{r['_file']}: {name} is not declared")
            for name in sorted(set(catalog) - names):
                problems.append(f"{r['_file']}: declared {name} is not emitted")
            for name, metric in r["metrics"].items():
                if name in catalog and metric["unit"] != catalog[name]["unit"]:
                    problems.append(f"{r['_file']}: {name} unit {metric['unit']} "
                                    f"!= {catalog[name]['unit']}")
                if catalog is per_layer and metric["value"] != 0:
                    measured.add(name)
    if any(split(results, end_to_end)[1] for results in runs.values()):
        for name in sorted(set(per_layer) - measured):
            problems.append(f"per-layer {name} is 0 in every traced run")
    return problems


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def values_of(results, name):
    return [r["metrics"][name]["value"] for r in results]


def summarize(args):
    _, end_to_end, per_layer = load_catalog(args.benchmark)
    runs = load_runs(args.runs)
    problems = check_catalog(runs, end_to_end, per_layer)
    out = {"provenance": provenance(args), "workloads": {}}
    for workload, results in sorted(runs.items()):
        untraced, traced = split(results, end_to_end)
        entry = {
            "runs": len(untraced),
            "traced_runs": len(traced),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "all_correct": all(r["correct"] for r in results),
            "end_to_end": {},
            "per_layer": {},
        }
        for name, metric in end_to_end.items():
            values = values_of(untraced, name)
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            entry["end_to_end"][name] = {
                "unit": metric["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0,
                "bound": metric["bound"], "values": values}
        for name, metric in per_layer.items():
            values = values_of(traced, name)
            if values:
                entry["per_layer"][name] = {"unit": metric["unit"],
                                            "value": statistics.median(values)}
        out["workloads"][workload] = entry
    out["catalog_problems"] = problems
    json.dump(out, sys.stdout, indent=1)
    print()
    for problem in problems:
        print("catalog:", problem, file=sys.stderr)
    return 1 if problems else 0


def provenance(args):
    build = os.path.join(ROOT, ".bench_build")
    info = {"nproc": os.cpu_count(), "commit": args.commit, "seed": args.seed}
    cache = os.path.join(build, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    info["build_type"] = line.split("=", 1)[1].strip()
    for path in glob.glob(os.path.join(build, "CMakeFiles", "*", "CMakeCXXCompiler.cmake")):
        with open(path) as f:
            fields = dict(line.strip()[4:-1].split(" ", 1) for line in f
                          if line.startswith("set(CMAKE_CXX_COMPILER_ID ")
                          or line.startswith("set(CMAKE_CXX_COMPILER_VERSION "))
        info["compiler"] = " ".join(v.strip('"') for v in fields.values())
    return info


def verdict(parent, change, metric):
    lower = metric["better"] == "lower"
    better = (lambda c, p: c < p) if lower else (lambda c, p: c > p)
    bound = metric["bound"]
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    spread = (p_q3 - p_q1) / p_med if p_med else 0.0
    worse_by = ((c_med - p_med) if lower else (p_med - c_med)) / p_med if p_med else 0.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p))
    all_better = all(better(c, p) for c in change for p in parent)
    if spread > bound and not all_better:
        status = "unresolved"
    elif worse_by > bound:
        status = "regression"
    elif wins >= 0.9 * len(pairs) and abs(c_med - p_med) > p_q3 - p_q1:
        status = "gain"
    else:
        status = "ok"
    return status, p_med, c_med, spread, worse_by, wins, len(pairs)


def compare(args):
    spec, end_to_end, per_layer = load_catalog(args.benchmark)
    parent_runs, change_runs = load_runs(args.parent), load_runs(args.change)
    problems = check_catalog(parent_runs, end_to_end, per_layer)
    problems += check_catalog(change_runs, end_to_end, per_layer)
    workloads = [w["name"] for w in spec["workloads"]]
    print(f"{'workload':16} {'metric':15} {'status':12} {'parent':>12} "
          f"{'change':>12} {'spread':>7} {'worse':>7} wins")
    for workload in workloads:
        parent = split(parent_runs.get(workload, []), end_to_end)[0]
        change = split(change_runs.get(workload, []), end_to_end)[0]
        n = min(len(parent), len(change))
        if n < 10:
            problems.append(f"{workload}: {n} pairs, need at least 10")
            continue
        failed = sum(r["failed"] for r in change)
        if failed:
            attempted = sum(r["attempted"] for r in change)
            problems.append(f"{workload}: {failed}/{attempted} ops failed on the change")
        for name, metric in end_to_end.items():
            p, c = values_of(parent, name)[:n], values_of(change, name)[:n]
            if name in SIMULATED:
                status = "identical" if len(set(p + c)) == 1 else "changed"
                print(f"{workload:16} {name:15} {status:12} {p[0]:12.6g} {c[0]:12.6g}")
                if status != "identical":
                    problems.append(f"{workload}: simulated {name} differs between runs")
                continue
            status, p_med, c_med, spread, worse, wins, pairs = verdict(p, c, metric)
            print(f"{workload:16} {name:15} {status:12} {p_med:12.6g} {c_med:12.6g} "
                  f"{spread:7.3f} {worse:7.3f} {wins}/{pairs}")
            if status in ("unresolved", "regression"):
                problems.append(f"{workload}: {name} {status}")
    for problem in problems:
        print("problem:", problem)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    sub = parser.add_subparsers(dest="command", required=True)
    s = sub.add_parser("summarize", help="medians and quartiles of one run set")
    s.add_argument("runs")
    s.add_argument("--commit", default="")
    s.add_argument("--seed", default="")
    c = sub.add_parser("compare", help="parent run set vs change run set")
    c.add_argument("parent")
    c.add_argument("change")
    args = parser.parse_args()
    return summarize(args) if args.command == "summarize" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
