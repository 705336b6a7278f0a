#!/usr/bin/env python3
"""Check committed perfbench ledgers against their own raw runs.

    python3 scripts/check_ledger.py bench/ledger/BENCH_*.json

A ledger (schema michican.perfbench.ledger.v1, ROADMAP item 6) records every
parent and change run of a hot-path change plus a summary derived from them.
This script recomputes the summary from `runs`, checks it against the
workloads and metrics BENCHMARK.json declares, and fails on any mismatch:

  - the schema string;
  - at least 10 pairs for every workload BENCHMARK.json lists, each holding
    one parent and one change run, with each side running first in half of
    the pairs;
  - a summary row for every end-to-end metric of every listed workload;
  - a claim that names only a workload and a metric BENCHMARK.json lists;
  - every run is correct and has no failed cells or checks;
  - every summary quartile (statistics.quantiles, n=4, inclusive) and the
    claim block's parent_iqr and median_gap within 1e-6, every pair count
    exactly, and median_change within 1e-4 (it may come from the rounded
    medians).

Exits 0 when every ledger passes, 1 otherwise, with one line per problem.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SCHEMA = "michican.perfbench.ledger.v1"
MIN_PAIRS = 10
TOL = 1e-6
TOL_CHANGE = 1e-4
SIDES = ("parent", "change")


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def close(a, b, tol):
    return abs(a - b) <= tol


def check(ledger, benchmark):
    """Returns the list of problems found in one parsed ledger."""
    problems = []
    workloads = [w["name"] for w in benchmark["workloads"]]
    end_to_end = [m["name"] for m in benchmark["end_to_end"]]
    declared = end_to_end + [m["name"] for m in benchmark["per_layer"]]
    if ledger.get("schema") != SCHEMA:
        problems.append(f"schema {ledger.get('schema')!r} != {SCHEMA!r}")

    # workload -> pair -> side -> run
    pairs = defaultdict(lambda: defaultdict(dict))
    for run in ledger.get("runs", []):
        where = f"{run['workload']} pair {run['pair']} {run['side']}"
        if run["side"] not in SIDES:
            problems.append(f"{where}: unknown side")
            continue
        if run["side"] in pairs[run["workload"]][run["pair"]]:
            problems.append(f"{where}: duplicate run")
        pairs[run["workload"]][run["pair"]][run["side"]] = run
        result = run["result"]
        if result.get("correct") is not True:
            problems.append(f"{where}: correct is not true")
        if result.get("failed") != 0:
            problems.append(f"{where}: failed = {result.get('failed')}")

    complete_pairs = {}
    for workload in [*workloads, *(w for w in pairs if w not in workloads)]:
        by_pair = pairs.get(workload, {})
        complete = [p for p in by_pair.values() if set(p) == set(SIDES)]
        complete_pairs[workload] = complete
        if len(complete) != len(by_pair):
            problems.append(f"{workload}: a pair lacks a parent or change run")
        if len(complete) < MIN_PAIRS:
            problems.append(f"{workload}: {len(complete)} pairs < {MIN_PAIRS}")
        for p in complete:
            if p["parent"]["ran_first"] == p["change"]["ran_first"]:
                problems.append(f"{workload} pair {p['parent']['pair']}: "
                                "exactly one side must run first")
        parent_first = sum(1 for p in complete if p["parent"]["ran_first"])
        if 2 * parent_first != len(complete):
            problems.append(f"{workload}: parent ran first in {parent_first} "
                            f"of {len(complete)} pairs, not half")

    summary = ledger.get("summary", {})
    for workload in pairs:
        if workload not in summary:
            problems.append(f"{workload}: no summary")
    for workload in workloads:
        for metric in end_to_end:
            if metric not in summary.get(workload, {}):
                problems.append(f"summary {workload}: no {metric} row")
    derived = {}
    for workload, metrics in summary.items():
        complete = complete_pairs.get(workload)
        if not complete:
            problems.append(f"summary {workload}: no runs")
            continue
        for metric, row in metrics.items():
            where = f"summary {workload} {metric}"
            if metric == "failed_cells_and_checks":
                for side in SIDES:
                    got = sum(p[side]["result"]["failed"] for p in complete)
                    if row.get(side) != got:
                        problems.append(f"{where} {side}: {row.get(side)} "
                                        f"!= {got}")
                continue
            values = {side: [p[side]["result"]["metrics"][metric]["value"]
                             for p in complete] for side in SIDES}
            q = {side: quartiles(values[side]) for side in SIDES}
            pairs_seen = list(zip(values["parent"], values["change"]))
            better = sum(cv < pv for pv, cv in pairs_seen)
            worse = sum(cv > pv for pv, cv in pairs_seen)
            derived[(workload, metric)] = (q, better, len(complete))
            for side in SIDES:
                key = f"{side}_q1_median_q3"
                want = row.get(key, [])
                if len(want) != 3 or not all(
                        close(a, b, TOL) for a, b in zip(want, q[side])):
                    problems.append(f"{where} {key}: {want} != "
                                    f"{[round(v, 6) for v in q[side]]}")
            change = (q["change"][1] - q["parent"][1]) / q["parent"][1]
            if not close(row.get("median_change", float("nan")), change,
                         TOL_CHANGE):
                problems.append(f"{where} median_change: "
                                f"{row.get('median_change')} != "
                                f"{round(change, 4)}")
            for key, got in (("change_better_pairs", better),
                             ("change_worse_pairs", worse)):
                if row.get(key) != got:
                    problems.append(f"{where} {key}: {row.get(key)} != {got}")

    claim = ledger.get("claim")
    if claim is not None:
        where = f"claim {claim.get('workload')} {claim.get('metric')}"
        found = derived.get((claim.get("workload"), claim.get("metric")))
        if claim.get("workload") not in workloads:
            problems.append(f"{where}: workload not in BENCHMARK.json")
        if claim.get("metric") not in declared:
            problems.append(f"{where}: metric not in BENCHMARK.json")
        if found is None:
            problems.append(f"{where}: no such summary row")
        else:
            q, better, n = found
            want = {
                "parent_iqr": q["parent"][2] - q["parent"][0],
                "median_gap": q["parent"][1] - q["change"][1],
            }
            for key, got in want.items():
                if not close(claim.get(key, float("nan")), got, TOL):
                    problems.append(f"{where} {key}: {claim.get(key)} != "
                                    f"{round(got, 6)}")
            for key, got in (("change_better_pairs", better), ("pairs", n)):
                if claim.get(key) != got:
                    problems.append(f"{where} {key}: {claim.get(key)} != "
                                    f"{got}")
    return problems


def main(paths):
    if not paths:
        print("usage: " + __doc__.strip().splitlines()[2].strip(),
              file=sys.stderr)
        return 2
    benchmark = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    failed = False
    for path in paths:
        with open(path, encoding="utf-8") as f:
            problems = check(json.load(f), benchmark)
        for problem in problems:
            print(f"{path}: {problem}")
        print(f"{path}: {'FAIL' if problems else 'ok'}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
