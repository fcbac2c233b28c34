#!/usr/bin/env python3
"""Compare two result sets of the wall-clock benchmark (report only).

    python3 wallbench/compare.py BASE.jsonl [CHANGE.jsonl]

A result set is the .bench_out/results.jsonl that run.py appends to: one
JSON record per run with the workload, seed, trace flag and result.  For
every workload and metric of BENCHMARK.json the report gives each side's
median and quartiles (statistics.quantiles, n=4) and its spread, the
quartile distance as a share of the median.  With two sets it also gives
the share of pairs the change won (the i-th run of each side on a
workload, so record the runs alternating), the median move, and whether
that move exceeds the metric's bound.  fail_ratio is also read from the
failed and attempted counts of untraced runs.  It never fails a build: the exit
status is 0 whenever both files parse.
"""
import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    """{(workload, metric): [values in record order]}"""
    runs = defaultdict(list)
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            res = rec.get("result", rec)
            for name, m in res["metrics"].items():
                runs[(rec["workload"], name)].append(float(m["value"]))
            # An untraced run carries fail_ratio as failed / attempted.
            if "fail_ratio" not in res["metrics"] and res.get("attempted"):
                runs[(rec["workload"], "fail_ratio")].append(
                    res["failed"] / res["attempted"])
    return runs


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def spread(vals):
    q1, med, q3 = quartiles(vals)
    return (q3 - q1) / med if med else 0.0


def better(a, b, direction):
    """+1 when b beats a, -1 when a beats b, 0 on a tie."""
    if a == b:
        return 0
    return 1 if (b > a) == (direction == "higher") else -1


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["end_to_end"] + spec["per_layer"]
    base = load(argv[1])
    change = load(argv[2]) if len(argv) == 3 else None
    workloads = [w["name"] for w in spec["workloads"]]

    for w in workloads:
        rows = [m for m in metrics if (w, m["name"]) in base]
        if not rows:
            continue
        print(f"== {w}")
        for m in rows:
            name, bound = m["name"], m.get("bound")
            a = base[(w, name)]
            q1, med, q3 = quartiles(a)
            line = (f"  {name:44s} {med:12.5g} [{q1:.5g}, {q3:.5g}] "
                    f"spread {spread(a):6.1%}")
            if change is None:
                if bound is not None and spread(a) > bound / 3:
                    line += f"  spread > bound/3 ({bound / 3:.1%})"
                print(line + f"  n={len(a)}")
                continue
            b = change.get((w, name))
            if not b:
                print(line + "  (absent from change)")
                continue
            c1, cmed, c3 = quartiles(b)
            pairs = list(zip(a, b))
            wins = sum(1 for x, y in pairs if better(x, y, m["better"]) > 0)
            move = (cmed - med) / med if med else 0.0
            worse = move if m["better"] == "lower" else -move
            line += (f" -> {cmed:12.5g} [{c1:.5g}, {c3:.5g}] "
                     f"move {move:+7.1%}  won {wins}/{len(pairs)}")
            if bound is not None and worse > bound:
                line += f"  WORSE beyond bound {bound:.0%}"
            elif bound is not None and -worse > bound:
                line += f"  better beyond bound {bound:.0%}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
