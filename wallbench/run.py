#!/usr/bin/env python3
"""Build the simulator from source and run one wall-clock benchmark workload.

    python3 wallbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds wallbench/ (and the library sources it
compiles) into $CARGO_TARGET_DIR/wallbench, default .bench_build/wallbench,
then runs the benchmark binary once.  Human-readable lines go first: every
metric the binary measured, by name and unit, plus the CPU affinity and
sample counts.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; metrics holds the end-to-end
metrics of BENCHMARK.json with --trace 0 and its per-layer metrics with
--trace 1.  Every result is also appended to .bench_out/results.jsonl for
compare.py.  Exits 1 when the build fails or a correctness check fails.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then build incrementally; output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", build_dir, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(HERE, os.pardir, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload!r}")
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_dir = os.path.abspath(os.path.join(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "wallbench"))
    t0 = time.monotonic()
    if not build(build_dir):
        log("build failed")
        return 1
    log(f"build: {time.monotonic() - t0:.1f} s")

    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [os.path.join(build_dir, "wallbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans",
                os.path.join(OUT_DIR, f"spans_{args.workload}.tsv")]
    # The workloads fix their own shard counts; a stray NEXUS_THREADS would
    # change climate_coupled, which leaves the choice to the environment.
    env = {k: v for k, v in os.environ.items() if k != "NEXUS_THREADS"}
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                          timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"benchmark binary exited {proc.returncode} without a result")
        return 1

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}")
    for k, v in sorted(res["info"].items()):
        print(f"  info {k} = {v}")
    for name, m in sorted(res["metrics"].items()):
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for msg in res["failures"]:
        print(f"  CHECK FAILED: {msg}")

    correct = bool(res["correct"]) and proc.returncode == 0
    metrics = {}
    for m in wanted:
        got = res["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            print(f"  missing metric {m['name']} [{m['unit']}]")
            correct = False
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    result = {"correct": correct, "attempted": int(res["attempted"]),
              "failed": int(res["failed"]), "metrics": metrics}
    with open(os.path.join(OUT_DIR, "results.jsonl"), "a") as f:
        f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                            "trace": args.trace, "info": res["info"],
                            "result": result}) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
