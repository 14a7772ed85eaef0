#!/usr/bin/env python3
"""Record the benchmark of a change in BENCH_<pr>.json.

    python3 scripts/bench_record.py --pr N --pairs 10 --compare PARENT_CHECKOUT

Run from the repository root. Every run is one `perfbench/run.py --trace 0`
process on one workload, `long` or `loanbook`, for the `run_seconds` of
BENCHMARK.json, so both sides run as long as the benchmark runs them. Each run
of this checkout is paired with a run of the parent checkout given by
--compare on the same seed, and the two alternate run by run (parent first in
even pairs, change first in odd ones), so both see the same drift of the host.
Pair i runs on seed 100 * N + 1 + i, so each change records on fresh seeds.
After the timed runs, one `--trace 1` run per workload and side records the
per-layer metrics, and `scripts/bundle_digests.py` prints the four reference
digests of each side.

The JSON holds, per workload, side and end-to-end metric, the median and
quartiles of the run medians and the runs themselves; the pairs the change won;
the failed-run counts; the BLAS thread count and the machine; whether the
children may write bytecode, and whether each side's src/creditfactors/__pycache__
existed before the runs; the per-layer metrics; and the digests. perfbench is
only imported and run, never modified.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run as perfbench  # noqa: E402  (perfbench/run.py; pins BLAS threads to 1)

WORKLOADS = ("long", "loanbook")


def perfbench_run(checkout, workload, seed, seconds, trace):
    """Metrics, failed count and correctness of one perfbench process in `checkout`."""
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} in {checkout} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    result = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return metrics, result["failed"], result["correct"]


def digests(checkout):
    """{reference name: sha256} from the checkout's scripts/bundle_digests.py."""
    proc = subprocess.run([sys.executable, os.path.join("scripts", "bundle_digests.py")],
                          cwd=checkout, capture_output=True, text=True, check=True)
    return {line.split()[0]: line.split()[1] for line in proc.stdout.splitlines()}


def summary(values):
    lo, hi = perfbench.quartiles(values)
    return {"median": statistics.median(values), "q1": lo, "q3": hi, "runs": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="number in BENCH_<pr>.json")
    parser.add_argument("--pairs", type=int, default=10, help="timed runs per workload and side")
    parser.add_argument("--compare", metavar="PARENT_CHECKOUT", required=True,
                        help="checkout of the parent commit to alternate with")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = float(json.load(fh)["run_seconds"])
    sides = {"change": ROOT, "parent": os.path.abspath(args.compare)}

    environment = perfbench.environment()
    # every perfbench child inherits this; when set, no bytecode is written, so each
    # cold process compiles src/ again unless __pycache__ was already there
    environment["PYTHONDONTWRITEBYTECODE"] = os.environ.get("PYTHONDONTWRITEBYTECODE")
    environment["src_pycache_before_runs"] = {
        side: os.path.isdir(os.path.join(path, "src", "creditfactors", "__pycache__"))
        for side, path in sides.items()}
    runs = {w: {side: [] for side in sides} for w in WORKLOADS}
    # a claim must also hold on seeds not used while the change was written
    seeds = [100 * args.pr + 1 + i for i in range(args.pairs)]
    for i, seed in enumerate(seeds):
        order = list(sides) if i % 2 else list(sides)[::-1]
        for workload in WORKLOADS:
            for side in order:
                runs[workload][side].append(
                    perfbench_run(sides[side], workload, seed, seconds, trace=0))
                m = runs[workload][side][-1][0]
                print(f"pair {i + 1}/{args.pairs} {workload:<8} {side:<6} "
                      f"analyze_s {m['analyze_s']:.3f} analyze_warm_s {m['analyze_warm_s']:.3f} "
                      f"peak_rss_mb {m['peak_rss_mb']:.2f}", flush=True)

    workloads = {}
    for workload, by_side in runs.items():
        entry = {"end_to_end": {}, "failed": {}, "correct": {}, "per_layer": {}}
        for name in perfbench.END_TO_END_UNITS:
            metric = {"unit": perfbench.END_TO_END_UNITS[name]}
            for side, results in by_side.items():
                metric[side] = summary([m[name] for m, _, _ in results])
            metric["change_wins"] = sum(
                c[0][name] < p[0][name] for c, p in zip(by_side["change"], by_side["parent"]))
            entry["end_to_end"][name] = metric
        for side, results in by_side.items():
            entry["failed"][side] = sum(f for _, f, _ in results)
            entry["correct"][side] = all(ok for _, _, ok in results)
            entry["per_layer"][side] = perfbench_run(
                sides[side], workload, seeds[0], seconds, trace=1)[0]
        workloads[workload] = entry

    record = {
        "pr": args.pr,
        "pairs": args.pairs,
        "seconds": seconds,
        "seeds": seeds,
        "order": "change and parent alternate run by run; parent first in even pairs",
        "environment": environment,
        "workloads": workloads,
        "digests": {side: digests(path) for side, path in sides.items()},
    }
    out = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
