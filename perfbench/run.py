#!/usr/bin/env python3
"""Benchmark of `creditfactors analyze` on seeded desk, long and loan-book inputs.

    python3 perfbench/run.py --workload long --seed 1 --seconds 55 --trace 0

Run from the repository root. Inputs are generated from the seed and written
to CSV before any timing starts. With --trace 0 the run reports the
end-to-end metrics (cold process, warm in-process call, import-only set-up,
peak memory); with --trace 1 it reports the per-layer metrics of a separate
traced pass. Human-readable lines come first; the last line of standard
output is one JSON object. See perfbench/README.md for the definitions.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import select
import shutil
import statistics
from statistics import median
import subprocess
import sys
import threading
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before numpy loads here or in any child

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

MIN_SAMPLES = 3       # cold samples per end-to-end run
SETUP_SAMPLES = 7     # import-only samples per end-to-end run, one per early round
MIN_TRACED = 2        # traced calls per trace run (the call counts must repeat)
IMPORTTIME_RUNS = 3
CLOSURE_TOL = 0.05    # traced self times must add up to the traced wall time
REPLY_TIMEOUT_S = 150  # a hung child is killed and counted as failed

END_TO_END_UNITS = {"analyze_s": "s", "analyze_warm_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MiB"}

SELF_TIMES = (
    "panel.read_loans_csv", "panel.aggregate_loans", "panel.read_yields_csv",
    "panel.to_spreads", "panel.read_panel_csv", "panel.write_panel_csv", "panel.align",
    "regress.ols", "regress.stepwise_aic", "regress.fit_table",
    "stattests.adf_test", "stattests.johansen_trace",
    "cca.cca_fit", "cca.wilks_lambda", "cca.redundancy", "cca.cross_loadings",
    "factor_model.augment_with_pc1", "factor_model.missing_factor_diagnostic",
    "tables.write_csv",
)
CALL_COUNTS = (
    "regress.ols", "regress.stepwise_aic", "stattests.adf_test",
    "stattests.johansen_trace", "factor_model.augment_with_pc1",
    "factor_model.residual_pc1", "tables.write_csv",
)
LIBRARY_LAYERS = ("panel", "stattests", "regress", "cca", "factor_model", "tables")


class BenchError(Exception):
    """The benchmark itself could not run (not a failure of the program)."""


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def environment():
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "page_cache": "never dropped: cold means a fresh interpreter, warm page cache",
    }


def timed_process(argv, log_path):
    """Run argv from spawn to exit; returns (exit code, wall s, peak RSS KiB, stderr)."""
    with open(log_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(REPLY_TIMEOUT_S, proc.kill)
        watchdog.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        watchdog.cancel()
    with open(log_path, errors="replace") as fh:
        return proc.returncode, wall, usage.ru_maxrss, fh.read()


def bundle_digest(path):
    """sha256 over the sorted file names and bytes of a bundle, file count, bytes."""
    h = hashlib.sha256()
    n_bytes = 0
    names = sorted(os.listdir(path))
    for name in names:
        with open(os.path.join(path, name), "rb") as fh:
            data = fh.read()
        n_bytes += len(data)
        h.update(name.encode() + b"\0" + str(len(data)).encode() + b"\0" + data)
    return h.hexdigest(), len(names), n_bytes


def check_bundle(path, expected_verdicts, expected_panel):
    """Problems with one bundle's content, as a list of strings (empty when fine)."""
    import numpy as np
    problems = []
    try:
        with open(os.path.join(path, "summary.md")) as fh:
            summary = fh.read()
        with open(os.path.join(path, "aligned_panel.csv")) as fh:
            rows = [ln.rstrip("\n").split(",") for ln in fh if not ln.startswith("#")]
    except OSError as exc:
        return [f"unreadable bundle file ({exc})"]
    verdicts = dict(re.findall(r"missing-factor verdict \(([^)]+)\): (\w+)", summary))
    if verdicts != expected_verdicts:
        problems.append(f"verdicts {verdicts} != expected {expected_verdicts}")
    names, values = expected_panel
    if rows[0][1:] != names:
        problems.append(f"aligned panel columns {rows[0][1:]} != {names}")
    else:
        got = np.array([[float(c) if c else np.nan for c in r[1:]] for r in rows[1:]])
        if got.shape != values.shape or not np.allclose(got, values, rtol=1e-9, atol=1e-9):
            problems.append("aligned panel values differ from the generated inputs")
    return problems


def import_times(stderr):
    """Cumulative import seconds from `-X importtime` output.

    cli: the whole `import creditfactors.cli` statement; cca: the cca module;
    numpy and scipy: every import subtree rooted at a module of that package
    whose parent is outside it.
    """
    entries = []  # (level, name, cumulative us, parent index)
    pending = []  # indices still waiting for their parent, innermost last
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if not m:
            continue
        level = (len(m.group(3)) - 1) // 2
        idx = len(entries)
        entries.append([level, m.group(4), int(m.group(2)), -1])
        while pending and entries[pending[-1]][0] > level:
            entries[pending.pop()][3] = idx
        pending.append(idx)

    def in_pkg(name, pkg):
        return name == pkg or name.startswith(pkg + ".")

    def cum(pred):
        return sum(e[2] for e in entries if pred(e)) / 1e6

    def subtrees(pkg):
        return cum(lambda e: in_pkg(e[1], pkg)
                   and not (e[3] >= 0 and in_pkg(entries[e[3]][1], pkg)))

    return {
        "cli.import_s": cum(lambda e: e[1] in ("creditfactors", "creditfactors.cli")
                            and e[3] == -1),
        "cca.import_s": cum(lambda e: e[1] == "creditfactors.cca"),
        "scipy.import_s": subtrees("scipy"),
        "numpy.import_s": subtrees("numpy"),
    }


class Worker:
    """A warm process that has imported creditfactors.cli; one request at a time."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
            text=True)

    def request(self, req):
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [], REPLY_TIMEOUT_S)
        if not ready:
            raise BenchError(f"worker gave no reply within {REPLY_TIMEOUT_S} s")
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self):
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()


class Run:
    """One benchmark run: inputs, reference bundle, and failure accounting."""

    def __init__(self, workload, seed):
        import inputs
        self.dir = os.path.join(WORK, workload)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.flags, self.expected_panel = inputs.generate(
            workload, seed, os.path.join(self.dir, "inputs"))
        self.expected_verdicts = inputs.EXPECTED_VERDICTS[workload]
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = None  # (sha256, files, bytes) of the first bundle
        self.reference_ok = False
        self._serial = 0

    def out_dir(self):
        self._serial += 1
        return os.path.join(self.dir, f"bundle{self._serial}")

    def argv(self, out):
        return ["analyze", *self.flags, "--out", out]

    def record(self, label, rc, stderr, out=None):
        """Count one attempted operation; check its exit, stderr and bundle."""
        self.attempted += 1
        problems = []
        if rc != 0:
            problems.append(f"exit code {rc}")
        if "Traceback" in stderr:
            problems.append("traceback on stderr")
        if out is not None and not problems:
            digest = bundle_digest(out)
            if self.reference is None:
                self.reference = digest
                problems += check_bundle(out, self.expected_verdicts, self.expected_panel)
                self.reference_ok = not problems
            elif digest != self.reference:
                problems.append("bundle bytes differ from the first bundle")
            elif not self.reference_ok:
                problems.append("same bytes as the first bundle, which failed its checks")
        if out is not None:
            shutil.rmtree(out, ignore_errors=True)
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: " + "; ".join(problems)
                                 + (f"\n{stderr.strip()}" if stderr.strip() else ""))

    def cold(self):
        out = self.out_dir()
        rc, wall, rss_kib, err = timed_process(
            [sys.executable, "-m", "creditfactors.cli", *self.argv(out)],
            os.path.join(self.dir, "cold.stderr"))
        self.record("cold analyze", rc, err, out)
        return wall, rss_kib / 1024.0

    def setup(self):
        rc, wall, _, err = timed_process(
            [sys.executable, "-c", "import creditfactors.cli"],
            os.path.join(self.dir, "setup.stderr"))
        self.record("import", rc, err)
        return wall

    def warm(self, worker, trace=False):
        out = self.out_dir()
        reply = worker.request({"argv": self.argv(out), "trace": trace})
        self.record("traced analyze" if trace else "warm analyze",
                    reply["rc"], reply["stderr"], out)
        return reply

    def importtime(self):
        log = os.path.join(self.dir, "importtime.stderr")
        rc, _, _, err = timed_process(
            [sys.executable, "-X", "importtime", "-c", "import creditfactors.cli"], log)
        self.record("import -X importtime", rc, "" if rc == 0 else err)
        return import_times(err)


def end_to_end(run, worker, seconds):
    warmup = run.warm(worker)       # the worker's warm-up analyze; untimed
    samples = {name: [] for name in END_TO_END_UNITS}
    deadline = time.perf_counter() + seconds

    def more(name):
        return time.perf_counter() < deadline or len(samples[name]) < MIN_SAMPLES

    while more("analyze_s"):
        if len(samples["setup_s"]) < SETUP_SAMPLES:
            samples["setup_s"].append(run.setup())
        wall, rss = run.cold()
        samples["analyze_s"].append(wall)
        samples["peak_rss_mb"].append(rss)
        # warm calls fill about half as long as the cold process took
        warm = samples["analyze_warm_s"]
        for _ in range(max(1, round(0.5 * wall / (warm[-1] if warm else warmup["wall_s"])))):
            if not more("analyze_warm_s"):
                break
            warm.append(run.warm(worker)["wall_s"])
    metrics = {name: {"value": median(v), "unit": END_TO_END_UNITS[name]}
               for name, v in samples.items()}
    return metrics, samples


def per_layer(run, worker, seconds):
    run.cold()
    run.warm(worker)
    deadline = time.perf_counter() + seconds
    imports = [run.importtime() for _ in range(IMPORTTIME_RUNS)]
    untraced, traced = [], []
    while time.perf_counter() < deadline or len(traced) < MIN_TRACED:
        untraced.append(run.warm(worker)["wall_s"])
        traced.append(run.warm(worker, trace=True))
    spans_path = os.path.join(run.dir, "spans.jsonl")
    worker.request({"dump": spans_path})

    # self-checks: exact call counts repeat; self times close on the wall time
    counts = [{name: f["calls"] for name, f in r["functions"].items()} for r in traced]
    if any(c != counts[0] for c in counts[1:]):
        run.problems.append("trace: call counts differ between traced runs")
    for r in traced:
        total = sum(f["self_s"] for f in r["functions"].values())
        if abs(total - r["wall_s"]) > CLOSURE_TOL * r["wall_s"]:
            run.problems.append(f"trace: self times sum to {total:.4f} s, "
                                f"traced wall is {r['wall_s']:.4f} s")

    def fn(reply, name, field):
        return reply["functions"].get(name, {}).get(field, 0)

    def med(value_of):
        return median([value_of(r) for r in traced])

    def layer_self(reply, layer):
        return sum(f["self_s"] for name, f in reply["functions"].items()
                   if name.startswith(layer + "."))

    first = traced[0]
    values = {}
    for key in imports[0]:
        values[key] = (median([imp[key] for imp in imports]), "s")
    for name in SELF_TIMES:
        values[f"{name}.self_s"] = (med(lambda r: fn(r, name, "self_s")), "s")
    for name in CALL_COUNTS:
        values[f"{name}.calls"] = (fn(first, name, "calls"), "count")
    values["regress.ols.failed"] = (fn(first, "regress.ols", "failed"), "count")
    c = first["counters"]
    values["regress.stepwise.accept_ratio"] = (
        c["accepted"] / c["candidates"] if c["candidates"] else 0.0, "ratio")

    def loans_per_s(r):
        ingest = (fn(r, "panel.read_loans_csv", "incl_s")
                  + fn(r, "panel.aggregate_loans", "incl_s"))
        return r["counters"]["loans"] / ingest if ingest else 0.0

    values["panel.loans_per_s"] = (med(loans_per_s), "1/s")
    for layer in LIBRARY_LAYERS:
        values[f"{layer}.self_s"] = (med(lambda r: layer_self(r, layer)), "s")
    values["cli.main.self_s"] = (med(lambda r: layer_self(r, "cli")), "s")
    _, n_files, n_bytes = run.reference or (None, 0, 0)
    values["cli.bundle_files"] = (n_files, "count")
    values["cli.bundle_bytes"] = (n_bytes, "bytes")
    values["trace.overhead_s"] = (
        median([r["wall_s"] - u for r, u in zip(traced, untraced)]), "s")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    return metrics, {"traced_wall_s": [r["wall_s"] for r in traced], "untraced_wall_s": untraced}


def print_report(workload, seed, env, run, metrics, samples):
    print(f"workload {workload} seed {seed}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        line = f"  {name:42s} {m['value']:>14.6g} {m['unit']}"
        if name in samples and isinstance(samples[name], list):
            lo, hi = quartiles(samples[name])
            line += f"  (median of {len(samples[name])}; quartiles {lo:.6g} .. {hi:.6g})"
        print(line)
    print(f"  {'fail_ratio':42s} {run.failed / run.attempted:>14.6g} ratio"
          f"  ({run.failed} of {run.attempted} runs failed)")
    sha, files, nbytes = run.reference or ("none", 0, 0)
    print(f"bundle sha256 {sha} ({files} files, {nbytes} bytes)")
    for problem in run.problems:
        print(f"FAILED {problem}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("desk", "long", "loanbook"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "creditfactors", "cli.py")):
        print(f"error: {SRC} does not hold the creditfactors package; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    worker = Worker()  # imports (and byte-compiles) the package while inputs are drawn
    try:
        run = Run(args.workload, args.seed)
        env = environment()
        if args.trace:
            metrics, samples = per_layer(run, worker, args.seconds)
        else:
            metrics, samples = end_to_end(run, worker, args.seconds)
    finally:
        worker.close()
    print_report(args.workload, args.seed, env, run, metrics, samples)
    result = {"correct": run.failed == 0 and not run.problems, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    with open(os.path.join(run.dir, "result.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "environment": env, "samples": samples, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
