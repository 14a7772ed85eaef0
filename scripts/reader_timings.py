#!/usr/bin/env python3
"""Time the loan, yield and panel CSV readers on ten forms of the benchmark's inputs.

    python3 scripts/reader_timings.py
    python3 scripts/reader_timings.py --compare PARENT_CHECKOUT

Run from the repository root. The inputs come from
`perfbench/inputs.generate(..., seed=101)`: the `loanbook` loan and yield files
and `long`'s spreads. They are written as generated (plain), with every cell
quoted (`csv.QUOTE_ALL`), and in three odd forms that send a reader to its CSV
core: loans whose grades are padded (` D`), loans whose cells are separated by
`, `, and spreads with an empty cell in 2% or 40% of the rows.

Both checkouts' packages are loaded into this one process, each under a name
of its own, so that every read runs in the same interpreter and heap. In each
of ROUNDS (10) rounds every input is read READS (5) times by each checkout's
`creditfactors.panel`, the two taking turns read by read; which goes first
alternates from turn to turn and from round to round, so both see the same
drift of the host. A round keeps the median of each side's reads of each
input. The script prints, per input, the median and quartiles of the round
medians of each side, the change/parent ratio of the medians, and the rounds
the change won. It exits 1 if the two sides read any input to different
values. Inputs are written under a temporary directory that is removed
afterwards. perfbench is only imported, never modified. BLAS is pinned to one
thread.
"""

import argparse
import csv
import hashlib
import importlib
import importlib.util
import os
import statistics
import sys
import tempfile
import time

os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"  # before numpy loads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH_SEED = 101
ROUNDS = 10  # rounds per side, the same for both trees
READS = 5  # reads of each input per side and round
READERS = {"loans": "read_loans_csv", "yields": "read_yields_csv", "spreads": "read_panel_csv"}


def _rewrite(src, dst, cells):
    """dst: src's header, then cells(row) of each data row, written with ',' between cells."""
    with open(src, newline="") as fh:
        rows = list(csv.reader(fh))
    with open(dst, "w", newline="") as fh:
        fh.write(",".join(rows[0]) + "\n")
        fh.writelines(cells(row) + "\n" for row in rows[1:])


def _quoted(src, dst):
    with open(src, newline="") as fh:
        rows = list(csv.reader(fh))
    with open(dst, "w", newline="") as fh:
        csv.writer(fh, quoting=csv.QUOTE_ALL, lineterminator="\n").writerows(rows)


def _holes(share):
    """cells(row) that empties one value cell of a row with probability share (seeded)."""
    import numpy as np
    rng = np.random.default_rng([PERFBENCH_SEED, int(share * 100)])

    def cells(row):
        if rng.random() < share:
            row[1 + int(rng.integers(len(row) - 1))] = ""
        return ",".join(row)
    return cells


def write_inputs(work):
    """{input name: (kind, path)} of the ten inputs, written under work."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    import inputs  # perfbench/inputs.py
    paths = {}
    for workload in ("long", "loanbook"):
        flags, _ = inputs.generate(workload, PERFBENCH_SEED, os.path.join(work, workload))
        paths.update(zip(flags[::2], flags[1::2]))
    loans, yields, spreads = paths["--loans"], paths["--yields"], paths["--spreads"]
    made = {"plain loans": ("loans", loans), "plain yields": ("yields", yields),
            "plain spreads": ("spreads", spreads)}
    for kind, src in (("loans", loans), ("yields", yields), ("spreads", spreads)):
        made[f"quoted {kind}"] = (kind, os.path.join(work, f"quoted_{kind}.csv"))
        _quoted(src, made[f"quoted {kind}"][1])
    odd = {
        "loans, grades ' D'": ("loans", lambda row: ",".join(row[:2] + [" " + row[2]] + row[3:])),
        "loans, ', ' separators": ("loans", ", ".join),
        "spreads, 2% holey rows": ("spreads", _holes(0.02)),
        "spreads, 40% holey rows": ("spreads", _holes(0.40)),
    }
    for k, (name, (kind, cells)) in enumerate(odd.items()):
        made[name] = (kind, os.path.join(work, f"odd_{k}.csv"))
        _rewrite({"loans": loans, "spreads": spreads}[kind], made[name][1], cells)
    return made


def _digest(result):
    """A digest of a reader's result: the arrays of a LoanBook or panel, the yield points."""
    h = hashlib.sha256()
    if isinstance(result, list):
        h.update(repr([(str(p.month), p.maturity_months, p.yield_pct) for p in result]).encode())
    elif hasattr(result, "rates"):
        for col in (result.months, result.buckets, result.rates):
            h.update(col.tobytes())
    else:
        h.update(repr((str(result.start), result.names)).encode() + result.values.tobytes())
    return h.hexdigest()[:16]


def load_panel(checkout, name):
    """The checkout's creditfactors.panel, loaded as the package `name`."""
    package = os.path.join(checkout, "src", "creditfactors")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package, "__init__.py"), submodule_search_locations=[package])
    sys.modules[name] = module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.panel")


def timed(panels, made, flip):
    """{side: {input: (median seconds of its reads, digest of the result)}} of one round. The
    sides take turns read by read, the first side of each turn alternating from flip on."""
    times = {side: {name: [] for name in made} for side in panels}
    digests = {side: {} for side in panels}
    for name, (kind, path) in made.items():
        for k in range(READS):
            for side in (list(panels) if (k + flip) % 2 == 0 else list(panels)[::-1]):
                read = getattr(panels[side], READERS[kind])
                t0 = time.perf_counter()
                result = read(path)
                times[side][name].append(time.perf_counter() - t0)
                digests[side][name] = _digest(result)
    return {side: {name: (statistics.median(times[side][name]), digests[side][name])
                   for name in made} for side in panels}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", metavar="PARENT_CHECKOUT",
                        help="alternate rounds with the parent checkout and compare")
    args = parser.parse_args(argv)
    sides = {"change": ROOT}
    if args.compare:
        sides = {"parent": os.path.abspath(args.compare), **sides}
    panels = {side: load_panel(checkout, f"creditfactors_{side}")
              for side, checkout in sides.items()}
    runs = {side: [] for side in sides}
    with tempfile.TemporaryDirectory() as work:
        made = write_inputs(work)
        for r in range(ROUNDS):
            for side, run in timed(panels, made, r).items():
                runs[side].append(run)
    print(f"{ROUNDS} rounds of {READS} reads per input and side, "
          f"ms: median [q1, q3] of the round medians")
    differ = False
    for name in made:
        line = f"{name:<26}"
        for side in sides:
            q1, q2, q3 = (1e3 * t for t in statistics.quantiles(
                [run[name][0] for run in runs[side]], n=4, method="inclusive"))
            line += f" {side} {q2:7.2f} [{q1:7.2f}, {q3:7.2f}]"
        if args.compare:
            med = {side: statistics.median(run[name][0] for run in runs[side]) for side in sides}
            won = sum(c[name][0] < p[name][0] for p, c in zip(runs["parent"], runs["change"]))
            line += f"  ratio {med['change'] / med['parent']:.3f}  won {won}/{ROUNDS}"
        digests = {run[name][1] for side in sides for run in runs[side]}
        differ |= len(digests) > 1
        print(line + ("  READS DIFFER" if len(digests) > 1 else ""))
    if differ:
        print("the two sides read some input to different values")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
