#!/usr/bin/env python3
"""Print the digests of the four reference `analyze` bundles.

    python3 scripts/bundle_digests.py
    python3 scripts/bundle_digests.py --compare PARENT_CHECKOUT

Run from the repository root. A change that must not alter the report bytes
should print the same four lines before and after it. `--compare` runs this
script in PARENT_CHECKOUT (a checkout of the commit before the change, whose
own copy of the script is used) and in this checkout, prints both sides'
digests, and exits 1 if any digest differs. Each digest is perfbench's sha256
over the sorted file names and bytes of one bundle:

- desk: the `default` preset, seed 0, T=63;
- missing_factor: the `missing_factor` preset, seed 7, `--factors 2`;
- long and loanbook: `perfbench/inputs.generate(..., seed=101)`.

Inputs and bundles are written under a temporary directory that is removed
afterwards. perfbench is only imported, never modified.
"""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import inputs  # noqa: E402  (perfbench/inputs.py)
from run import bundle_digest  # noqa: E402  (perfbench/run.py; pins BLAS threads to 1)

from creditfactors import cli  # noqa: E402

PERFBENCH_SEED = 101
SPECS = {
    "desk": ({"preset": "default", "seed": 0, "n_periods": 63}, []),
    "missing_factor": ({"preset": "missing_factor", "seed": 7}, ["--factors", "2"]),
}


def _cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"creditfactors {' '.join(argv)} exited {rc}")


def _simulated_flags(work, spec, extra):
    spec_path = os.path.join(work, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    sim = os.path.join(work, "sim")
    _cli(["simulate", "--spec", spec_path, "--out", sim])
    return ["--spreads", os.path.join(sim, "responses.csv"),
            "--macro", os.path.join(sim, "proxies.csv"), *extra]


def _printed(checkout):
    """{reference name: printed line} from the checkout's own scripts/bundle_digests.py."""
    if not os.path.isfile(os.path.join(checkout, "scripts", "bundle_digests.py")):
        raise SystemExit(f"{checkout}: no scripts/bundle_digests.py to run")
    proc = subprocess.run([sys.executable, os.path.join("scripts", "bundle_digests.py")],
                          cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: scripts/bundle_digests.py exited {proc.returncode}\n"
                         f"{proc.stderr.strip()}")
    return {line.split()[0]: line for line in proc.stdout.splitlines()}


def compare(parent) -> int:
    sides = {"parent": _printed(os.path.abspath(parent)), "change": _printed(ROOT)}
    for side, lines in sides.items():
        print(f"{side}:")
        print("\n".join(f"  {line}" for line in lines.values()))
    digest = {side: {name: line.split()[1] for name, line in lines.items()}
              for side, lines in sides.items()}
    differ = sorted(name for name in set(digest["parent"]) | set(digest["change"])
                    if digest["parent"].get(name) != digest["change"].get(name))
    print(f"differ: {', '.join(differ)}" if differ else "all digests match")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", metavar="PARENT_CHECKOUT",
                        help="print the parent checkout's digests next to these; "
                             "exit 1 if any differs")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(args.compare)
    with tempfile.TemporaryDirectory() as tmp:
        for name in (*SPECS, "long", "loanbook"):
            work = os.path.join(tmp, name)
            os.makedirs(work)
            if name in SPECS:
                flags = _simulated_flags(work, *SPECS[name])
            else:
                flags, _ = inputs.generate(name, PERFBENCH_SEED, os.path.join(work, "inputs"))
            out = os.path.join(work, "bundle")
            _cli(["analyze", *flags, "--out", out])
            digest, files, n_bytes = bundle_digest(out)
            print(f"{name:<15} {digest} ({files} files, {n_bytes} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
