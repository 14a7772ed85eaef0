"""Seeded input generators for the benchmark workloads.

Every workload draws the `synthgen` default preset (12 responses, 10 proxies,
3 proxied factors, no missing factor) and writes plain CSV files; the program
under test only ever sees those files.

Spread levels are integrated responses, level_t = c + s * cumsum(y - c), so
their first differences (what `analyze` regresses by default) follow the
factor model exactly and the diagnostic's verdict is known in advance:
`no_missing_factor` for every grouping.

The loan book stacks buckets into grade and term groups, and a stacked fit
assumes one slope vector per group. Its buckets therefore share the loading
row of the preset's first response and differ only in intercept and
idiosyncratic noise; with the preset's distinct rows the pooled residuals
carry the slope differences and the verdict flips between seeds.
"""

import os

import numpy as np

from creditfactors import synthgen

GRADES = ("A", "B", "C", "D", "E", "F")
TERMS = (36, 60)
YIELD_MATURITIES = (12, 36, 60, 120)

# name -> (periods, loans, first month, spread step scale); the loan book's small
# step keeps every generated loan rate positive
WORKLOADS = {
    "desk": (63, 0, (2000, 1), 1.0),
    "long": (1200, 0, (2000, 1), 1.0),
    "loanbook": (121, 50_000, (2007, 1), 0.05),
}

EXPECTED_VERDICTS = {
    "desk": {"responses": "no_missing_factor"},
    "long": {"responses": "no_missing_factor"},
    "loanbook": {"grades": "no_missing_factor", "terms": "no_missing_factor"},
}

LOAN_NOISE_SD = 0.25


def _month(start, t):
    idx = start[0] * 12 + start[1] - 1 + t
    return f"{idx // 12:04d}-{idx % 12 + 1:02d}"


def _write_panel(path, start, names, values):
    with open(path, "w") as fh:
        fh.write("date," + ",".join(names) + "\n")
        for t, row in enumerate(values):
            fh.write(_month(start, t) + "," + ",".join(repr(float(v)) for v in row) + "\n")


def _spread_levels(spec, ds, scale, common_loadings):
    if common_loadings:
        steps = ds.proxied_factors @ spec.proxied_loadings[0][:, None] + ds.idiosyncratic
    else:
        steps = ds.responses - spec.intercepts
    return spec.intercepts + scale * np.cumsum(steps, axis=0)


def _yields(rng, n_periods):
    """Smooth positive curve, one row per month and maturity."""
    t = np.arange(n_periods)
    cycle = 0.6 * np.sin(2 * np.pi * t / 48.0) + 0.02 * rng.standard_normal(n_periods)
    return {m: 1.5 + 0.015 * m + cycle for m in YIELD_MATURITIES}


def _write_loans(path, rng, n_loans, start, spreads, curve):
    """Loans spread uniformly over month x bucket cells, sorted by date.

    Returns the spread levels the program should rebuild from the file:
    per-cell mean of the written rates minus the matching written yield.
    """
    n_periods, n_buckets = spreads.shape
    month = np.sort(rng.integers(0, n_periods, n_loans), kind="stable")
    bucket = rng.integers(0, n_buckets, n_loans)
    day = rng.integers(1, 29, n_loans)
    term = np.array(TERMS)[bucket // len(GRADES)]
    base = np.where(term == TERMS[0], curve[TERMS[0]][month], curve[TERMS[1]][month])
    rate = base + spreads[month, bucket] + LOAN_NOISE_SD * rng.standard_normal(n_loans)
    rate_text = [f"{r:.2f}" for r in rate.tolist()]
    written = np.array(rate_text, dtype=float)
    if not written.min() > 0:
        raise RuntimeError(f"generated a non-positive loan rate ({written.min()})")
    months = [_month(start, t) for t in range(n_periods)]
    with open(path, "w") as fh:
        fh.write("date,rate,grade,term\n")
        fh.writelines(f"{months[t]}-{d:02d},{r},{GRADES[b % len(GRADES)]},{tm}\n"
                      for t, d, r, b, tm in zip(month.tolist(), day.tolist(), rate_text,
                                                bucket.tolist(), term.tolist()))
    cell = month * n_buckets + bucket
    sums = np.bincount(cell, weights=written, minlength=n_periods * n_buckets)
    counts = np.bincount(cell, minlength=n_periods * n_buckets)
    if not counts.all():
        raise RuntimeError("a month x bucket cell received no loans")
    means = (sums / counts).reshape(n_periods, n_buckets)
    yields = np.column_stack([curve[TERMS[b // len(GRADES)]] for b in range(n_buckets)])
    return means - yields


def generate(workload, seed, out_dir):
    """Write the workload's input CSVs under out_dir.

    Returns (CLI input flags, column names and values of the aligned panel
    `analyze` should build: differenced spreads next to the macro block).
    """
    n_periods, n_loans, start, scale = WORKLOADS[workload]
    spec = synthgen.default_spec(seed=seed, n_periods=n_periods)
    ds = synthgen.generate(spec)
    os.makedirs(out_dir, exist_ok=True)
    macro = os.path.join(out_dir, "macro.csv")
    z_names = [f"Z{j + 1}" for j in range(ds.proxies.shape[1])]
    _write_panel(macro, start, z_names, ds.proxies)
    levels = _spread_levels(spec, ds, scale, common_loadings=bool(n_loans))
    if not n_loans:
        spreads = os.path.join(out_dir, "spreads.csv")
        y_names = [f"Y{j + 1}" for j in range(levels.shape[1])]
        _write_panel(spreads, start, y_names, levels)
        flags = ["--spreads", spreads, "--macro", macro]
    else:
        # responses map to buckets term-major: 36-A..36-F, 60-A..60-F
        rng = np.random.default_rng([seed, 1])
        curve = {m: np.round(v, 4) for m, v in _yields(rng, n_periods).items()}
        yields = os.path.join(out_dir, "yields.csv")
        with open(yields, "w") as fh:
            fh.write("date,maturity_months,yield\n")
            for t in range(n_periods):
                for m in YIELD_MATURITIES:
                    fh.write(f"{_month(start, t)},{m},{curve[m][t]:.4f}\n")
        loans = os.path.join(out_dir, "loans.csv")
        levels = _write_loans(loans, rng, n_loans, start, levels, curve)
        y_names = [f"{t}-{g}" for t in TERMS for g in GRADES]
        flags = ["--loans", loans, "--yields", yields, "--macro", macro]
    aligned = np.hstack([np.diff(levels, axis=0), ds.proxies[1:]])
    return flags, (y_names + z_names, aligned)
