"""
Building a monthly spread panel from loan-level records
========================================================

Start from individual loan originations (month, term, grade, interest rate),
average them into per-bucket monthly rate series, subtract the maturity-matched
risk-free rate to get credit spreads, difference the levels, and align the
result with a macro series observed on a different calendar.

Everything below is synthetic and seeded, so the output is reproducible.
"""

import os
import tempfile

import numpy as np

import creditfactors as cf

rng = np.random.default_rng(42)

# ---------------------------------------------------------------------------
# 1. Loan records. Two terms, three grades, 24 months of originations.
#    Rates decompose as grade base + term premium + noise, in percent.
base = {"A": 7.0, "B": 10.5, "C": 13.0}
premium = {36: 0.0, 60: 1.2}

records = []
for m in range(24):
    month = cf.Month(2014, 1).plus(m)
    for term in (36, 60):
        for grade in ("A", "B", "C"):
            for _ in range(int(rng.integers(3, 9))):
                rate = base[grade] + premium[term] + rng.normal(0, 0.4)
                records.append(cf.LoanRecord(month=month, rate=rate,
                                             grade=grade, term=term))

print(f"{len(records)} loan records")

panel = cf.aggregate_loans(records)
print(f"aggregated: {panel.n_series} series x {panel.n_obs} months "
      f"({panel.start} .. {panel.end})")
print("series:", ", ".join(panel.names))
print()

# ---------------------------------------------------------------------------
# 2. Risk-free curve. One point per month at each maturity we borrow at.
curve = []
for m in range(24):
    month = cf.Month(2014, 1).plus(m)
    level = 1.0 + 0.02 * m
    curve.append(cf.YieldCurvePoint(month=month, maturity_months=36,
                                    yield_pct=level))
    curve.append(cf.YieldCurvePoint(month=month, maturity_months=60,
                                    yield_pct=level + 0.6))

spreads = cf.to_spreads(panel, curve)
print("spread levels, first month:")
for name in spreads.names:
    print(f"  {name}: {spreads.column(name)[0]:.3f}")
print()

# ---------------------------------------------------------------------------
# 3. First differences. One observation is lost at the front.
diffs = cf.first_difference(spreads)
print(f"differenced: {diffs.n_obs} months from {diffs.start}")

# ---------------------------------------------------------------------------
# 4. A quarterly macro series, interpolated to monthly and aligned with the
#    spread differences on the intersection of their calendars.
points = [(cf.Month(2014, 1).plus(3 * q), 50.0 + 2.0 * q) for q in range(9)]
macro = cf.interpolate_quarterly(points, name="activity_index")

combined = cf.align([diffs, macro])
print(f"aligned: {combined.n_series} series x {combined.n_obs} months, "
      f"complete={combined.is_complete()}")
print()

# ---------------------------------------------------------------------------
# 5. CSV round trip. Written values parse back to the same floats.
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "panel.csv")
    cf.write_panel_csv(combined, path, comment="demo panel")
    back = cf.read_panel_csv(path)
assert back.names == combined.names
assert np.array_equal(back.values, combined.values)
print("round trip through a panel CSV: exact")
