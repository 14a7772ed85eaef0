"""The analysis does not depend on the units, levels, order or dates of its inputs.

Seeded desk panels (synthgen's default spec, seed 0, T=63) go through
`creditfactors analyze` as drawn and transformed, and the bundles are compared
file by file: byte for byte where a file cannot depend on the change, and cell
by cell where it can, so each test names exactly the cells that may change.
Full-precision numbers recomputed from changed input (`factor_scores.csv`, and
the differenced spreads in `aligned_panel.csv`) are compared to a tolerance.

The unit-root and cointegration statistics are checked the same way at the
library level and through `creditfactors johansen`, and no solver may write
into its inputs.
"""

import contextlib
import csv
import io
import re

import numpy as np
import pytest

import creditfactors as cf
from creditfactors import synthgen
from creditfactors.cli import main

DESK = synthgen.generate(synthgen.default_spec(seed=0, n_periods=63))
START = cf.Month(2000, 1)
Y_NAMES = tuple(f"Y{j + 1}" for j in range(DESK.responses.shape[1]))
Z_NAMES = tuple(f"Z{j + 1}" for j in range(DESK.proxies.shape[1]))
OLS_TABLES = ("ols_full_responses.csv", "ols_stepwise_responses.csv", "ols_pc1_responses.csv")
MONTH = re.compile(r"(?<![\d.])(\d{4})-(\d{2})(?!\d)")


def write_panel(path, names, values, start=START):
    cf.write_panel_csv(cf.AlignedPanel(start, names, values), path)
    return path


def analyze(work, Y=DESK.responses, Z=DESK.proxies, y_names=Y_NAMES, z_names=Z_NAMES,
            start=START):
    """Run analyze on the two panels under `work`; {file name: bytes} of its bundle."""
    work.mkdir(exist_ok=True)
    spreads = write_panel(work / "spreads.csv", y_names, Y, start)
    macro = write_panel(work / "macro.csv", z_names, Z, start)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["analyze", "--spreads", str(spreads), "--macro", str(macro),
                     "--out", str(work / "rep")]) == 0
    return {path.name: path.read_bytes() for path in sorted((work / "rep").iterdir())}


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    return analyze(tmp_path_factory.mktemp("desk"))


def cells(data: bytes) -> dict:
    """{(row label, column): text} of a bundle CSV; '#' lines are keyed ('#', i).

    A row with an empty label (a t-statistic row) is labelled '<above> t'.
    """
    lines = data.decode().splitlines()
    out = {("#", i): line for i, line in enumerate(lines) if line.startswith("#")}
    header, *rows = csv.reader(line for line in lines if not line.startswith("#"))
    label = None
    for row in rows:
        label = row[0] or f"{label} t"
        out.update(((label, column), text) for column, text in zip(header[1:], row[1:]))
    return out


def changed_cells(before: bytes, after: bytes) -> set:
    a, b = cells(before), cells(after)
    assert a.keys() == b.keys()
    return {key for key in a if a[key] != b[key]}


def assert_panels_close(before: bytes, after: bytes, atol):
    a, b = cells(before), cells(after)
    assert a.keys() == b.keys()
    for key in a:
        if key[0] != "#":
            assert float(b[key]) == pytest.approx(float(a[key]), rel=0, abs=atol), key


def assert_only_these_change(before, after, may_change, atol, close=()):
    """Every file is byte-identical except the cells may_change[file](row, column) allows.

    factor_scores.csv and the panels in close, full-precision numbers
    recomputed from the changed input, must agree to atol instead.
    """
    assert after.keys() == before.keys()
    for name in before:
        if name in close or name == "factor_scores.csv":
            assert_panels_close(before[name], after[name], atol)
        elif name in may_change:
            for row, column in changed_cells(before[name], after[name]):
                assert may_change[name](row, column), (name, row, column)
        else:
            assert after[name] == before[name], name


def bundle_fits(bundle):
    """Full fits of every response on every predictor, on a bundle's aligned panel."""
    table = cells(bundle["aligned_panel.csv"])
    months = sorted({row for row, _ in table if row != "#"})

    def block(names):
        return np.array([[float(table[month, name]) for name in names] for month in months])

    return cf.ols_columns(block(Y_NAMES), block(Z_NAMES), Y_NAMES, Z_NAMES)


def coefficients(bundle):
    return np.array([fit.coefficients for fit in bundle_fits(bundle)])


@pytest.mark.parametrize("k", range(-6, 13))
def test_macro_column_units(tmp_path, desk, k):
    """Z1 in other units: only Z1's values and coefficients change, by 10^-k.

    Stepwise traces and selections, adjusted R^2, t-statistics, the CCA
    tables and the verdicts stay byte for byte. At k = 12, as for a GDP in
    dollars next to rates in percent, a rank guard on the raw design once
    made analyze exit 4.
    """
    Z = DESK.proxies.copy()
    Z[:, 0] *= 10.0 ** k
    scaled = analyze(tmp_path, Z=Z)
    z1_coefficient = lambda row, column: column == "Z1" and not row.endswith(" t")  # noqa: E731
    assert_only_these_change(desk, scaled, {
        **dict.fromkeys(OLS_TABLES, z1_coefficient),
        "macro_summary.csv": lambda row, column: row == "Z1" and column != "N",
        "aligned_panel.csv": lambda row, column: column == "Z1",
    }, atol=1e-12)
    coef = coefficients(scaled)
    coef[:, 1] *= 10.0 ** k
    np.testing.assert_allclose(coef, coefficients(desk), rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("scale, fault", [
    (10.0 ** -200, "small"), (10.0 ** -175, "small"), (10.0 ** 175, "large"),
    (10.0 ** 200, "large"), (2.0 ** -490, None), (2.0 ** 490, None)])
@pytest.mark.parametrize("solver", ["adf_test", "cca_fit", "ols"])
def test_values_that_cannot_be_squared_are_named(solver, scale, fault):
    """A walk, CCA predictors or an OLS response in units whose squares leave double range.

    Beyond about 10^-154 or 10^154 a centred sum of squares underflows or overflows,
    and the solver says so, where such columns once looked constant or collinear (or
    an ADF statistic was built from an overflow). A power of two is exact in floating
    point, so 2^-490 and 2^490, about 10^-147 and 10^147, change no result bit.
    """
    fit = {"adf_test": lambda c: cf.adf_test(WALK * c).statistic,
           "cca_fit": lambda c: cf.cca_fit(DESK.responses, DESK.proxies * c).correlations,
           "ols": lambda c: cf.ols(DESK.responses[:, 0] * c, DESK.proxies).t_statistics}[solver]
    if fault is None:
        assert np.array_equal(fit(scale), fit(1.0))
        return
    with pytest.raises(cf.NumericalError) as info:
        fit(scale)
    message = str(info.value)
    assert f"too {fault} to square in double precision" in message
    assert "collinear" not in message and "constant" not in message


@pytest.mark.parametrize("shift", [-1e3, 1e6, 1e8])
def test_macro_column_level(tmp_path, desk, shift):
    """Z1 at another level: only Z1's values and the intercepts change.

    Centring Z1 at level `shift` rounds it by about shift * eps, which bounds
    what may move in the full-precision outputs.
    """
    Z = DESK.proxies.copy()
    Z[:, 0] += shift
    shifted = analyze(tmp_path, Z=Z)
    tol = 1e-12 + 1e-15 * abs(shift)
    assert_only_these_change(desk, shifted, {
        **dict.fromkeys(OLS_TABLES, lambda row, column: column == "(Intercept)"),
        "macro_summary.csv": lambda row, column: row == "Z1" and column not in ("N", "SD"),
        "aligned_panel.csv": lambda row, column: column == "Z1",
    }, atol=tol)
    before, after = coefficients(desk), coefficients(shifted)
    np.testing.assert_allclose(after[:, 1:], before[:, 1:], rtol=0, atol=tol)
    np.testing.assert_allclose(after[:, 0] + shift * after[:, 1], before[:, 0], rtol=0, atol=tol)


@pytest.mark.parametrize("shift", [-1e3, 1e6, 1e8])
def test_spread_panel_level(tmp_path, shift):
    """Spreads at other levels: the unit-root and cointegration tables stay byte for byte.

    Six desk responses keep the panel small enough for the Johansen test.
    Only the level summaries change; the differenced spreads move by rounding.
    """
    Y, names = DESK.responses[:, :6], Y_NAMES[:6]
    before = analyze(tmp_path / "before", Y=Y, y_names=names)
    levels = shift * np.array([1.0, -2.0, 0.5, 3.0, 1.0, -1.0])
    after = analyze(tmp_path / "after", Y=Y + levels, y_names=names)
    assert {"adf_levels.csv", "johansen_all.csv"} <= before.keys()
    assert_only_these_change(before, after, {
        "spread_levels_summary.csv": lambda row, column: column in ("Mean", "Min", "Max"),
    }, atol=1e-12 + 1e-15 * abs(shift), close=("aligned_panel.csv",))


def test_macro_column_order(tmp_path, desk):
    """Permuted predictors: every table holds the same cells under the same names."""
    order = [3, 0, 9, 1, 5, 2, 8, 4, 7, 6]
    permuted = analyze(tmp_path, Z=DESK.proxies[:, order], z_names=[Z_NAMES[j] for j in order])
    assert permuted.keys() == desk.keys()
    for name in desk:
        if name == "factor_scores.csv":
            assert_panels_close(desk[name], permuted[name], atol=1e-12)
        elif name.endswith(".csv"):
            assert cells(permuted[name]) == cells(desk[name]), name
        else:
            assert permuted[name] == desk[name], name


@pytest.mark.parametrize("months", [1, 13, 121])
def test_calendar_shift(tmp_path, desk, months):
    """A later calendar: the bundle changes only in its month labels and spans."""
    shifted = analyze(tmp_path, start=START.plus(months))

    def back(match):
        return str(cf.Month(int(match[1]), int(match[2])).plus(-months))

    assert shifted.keys() == desk.keys() and shifted["summary.md"] != desk["summary.md"]
    for name in desk:
        assert MONTH.sub(back, shifted[name].decode()) == desk[name].decode(), name


# ---------------------------------------------------------------------------
# unit-root and cointegration statistics
# ---------------------------------------------------------------------------

WALK = np.random.default_rng(0).standard_normal(300).cumsum()


@pytest.mark.parametrize("kind", cf.REGRESSION_KINDS)
@pytest.mark.parametrize("level", [1e2, 1e4, 1e6, 1e8, 1e10, -1e10])
def test_adf_statistic_ignores_the_level(kind, level):
    """A walk stored at level L is rounded by about L eps, which bounds the change.

    At level 1e6 a rank guard on the raw design once rejected the regression.
    """
    base = cf.adf_test(WALK, kind=kind).statistic
    assert cf.adf_test(WALK + level, kind=kind).statistic == pytest.approx(
        base, rel=0, abs=1e-12 + 1e-16 * abs(level))


@pytest.mark.parametrize("scale, shift", [(10.0 ** k, 0.0) for k in range(-6, 11)]
                         + [(1.0, shift) for shift in (1.0, 1e4, 1e6, 1e8, -1e8)])
def test_johansen_statistics_ignore_a_series_units_and_level(scale, shift):
    """Y1 in other units or at another level L, which rounds it by about L eps."""
    levels = DESK.responses[:, :3].copy()
    base = cf.johansen_trace(levels)
    levels[:, 0] = levels[:, 0] * scale + shift
    got = cf.johansen_trace(levels)
    tol = 1e-12 + 1e-16 * abs(shift)
    np.testing.assert_allclose(got.trace_statistics, base.trace_statistics, rtol=tol)
    np.testing.assert_allclose(got.eigenvalues, base.eigenvalues, rtol=tol)


# ---------------------------------------------------------------------------
# a Johansen run from the command line
# ---------------------------------------------------------------------------

def test_johansen_with_a_series_in_other_units(tmp_path):
    """Y1 x 1e6 once exited 4 with a singular R0 covariance."""
    levels = DESK.responses[:, :3]
    scaled = levels.copy()
    scaled[:, 0] *= 1e6
    written = {}
    for tag, values in (("as_drawn", levels), ("scaled", scaled)):
        panel = write_panel(tmp_path / f"{tag}.csv", Y_NAMES[:3], values)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["johansen", "--panel", str(panel), "--out", str(tmp_path / tag)]) == 0
        written[tag] = (tmp_path / tag / "johansen.csv").read_bytes()
    assert written["scaled"] == written["as_drawn"]


# ---------------------------------------------------------------------------
# inputs stay as given
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("order, writeable", [("F", True), ("C", False), ("F", False)])
def test_solvers_leave_their_inputs_alone(order, writeable):
    """Centring works on a copy, also where X' is a view of a Fortran-ordered X."""
    rng = np.random.default_rng(12)
    scales = np.array([1.0, 1e3, 1e-3, 1.0])

    def given(values):
        values = np.array(values, order=order)
        values.setflags(write=writeable)
        return values

    X = given(rng.standard_normal((60, 4)) * scales + [0.0, 5e4, 0.0, -7.0])
    Y = given(X @ (rng.standard_normal((4, 2)) / scales[:, None]) + rng.standard_normal((60, 2)))
    levels = given(rng.standard_normal((60, 3)).cumsum(axis=0) + 100.0)
    before = [a.tobytes(order="A") for a in (X, Y, levels)]
    cf.ols_columns(Y, X, ["a", "b"])
    cf.stepwise_aic(Y[:, 0], X)
    cf.johansen_trace(levels)
    assert [a.tobytes(order="A") for a in (X, Y, levels)] == before
