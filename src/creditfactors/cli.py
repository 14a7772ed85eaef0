"""Command-line front end.

Subcommands chain panel construction, stationarity and cointegration tests,
regressions, canonical correlation analysis, and the missing-factor diagnostic
into file-based pipelines. Settings come from flags or from a plain-text
config file of `key = value` lines; flags win. Exit codes: 0 success, 2 usage
error, 3 data error, 4 numerical error.

Commands render their files in memory and hand them to `_commit`, the one writer,
once all rendered, so a failing command writes nothing. `Run.sections` are the
regression sections: for `analyze` the grade and term stacks whose groups have one
size, else one group per response, as for every view. `ols`, `stepwise`, `cca`,
`factor-regress` and `diagnose` are views: one `analyze` stage, some files renamed.
"""

import argparse
import functools
import os
import sys

import numpy as np

from . import cca as cca_mod
from . import factor_model as fm
from . import panel as panel_mod
from . import regress as regress_mod
from . import stattests as st
from ._linalg import check_squares
from .errors import DataError, NumericalError
from .tables import to_csv_text

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

TRANSFORM_LEVELS = "levels"
TRANSFORM_DIFF = "diff"

# One row per setting: (help, parse, default or None, check), where a check is None, a set
# of allowed values or (test, rule) for "must be <rule>". Settings.get parses and checks
# flag and config values alike, so a bad value fails the same way from either.
_SETTINGS = {
    "loans": ("loan-level CSV (date,rate,grade,term)", str, None, None),
    "yields": ("yield-curve CSV (date,maturity_months,yield)", str, None, None),
    "panel": ("panel CSV input", str, None, None),
    "spreads": ("spread panel CSV input", str, None, None),
    "macro": ("predictor panel CSV input", str, None, None),
    "spec": ("model spec JSON for simulation", str, None, None),
    "transform": ("response transform before analysis", str, TRANSFORM_DIFF,
                  {TRANSFORM_LEVELS, TRANSFORM_DIFF}),
    "factors": ("retained factor count", int, 3, (lambda v: v >= 1, ">= 1")),
    "lags": ("lagged differences in the unit-root tests, and Johansen's VAR order less one; "
             "unset: a rule of thumb and order 2", int, None, (lambda v: v >= 0, ">= 0")),
    "kind": ("deterministic terms in the unit-root regression", str,
             st.REGRESSION_CONSTANT_TREND, set(st.REGRESSION_KINDS)),
    "strong": ("strong adjusted-R2 delta threshold", float, 0.30, (np.isfinite, "finite")),
    "weak": ("weak mean-delta threshold", float, 0.10, (np.isfinite, "finite")),
    "ridge": ("CCA diagonal ridge, needed only for exactly collinear columns", float, 0.0,
              (lambda v: 0 <= v < np.inf, "finite and >= 0")),
    "seed": ("random seed override", int, None, None),
}
CONFIG_KEYS = set(_SETTINGS) | {"out"}

# the characters str.splitlines breaks at, escaped as repr escapes them: a message is one line
_ONE_LINE = str.maketrans({c: repr(c)[1:-1] for c in "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"})

_SIM_START = panel_mod.Month(2000, 1)
_SIM_MONTHS = panel_mod._END - _SIM_START.index  # from 2000-01 to 9999-12, the last date


class UsageError(Exception):
    """Malformed invocation: bad flags, bad config keys, missing settings."""


# ---------------------------------------------------------------------------
# settings plumbing
# ---------------------------------------------------------------------------

def load_config(path) -> dict:
    """Parse a `key = value` settings file. '#' starts a comment line."""
    if not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    cfg = {}
    try:
        with open(path) as fh:
            for i, line in enumerate(panel_mod._decoded(fh, path), start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, value = line.partition("=")
                if not sep:
                    raise UsageError(f"{path}:{i}: expected 'key = value', got {line!r}")
                key, value = key.strip(), value.strip()
                if key not in CONFIG_KEYS:
                    raise UsageError(f"{path}:{i}: unknown setting {key!r}")
                cfg[key] = value
    except OSError as exc:  # a directory, say
        raise UsageError(f"{path}: cannot read config file ({exc.strerror})") from None
    except DataError as exc:  # a byte that does not decode
        raise UsageError(str(exc)) from None
    return cfg


class Settings:
    """Flag values layered over config-file values layered over defaults."""

    def __init__(self, args):
        cfg = load_config(args.config) if getattr(args, "config", None) else {}
        # the unparsed strings: flag values over config values; `out` is read from here
        self.given = cfg | {key: value for key, value in vars(args).items()
                            if key in CONFIG_KEYS and value is not None}

    def get(self, key):
        """The setting's given value parsed and checked by its _SETTINGS row, else its default."""
        _, parse, default, check = _SETTINGS[key]
        if key not in self.given:
            return default
        value = self.given[key]
        try:
            value = parse(value)
        except ValueError:
            raise UsageError(f"setting {key!r}: cannot parse {value!r}") from None
        if isinstance(check, tuple) and not check[0](value):
            raise UsageError(f"setting {key!r}: must be {check[1]}, got {value}")
        if isinstance(check, set) and value not in check:
            raise UsageError(f"setting {key!r}: {value!r} is not one of {sorted(check)}")
        return value

    def require(self, key):
        value = self.get(key)
        if value is None:
            raise UsageError(f"missing required setting {key!r} (flag --{key} or config)")
        return value


def _meta(n_obs, transform, align_policy, extra=""):
    line = f"n_obs={n_obs} transform={transform} align={align_policy}"
    return f"{line} {extra}".strip()


def _commit(out, files) -> int:
    """The one writer: create directory `out`, write and echo each (file name, text)."""
    os.makedirs(out, exist_ok=True)
    for fname, text in files:
        path = os.path.join(out, fname)
        with open(path, "w", newline="") as fh:
            fh.write(text)
        print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_aggregate(args) -> int:
    s = Settings(args)
    return _write_spreads(s, _loan_spreads(s.require("loans"), s.require("yields")))


def cmd_spreads(args) -> int:
    s = Settings(args)
    rates = panel_mod.read_panel_csv(s.require("panel"))
    curve = panel_mod.read_yields_csv(s.require("yields"))
    return _write_spreads(s, panel_mod.to_spreads(rates, curve))


def _loan_spreads(loans_path, yields_path) -> panel_mod.AlignedPanel:
    """Spreads of the loan book's bucket rates over the matching yields."""
    rates = panel_mod.aggregate_loans(panel_mod.read_loans_csv(loans_path))
    return panel_mod.to_spreads(rates, panel_mod.read_yields_csv(yields_path))


def _write_spreads(s: Settings, spreads) -> int:
    text = panel_mod.panel_csv_text(spreads, _meta(spreads.n_obs, TRANSFORM_LEVELS, "none"))
    return _commit(s.given.get("out", "."), [("spreads.csv", text)])


def _adf_table(s: Settings, p: panel_mod.AlignedPanel):
    """Unit-root tests on p's columns under the `kind` and `lags` settings: (table, note)."""
    kind, lags, results = s.get("kind"), s.get("lags"), {}
    for n in p.names:
        column = p.complete_column(n)  # whose errors name n already
        try:
            results[n] = st.adf_test(column, lag_order=lags, kind=kind)
        except (DataError, NumericalError) as exc:  # same class, so the same exit code
            raise type(exc)(f"unit-root test of series {n!r}: {exc}") from None
    return st.adf_table(results), f"kind={kind} lags={'auto' if lags is None else lags}"


def _johansen_table(p: panel_mod.AlignedPanel, lags):
    """Trace test on p's joint months at VAR order lags + 1: (result, table, note)."""
    order = 2 if lags is None else lags + 1  # lags counts lagged differences, as ADF does
    result = st.johansen_trace(panel_mod.align([p]), order)
    return result, st.johansen_table(result), f"lags={result.lag_order}"


def cmd_adf(args) -> int:
    s = Settings(args)
    p = panel_mod.read_panel_csv(s.require("panel"))
    table, note = _adf_table(s, p)
    meta = _meta(p.n_obs, TRANSFORM_LEVELS, "none", note)
    return _commit(s.given.get("out", "."), [("adf.csv", to_csv_text(*table, meta))])


def cmd_johansen(args) -> int:
    s = Settings(args)
    p = panel_mod.read_panel_csv(s.require("panel"))
    result, table, note = _johansen_table(p, s.get("lags"))
    meta = _meta(result.n_obs, TRANSFORM_LEVELS, "intersect", note)
    return _commit(s.given.get("out", "."), [("johansen.csv", to_csv_text(*table, meta))])


def cmd_simulate(args) -> int:
    from . import synthgen  # simulate alone reads, draws from and echoes a model spec
    s = Settings(args)
    spec_path = s.require("spec")
    spec = synthgen.read_spec(spec_path, seed=s.get("seed"))
    if spec.n_periods > _SIM_MONTHS:  # before the draw, which allocates n_periods rows
        raise DataError(f"{spec_path}: n_periods must be at most {_SIM_MONTHS}, "
                        f"the months from {_SIM_START} to 9999-12")
    ds = synthgen.generate(spec)
    note = _meta(spec.n_periods, TRANSFORM_LEVELS, "none", f"seed={spec.seed}")
    files = []
    for fname, prefix, matrix in (("responses.csv", "Y", ds.responses),
                                  ("proxies.csv", "Z", ds.proxies),
                                  ("truth_proxied_factors.csv", "F", ds.proxied_factors),
                                  ("truth_idiosyncratic.csv", "U", ds.idiosyncratic),
                                  ("truth_missing_factors.csv", "M", ds.missing_factors)):
        if matrix.shape[1]:  # only missing factors can be absent
            names = tuple(f"{prefix}{j + 1}" for j in range(matrix.shape[1]))
            panel = panel_mod.AlignedPanel(_SIM_START, names, matrix)
            files.append((fname, panel_mod.panel_csv_text(panel, note)))
    files.append(("spec_echo.json", synthgen.spec_json_text(spec)))
    return _commit(s.given.get("out", "."), files)


# ---------------------------------------------------------------------------
# analysis: one run context, the report stages, and the commands built on them
# ---------------------------------------------------------------------------

class Section:
    """Group labels, and each group's responses stacked end to end as one column of Y."""

    def __init__(self, name, groups, panel: panel_mod.AlignedPanel):
        self.name, self.labels = name, list(groups)
        self.size = len(next(iter(groups.values())))
        self.Y = np.column_stack([np.concatenate([panel.column(n) for n in members])
                                  for members in groups.values()])

    def tiled(self, X):
        """X stacked `size` times, to match Y's rows: every group has `size` members."""
        return np.tile(X, (self.size, 1))


class Run:
    """Settings, aligned data, fitted factors, regression sections and tables of one run.

    Responses and predictors are aligned on the intersect grid; `stack` asks for stacked
    `sections`. Stages render tables into `files` and write nothing, and record what
    summary.md reports: `reports` (a diagnostic per section) and `johansen`.
    """

    def __init__(self, args, stack=False):
        self.s = Settings(args)
        self.r, self.ridge = self.s.get("factors"), self.s.get("ridge")
        self.strong, self.weak = self.s.get("strong"), self.s.get("weak")
        if not self.strong > self.weak:
            raise UsageError(f"setting 'strong': must exceed weak ({self.strong} vs {self.weak})")
        self.lags, self.transform = self.s.get("lags"), self.s.get("transform")
        spreads, loans, yields = self.s.get("spreads"), self.s.get("loans"), self.s.get("yields")
        if spreads is None and (loans is None or yields is None):
            raise UsageError("need either spreads=PATH or both loans=PATH and yields=PATH")
        self.spread_levels = (panel_mod.read_panel_csv(spreads) if spreads is not None
                              else _loan_spreads(loans, yields))
        macro = panel_mod.read_panel_csv(self.s.require("macro"))
        y_panel = (panel_mod.first_difference(self.spread_levels)
                   if self.transform == TRANSFORM_DIFF else self.spread_levels)
        self.combined = panel_mod.align([y_panel, macro])
        self.y_names = list(y_panel.names)
        self.z_names = list(macro.names)
        self.Y = np.column_stack([self.combined.column(n) for n in self.y_names])
        self.Z = np.column_stack([self.combined.column(n) for n in self.z_names])
        self.groupings = _column_groups(self.y_names) if stack else {}
        stacks = {name: groups for name, groups in self.groupings.items()
                  if len(groups) > 1 and len({len(members) for members in groups.values()}) == 1}
        self.sections = [Section(name, groups, self.combined) for name, groups in
                         (stacks or {"responses": {n: [n] for n in self.y_names}}).items()]
        self.files = []  # (file name, text, summary note), in rendering order
        self.reports, self.johansen = {}, {}

    def table(self, fname, content, n_obs, extra="", note=""):
        """Render one (header, rows) table under the run's comment line."""
        comment = _meta(n_obs, self.transform, "intersect", extra)
        self.files.append((fname, to_csv_text(*content, comment=comment), note))

    @functools.cached_property
    def factors(self) -> fm.FactorScores:
        """Leading canonical variates, with the CCA fit as `source`; fitted on first use."""
        sol = cca_mod.cca_fit(self.Y, self.Z, ridge=self.ridge)
        return fm.FactorScores.from_solution(sol, r=min(self.r, sol.m))


def _summary_table(p: panel_mod.AlignedPanel):
    header = ["", "N", "Mean", "SD", "Min", "Max"]
    rows = []
    for name in p.names:
        col = p.column(name)
        vals = col[~np.isnan(col)]  # Run refuses a series with no observations
        if vals.min() < vals.max():  # std squares the deviations: refuse what cannot be
            with np.errstate(over="ignore"):
                dev = vals - vals.mean()
                check_squares(dev @ dev, f"series {name!r}")
        sd = format(vals.std(ddof=1), ".4f") if vals.size > 1 else ""
        rows.append([name, str(vals.size), format(vals.mean(), ".4f"), sd,
                     format(vals.min(), ".4f"), format(vals.max(), ".4f")])
    return header, rows


def _ols_table(run: Run, section: Section):
    """Regressions of the section's stacked responses on all predictors; returns the fits."""
    fits = regress_mod.ols_columns(section.Y, section.tiled(run.Z), section.labels, run.z_names)
    run.table(f"ols_full_{section.name}.csv", regress_mod.fit_table(fits), fits[0].n_obs,
              note=f"regressions on all predictors ({section.name})")
    return fits


def _stepwise_tables(run: Run, section: Section):
    fits, trace_rows = [], []
    for fit, trace in regress_mod.stepwise_columns(section.Y, section.tiled(run.Z),
                                                   section.labels, run.z_names):
        fits.append(fit)
        trace_rows.append([fit.response_name, "0", "start", "", format(trace.initial_aic, ".4f")])
        for i, step in enumerate(trace.steps, start=1):
            trace_rows.append([fit.response_name, str(i), step.action, step.predictor,
                               format(step.aic_after, ".4f")])
    table = regress_mod.fit_table(fits, predictors=[regress_mod.INTERCEPT] + run.z_names)
    run.table(f"ols_stepwise_{section.name}.csv", table, fits[0].n_obs,
              note=f"stepwise-selected regressions ({section.name})")
    run.table(f"ols_stepwise_trace_{section.name}.csv",
              (["response", "step", "action", "predictor", "aic"], trace_rows),
              fits[0].n_obs, note=f"accepted stepwise moves ({section.name})")


def _cca_tables(run: Run, section=None):
    """The CCA tables. They describe all responses at once, so `section` goes unused."""
    sol, n_obs = run.factors.source, run.combined.n_obs
    run.table("cca_eigen.csv", cca_mod.eigen_table_rows(cca_mod.eigen_table(sol)), n_obs,
              f"ridge={sol.ridge}", "canonical correlations and eigenvalue shares")
    table = cca_mod.wilks_table_rows(cca_mod.wilks_lambda(sol), sol.correlations)
    run.table("cca_wilks.csv", table, n_obs,
              note="sequential significance tests of the canonical pairs")
    table = cca_mod.redundancy_table_rows(cca_mod.redundancy(sol, run.Y))
    run.table("cca_redundancy.csv", table, n_obs,
              note="variance shares explained across sets")
    loadings = cca_mod.cross_loadings(sol, run.Z, k_max=run.factors.r)
    run.table("cca_cross_loadings.csv",
              cca_mod.cross_loadings_table_rows(loadings, run.z_names), n_obs,
              note="predictor correlations with the leading variates")


def _factor_tables(run: Run, section: Section):
    """Regressions on the retained factors: (fits, tiled factor design)."""
    factors = run.factors
    design = section.tiled(factors.scores)
    fits = regress_mod.ols_columns(section.Y, design, section.labels, factors.names)
    run.table(f"factor_regressions_{section.name}.csv", regress_mod.fit_table(fits),
              fits[0].n_obs, f"factors={factors.r}",
              f"regressions on retained factors ({section.name})")
    return fits, design


def _diagnostic_tables(run: Run, section: Section):
    """_factor_tables, then the missing-factor diagnostic on its fits, kept in run.reports."""
    fits, design = _factor_tables(run, section)
    report = fm.missing_factor_diagnostic(fits, design, section.Y,
                                          thresholds=(run.strong, run.weak))
    run.reports[section.name] = report
    n_obs, share = fits[0].n_obs, f"pc1_share={report.pc1_variance_share:.4f}"
    run.table(f"factor_regressions_pc1_{section.name}.csv",
              regress_mod.fit_table(report.augmented), n_obs, share,
              f"factor regressions with the residual component added ({section.name})")
    run.table(f"diagnostic_{section.name}.csv", fm.diagnostic_table_rows(report), n_obs,
              f"factors={run.factors.r} strong={run.strong} weak={run.weak} {share} "
              f"verdict={report.verdict}", f"missing-factor diagnostic ({section.name})")


def cmd_view(args) -> int:
    *_, stage, names = COMMANDS[args.command]
    run = Run(args)
    stage(run, *run.sections)  # a view's one section: one group per response
    _commit(run.s.given.get("out", "."),
            [(names[fname], text) for fname, text, _ in run.files if fname in names])
    for report in run.reports.values():
        print(f"verdict: {report.verdict}")
    return EXIT_OK


def _column_groups(names):
    """Grade- and term-stacked groupings when every name parses as term-grade."""
    try:
        terms = {n: panel_mod.term_of_series(n) for n in names}
    except DataError:
        return {}
    grades = {n: n.split("-", 1)[1] for n in names}
    return {
        "grades": {g: [n for n in names if grades[n] == g]
                   for g in sorted(set(grades.values()))},
        "terms": {f"{t}-month": [n for n in names if terms[n] == t]
                  for t in sorted(set(terms.values()))},
    }


def cmd_analyze(args) -> int:
    run = Run(args, stack=True)
    levels = run.spread_levels

    # 1-2. spread levels and first differences: summary stats and unit-root tests
    for p, stem, stats_of, tests_on in (
            (levels, "levels", "the spread levels", "spread levels"),
            (panel_mod.first_difference(levels), "diffs",
             "the first differences", "the first differences")):
        run.table(f"spread_{stem}_summary.csv", _summary_table(p), p.n_obs,
                  note=f"descriptive statistics of {stats_of}")
        table, adf_note = _adf_table(run.s, p)
        run.table(f"adf_{stem}.csv", table, p.n_obs, adf_note, f"unit-root tests on {tests_on}")

    # 3. cointegration within term groups (all series if names are generic) of tractable size
    for label, members in run.groupings.get("terms", {"all": list(levels.names)}).items():
        if 2 <= len(members) <= 6:
            result, table, note = _johansen_table(levels.select(members), run.lags)
            run.johansen[label] = result
            run.table(f"johansen_{label}.csv", table, result.n_obs, note,
                      f"cointegration trace tests ({label})")

    # 4. predictor panel description, once the CCA fit's row check has refused a panel
    n_obs = run.factors.source.n_obs  # too short for np.corrcoef, which only warns
    run.table("macro_summary.csv", _summary_table(run.combined.select(run.z_names)),
              n_obs, note="descriptive statistics of the predictor panel")
    corr = np.atleast_2d(np.corrcoef(run.Z, rowvar=False))  # 0-d for one predictor
    rows = [[name] + [format(c, ".3f") for c in row] for name, row in zip(run.z_names, corr)]
    run.table("macro_correlations.csv", ([""] + run.z_names, rows), n_obs,
              note="correlations among predictors")

    # 5. canonical correlation analysis of responses against predictors
    _cca_tables(run)

    # 6. regressions in each of the run's sections
    for section in run.sections:
        fits = _ols_table(run, section)
        _stepwise_tables(run, section)
        aug, _, share = fm.augment_with_pc1(fits, section.tiled(run.Z), section.Y)
        run.table(f"ols_pc1_{section.name}.csv", regress_mod.fit_table(aug), aug[0].n_obs,
                  f"pc1_share={share:.4f}",
                  f"regressions with the residual component added ({section.name})")
        _diagnostic_tables(run, section)

    # 7. panels used downstream, re-readable by the panel reader
    comment = _meta(n_obs, run.transform, "intersect")
    for fname, p, note in (
            ("aligned_panel.csv", run.combined, "the aligned data all regressions used"),
            ("factor_scores.csv",
             panel_mod.AlignedPanel(run.combined.start, run.factors.names, run.factors.scores),
             "retained factor score series")):
        run.files.append((fname, panel_mod.panel_csv_text(p, comment), note))

    files = [(fname, text) for fname, text, _ in run.files] + [("summary.md", _summary_md(run))]
    out = run.s.given.get("out", "report")
    stale = sorted(set(os.listdir(out)) - set(dict(files))) if os.path.isdir(out) else []
    if stale:  # a bundle never shares its directory with files it does not list
        raise UsageError(f"{out} holds {stale[0]!r}, which this bundle does not write")
    _commit(out, files)
    print(f"report bundle in {out} ({len(run.files) + 1} files)")
    return EXIT_OK


def _summary_md(run: Run) -> str:
    unstacked = [name for name in run.groupings if name not in run.reports]
    one_group = [name for name in unstacked if len(run.groupings[name]) == 1]
    lines = ["# Analysis report", "", "## Settings", ""]
    lines.append(f"- observations used: {run.combined.n_obs} "
                 f"({run.combined.start} to {run.combined.end})")
    lines.append(f"- transform: {run.transform}")
    lines.append("- alignment: intersect")
    lines.append(f"- retained factors: {run.factors.r}")
    lags = "auto" if run.lags is None else run.lags
    lines.append(f"- unit-root regression: {run.s.get('kind')}, lags {lags}")
    lines.append(f"- diagnostic thresholds: strong {run.strong}, weak {run.weak}")
    for reason, names in (("group sizes differ", [n for n in unstacked if n not in one_group]),
                          ("it has one group", one_group)):
        if names:
            lines.append(f"- left unstacked because {reason}: {', '.join(names)}")
    lines += ["", "## Key results", ""]
    top = ", ".join(format(r, ".4f") for r in run.factors.source.correlations[:3])
    lines.append(f"- leading canonical correlations: {top}")
    for label, res in run.johansen.items():
        rejected = sum(res.rejected)
        lines.append(f"- cointegration ({label}): {rejected} of {len(res.rejected)} "
                     f"nulls rejected at 5%")
    for section, report in run.reports.items():
        lines.append(f"- missing-factor verdict ({section}): {report.verdict} "
                     f"(mean delta {report.mean_delta:.3f}, "
                     f"PC1 share {report.pc1_variance_share:.3f})")
    lines += ["", "## Files", ""]
    lines += [f"- `{fname}`: {note}" for fname, _, note in run.files]
    return "\n".join(lines) + "\n"


# One row per subcommand: (handler, help, settings), and for a view of `analyze` also its
# stage and {analyze file: view file}. A view runs the stage on its one section, one group
# per response, and keeps the listed files under their new names.
_INPUTS = ("spreads", "loans", "yields", "macro", "transform")
_FIT = _INPUTS + ("factors", "ridge")
COMMANDS = {
    "aggregate": (cmd_aggregate, "average loans into bucket rates and subtract matching yields",
                  ("loans", "yields")),
    "spreads": (cmd_spreads, "turn an existing rate panel into spreads over the curve",
                ("panel", "yields")),
    "adf": (cmd_adf, "unit-root tests on every panel column", ("panel", "lags", "kind")),
    "johansen": (cmd_johansen, "cointegration trace test on a panel", ("panel", "lags")),
    "ols": (cmd_view, "regress every response on all predictors", _INPUTS, _ols_table,
            {"ols_full_responses.csv": "ols.csv"}),
    "stepwise": (cmd_view, "AIC stepwise selection per response", _INPUTS, _stepwise_tables,
                 {"ols_stepwise_responses.csv": "stepwise.csv",
                  "ols_stepwise_trace_responses.csv": "stepwise_trace.csv"}),
    "cca": (cmd_view, "canonical correlations between responses and predictors", _FIT,
            _cca_tables, {f"cca_{t}.csv": f"cca_{t}.csv"
                          for t in ("eigen", "wilks", "redundancy", "cross_loadings")}),
    "factor-regress": (cmd_view, "regress responses on retained factors", _FIT, _factor_tables,
                       {"factor_regressions_responses.csv": "factor_regressions.csv"}),
    "diagnose": (cmd_view, "missing-factor diagnostic from factor regressions",
                 _FIT + ("strong", "weak"), _diagnostic_tables,
                 {"diagnostic_responses.csv": "diagnostic.csv"}),
    "analyze": (cmd_analyze, "full report bundle", _FIT + ("strong", "weak", "lags", "kind")),
    "simulate": (cmd_simulate, "draw a synthetic dataset from a model spec", ("spec", "seed")),
}


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

@functools.cache  # parse_args leaves the parser as it found it, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    class Parser(argparse.ArgumentParser):  # the subcommands' parsers are Parsers too
        def error(self, message):  # argparse's own usage errors, reported in main's one line
            raise UsageError(message)

    parser = Parser(
        prog="creditfactors",
        description="Latent-factor analysis pipelines for monthly spread panels.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    for name, (func, help_text, flags, *_) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="settings file with 'key = value' lines")
        p.add_argument("--out", help="output directory")
        for flag in flags:  # help: 'retained factor count (>= 1; default 3)'
            text, _, default, check = _SETTINGS[flag]
            rule = check[1] if isinstance(check, tuple) else check and " or ".join(sorted(check))
            notes = "; ".join(n for n in (rule, default is not None and f"default {default}") if n)
            p.add_argument(f"--{flag}", help=f"{text} ({notes})" if notes else text)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    words, argv = list(sys.argv[1:] if argv is None else argv), []
    while words:  # a flag or its unique prefix takes the next word as its value, even -1e-3
        word = words.pop(0)
        keys = {k for k in CONFIG_KEYS | {"config"} if k.startswith(word[2:])}
        flag = word.startswith("--") and (word[2:] in keys or len(keys) == 1) and words
        argv.append(f"{word}={words.pop(0)}" if flag else word)
    try:
        args = build_parser().parse_args(argv)
        with np.errstate(all="ignore"):  # a failure is reported by its one-line message alone
            return args.func(args)
    except UsageError as exc:
        print(f"usage error: {str(exc).translate(_ONE_LINE)}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError) as exc:
        print(f"data error: {str(exc).translate(_ONE_LINE)}", file=sys.stderr)
        return EXIT_DATA
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {str(exc).translate(_ONE_LINE)}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
