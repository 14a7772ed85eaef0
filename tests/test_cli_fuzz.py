"""Property tests of the CLI contract on malformed inputs.

Each test writes generated files (panel, loan, yield, config or spec) into a
fresh directory and calls cli.main in-process. Whatever the input, main must
return 0 (success), 2 (usage), 3 (data) or 4 (numerical), and no exception may
escape it; a failing exit says why on stderr and leaves no --out directory.
Inputs start from a valid file and take a few random defects: bad dates, ragged
rows, non-numeric or non-finite cells, unknown keys, truncation, stray bytes.
"""

import contextlib
import io
import json
import os
import re
import shutil
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from creditfactors import cli

EXIT_CODES = {cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_DATA, cli.EXIT_NUMERICAL}

FUZZ = settings(max_examples=25, deadline=None, database=None)

BAD_CELLS = ["", " ", "nan", "NaN", "inf", "-inf", "1e308", "-1e400", "x", "1.2.3",
             "0x1A", "--1", "1e", "é", '"', "1;2", "0", "-3", "36.5", "99999999999999999999"]
BAD_DATES = ["", "2005-13", "2005-00", "05-01", "2005-1", "abc", "0000-01", "9999-12",
             "2005-01-99", "2005/01", " 2005-02 ", "2005-01-01T00", "١٩٩٩-01"]
BAD_BYTES = [b"\xff\xfe", b"\x00", b"\xef\xbb\xbf", b"\r", b"\x80abc"]


def run_main(argv_of, files):
    """Write files ({name: bytes}) to a fresh directory and run main on them: (exit, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, data in files.items():
            paths[name] = os.path.join(tmp, name)
            with open(paths[name], "wb") as fh:
                fh.write(data)
        paths["out"] = os.path.join(tmp, "out")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would print ahead of main's one line
            code = cli.main(argv_of(paths))
        out_left = os.path.exists(paths["out"])
    assert code in EXIT_CODES, stderr.getvalue()
    if code != cli.EXIT_OK:
        assert stderr.getvalue().strip(), "a failing exit must say why"
        assert not out_left, f"exit {code} left --out behind: {stderr.getvalue()}"
    return code, stderr.getvalue()


def _month(t, start=(2005, 1)):
    idx = start[0] * 12 + start[1] - 1 + t
    return f"{idx // 12:04d}-{idx % 12 + 1:02d}"


@st.composite
def mutated_csv(draw, rows):
    """A valid table (list of string rows, header first) with a few defects."""
    rows = [list(r) for r in rows]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(rows) - 1))
        row = rows[i]
        kind = draw(st.sampled_from(["cell", "date", "drop", "extra", "dup", "swap", "blank"]))
        if kind == "cell" and len(row) > 1:
            row[draw(st.integers(1, len(row) - 1))] = draw(st.sampled_from(BAD_CELLS))
        elif kind == "date" and row:
            row[0] = draw(st.sampled_from(BAD_DATES))
        elif kind == "drop" and row:
            del row[draw(st.integers(0, len(row) - 1))]
        elif kind == "extra":
            row.append(draw(st.sampled_from(BAD_CELLS)))
        elif kind == "dup":
            rows.insert(i, list(row))
        elif kind == "swap":
            j = draw(st.integers(0, len(rows) - 1))
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == "blank":
            rows[i] = []
    data = as_csv(rows)
    if draw(st.integers(0, 9)) == 0:
        data = data[:draw(st.integers(0, len(data)))]
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(BAD_BYTES)) + data[at:]
    return data


def panel_rows(n_cols, T, prefix, seed):
    values = np.random.default_rng(seed).normal(size=(T, n_cols)).cumsum(axis=0)
    rows = [["date"] + [f"{prefix}{j + 1}" for j in range(n_cols)]]
    return rows + [[_month(t)] + [repr(float(v)) for v in values[t]] for t in range(T)]


def as_csv(rows):
    return "\n".join(",".join(r) for r in rows).encode()


@st.composite
def panel_csv(draw, n_cols, n_rows=st.integers(0, 40), prefix="S"):
    seed = draw(st.integers(0, 2 ** 16))
    return draw(mutated_csv(panel_rows(n_cols, draw(n_rows), prefix, seed)))


@st.composite
def loans_and_yields(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    T = draw(st.integers(1, 14))
    loans = [["date", "rate", "grade", "term"]]
    for t in range(T):
        for grade in ("A", "B"):
            for term in (36, 60):
                for _ in range(2):
                    loans.append([_month(t), f"{8 + rng.normal():.3f}", grade, str(term)])
    yields = [["date", "maturity_months", "yield"]]
    for t in range(T):
        for m in (36, 60):
            yields.append([_month(t), str(m), f"{2 + 0.1 * rng.normal():.4f}"])
    return draw(mutated_csv(loans)), draw(mutated_csv(yields))


SETTING_VALUES = st.sampled_from(
    ["", "0", "1", "-1", "2", "3", "abc", "1e9", "nan", "inf", "-inf", "0.5", "1e-8",
     "levels", "diff", "constant", "constant_trend", "99999", "1.5", "é"])


@st.composite
def config_file(draw):
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["setting", "setting", "unknown", "no_eq", "comment"]))
        if kind == "setting":
            key = draw(st.sampled_from(
                ["factors", "lags", "kind", "strong", "weak", "ridge", "transform", "seed"]))
            lines.append(f"{key} = {draw(SETTING_VALUES)}")
        elif kind == "unknown":
            lines.append(f"{draw(st.sampled_from(['align', 'factor', 'Lags', '']))} = 1")
        elif kind == "no_eq":
            lines.append(draw(st.sampled_from(["factors", "lags 2", "==", "=x"])))
        else:
            lines.append("# comment")
    data = "\n".join(lines).encode()
    if draw(st.integers(0, 9)) == 0:
        data = draw(st.sampled_from(BAD_BYTES)) + data
    return data


JSON_GARBAGE = st.one_of(
    st.none(), st.booleans(), st.integers(-10, 400),
    st.floats(-10, 400) | st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e300]),
    st.text(max_size=4),
    st.lists(st.integers(-3, 3) | st.floats(-3, 3), max_size=4),
    st.lists(st.lists(st.floats(-3, 3) | st.text(max_size=2), max_size=3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=2),
)

VALID_FULL_SPEC = {
    "intercepts": [1.0, 2.0, 3.0],
    "proxied_loadings": [[1.0], [0.5], [-0.7]],
    "missing_loadings": [[0.3], [0.2], [0.1]],
    "proxy_projection": [[1.0], [0.4]],
    "proxy_noise_scale": 0.3,
    "idio_variances": [0.5, 0.4, 0.6],
    "n_periods": 30,
    "seed": 1,
}


@st.composite
def spec_json(draw):
    kind = draw(st.sampled_from(["preset", "full", "full", "raw"]))
    if kind == "preset":
        spec = {"preset": draw(st.sampled_from(["default", "missing_factor", "nope"])
                               | JSON_GARBAGE)}
        for key in ("seed", "n_periods", "extra"):
            if draw(st.booleans()):
                spec[key] = draw(st.integers(-3, 80) | JSON_GARBAGE)
    elif kind == "full":
        spec = dict(VALID_FULL_SPEC)
        for key in draw(st.lists(st.sampled_from(sorted(spec) + ["unknown"]), max_size=3)):
            action = draw(st.sampled_from(["replace", "replace", "delete"]))
            if action == "delete":
                spec.pop(key, None)
            else:
                spec[key] = draw(JSON_GARBAGE)
    else:
        return draw(st.sampled_from([b"", b"{", b"[]", b"null", b"3", b'"preset"',
                                     b"\xff{}", b'{"preset": "default"} x']))
    return json.dumps(spec).encode()


LOANS = b"date,rate,grade,term\n2005-01,8.1,A,36\n2005-01,9.2,B,36\n"
YIELDS = b"date,maturity_months,yield\n2005-01,36,2.1\n"
RATES = b"date,36-A,36-B\n2005-01,8.1,9.2\n"  # LOANS as a rate panel
SPREADS = as_csv(panel_rows(3, 30, "S", 1))
MACRO = as_csv(panel_rows(2, 30, "Z", 2))
SPEC = b'{"preset": "missing_factor", "n_periods": 24}'
HUGE_ROWS = panel_rows(3, 12, "S", 0)
HUGE_ROWS[-1][1] = "1e308"  # the square of S1's last difference overflows
HUGE_LAST_CELL = as_csv(HUGE_ROWS)
ALTERNATING_ROWS = panel_rows(3, 40, "S", 0)
for t, row in enumerate(ALTERNATING_ROWS[1:]):
    row[1] = "1.7e308" if t % 2 else "-1.7e308"  # each cell is finite, no difference is
ALTERNATING = as_csv(ALTERNATING_ROWS)


@FUZZ
@given(panel=panel_csv(n_cols=3), lags=st.sampled_from([[], ["--lags", "1"], ["--lags", "0"]]))
@example(panel=b"\xff\xfe", lags=[])  # undecodable bytes escaped as UnicodeDecodeError
@example(panel=HUGE_LAST_CELL, lags=[])  # adf exited 0 with a statistic built from an overflow
def test_panel_commands_keep_the_exit_contract(panel, lags):
    for command in ("adf", "johansen"):
        run_main(lambda p: [command, "--panel", p["panel.csv"], "--out", p["out"], *lags],
                 {"panel.csv": panel})


@pytest.mark.parametrize("command, panel, message", [
    ("adf", HUGE_LAST_CELL,
     "unit-root test of series 'S1': values of response 'diff' are too large"),
    ("analyze", HUGE_LAST_CELL,
     "values of series 'S1' are too large"),  # the spread levels' summary refuses S1 first
    # adf exited 3 saying the finite cells were not finite: its differences overflowed
    ("adf", ALTERNATING,
     "unit-root test of series 'S1': values of response 'diff' are too large"),
    ("analyze", ALTERNATING, "values of series 'S1' are too large"),
], ids=["adf", "analyze", "adf-alternating", "analyze-alternating"])
def test_values_too_large_to_square_exit_4(command, panel, message):
    inputs = {"adf": ["--panel", "panel.csv"],
              "analyze": ["--spreads", "panel.csv", "--macro", "macro.csv"]}[command]
    code, err = run_main(lambda p: [command, *(p.get(w, w) for w in inputs), "--out", p["out"]],
                         {"panel.csv": panel, "macro.csv": MACRO})
    assert code == cli.EXIT_NUMERICAL
    assert err.splitlines() == [f"numerical error: {message} to square in double precision"]


@settings(FUZZ, max_examples=15)
@given(spreads=panel_csv(n_cols=3, n_rows=st.integers(0, 30)),
       macro=panel_csv(n_cols=2, n_rows=st.integers(0, 30), prefix="Z"))
# one aligned month: np.corrcoef of the predictors warned ahead of the CCA's data error
@example(spreads=SPREADS, macro=as_csv(panel_rows(2, 2, "Z", 2)))
def test_analyze_keeps_the_exit_contract(spreads, macro):
    run_main(lambda p: ["analyze", "--spreads", p["spreads.csv"], "--macro", p["macro.csv"],
                        "--factors", "1", "--out", p["out"]],
             {"spreads.csv": spreads, "macro.csv": macro})


@FUZZ
@given(files=loans_and_yields())
# a short row left None cells, which escaped as TypeError
@example(files=(LOANS + b"2005-01,8.0,A\n", YIELDS))
@example(files=(LOANS, YIELDS + b"2005-01,60\n"))
# a row with cells past the header was read as if they were not there
@example(files=(LOANS + b"2005-01,8.1,A,36,oops\n", YIELDS))
@example(files=(LOANS, YIELDS + b"2005-01,36,2.0,zz\n"))
def test_aggregate_keeps_the_exit_contract(files):
    loans, yields = files
    run_main(lambda p: ["aggregate", "--loans", p["loans.csv"], "--yields", p["yields.csv"],
                        "--out", p["out"]],
             {"loans.csv": loans, "yields.csv": yields})


@FUZZ
@given(config=config_file())
@example(config=b"\xff\xfe")
def test_config_files_keep_the_exit_contract(config):
    files = {"spreads.csv": SPREADS, "macro.csv": MACRO, "settings.cfg": config}
    for command in ("adf", "johansen"):
        run_main(lambda p: [command, "--panel", p["macro.csv"], "--config", p["settings.cfg"],
                            "--out", p["out"]], files)
    run_main(lambda p: ["analyze", "--spreads", p["spreads.csv"], "--macro", p["macro.csv"],
                        "--config", p["settings.cfg"], "--out", p["out"]], files)


@settings(FUZZ, max_examples=30)
@given(spec=spec_json())
# each escaped main: ValueError, TypeError (twice), OverflowError, numpy's ValueError
@example(spec=b'{"preset": "default", "seed": "x"}')
@example(spec=b'{"preset": ["default"]}')
@example(spec=json.dumps(dict(VALID_FULL_SPEC, intercepts=None)).encode())
@example(spec=json.dumps(dict(VALID_FULL_SPEC, n_periods=float("inf"))).encode())
@example(spec=b'{"preset": "default", "seed": -1}')
# more periods than months from 2000-01 to 9999-12 escaped from the draw, exit 1
@example(spec=b'{"preset": "default", "n_periods": 1e300}')
@example(spec=json.dumps(dict(VALID_FULL_SPEC, n_periods=1e300)).encode())
def test_simulate_keeps_the_exit_contract(spec):
    run_main(lambda p: ["simulate", "--spec", p["spec.json"], "--out", p["out"]],
             {"spec.json": spec})


COMMANDS = ["aggregate", "spreads", "adf", "johansen", "ols", "stepwise", "cca",
            "factor-regress", "diagnose", "analyze", "simulate"]
FLAGS = ["--config", "--out"] + [f"--{key}" for key in sorted(cli._SETTINGS)]
FLAG_WORDS = sorted(set(FLAGS) | {flag[:i] for flag in FLAGS for i in range(3, len(flag))}
                    | {"--bogus", "--align", "--Factors"})  # prefixes: unique and ambiguous
ARGV_WORDS = sorted(set(COMMANDS) | {"frobnicate"} | set(FLAG_WORDS)
                    | {"--out=", "--weak=", "--factors=", "-1e-3", "-inf", "-1", "0", "1", "x",
                       "levels", "spreads.csv", "macro.csv", "spec.json", "loans.csv",
                       "yields.csv", "rates.csv", "out",
                       "--bogus\nx", "x\ny", "--bogus\u2028x", "x\u2028y"})
# flag-value pairs a command accepts; file words become the files' paths
PAIRS = {"adf": [["--panel", "macro.csv"], ["--lags", "1"]],
         "johansen": [["--panel", "macro.csv"], ["--lags", "1"]],
         "simulate": [["--spec", "spec.json"], ["--seed", "3"]],
         "aggregate": [["--loans", "loans.csv"], ["--yields", "yields.csv"]],
         "spreads": [["--panel", "rates.csv"], ["--yields", "yields.csv"]]}
ANALYSIS_PAIRS = [["--spreads", "spreads.csv"], ["--macro", "macro.csv"], ["--factors", "1"],
                  ["--weak", "-1e-3"], ["--transform", "levels"]]


@st.composite
def argv_words(draw):
    """Mostly a command and pairs it accepts, with stray and malformed words among them."""
    words = [draw(st.sampled_from(COMMANDS + ["frobnicate"]))] if draw(st.integers(0, 9)) else []
    pairs = PAIRS.get(words[0] if words else None, ANALYSIS_PAIRS) + [["--out", "out"]]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["valid"] * 6 + ["pair", "word"]))
        if kind == "valid":
            words += draw(st.sampled_from(pairs))
        elif kind == "pair":
            words += [draw(st.sampled_from(FLAG_WORDS)), draw(st.sampled_from(ARGV_WORDS))]
        else:
            words.append(draw(st.sampled_from(ARGV_WORDS)))
    return words


@FUZZ
@given(words=argv_words())
@example(words=["analyze", "--spreads", "spreads.csv", "--macro", "macro.csv", "--s", "-1"])
# a word holding a line break printed the message over two lines
@example(words=["analyze", "--bogus\nx"])
@example(words=["analyze", "--bogus\u2028x"])
# the two commands that read loans or yields, on the valid files
@example(words=["aggregate", "--loans", "loans.csv", "--yields", "yields.csv", "--out", "out"])
@example(words=["spreads", "--panel", "rates.csv", "--yields", "yields.csv", "--out", "out"])
def test_any_argv_keeps_the_exit_contract(words):
    # argparse's own errors printed a usage block and raised SystemExit(2) out of main
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # a command run without --out writes here
        try:
            code, err = run_main(lambda p: [p.get(w, w) for w in words],
                                 {"spreads.csv": SPREADS, "macro.csv": MACRO, "spec.json": SPEC,
                                  "loans.csv": LOANS, "yields.csv": YIELDS, "rates.csv": RATES})
        except SystemExit as exc:
            raise AssertionError(f"SystemExit({exc.code}) escaped main") from None
        finally:
            os.chdir(cwd)
    if code != cli.EXIT_OK:
        assert len(err.splitlines()) == 1, err


# series names of the shape strategy: <term>-<grade> names, from which even and uneven
# grade and term groups are drawn
TERM_GRADE = [f"{term}-{grade}" for term in (36, 60) for grade in "ABCD"]
SHAPE_FLAGS = st.fixed_dictionaries({}, optional={"--factors": st.integers(1, 4).map(str),
                                                  "--transform": st.sampled_from(["levels",
                                                                                  "diff"])})


@st.composite
def panel_shapes(draw):
    """Valid spread and macro panels of drawn widths, lengths, names and calendars, and flags."""
    scheme = draw(st.sampled_from(["even", "uneven", "generic"]))
    if scheme == "even":  # every grade under every term
        terms = draw(st.sampled_from([("36",), ("60",), ("36", "60")]))
        grades = sorted(draw(st.permutations("ABCD"))[draw(st.integers(0, 3)):])
        y_names = [f"{t}-{g}" for t in terms for g in grades]
    elif scheme == "uneven":
        y_names = draw(st.permutations(TERM_GRADE))[draw(st.integers(0, 7)):]
    else:
        y_names = [f"S{j + 1}" for j in range(8 - draw(st.integers(0, 7)))]
    z_names = [f"Z{j + 1}" for j in range(8 - draw(st.integers(0, 7)))]
    clash = draw(st.sampled_from([None] * 8 + ["shared", "intercept"]))
    if clash:  # a name in both files, or the intercept's name in either file
        names = z_names if clash == "shared" else draw(st.sampled_from([y_names, z_names]))
        names[draw(st.integers(0, len(names) - 1))] = (
            draw(st.sampled_from(y_names)) if clash == "shared" else "(Intercept)")
    # T crosses the ADF minimum, 5 rows per Johansen series and T > k for the widest fit;
    # the macro calendar starts up to half a year off and runs up to half a year longer or
    # shorter, so the files overlap in part
    T = 72 - draw(st.integers(0, 70))
    start, extra = draw(st.integers(-6, 6)), draw(st.integers(-6, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    files = {}
    for fname, names, first, rows in (("spreads.csv", y_names, 0, T),
                                      ("macro.csv", z_names, start, max(T + extra, 1))):
        values = rng.normal(size=(rows, len(names))).cumsum(axis=0)
        files[fname] = as_csv([["date"] + names] + [[_month(first + t)] + [repr(float(v))
                                                                         for v in values[t]]
                                                   for t in range(rows)])
    return files, draw(SHAPE_FLAGS)


# analyze alone runs the unit-root and cointegration tests, so a series too short for
# them is the one failure of analyze that its views need not share
TOO_SHORT = re.compile(r"data error: (unit-root test of series '.*': )?"
                       r"(series too short for the test at lag order \d+"
                       r"|too few observations) \(n=\d+, need >= \d+\)\n")


def _words(flags, settings=cli._SETTINGS):
    """argv words of a {flag: value} dict, keeping the flags of the given settings."""
    return [word for flag, value in flags.items() if flag[2:] in settings
            for word in (flag, value)]


def _run_to(out, argv):
    """main on argv, which writes to directory out: (exit, stderr).

    A failure says why in one line and leaves no out behind.
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    assert code in EXIT_CODES, stderr.getvalue()
    if code != cli.EXIT_OK:
        assert len(stderr.getvalue().splitlines()) == 1, stderr.getvalue()
        assert not os.path.exists(out), stderr.getvalue()
    return code, stderr.getvalue()


@settings(FUZZ, max_examples=40)
@given(shape=panel_shapes())
def test_every_panel_shape_keeps_the_exit_contract(shape):
    files, flags = shape
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            with open(os.path.join(tmp, name), "wb") as fh:
                fh.write(data)
        data = ["--spreads", os.path.join(tmp, "spreads.csv"),
                "--macro", os.path.join(tmp, "macro.csv")]
        rep = os.path.join(tmp, "rep")
        analyzed, analyze_err = _run_to(rep, ["analyze", *data, *_words(flags), "--out", rep])
        bundle = sorted(os.listdir(rep)) if analyzed == cli.EXIT_OK else []
        if bundle:  # summary.md lists every other file of the bundle, and no more
            with open(os.path.join(rep, "summary.md")) as fh:
                files_part = fh.read().split("## Files")[1]
            listed = [line.split("`")[1] for line in files_part.splitlines() if line[:3] == "- `"]
            assert sorted(listed + ["summary.md"]) == bundle
        view_codes = set()
        views = {name: row for name, row in cli.COMMANDS.items() if row[0] is cli.cmd_view}
        for command, (_, _, settings, _, renamed) in views.items():
            taken = _words(flags, settings)  # ols and stepwise take no --factors
            out = os.path.join(tmp, "out")
            code, err = _run_to(out, [command, *data, *taken, "--out", out])
            view_codes.add(code)
            if "ols_full_responses.csv" in bundle:  # one group per response, as in a view
                assert code == cli.EXIT_OK, err
                assert sorted(os.listdir(out)) == sorted(renamed.values())
                for analyze_name, view_name in renamed.items():
                    with open(os.path.join(rep, analyze_name), "rb") as a, \
                            open(os.path.join(out, view_name), "rb") as v:
                        assert v.read() == a.read(), view_name
            if os.path.exists(out):
                shutil.rmtree(out)
        if view_codes == {cli.EXIT_OK}:  # analyze succeeds wherever its views do
            assert analyzed == cli.EXIT_OK or TOO_SHORT.fullmatch(analyze_err), analyze_err
