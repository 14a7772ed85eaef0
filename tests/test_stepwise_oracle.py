"""The stepwise search against an exhaustive oracle that fits every move with ols.

`stepwise_aic` scores moves from centred cross-products and refits, through
ols's own least-squares path, only the moves that can still win. The oracle
below is the search without the scorer: every add and drop of every pass is
an ols fit. On a seeded corpus the two must give the same trace and
bit-identical fits, the scorer's error bound must hold wherever it calls a
move resolved, and no move that ols rejects may be resolved. The lockstep
`stepwise_columns` must give each column what `stepwise_aic` gives it alone.
"""

import functools
import itertools

import numpy as np
import pytest

import creditfactors as cf
from creditfactors import regress, synthgen


def exhaustive_stepwise(y, X_full=None, response_name="y", predictor_names=None,
                        on_pass=None):
    """Greedy AIC search that fits every single-predictor add and drop with ols.

    on_pass, when given, is called once per pass with the selected columns and
    {column: (candidate columns, ols fit or None where ols rejects it)}.
    """
    Y, X = regress._as_design(np.reshape(y, (-1, 1)), X_full)
    p = X.shape[1]
    names = regress._predictor_names(predictor_names, p)

    def fit_for(selected):
        return cf.ols(Y, X[:, selected], response_name=response_name,
                      predictor_names=[names[j] for j in selected])

    selected = []
    current = fit_for(selected)
    initial_aic = current.aic
    steps = []
    while True:
        best = None
        moves = {}
        for j in range(p):
            if j in selected:
                candidate = [i for i in selected if i != j]
                action = "drop"
            else:
                candidate = sorted(selected + [j])
                action = "add"
            try:
                fit = fit_for(candidate)
            except (cf.DataError, cf.NumericalError):
                moves[j] = (candidate, None)
                continue  # unusable move (too many parameters or collinear)
            moves[j] = (candidate, fit)
            if fit.aic >= current.aic - 1e-10:
                continue
            if best is None or fit.aic < best[0]:
                best = (fit.aic, action, j, candidate, fit)
        if on_pass is not None:
            on_pass(list(selected), moves)
        if best is None:
            break
        _, action, j, selected, current = best
        steps.append(cf.StepwiseStep(action=action, predictor=names[j], aic_after=current.aic))
    return current, cf.StepwiseTrace(initial_aic=initial_aic, steps=tuple(steps))


def desk_cases():
    """Desk-spec responses on their ten proxies, T=63 and T=1200, seeds 0-9."""
    for T in (63, 1200):
        for seed in range(10):
            ds = synthgen.generate(synthgen.default_spec(seed=seed, n_periods=T))
            for r in range(ds.responses.shape[1]):
                yield f"desk T={T} seed={seed} r={r}", ds.responses[:, r], ds.proxies


def adversarial_case(i):
    """One seeded design with T in 15-200 and 2-9 predictors.

    Cases cycle through plain, near-collinear (one column copies another up
    to noise 1e-3 to 1e-9) and duplicated columns; half rescale the columns
    by 1e-3 to 1e3 and half put the response at a level up to 1e4.
    """
    rng = np.random.default_rng([8, i])
    T = int(rng.integers(15, 201))
    p = int(rng.integers(2, 10))
    X = rng.standard_normal((T, p))
    a, b = rng.choice(p, size=2, replace=False)
    kind = ("plain", "near-collinear", "duplicated")[i % 3]
    if kind == "near-collinear":
        X[:, b] = X[:, a] + 10.0 ** -rng.uniform(3, 9) * rng.standard_normal(T)
    elif kind == "duplicated":
        X[:, b] = X[:, a]
    beta = rng.standard_normal(p) * (rng.random(p) < 0.5)
    y = X @ beta + 10.0 ** rng.uniform(-1.5, 0.5) * rng.standard_normal(T)
    if rng.random() < 0.5:
        X = X * 10.0 ** rng.uniform(-3, 3, size=p)
    if rng.random() < 0.5:
        y = y + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(0, 4)
    return f"adversarial {i} ({kind}, T={T}, p={p})", y, X


def constant_cases():
    rng = np.random.default_rng(81)
    for level in (0.0, 3.25, -1e4):
        yield f"constant {level}", np.full(40, level), rng.standard_normal((40, 4))


def short_cases():
    """Series so short that the late adds leave no more rows than parameters."""
    for i in range(20):
        rng = np.random.default_rng([82, i])
        T = int(rng.integers(4, 12))
        X = rng.standard_normal((T, 9))
        y = X @ rng.standard_normal(9) + 1e-3 * rng.standard_normal(T)
        yield f"short {i} (T={T})", y, X


def corpus():
    yield from desk_cases()
    for i in range(300):
        yield adversarial_case(i)
    yield from constant_cases()
    yield from short_cases()


@functools.lru_cache(maxsize=None)
def oracle_runs():
    """(label, y, X, oracle fit, oracle trace, moves, rejected) for every corpus case.

    moves lists (candidate columns, ols AIC, ols RSS) of every move the
    oracle fitted in any pass, and rejected lists (pass index, candidate
    columns) of every move ols rejected.
    """
    runs = []
    for label, y, X in corpus():
        moves, rejected, passes = [], [], itertools.count()

        def record(_, fits):
            i = next(passes)
            moves.extend((c, f.aic, float(f.residuals @ f.residuals))
                         for c, f in fits.values() if f is not None)
            rejected.extend((i, c) for c, f in fits.values() if f is None)

        fit, trace = exhaustive_stepwise(y, X, on_pass=record)
        runs.append((label, y, X, fit, trace, moves, rejected))
    return tuple(runs)


def assert_bitwise_equal_fits(mine, theirs, label):
    assert mine.predictor_names == theirs.predictor_names, label
    for field in ("coefficients", "std_errors", "t_statistics", "residuals"):
        a, b = getattr(mine, field), getattr(theirs, field)
        assert a.tobytes() == b.tobytes(), f"{label}: {field}"
    for field in ("response_name", "r_squared", "adj_r_squared", "aic", "n_obs",
                  "condition_number"):
        assert getattr(mine, field) == getattr(theirs, field), f"{label}: {field}"


def test_corpus_matches_the_exhaustive_oracle():
    runs = oracle_runs()
    assert len(runs) == 240 + 300 + 3 + 20
    moved = 0
    for label, y, X, ofit, otrace, _, _ in runs:
        fit, trace = cf.stepwise_aic(y, X)
        assert trace == otrace, label
        assert_bitwise_equal_fits(fit, ofit, label)
        moved += bool(trace.steps)
    # the corpus must exercise the search, not only its empty case
    assert moved > 400


def test_fast_aic_error_stays_within_its_bound():
    """|fast AIC - ols AIC| <= bound on every resolved move the oracle fits.

    The leading term of the bound is T eps cond(G_S) yy/RSS: a relative
    error eps cond(G_S) in the Gram solve's b'A^-1 b is a relative error
    eps cond(G_S) yy/RSS in RSS = yy - b'A^-1 b, and AIC = T ln(RSS/T) moves
    by T times that. The scorer's bound must be at least that term and hold
    on every resolved move.
    """
    resolved = unresolved = 0
    worst = 0.0
    for label, y, X, _, _, moves, _ in oracle_runs():
        score = regress._subset_scorer(y, X)
        T = len(y)
        yc = y - y.mean()
        Xc = X - X.mean(axis=0)
        G = Xc.T @ Xc
        corr = G / np.sqrt(np.outer(np.diag(G), np.diag(G)))
        for size in {len(c) for c, _, _ in moves}:
            group = [m for m in moves if len(m[0]) == size]
            subsets = np.array([c for c, _, _ in group], dtype=np.intp).reshape(len(group), size)
            aic, bound = score(subsets)
            ok = bound < regress.AIC_WINDOW
            resolved += int(ok.sum())
            unresolved += int((~ok).sum())
            if not ok.any():
                continue
            ols_aic, rss = np.array([(a, r) for _, a, r in group])[ok].T
            sub = subsets[ok]
            cond = np.linalg.cond(corr[sub[:, :, None], sub[:, None, :]]) if size else 1.0
            leading = T * np.finfo(float).eps * cond * (yc @ yc) / rss
            assert (bound[ok] >= leading).all(), label
            err = np.abs(aic[ok] - ols_aic)
            assert (err <= bound[ok]).all(), f"{label}: {err} > {bound[ok]}"
            worst = max(worst, float((err / bound[ok]).max()))
    assert resolved > 0.8 * (resolved + unresolved)
    print(f"{resolved} resolved moves, {unresolved} unresolved; "
          f"largest error is {worst:.2e} of its bound")


def test_every_move_ols_rejects_is_unresolved():
    """The scorer never resolves a move that ols rejects.

    ols rejects a move only for too few rows or for a scaled design with
    kappa >= 1e20 (see stepwise_aic), so its bound is at least AIC_WINDOW
    and the search always refits it instead of trusting the fast AIC.
    """
    count, smallest = 0, np.inf
    for label, y, X, _, _, _, rejected in oracle_runs():
        score = regress._subset_scorer(y, X)
        for _, c in rejected:
            _, bound = score(np.array([c], dtype=np.intp).reshape(1, len(c)))
            assert bound[0] >= regress.AIC_WINDOW, f"{label}: {c}"
            count += 1
            smallest = min(smallest, float(bound[0]))
    assert count > 100
    print(f"{count} moves ols rejects; smallest bound {smallest:.3g}")


def test_search_goes_on_past_a_move_ols_rejects(monkeypatch):
    """A pass whose refits include a move ols rejects skips it and still takes a move."""
    raised = []
    fit_columns = regress._fit_columns  # every least-squares fit, each stepwise refit included

    def recording_fit(*args, **kwargs):
        try:
            return fit_columns(*args, **kwargs)
        except (cf.DataError, cf.NumericalError):
            raised.append(args[-1])
            raise

    monkeypatch.setattr(regress, "_fit_columns", recording_fit)
    went_on = 0
    for label, y, X, ofit, otrace, _, rejected in oracle_runs():
        # rejected for collinearity (not for too few rows) in a pass that took a move
        if not any(i < len(otrace.steps) and len(c) + 2 <= len(y) for i, c in rejected):
            continue
        raised.clear()
        fit, trace = cf.stepwise_aic(y, X)
        assert raised, label
        assert trace == otrace, label
        assert_bitwise_equal_fits(fit, ofit, label)
        went_on += 1
    assert went_on > 0


def large_level_design(level, spread):
    """x1 carries the signal at `level` with a tiny `spread`; x2 is a noisy copy of it."""
    rng = np.random.default_rng(83)
    T = 40
    z = rng.standard_normal(T)
    X = np.column_stack([level + spread * z, z + 0.5 * rng.standard_normal(T),
                         rng.standard_normal(T)])
    y = z + 0.7 * rng.standard_normal(T)
    return y, X


@pytest.mark.parametrize("level, spread", [(1e6, 1e-5), (1e4, 5e-3)])
def test_large_level_column_fits(level, spread):
    """A column at a large level with a tiny spread is well posed, and ols fits it.

    ols solves on centred, unit-norm columns, so x1's level does not enter
    its rank guard: the search adds x1, which carries the signal, as the
    oracle does.
    """
    y, X = large_level_design(level, spread)
    assert cf.ols(y, X[:, [0]]).slope_names == ("x1",)
    _, bound = regress._subset_scorer(y, X)(np.array([[0], [1], [2]], dtype=np.intp))
    assert (bound < regress.AIC_WINDOW).all()
    ofit, otrace = exhaustive_stepwise(y, X)
    assert otrace.steps[0] == cf.StepwiseStep("add", "x1", otrace.steps[0].aic_after)
    fit, trace = cf.stepwise_aic(y, X)
    assert trace == otrace
    assert_bitwise_equal_fits(fit, ofit, "large level")


def shared_design_groups():
    """(label, Y, X, oracle traces, collinear) with the corpus responses on one design as Y.

    Each group also gets pure noise, which the search leaves near the start, a
    response that one column of the design drives, and a constant column. The
    oracle traces belong to the corpus columns, which come first. collinear
    tells whether ols rejects a collinear move in a pass where a corpus search moves on.
    """
    groups = {}
    for label, y, X, _, otrace, _, rejected in oracle_runs():
        collinear = any(i < len(otrace.steps) and len(c) + 2 <= len(y) for i, c in rejected)
        groups.setdefault(id(X), (label, X, []))[2].append((y, otrace, collinear))
    for i, (label, X, columns) in enumerate(groups.values()):
        rng = np.random.default_rng([84, i])
        noise = rng.standard_normal(len(X))
        extra = [noise, X[:, -1] + 0.5 * X[:, -1].std() * noise, np.full(len(X), 2.5)]
        yield (label, np.column_stack([y for y, _, _ in columns] + extra), X,
               [t for _, t, _ in columns], any(c for _, _, c in columns))


def assert_columns_match(results, expected, order, label):
    assert len(results) == len(order), label
    for c, (fit, trace) in zip(order, results):
        assert trace == expected[c][1], f"{label}: column {c}"
        assert_bitwise_equal_fits(fit, expected[c][0], f"{label}: column {c}")


def test_stepwise_columns_is_each_column_searched_alone():
    """Columns sharing one design give each column's own stepwise_aic, bit for bit.

    Also for the columns in any order and for any subset of them, so no search
    depends on which others run next to it or stop before it.
    """
    rng = np.random.default_rng(85)
    uneven = collinear = 0
    for label, Y, X, otraces, rejects in shared_design_groups():
        names = [f"r{c}" for c in range(Y.shape[1])]
        expected = [cf.stepwise_aic(Y[:, c], X, response_name=names[c])
                    for c in range(Y.shape[1])]
        assert [trace for _, trace in expected[:len(otraces)]] == otraces, label
        assert expected[-1][1].steps == (), label  # the constant column
        for order in (np.arange(Y.shape[1]), rng.permutation(Y.shape[1]),
                      rng.permutation(Y.shape[1])[:rng.integers(1, Y.shape[1])]):
            results = regress.stepwise_columns(Y[:, order], X, [names[c] for c in order])
            assert_columns_match(results, expected, order, label)
        uneven += len({len(trace.steps) for _, trace in expected}) > 1
        collinear += rejects
    # searches that stop at different passes, and designs where ols rejects a move
    print(f"{uneven} groups stop at different passes; {collinear} reject a collinear move")
    assert uneven > 300 and collinear > 40


def test_stepwise_columns_on_a_tiled_section_design():
    """Grouped responses stacked end to end on the design tiled to match, as `analyze` fits."""
    ds = synthgen.generate(synthgen.default_spec(seed=3, n_periods=63))
    size, T = 3, 63
    Y = ds.responses.T.reshape(-1, size * T).T  # group g stacks responses 3g, 3g+1, 3g+2
    X = np.tile(ds.proxies, (size, 1))
    names = [f"group {g}" for g in range(Y.shape[1])]
    expected = [exhaustive_stepwise(Y[:, g], X, response_name=names[g])
                for g in range(Y.shape[1])]
    assert all(trace.steps for _, trace in expected)
    for order in (np.arange(Y.shape[1]), np.array([2, 0, 3, 1]), np.array([1])):
        results = regress.stepwise_columns(Y[:, order], X, [names[g] for g in order])
        assert_columns_match(results, expected, order, "tiled")
