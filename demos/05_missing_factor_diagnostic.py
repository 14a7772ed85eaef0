"""
Detecting a latent factor the proxies cannot see
=================================================

Factor regressions explain each response with scores extracted by CCA. If the
proxy block spans everything systematic, the residuals are idiosyncratic and
their first principal component adds nothing. If a real factor is missing,
that component is the factor: appending it lifts the adjusted R2 of every
response at once.

Two scenarios, same dimensions, one difference: scenario B has a sixth of its
systematic variance loaded on a factor the proxies never observe.
"""

import numpy as np

import creditfactors as cf


def run(label, spec):
    ds = cf.generate(spec)
    sol = cf.cca_fit(ds.responses, ds.proxies)
    scores = cf.FactorScores.from_solution(sol, r=2)
    fits = cf.factor_regressions(ds.responses, scores)
    report = cf.missing_factor_diagnostic(fits, scores.scores, ds.responses)

    print(f"--- {label} ---")
    print(cf.to_markdown(*cf.diagnostic_table_rows(report)))
    print(f"residual PC1 variance share: {report.pc1_variance_share:.3f}")
    print(f"verdict: {report.verdict}")
    print()
    return report


clean = run("scenario A: proxies span the factor space",
            cf.scenario_no_missing_factor(seed=3))
planted = run("scenario B: one factor hidden from the proxies",
              cf.scenario_missing_factor(seed=3))

assert clean.verdict == cf.VERDICT_NONE
assert planted.verdict == cf.VERDICT_MISSING

# the augmented fits themselves, for the planted case
ds = cf.generate(cf.scenario_missing_factor(seed=3))
sol = cf.cca_fit(ds.responses, ds.proxies)
scores = cf.FactorScores.from_solution(sol, r=2)
fits = cf.factor_regressions(ds.responses, scores)
augmented, pc1, share = cf.augment_with_pc1(fits, scores.scores, ds.responses)

print("first response, before and after appending the residual component:")
header, rows = cf.fit_table([fits[0], augmented[0]])
print(cf.to_markdown(header, rows))
print()

# the recovered component tracks the truly hidden factor up to sign
hidden = ds.missing_factors[:, 0]
r = np.corrcoef(pc1, hidden)[0, 1]
print(f"corr(residual PC1, hidden factor) = {r:+.3f}")
