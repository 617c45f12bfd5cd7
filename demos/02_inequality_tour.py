"""Tour 2: the bound family, equality structures, and a soundness sweep.

Every bound has the shape delta(n_1,...,n_k) <= a H^2 + b c.  The
improved coefficients never exceed the base ones, the single-part
closed form agrees with the improved formula to machine precision, and
random cubic data never violates any admissible bound.
"""

import numpy as np

from lagdelta import (DeltaTuple, InequalityVariant as V, OptimizerOptions,
                      coefficients, detect_equality_structure,
                      enumerate_tuples, evaluate, mean_curvature,
                      select_improved, soundness_audit,
                      synthesize_equality_data)

print("coefficient table at n = 6 (a, b):")
for tup in enumerate_tuples(6):
    row = [f"old {coefficients(V.OLD, tup)[0]:7.3f}"]
    if tup.N < 6:
        variant = select_improved(tup)
        row.append(f"{variant.value} {coefficients(variant, tup)[0]:7.3f}")
    print(f"  {str(tup):10s} A={float(tup.A):.3f}  " + "   ".join(row))

print("\ntuple (2): improved chain at n = 5")
tup = DeltaTuple(5, (2,))
for variant in (V.OLD, V.FIRST, V.IMPROVED, V.K1, V.OPREA):
    a, b = coefficients(variant, tup)
    print(f"  {variant.value:>9}: a = {a:.6f}, b = {b}")

# synthesize data realizing each equality structure, then round-trip it
opts = OptimizerOptions(restarts=8)
for variant, tup in [(V.IMPROVED, DeltaTuple(5, (2,))),
                     (V.HIGH_A, DeltaTuple(6, (2, 2))),
                     (V.OLD, DeltaTuple(5, (2, 2)))]:
    data = synthesize_equality_data(tup, variant, lam=1.0, seed=3)
    det = detect_equality_structure(data.h, tup, variant, tol=1e-10)
    rep = evaluate(data, variant if variant != V.OLD else V.OLD, tup, opts)
    _, h2 = mean_curvature(data.h)
    print(f"\n{variant.value} structure on {tup}: pattern deviation "
          f"{det.deviation:.2e}, H^2 = {h2:.4f}, slack = {rep.slack:.2e}")

# a small soundness sweep; slacks of valid bounds are never negative
print("\nsoundness sweep, n = 4, 100 random forms:")
res = soundness_audit(4, 100, seed=42)
for pair in res["pairs"]:
    print(f"  tuple ({'+'.join(map(str, pair['tuple']))}), "
          f"{pair['variant']:>9}: min relative slack "
          f"{pair['min_slack_rel']: .3e}")
