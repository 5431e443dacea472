"""
Verifying the a priori machinery numerically
============================================

Three falsifiable checks behind the error analysis:

1. an exponential-weight integral inequality (the workhorse lemma),
2. positivity of the operator image of the layer barrier function,
3. eps-uniformity of the pointwise derivative bounds, judged by how much
   the ratio sup |u^(k)| / bound moves across three decades of eps0.  U0-U2
   bound u, u', u'' through the stretched variable e(x); T0 and T1 bound u
   and u' through the transformed variable etilde(x).

The third check comes with a negative control: doubling the decay rate in
the bound demands more decay than the solution actually has, and the
uniformity check must catch that.
"""

import numpy as np

from layerfem import (
    check_barrier_operator,
    check_bound_uniformity,
    check_integral_lemma_random,
    get_scenario,
    layer_integral,
)

rng = np.random.default_rng(7)

print("-- integral lemma, 50 random (a, x, l, gamma) tuples per scenario --")
for name in ("eps-const", "eps-linear", "eps-exp"):
    scenario = get_scenario(name, 0.01)
    e = layer_integral(scenario.coeffs, "e")
    rep = check_integral_lemma_random(scenario, 50, rng, e=e)
    print(f"{rep.name:45s} worst margin {rep.worst_margin:+.2e}  "
          f"{'PASS' if rep.passed else 'FAIL'}")

print("\n-- barrier operator positivity --")
for name in ("eps-const", "eps-linear", "eps-exp", "manufactured"):
    scenario = get_scenario(name, 1e-5)
    e = layer_integral(scenario.coeffs, "e")
    rep = check_barrier_operator(scenario.coeffs, e, label=name)
    print(f"{rep.name:45s} min value {rep.worst_margin:+.2e}  "
          f"{'PASS' if rep.passed else 'FAIL'}")

print("\n-- derivative-bound uniformity across eps0 = 1e-3, 1e-5, 1e-7 --")
family = lambda eps0: get_scenario("manufactured", eps0)
for rep in check_bound_uniformity(family, ("U0", "U1", "U2", "T0", "T1")):
    print(f"{rep.name:45s} variation {rep.sup_ratio:8.3f}  "
          f"{'PASS' if rep.passed else 'FAIL'}")

(control,) = check_bound_uniformity(family, ("U1",), beta_factor=2.0)
print(f"{'negative control (decay rate doubled)':45s} "
      f"variation {control.sup_ratio:8.1f}  "
      f"{'FAIL as designed' if not control.passed else 'unexpected PASS'}")
