"""Acceptance criteria 1-9.

Each test prints exactly one PASS/FAIL line with the measured quantities,
then asserts.  Tolerances are pinned in the assertions, not configurable.
"""

import math

import numpy as np
import pytest

from layerfem.analysis import (
    convergence_study,
    energy_norm,
    interpolation_study,
    observed_rate,
)
from layerfem.calculus import layer_integral
from layerfem.fem import (
    FemSolution,
    TridiagonalSystem,
    bilinear_form,
    galerkin_solve,
    solve_tridiagonal,
)
from layerfem.mesh import build_mesh, predict_cardinality
from layerfem.problem import (
    CoefficientSet,
    ScalarFunction,
    Scenario,
    builtin_scenarios,
    get_scenario,
)
from layerfem.verify import (
    check_barrier_operator,
    check_bound_uniformity,
    check_integral_lemma,
    check_integral_lemma_random,
)

H_SWEEP = [1.0 / 8, 1.0 / 16, 1.0 / 32, 1.0 / 64, 1.0 / 128, 1.0 / 256]
EPS_SWEEP = [1e-3, 1e-5, 1e-7]
FAMILIES = ["eps-const", "eps-linear", "eps-exp", "manufactured"]


def rates_of(values, hs):
    """Observed rates between consecutive table entries (h descending)."""
    return [observed_rate(values[i], values[i + 1], hs[i], hs[i + 1])
            for i in range(len(values) - 1)]


def _line(num, title, ok, detail):
    print(f"[criterion {num}] {title}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def manufactured_table():
    return convergence_study(
        lambda eps0: get_scenario("manufactured", eps0), H_SWEEP, EPS_SWEEP)


def test_criterion_1_energy_convergence(manufactured_table):
    """Energy-norm rate >= 0.9 everywhere, ~1 at the finest level."""
    all_rates = []
    final_rates = []
    for eps0 in EPS_SWEEP:
        rates = [r.rate for r in manufactured_table
                 if r.eps0 == eps0 and r.rate is not None]
        all_rates.extend(rates)
        final_rates.append(rates[-1])
    ok = min(all_rates) >= 0.9 and np.mean(final_rates) >= 0.95
    _line(1, "energy convergence rate", ok,
          f"min rate {min(all_rates):.3f}, final-level mean "
          f"{np.mean(final_rates):.3f}")
    assert ok


def test_criterion_2_eps_robustness(manufactured_table):
    """Energy error varies by at most 2x across six decades of eps0."""
    worst = 0.0
    for h in H_SWEEP:
        errs = [r.energy_error for r in manufactured_table
                if r.h == h and r.skipped_reason is None]
        assert len(errs) == len(EPS_SWEEP)
        worst = max(worst, max(errs) / min(errs))
    ok = worst <= 2.0
    _line(2, "eps-robustness of the error", ok,
          f"worst cross-eps0 ratio {worst:.3f} <= 2.0")
    assert ok


def test_criterion_3_interpolation_rates():
    """Interpolation error orders: L2 ~ h^2, weighted H1 ~ h."""
    sc = get_scenario("eps-const", 1e-6)
    hs = [1.0 / 16, 1.0 / 32, 1.0 / 64, 1.0 / 128, 1.0 / 256]
    rows = interpolation_study(sc, hs)
    got_h = [r.h for r in rows]
    r_sl2 = rates_of([r.smooth_l2 for r in rows], got_h)
    r_sh1 = rates_of([r.smooth_h1 for r in rows], got_h)
    r_wl2 = rates_of([r.layer_wl2_fine for r in rows], got_h)
    r_wh1 = rates_of([r.layer_wh1_fine for r in rows], got_h)
    ok = (min(r_sl2) >= 1.8 and min(r_sh1) >= 0.9
          and min(r_wl2) >= 1.8 and min(r_wh1) >= 0.9)
    _line(3, "interpolation rates", ok,
          f"smooth L2 {min(r_sl2):.2f}>=1.8, smooth H1 {min(r_sh1):.2f}>=0.9, "
          f"layer wL2 {min(r_wl2):.2f}>=1.8, layer wH1 {min(r_wh1):.2f}>=0.9")
    assert ok


def test_criterion_4_mesh_invariants():
    """Transition-point sandwich, layer resolution, cardinality bound."""
    checked = 0
    worst_card = 0.0
    for name in FAMILIES:
        for eps0 in EPS_SWEEP:
            sc = get_scenario(name, eps0)
            e = layer_integral(sc.coeffs, "e")
            for h in H_SWEEP:
                msh = build_mesh(sc.coeffs, e, h)
                co = sc.coeffs
                lo = -2.0 / co.beta * co.eps_lower * math.log(h)
                hi = -2.0 / co.beta * co.eps_upper * math.log(h)
                assert lo * (1 - 1e-12) <= msh.tau_star <= hi * (1 + 1e-12)
                assert math.exp(-co.beta * e(msh.tau)) <= h * h * (1 + 1e-12)
                worst_card = max(
                    worst_card,
                    msh.node_count / predict_cardinality(co, h))
                checked += 1
    ok = worst_card <= 4.0
    _line(4, "mesh invariants", ok,
          f"{checked} meshes, worst count/prediction {worst_card:.2f} <= 4")
    assert ok


def test_criterion_5_integral_lemma():
    """Randomized integral-inequality instances at eps0 = 1e-2, 1e-7 and
    1e-12; the equality case is tight at each."""
    rng = np.random.default_rng(20240817)
    worst = math.inf
    loosest = 0.0  # the largest |margin| of the const-eps equality case
    ok = True
    for eps0 in (1e-2, 1e-7, 1e-12):
        for sc in builtin_scenarios(eps0):
            e = layer_integral(sc.coeffs, "e")
            rep = check_integral_lemma_random(sc, 100, rng, e=e)
            ok &= rep.passed
            worst = min(worst, rep.worst_margin)
        const = get_scenario("eps-const", eps0).coeffs
        eq = check_integral_lemma(const, 0.0, 0.5, 0, 1.0,
                                  layer_integral(const, "e"))
        loosest = max(loosest, abs(eq.worst_margin))
    ok = bool(ok and worst >= -1e-8 and loosest <= 1e-12)
    _line(5, "integral lemma", ok,
          f"1200 random tuples at eps0 1e-2, 1e-7, 1e-12, worst margin "
          f"{worst:.2e} >= -1e-8, const-eps equality |margin| "
          f"{loosest:.2e} <= 1e-12")
    assert ok


def test_criterion_6_barrier_positivity():
    """Barrier operator image nonnegative on all built-in scenarios."""
    worst = math.inf
    ok = True
    for eps0 in (1e-3, 1e-5):
        for sc in builtin_scenarios(eps0):
            e = layer_integral(sc.coeffs, "e")
            rep = check_barrier_operator(sc.coeffs, e, sample_count=10000,
                                         label=sc.name)
            ok &= rep.passed
            worst = min(worst, rep.worst_margin)
    _line(6, "barrier operator positivity", ok,
          f"8 scenario/eps0 pairs at 10000 samples, "
          f"worst value {worst:.2e} >= -1e-12*scale")
    assert bool(ok)


def test_criterion_7_bound_uniformity():
    """Derivative bounds hold eps-uniformly; weakened exponent is caught."""
    ok = True
    worst_var = 0.0
    for name in FAMILIES:
        fam = lambda z, name=name: get_scenario(name, z)
        for rep in check_bound_uniformity(fam, ("U0", "U1")):
            ok &= rep.passed
            worst_var = max(worst_var, rep.sup_ratio)
    (control,) = check_bound_uniformity(
        lambda z: get_scenario("manufactured", z), ("U1",), beta_factor=2.0)
    ok = bool(ok and not control.passed)
    _line(7, "derivative-bound uniformity", ok,
          f"worst positive variation {worst_var:.3f} <= 4, "
          f"2*beta control variation {control.sup_ratio:.1f} (must exceed 4)")
    assert ok


def test_criterion_8_linear_solver():
    """Tridiagonal solve matches dense LU; zero data gives zero solution."""
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 201))
        sub = rng.standard_normal(n - 1)
        sup = rng.standard_normal(n - 1)
        diag = 2.5 + np.abs(rng.standard_normal(n))
        diag[1:] += np.abs(sub)
        diag[:-1] += np.abs(sup)
        rhs = rng.standard_normal(n)
        sys_ = TridiagonalSystem(sub=sub, diag=diag, sup=sup, rhs=rhs)
        dense = np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)
        ref = np.linalg.solve(dense, rhs)
        err = np.abs(solve_tridiagonal(sys_) - ref).max()
        worst = max(worst, err / max(1.0, np.abs(ref).max()))

    zero_ok = True
    for sc in builtin_scenarios(1e-4):
        zero = Scenario(
            name="zero", coeffs=CoefficientSet(
                eps=sc.coeffs.eps, b=sc.coeffs.b, c=sc.coeffs.c,
                f=ScalarFunction.constant(0.0), beta=sc.coeffs.beta,
                gamma=sc.coeffs.gamma, eps_lower=sc.coeffs.eps_lower,
                eps_upper=sc.coeffs.eps_upper, sigma=sc.coeffs.sigma),
            exact=None, smooth_exemplar=None, layer_exemplar=None)
        e = layer_integral(zero.coeffs, "e")
        msh = build_mesh(zero.coeffs, e, 1.0 / 64)
        sol = galerkin_solve(zero, msh)
        zero_ok &= bool(np.abs(sol.coefficients).max() <= 1e-13)
    ok = worst <= 1e-12 and zero_ok
    _line(8, "linear solver", ok,
          f"50 random systems, worst rel err {worst:.2e} <= 1e-12; "
          f"zero rhs gives |u_h| <= 1e-13: {zero_ok}")
    assert ok


def test_criterion_9_coercivity():
    """a(v, v) >= min(1, gamma) ||v||_eps^2 on random FE functions."""
    rng = np.random.default_rng(5)
    worst = math.inf
    for sc in builtin_scenarios(1e-4):
        e = layer_integral(sc.coeffs, "e")
        msh = build_mesh(sc.coeffs, e, 1.0 / 32)
        gamma_min = min(1.0, sc.coeffs.gamma)
        for _ in range(100):
            coef = rng.standard_normal(msh.node_count)
            coef[0] = coef[-1] = 0.0
            v = FemSolution(mesh=msh, coefficients=coef)
            nrm2 = energy_norm(v, sc.coeffs) ** 2
            margin = (bilinear_form(v, v, sc) - gamma_min * nrm2) / nrm2
            worst = min(worst, margin)
    ok = worst >= -1e-9
    _line(9, "discrete coercivity", ok,
          f"400 random FE functions, worst normalized margin "
          f"{worst:.2e} >= -1e-9")
    assert ok
