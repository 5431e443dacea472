"""Numerical checks of the a priori machinery on [0, 1].

Covered: the exponential-weight integral inequality, positivity of the
barrier-function operator image, and bounded-ratio checks of the pointwise
derivative bounds, U0-U2 through e(x) and T0, T1 through etilde(x).  One
table (_BOUNDS) holds each bound's layer-integral kind, derivative order and
right-hand side; no other code states a bound's formula.  "The constant is
eps-uniform" is operationalized as: the sup of |w^(k)| / bound varies by at
most 4x across the eps0 of _UNIFORMITY_EPS0, which span four decades.
Every check takes the layer integral it needs as an argument.
"""

import math
import numbers

import numpy as np

from .calculus import CumulativeIntegral, _finite_eval, _graded, integrate, layer_integral
from .errors import ParameterError
from .fem import FemSolution, galerkin_solve
from .mesh import build_mesh
from .problem import BoundCheckReport

_LEMMA_SAMPLES = 2001  # eps' samples on [a, x] in check_integral_lemma
_LEMMA_PANELS_PER_DECADE = 199 / 14  # and its breakpoints' grading toward x
_GAMMA_MAX = 3.0  # random lemma instances draw gamma from (1e-3, _GAMMA_MAX)
_UNIFORMITY_EPS0 = (1e-3, 1e-5, 1e-7)  # check_bound_uniformity's eps0 sweep
_MAX_VARIATION = 4.0  # and the largest max/min sup ratio it passes
_H_REF = 1.0 / 512  # h of reference solves, the coarsest that bound checks take


def check_integral_lemma(coeffs, a: float, x: float, ell: int,
                         gamma_param: float,
                         e: CumulativeIntegral) -> BoundCheckReport:
    """Verify  int_a^x eps^l exp(g e_a)  <=  (eps(x)^(l+1) exp(g e_a(x)) - eps(a)^(l+1)) / (g + (l+1) s0).

    s0 is the minimum of eps' over _LEMMA_SAMPLES points of [a, x] and must
    be nonnegative; the inequality requires g > -(l+1) s0.  Both sides are
    divided by exp(g e_a(x)) and taken in s = x - t, one formula for every g:
    int_0^(x-a) eps(x - s)^l exp(-g d(s)) ds on the left and
    (eps(x)^(l+1) - eps(a)^(l+1) exp(-g d(x - a))) / (g + (l+1) s0) on the
    right, where d(s) = int_(x-s)^x 1/eps sums positive panel integrals of
    e.integrand (e is the layer integral of coeffs, kind "e").  Nothing
    cancels and no Gauss point x - s loses s to the rounding of x, so one
    quadrature round converges down to eps0 = 1e-12.  Panels grow
    10^(14/199)-fold away from s = 0, the first a hundredth of the
    integrand's layer width eps(x) / |g| clamped into [1e-14, 1] (x - a);
    for g = 0, [0, x - a] is one panel.

    Equality holds whenever eps' is constant on [a, x] (eps-const,
    eps-linear, manufactured): then d/dt[eps^(l+1) exp(g e_a)] equals
    (g + (l+1) s0) eps^l exp(g e_a), and ``worst_margin`` is roundoff of
    either sign.  ``passed`` allows a relative slack of 1e-8.
    """
    if not (0.0 <= a < x <= 1.0):
        raise ParameterError("need 0 <= a < x <= 1")
    if not isinstance(ell, numbers.Integral) or ell < 0:
        raise ParameterError("ell must be a nonnegative integer")
    if not math.isfinite(gamma_param):
        raise ParameterError("gamma must be finite")
    ts = np.linspace(a, x, _LEMMA_SAMPLES)
    sigma0 = float(np.min(_finite_eval(coeffs.eps.d, ts, "eps'")))
    if sigma0 < 0:
        raise ParameterError("integral inequality requires eps' >= 0 on [a, x]")
    if gamma_param <= -(ell + 1) * sigma0:
        raise ParameterError("gamma must exceed -(ell + 1) * sigma0")

    eps = coeffs.eps
    eps_a, eps_x = _finite_eval(eps, np.array([a, x]), "eps")
    denom = gamma_param + (ell + 1) * sigma0
    # g = 0 has no layer width eps(x) / |g|: start = x - a, one panel
    width = 0.01 * eps_x / abs(gamma_param) if gamma_param else math.inf
    start = min(max(width, 1e-14 * (x - a)), x - a)
    num = 1 + math.ceil(_LEMMA_PANELS_PER_DECADE * math.log10((x - a) / start))
    d = CumulativeIntegral(lambda r: e.integrand(x - r),  # 1/eps(x - r)
                           _graded(start, x - a, num))
    lhs = integrate(lambda s: eps(x - s) ** ell * np.exp(-gamma_param * d(s)),
                    0.0, x - a, breakpoints=d.breakpoints)
    # expm1 keeps 1 - exp(-g d(x - a)) accurate when g d(x - a) is small
    pow_a = eps_a ** (ell + 1)
    rhs = (eps_x ** (ell + 1) - pow_a
           - pow_a * math.expm1(-gamma_param * d.partial_sums[-1])) / denom

    margin = (rhs - lhs) / max(abs(rhs), 1e-300)
    passed = lhs <= rhs * (1.0 + 1e-8)
    return BoundCheckReport(
        name=f"integral-lemma(a={a:.3g},x={x:.3g},l={ell},g={gamma_param:.3g})",
        sample_count=_LEMMA_SAMPLES, worst_margin=float(margin),
        worst_point=float(x), passed=bool(passed))


def check_integral_lemma_random(scenario, n_tuples: int, rng,
                                e: CumulativeIntegral) -> BoundCheckReport:
    """Aggregate of n_tuples >= 1 randomized integral-lemma instances on e."""
    if not isinstance(n_tuples, numbers.Integral) or n_tuples < 1:
        raise ParameterError("n_tuples must be an integer of at least 1")
    worst = math.inf
    worst_pt = math.nan
    passed = True
    for _ in range(n_tuples):
        a, x = np.sort(rng.uniform(0.0, 1.0, size=2))
        if x - a < 1e-3:
            x = min(1.0, a + 1e-3)
        ell = int(rng.integers(0, 2))
        gamma = float(rng.uniform(1e-3, _GAMMA_MAX))
        rep = check_integral_lemma(scenario.coeffs, float(a), float(x), ell,
                                   gamma, e=e)
        passed &= rep.passed
        if rep.worst_margin < worst:
            worst, worst_pt = rep.worst_margin, rep.worst_point
    return BoundCheckReport(
        name=f"integral-lemma-random[{scenario.name}]",
        sample_count=n_tuples, worst_margin=worst, worst_point=worst_pt,
        passed=bool(passed))


def check_barrier_operator(coeffs, e: CumulativeIntegral,
                           sample_count: int = 10000,
                           label: str = "") -> BoundCheckReport:
    """Operator image of the layer barrier exp(-beta e(x)) at sample_count >= 2
    equispaced points (an integer).

    The closed form is (beta (b - beta) / eps + c) * exp(-beta e); the eps'
    contributions cancel exactly.  Must be >= 0 everywhere for the
    comparison argument to apply.  ``passed`` judges the bracket, whose min
    must be >= -1e-12 max(max |bracket|, 1): the image hides negatives where
    exp(-beta e) is small, and underflows to 0 once beta e passes about 745.
    ``worst_margin`` and ``worst_point`` are the image's min and its place.
    """
    if not isinstance(sample_count, numbers.Integral) or sample_count < 2:
        raise ParameterError("sample_count must be an integer of at least 2")
    xs = np.linspace(0.0, 1.0, sample_count)
    beta = coeffs.beta
    with np.errstate(under="ignore"):
        bracket = (beta * (_finite_eval(coeffs.b, xs, "b") - beta)
                   / _finite_eval(coeffs.eps, xs, "eps") + _finite_eval(coeffs.c, xs, "c"))
        vals = bracket * np.exp(-beta * e(xs))
    i = int(np.argmin(vals))
    scale = max(float(np.abs(bracket).max()), 1.0)
    name = f"barrier-operator[{label}]" if label else "barrier-operator"
    return BoundCheckReport(
        name=name, sample_count=sample_count,
        worst_margin=float(vals[i]), worst_point=float(xs[i]),
        passed=bool(np.min(bracket) >= -1e-12 * scale))


def _decay(rate, integral_xs):
    """exp(-rate * integral_xs), which may underflow to 0 far from the layer."""
    with np.errstate(under="ignore"):
        return np.exp(-rate * integral_xs)


# bound name -> (layer integral kind, derivative order k, right-hand side with
# C = 1 as a function of (coeffs, xs, eps(xs), integral(xs), beta)).  U0-U2
# decay at rate beta in e; T0 and T1 decay at kappa = (sigma + 2 beta) / 2 in
# etilde, and for constant eps they reduce to the classical
# 1 + eps^-k exp(-beta x / eps).
_BOUNDS = {
    "U0": ("e", 0, lambda co, xs, eps, e, beta: np.ones_like(eps)),
    "U1": ("e", 1, lambda co, xs, eps, e, beta: 1.0 + _decay(beta, e) / eps),
    "U2": ("e", 2, lambda co, xs, eps, e, beta: (
        (1.0 + _finite_eval(co.eps.d, xs, "eps'")) / eps
        * (1.0 + _decay(beta, e) / eps))),
    "T0": ("etilde", 0, lambda co, xs, eps, et, beta: (
        1.0 + _decay(0.5 * (co.sigma + 2.0 * beta), et))),
    "T1": ("etilde", 1, lambda co, xs, eps, et, beta: (
        np.sqrt(co.eps_upper / eps)
        * (1.0 + _decay(0.5 * (co.sigma + 2.0 * beta), et) / co.eps_lower))),
}


def _bound(which: str):
    """The _BOUNDS entry of which; an unknown name raises ParameterError."""
    if which not in _BOUNDS:
        raise ParameterError(f"unknown bound {which!r}; known: {', '.join(_BOUNDS)}")
    return _BOUNDS[which]


def _derivative_samples(reference: FemSolution, k: int):
    """Interior derivative estimates of order k from a reference solve.

    At a node where elements of widths w1, w2 and slopes s1, s2 meet, k = 1
    is (w2 s1 + w1 s2) / (w1 + w2) and k = 2 is 2 (s2 - s1) / (w1 + w2): the
    3-point stencils that are exact for quadratics.
    """
    nodes = reference.mesh.nodes
    if k == 0:
        return nodes, reference.coefficients
    s, w = reference.slopes, reference.mesh.spacings
    s1, s2, w1, w2 = s[:-1], s[1:], w[:-1], w[1:]
    if k == 1:
        return nodes[1:-1], (w2 * s1 + w1 * s2) / (w1 + w2)
    # second differences near the ends are too noisy at small eps0
    return nodes[2:-2], (2.0 * (s2 - s1) / (w1 + w2))[1:-1]


def check_solution_bounds(scenario, reference: FemSolution, which: str,
                          integral: CumulativeIntegral,
                          beta_factor: float = 1.0) -> BoundCheckReport:
    """Sup of |w^(k)| / bound on a reference solve for the bound named which
    (U0, U1, U2, T0 or T1); passes iff finite.

    integral is the scenario's layer integral of the kind the bound is
    stated in: "e" for U0-U2, "etilde" for T0 and T1.  eps-uniformity of the
    hidden constant is the content of the bound and is judged across eps0
    by check_bound_uniformity.
    """
    _, k, rhs = _bound(which)
    if reference.mesh.h > _H_REF + 1e-12:
        raise ParameterError(
            f"reference solve at h = 1/{1 / reference.mesh.h:.6g} is too "
            f"coarse (need h <= 1/{1 / _H_REF:.6g})")
    xs, dk = _derivative_samples(reference, k)
    co = scenario.coeffs
    bound = rhs(co, xs, _finite_eval(co.eps, xs, "eps"), integral(xs),
                beta_factor * co.beta)
    ratios = np.abs(dk) / bound
    i = int(np.argmax(ratios))
    sup = float(ratios[i])
    return BoundCheckReport(
        name=f"solution-bound-{which}[{scenario.name}]", sample_count=len(xs),
        worst_margin=-sup, worst_point=float(xs[i]),
        passed=bool(np.isfinite(sup)), sup_ratio=sup)


def reference_solution(scenario, e: CumulativeIntegral) -> FemSolution:
    """Galerkin solve at h = _H_REF on the mesh built from the layer integral e."""
    msh = build_mesh(scenario.coeffs, e, _H_REF)
    return galerkin_solve(scenario, msh)


def check_bound_uniformity(scenario_family, which: tuple,
                           beta_factor: float = 1.0) -> tuple:
    """Cross-eps0 uniformity of the sup ratio over _UNIFORMITY_EPS0, on
    reference solves at h = 1/512: max/min must stay <= 4.

    which is a nonempty tuple of bound names of check_solution_bounds; a
    bare string, an empty tuple or an unknown name raises ParameterError
    before any solve.  One report
    is returned per name, in order, all judged on the same reference solve
    per eps0, and each layer integral the names need is built once per
    eps0.  A family is a callable eps0 -> Scenario.  This is the falsifiable content
    of "the constant C does not depend on eps".
    """
    if isinstance(which, str):
        raise ParameterError(
            f"which must be a tuple of bound names, not the string {which!r}")
    if not which:
        raise ParameterError("which names no bound")
    kinds = [_bound(name)[0] for name in which]
    rows = []  # one row per eps0, one report per name
    for eps0 in _UNIFORMITY_EPS0:
        scenario = scenario_family(eps0)
        # "e" builds the reference mesh whether or not a bound is stated in it
        integrals = {kind: layer_integral(scenario.coeffs, kind)
                     for kind in dict.fromkeys(["e"] + kinds)}
        ref = reference_solution(scenario, integrals["e"])
        rows.append([check_solution_bounds(scenario, ref, name,
                                           integrals[kind], beta_factor)
                     for name, kind in zip(which, kinds)])
    out = []
    for per_name in zip(*rows):
        sups = np.array([rep.sup_ratio for rep in per_name])
        finite = bool(np.all(np.isfinite(sups)) and np.all(sups > 0))
        variation = float(sups.max() / sups.min()) if finite else math.inf
        last = per_name[-1]  # the smallest eps0
        out.append(BoundCheckReport(
            name=f"uniformity[{last.name}]", sample_count=len(sups),
            worst_margin=_MAX_VARIATION - variation, worst_point=last.worst_point,
            passed=bool(finite and variation <= _MAX_VARIATION),
            sup_ratio=variation))
    return tuple(out)
