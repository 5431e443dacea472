"""Numerical checks of the a priori machinery on [0, 1].

Covered: the exponential-weight integral inequality, positivity of the
barrier-function operator image, and bounded-ratio checks of the pointwise
derivative bounds (both in the original variable, driven by e(x), and in the
transformed variable, driven by etilde(x)).  "The constant is eps-uniform"
is operationalized as: the sup of |w^(k)| / bound varies by at most 4x
across three decades of eps0.
"""

import math

import numpy as np
from dataclasses import dataclass
from typing import Optional

from .calculus import CumulativeIntegral, integrate, layer_integral
from .errors import ConfigurationError, ParameterError
from .fem import FemSolution, galerkin_solve
from .mesh import build_mesh

_LEMMA_SAMPLES = 2001  # eps' samples on [a, x] in check_integral_lemma
_GAMMA_MAX = 3.0  # random lemma instances draw gamma from (1e-3, _GAMMA_MAX)
_UNIFORMITY_EPS0 = (1e-3, 1e-5, 1e-7)  # check_bound_uniformity's eps0 sweep
_MAX_VARIATION = 4.0  # and the largest max/min sup ratio it passes


@dataclass(frozen=True)
class BoundCheckReport:
    name: str
    sample_count: int
    worst_margin: float
    worst_point: float
    passed: bool
    sup_ratio: Optional[float] = None


def check_integral_lemma(coeffs, a: float, x: float, ell: int,
                         gamma_param: float,
                         e: Optional[CumulativeIntegral] = None) -> BoundCheckReport:
    """Verify  int_a^x eps^l exp(g e_a)  <=  (eps(x)^(l+1) exp(g e_a(x)) - eps(a)^(l+1)) / (g + (l+1) s0).

    s0 is the minimum of eps' over _LEMMA_SAMPLES points of [a, x] and must
    be nonnegative; the inequality requires g > -(l+1) s0.  For positive g
    both sides are rescaled by exp(-g e_a(x)) so that huge layer exponents
    never overflow.

    Equality holds whenever eps' is constant on [a, x] (eps-const,
    eps-linear, manufactured): then d/dt[eps^(l+1) exp(g e_a)] equals
    (g + (l+1) s0) eps^l exp(g e_a), and ``worst_margin`` is roundoff of
    either sign.  ``passed`` allows a relative slack of 1e-8.
    """
    if not (0.0 <= a < x <= 1.0):
        raise ParameterError("need 0 <= a < x <= 1")
    if ell < 0:
        raise ParameterError("ell must be a nonnegative integer")
    ts = np.linspace(a, x, _LEMMA_SAMPLES)
    sigma0 = float(np.min(coeffs.eps.d(ts)))
    if sigma0 < 0:
        raise ParameterError("integral inequality requires eps' >= 0 on [a, x]")
    if gamma_param <= -(ell + 1) * sigma0:
        raise ParameterError("gamma must exceed -(ell + 1) * sigma0")
    if e is None:
        e = layer_integral(coeffs, "e")

    eps = coeffs.eps
    e_a, e_x = e(a), e(x)
    denom = gamma_param + (ell + 1) * sigma0
    bp = x - np.geomspace((x - a) * 1e-14, x - a, 200)

    # exp(g (e(t) - shift)) <= 1 on [a, x]: no overflow for either sign of g
    shift = e_x if gamma_param > 0 else e_a
    lhs = integrate(
        lambda t: eps(t) ** ell * np.exp(gamma_param * (e(t) - shift)),
        a, x, breakpoints=bp)
    with np.errstate(under="ignore"):
        rhs = (eps(x) ** (ell + 1) * math.exp(gamma_param * (e_x - shift))
               - eps(a) ** (ell + 1) * math.exp(gamma_param * (e_a - shift))
               ) / denom

    margin = (rhs - lhs) / max(abs(rhs), 1e-300)
    passed = lhs <= rhs * (1.0 + 1e-8)
    return BoundCheckReport(
        name=f"integral-lemma(a={a:.3g},x={x:.3g},l={ell},g={gamma_param:.3g})",
        sample_count=_LEMMA_SAMPLES, worst_margin=float(margin),
        worst_point=float(x), passed=bool(passed))


def check_integral_lemma_random(scenario, n_tuples: int, rng,
                                e: Optional[CumulativeIntegral] = None) -> BoundCheckReport:
    """Aggregate of n_tuples >= 1 randomized integral-lemma instances."""
    if n_tuples < 1:
        raise ParameterError("n_tuples must be at least 1")
    if e is None:
        e = layer_integral(scenario.coeffs, "e")
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
    equispaced points; a positive multiple changes neither verdict nor worst point.

    The closed form is (beta (b - beta) / eps + c) * exp(-beta e); the eps'
    contributions cancel exactly.  Must be >= 0 everywhere for the
    comparison argument to apply.
    """
    if sample_count < 2:
        raise ParameterError("sample_count must be at least 2")
    xs = np.linspace(0.0, 1.0, sample_count)
    beta = coeffs.beta
    with np.errstate(under="ignore"):
        vals = (
            beta * (coeffs.b(xs) - beta) / coeffs.eps(xs) + coeffs.c(xs)
        ) * np.exp(-beta * e(xs))
    i = int(np.argmin(vals))
    scale = max(float(np.abs(vals).max()), 1.0)
    name = f"barrier-operator[{label}]" if label else "barrier-operator"
    return BoundCheckReport(
        name=name, sample_count=sample_count,
        worst_margin=float(vals[i]), worst_point=float(xs[i]),
        passed=bool(vals[i] >= -1e-12 * scale))


def solution_bound_values(coeffs, xs, e_vals, k: int,
                          beta_factor: float = 1.0) -> np.ndarray:
    """Right-hand sides of the pointwise derivative bounds with C = 1."""
    beta = beta_factor * coeffs.beta
    eps_v = np.asarray(coeffs.eps(xs), dtype=float)
    with np.errstate(under="ignore"):
        decay = np.exp(-beta * np.asarray(e_vals, dtype=float))
    if k == 0:
        return np.ones_like(eps_v)
    if k == 1:
        return 1.0 + decay / eps_v
    if k == 2:
        epsp = np.asarray(coeffs.eps.d(xs), dtype=float)
        return (1.0 + epsp) / eps_v * (1.0 + decay / eps_v)
    raise ParameterError("k must be 0, 1 or 2")


def transformed_bound_values(coeffs, xs, etilde_vals, k: int,
                             beta_factor: float = 1.0) -> np.ndarray:
    """Bounds in terms of etilde; for constant eps they reduce to the
    classical 1 + eps^-k exp(-beta x / eps) form."""
    beta = beta_factor * coeffs.beta
    kappa = 0.5 * (coeffs.sigma + 2.0 * beta)
    eps_v = np.asarray(coeffs.eps(xs), dtype=float)
    with np.errstate(under="ignore"):
        decay = np.exp(-kappa * np.asarray(etilde_vals, dtype=float))
    if k == 0:
        return 1.0 + decay
    if k == 1:
        return np.sqrt(coeffs.eps_upper / eps_v) * (
            1.0 + decay / coeffs.eps_lower)
    raise ParameterError("k must be 0 or 1 for the transformed bounds")


_WHICH_TO_K = {"U0": 0, "U1": 1, "U2": 2}


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


def _bounded_ratio(name, scenario, reference: FemSolution, k: int,
                   bound_values, beta_factor: float,
                   integral: Optional[CumulativeIntegral],
                   kind: str) -> BoundCheckReport:
    """Sup of |w^(k)| / bound_values(coeffs, xs, integral(xs), k, beta_factor)
    on a reference solve; integral defaults to the layer integral of kind."""
    if reference.mesh.h > 1.0 / 512 + 1e-12:
        raise ConfigurationError("reference solve too coarse (need h <= 1/512)")
    if integral is None:
        integral = layer_integral(scenario.coeffs, kind)
    xs, dk = _derivative_samples(reference, k)
    bound = bound_values(scenario.coeffs, xs, integral(xs), k, beta_factor)
    ratios = np.abs(dk) / bound
    i = int(np.argmax(ratios))
    sup = float(ratios[i])
    return BoundCheckReport(
        name=name, sample_count=len(xs), worst_margin=-sup,
        worst_point=float(xs[i]), passed=bool(np.isfinite(sup)), sup_ratio=sup)


def check_solution_bounds(scenario, reference: FemSolution, which: str,
                          beta_factor: float = 1.0,
                          e: Optional[CumulativeIntegral] = None) -> BoundCheckReport:
    """Sup of |w^(k)| / bound_k on a reference solve; passes iff finite.

    eps-uniformity of the hidden constant is the content of the bound and is
    judged across eps0 by check_bound_uniformity.
    """
    if which not in _WHICH_TO_K:
        raise ParameterError("which must be one of U0, U1, U2")
    return _bounded_ratio(
        f"solution-bound-{which}[{scenario.name}]", scenario, reference,
        _WHICH_TO_K[which], solution_bound_values, beta_factor, e, "e")


def check_transformed_bounds(scenario, reference: FemSolution,
                             which: str = "U0", beta_factor: float = 1.0,
                             etilde: Optional[CumulativeIntegral] = None) -> BoundCheckReport:
    """Same bounded-ratio protocol against the etilde-based bounds (k = 0, 1)."""
    if which not in ("U0", "U1"):
        raise ParameterError("transformed bounds are checked for U0 and U1")
    return _bounded_ratio(
        f"transformed-bound-{which}[{scenario.name}]", scenario, reference,
        _WHICH_TO_K[which], transformed_bound_values, beta_factor, etilde,
        "etilde")


def reference_solution(scenario, h_ref: float = 1.0 / 512,
                       e: Optional[CumulativeIntegral] = None) -> FemSolution:
    if e is None:
        e = layer_integral(scenario.coeffs, "e")
    msh = build_mesh(scenario.coeffs, e, h_ref)
    return galerkin_solve(scenario, msh)


def check_bound_uniformity(scenario_family, which: str,
                           beta_factor: float = 1.0,
                           transformed: bool = False) -> BoundCheckReport:
    """Cross-eps0 uniformity of the sup ratio over _UNIFORMITY_EPS0, on
    reference solves at h = 1/512: max/min must stay <= 4.

    A family is a callable eps0 -> Scenario.  This is the falsifiable content
    of "the constant C does not depend on eps".
    """
    sups = []
    name = None
    worst_pt = math.nan
    for eps0 in _UNIFORMITY_EPS0:
        scenario = scenario_family(eps0)
        e = layer_integral(scenario.coeffs, "e")
        ref = reference_solution(scenario, e=e)
        if transformed:
            rep = check_transformed_bounds(scenario, ref, which, beta_factor)
        else:
            rep = check_solution_bounds(scenario, ref, which, beta_factor, e=e)
        sups.append(rep.sup_ratio)
        worst_pt = rep.worst_point
        name = rep.name
    sups = np.asarray(sups)
    finite = bool(np.all(np.isfinite(sups)) and np.all(sups > 0))
    variation = float(sups.max() / sups.min()) if finite else math.inf
    return BoundCheckReport(
        name=f"uniformity[{name}]", sample_count=len(sups),
        worst_margin=_MAX_VARIATION - variation, worst_point=worst_pt,
        passed=bool(finite and variation <= _MAX_VARIATION),
        sup_ratio=variation)
