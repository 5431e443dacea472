"""Problem instances: coefficient sets, standing assumptions, built-in scenarios.

The model problem is  -(eps(x) u')' - b(x) u' + c(x) u = f(x)  on (0,1) with
homogeneous Dirichlet data, small variable diffusion eps and a boundary layer
at x = 0.  Assumption checks are sample-based on a dense grid so they work
for arbitrary user-supplied coefficient functions.  The right-hand side of a
manufactured solution u is manufactured_rhs(u, coeffs), pointwise from u,
u', u'', eps, eps', b and c, constant or not; the built-in manufactured
scenario takes its f from it.
"""

import numpy as np
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional

from .calculus import _vec_eval
from .errors import ParameterError


@dataclass(frozen=True)
class ScalarFunction:
    """A function on [0, 1] with optional closed-form derivatives.

    Callables must accept numpy arrays (all built-ins do).  const is the
    value of a function made by ScalarFunction.constant and None otherwise;
    assembly integrates such a coefficient in closed form, without samples.
    """

    value: Callable
    deriv: Optional[Callable] = None
    deriv2: Optional[Callable] = None
    const: Optional[float] = None

    def __call__(self, x):
        return self.value(x)

    def d(self, x):
        if self.deriv is None:
            raise ParameterError("first derivative not available")
        return self.deriv(x)

    def d2(self, x):
        if self.deriv2 is None:
            raise ParameterError("second derivative not available")
        return self.deriv2(x)

    @staticmethod
    def constant(c: float) -> "ScalarFunction":
        return ScalarFunction(
            value=lambda x, c=c: np.full_like(np.asarray(x, dtype=float), c),
            deriv=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            deriv2=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            const=c,
        )


@dataclass(frozen=True)
class CoefficientSet:
    """Coefficients eps, b, c, f together with the structural constants.

    beta:      lower bound for the convection coefficient, 0 < beta < b(x)
    gamma:     coercivity constant, c + b'/2 >= gamma > 0
    eps_lower: lower bound of the diffusion coefficient
    eps_upper: upper bound of the diffusion coefficient
    sigma:     min of eps' on [0, 1]; must stay above -beta
    """

    eps: ScalarFunction
    b: ScalarFunction
    c: ScalarFunction
    f: ScalarFunction
    beta: float
    gamma: float
    eps_lower: float
    eps_upper: float
    sigma: float


_SAMPLES = 10001  # validate_coefficients' equispaced grid on [0, 1]


@dataclass(frozen=True)
class BoundCheckReport:
    """One numerical check: the worst margin over sample_count samples,
    where it occurs, and the verdict."""

    name: str
    sample_count: int
    worst_margin: float
    worst_point: float
    passed: bool
    sup_ratio: Optional[float] = None


def _margin_check(name, values, xs):
    """Pass iff min(values) >= 0; reports the minimum and where it occurs."""
    values = np.asarray(values, dtype=float)
    i = int(np.argmin(values))
    return BoundCheckReport(name, len(xs), float(values[i]), float(xs[i]),
                            bool(values[i] >= 0))


def validate_coefficients(coeffs: CoefficientSet) -> tuple:
    """Check the standing assumptions at _SAMPLES equispaced points, sampling
    each function by calculus._vec_eval (a constant return is broadcast).

    Returns one BoundCheckReport per assumption; a failed "finite values"
    check is returned alone.  Checks of a constant carry sample_count 1.
    """
    xs = np.linspace(0.0, 1.0, _SAMPLES)
    samples = {
        "eps": _vec_eval(coeffs.eps, xs),
        "b": _vec_eval(coeffs.b, xs),
        "c": _vec_eval(coeffs.c, xs),
        "f": _vec_eval(coeffs.f, xs),
        "eps'": _vec_eval(coeffs.eps.d, xs),
        "b'": _vec_eval(coeffs.b.d, xs),
    }
    finite = np.logical_and.reduce([np.isfinite(v) for v in samples.values()])
    if not np.all(finite):
        bad = float(xs[int(np.argmin(finite))])
        return (BoundCheckReport("finite values", _SAMPLES, -np.inf, bad, False),)

    eps_v, b_v, c_v = samples["eps"], samples["b"], samples["c"]
    epsp, bp = samples["eps'"], samples["b'"]
    # sigma is author-supplied but enters bound formulas, so cross-check it
    # against the sampled minimum of eps'.
    i = int(np.argmin(epsp))
    sigma_gap = abs(coeffs.sigma - float(epsp[i]))
    return (
        BoundCheckReport("finite values", _SAMPLES, 0.0, 0.0, True),
        BoundCheckReport("beta > 0", 1, coeffs.beta, 0.0, coeffs.beta > 0),
        _margin_check("b > beta", b_v - coeffs.beta, xs),
        BoundCheckReport("eps_lower > 0", 1, coeffs.eps_lower, 0.0,
                         coeffs.eps_lower > 0),
        _margin_check("eps >= eps_lower", eps_v - coeffs.eps_lower, xs),
        _margin_check("eps <= eps_upper", coeffs.eps_upper - eps_v, xs),
        _margin_check("c >= 0", c_v, xs),
        _margin_check("c + b'/2 >= gamma", c_v + 0.5 * bp - coeffs.gamma, xs),
        BoundCheckReport("gamma > 0", 1, coeffs.gamma, 0.0, coeffs.gamma > 0),
        BoundCheckReport("sigma matches min eps'", _SAMPLES, -sigma_gap,
                         float(xs[i]), sigma_gap <= 1e-8),
        BoundCheckReport("sigma > -beta", 1, coeffs.sigma + coeffs.beta, 0.0,
                         coeffs.sigma > -coeffs.beta),
    )


def manufactured_rhs(u: ScalarFunction, coeffs: CoefficientSet) -> ScalarFunction:
    """Right-hand side f = -eps u'' - (b + eps') u' + c u, exact pointwise."""
    if u.deriv2 is None:
        raise ParameterError("manufactured_rhs needs u with a second derivative")
    if coeffs.eps.deriv is None:
        raise ParameterError("manufactured_rhs needs eps with a first derivative")
    eps, b, c = coeffs.eps, coeffs.b, coeffs.c

    def f(x):
        return -eps(x) * u.d2(x) - (b(x) + eps.d(x)) * u.d(x) + c(x) * u(x)

    return ScalarFunction(value=f)


@dataclass(frozen=True)
class Scenario:
    """A coefficient set plus optional closed-form solution and exemplars.

    smooth_exemplar / layer_exemplar are the closed-form model functions used
    by the interpolation-rate studies; the layer exemplar decays like
    exp(-beta * e(x)) and vanishes at x = 1.
    """

    name: str
    coeffs: CoefficientSet
    exact: Optional[ScalarFunction] = None
    smooth_exemplar: Optional[ScalarFunction] = None
    layer_exemplar: Optional[ScalarFunction] = None


_SMOOTH_EXEMPLAR = ScalarFunction(
    value=lambda x: np.cos(0.5 * np.pi * np.asarray(x, dtype=float)),
    deriv=lambda x: -0.5 * np.pi * np.sin(0.5 * np.pi * np.asarray(x, dtype=float)),
    deriv2=lambda x: -((0.5 * np.pi) ** 2) * np.cos(0.5 * np.pi * np.asarray(x, dtype=float)),
)


def _layer_exemplar(beta, e_fn, eps_fn, epsp_fn) -> ScalarFunction:
    """Normalized layer profile (exp(-beta e(x)) - q) / (1 - q), q = exp(-beta e(1)).

    Takes the value 1 at x = 0 and 0 at x = 1.  Closed-form derivatives via
    the closed form of e(x) supplied by the diffusion family.
    """
    with np.errstate(under="ignore"):
        q = float(np.exp(-beta * e_fn(1.0)))
    denom = 1.0 - q

    def val(x):
        with np.errstate(under="ignore"):
            return (np.exp(-beta * e_fn(x)) - q) / denom

    def d1(x):
        with np.errstate(under="ignore"):
            return -(beta / eps_fn(x)) * np.exp(-beta * e_fn(x)) / denom

    def d2(x):
        with np.errstate(under="ignore"):
            return (beta * (beta + epsp_fn(x)) / eps_fn(x) ** 2
                    * np.exp(-beta * e_fn(x)) / denom)

    return ScalarFunction(value=val, deriv=d1, deriv2=d2)


# name -> (eps_upper / eps0, sigma / eps0, eps, eps', e = int_0^x 1/eps in
# closed form); eps_lower is eps0 in every family
_FAMILIES = {
    "eps-const": (1.0, 0.0,
                  lambda x, eps0: np.full_like(np.asarray(x, dtype=float), eps0),
                  lambda x, eps0: np.zeros_like(np.asarray(x, dtype=float)),
                  lambda x, eps0: np.asarray(x, dtype=float) / eps0),
    "eps-linear": (2.0, 1.0,
                   lambda x, eps0: eps0 * (1.0 + np.asarray(x, dtype=float)),
                   lambda x, eps0: np.full_like(np.asarray(x, dtype=float), eps0),
                   lambda x, eps0: np.log1p(np.asarray(x, dtype=float)) / eps0),
    "eps-exp": (np.e, 1.0,
                lambda x, eps0: eps0 * np.exp(np.asarray(x, dtype=float)),
                lambda x, eps0: eps0 * np.exp(np.asarray(x, dtype=float)),
                lambda x, eps0: -np.expm1(-np.asarray(x, dtype=float)) / eps0),
}

SCENARIO_NAMES = ("eps-const", "eps-linear", "eps-exp", "manufactured")


def get_scenario(name: str, eps0: float) -> Scenario:
    """Built-in scenario `name` at diffusion scale eps0 (0 < eps0 <= 0.1).

    b = 2, c = 1, f = 1; manufactured is eps-linear with
    f = manufactured_rhs(u, coeffs) of its exact solution
    u = cos(pi x / 2) - E(x), E the layer exemplar.  A subnormal eps0 is
    refused: 1/eps0 overflows.
    """
    if not (np.finfo(float).tiny <= eps0 <= 0.1):
        raise ParameterError("eps0 must lie in (0, 0.1] and not be subnormal")
    if name not in SCENARIO_NAMES:
        raise ParameterError(f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}")
    upper, sigma, eps_fn, epsp_fn, e_fn = _FAMILIES[
        "eps-linear" if name == "manufactured" else name]
    eps = ScalarFunction(partial(eps_fn, eps0=eps0), partial(epsp_fn, eps0=eps0))
    coeffs = CoefficientSet(
        eps=eps, b=ScalarFunction.constant(2.0), c=ScalarFunction.constant(1.0),
        f=ScalarFunction.constant(1.0), beta=1.0, gamma=1.0,
        eps_lower=eps0, eps_upper=upper * eps0, sigma=sigma * eps0)
    smooth = _SMOOTH_EXEMPLAR
    layer = _layer_exemplar(coeffs.beta, partial(e_fn, eps0=eps0), eps.value, eps.deriv)
    exact = None
    if name == "manufactured":
        # both terms of u are 1 at x = 0 and 0 at x = 1: no boundary correction
        exact = ScalarFunction(
            value=lambda x: smooth(x) - layer(x),
            deriv=lambda x: smooth.d(x) - layer.d(x),
            deriv2=lambda x: smooth.d2(x) - layer.d2(x),
        )
        coeffs = replace(coeffs, f=manufactured_rhs(exact, coeffs))
    return Scenario(name=name, coeffs=coeffs, exact=exact,
                    smooth_exemplar=smooth, layer_exemplar=layer)


def builtin_scenarios(eps0: float):
    """The four built-in scenarios at diffusion scale eps0 (0 < eps0 <= 0.1)."""
    return [get_scenario(name, eps0) for name in SCENARIO_NAMES]
