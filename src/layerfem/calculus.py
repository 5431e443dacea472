"""Quadrature, cumulative layer integrals and monotone inversion.

Everything downstream (meshing, assembly, error measurement, bound checks)
is built on the routines in this module, and it owns the one panel rule,
_G5 (5-point Gauss), that integrate, CumulativeIntegral, fem's assembly and
analysis's eps integrals use.  Quadrature takes one round on the panels its
caller's breakpoints make and raises ConvergenceError when they do not
resolve the integrand (_graded grades them), a cumulative integral lives on
its own breakpoints [0, ..., top], and inversion takes bracketed Newton
steps on them, reading the integral through its __call__.  Integrands must
accept numpy arrays of any shape and are evaluated on whole batches of
Gauss points at once, stored points-major (one row per Gauss point, one
column per panel); a callable that fails on array input raises
EvaluationError, there is no point-by-point fallback.  A constant return
value is broadcast.  Every module samples callables through _finite_eval,
where a non-finite sample raises EvaluationError naming the function and x
(validate_coefficients, which reports it, alone uses _vec_eval).
"""

import numpy as np
from dataclasses import dataclass, field
from typing import Callable

from .errors import ConvergenceError, EvaluationError, ParameterError


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Gauss-Legendre rule on [-1, 1]."""

    points: np.ndarray
    weights: np.ndarray


def gauss_legendre(n: int) -> QuadratureRule:
    """The n-point rule; its arrays are read-only, because the module-level
    rules (_G5 here, analysis._ERR_RULE) are shared by every caller."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ParameterError(f"need an integer n >= 1 of quadrature points, got {n!r}")
    pts, wts = np.polynomial.legendre.leggauss(n)
    pts.setflags(write=False)
    wts.setflags(write=False)
    return QuadratureRule(points=pts, weights=wts)


_G5 = gauss_legendre(5)

_REL_TOL = 1e-10  # integrate's relative tolerance
# layer_integral's breakpoints: 0, then graded from _X_MIN to 1
_N_BREAKPOINTS, _X_MIN = 4096, 1e-12
_INVERT_TOL = 1e-12  # invert_monotone's residual bound, times max(1, |target|)


def _graded(start: float, stop: float, num: int) -> np.ndarray:
    """Breakpoints 0, then num points from start to stop in geometric
    progression: np.geomspace(start, stop, num)'s own arithmetic without its
    wrapper, with both ends exact.  The last point is stop, so num = 1 gives
    [0, stop]."""
    grid = np.power(10.0, np.linspace(np.log10(start), np.log10(stop), num))
    grid[[0, -1]] = start, stop
    return np.concatenate(([0.0], grid))


def _vec_eval(f, x: np.ndarray) -> np.ndarray:
    """Evaluate f on the array x in one call, returning an array of x's shape.

    f must accept numpy arrays; a constant (scalar or broadcastable) return
    is broadcast to x's shape.  A TypeError or ValueError from f, or a return
    that does not broadcast, is raised as EvaluationError chained from the
    original error.
    """
    try:
        y = np.asarray(f(x), dtype=float)
        if y.shape != x.shape:
            y = np.broadcast_to(y, x.shape).astype(float)
    except (TypeError, ValueError) as exc:
        raise EvaluationError(
            f"callable failed on array input of shape {x.shape}: {exc}"
        ) from exc
    return y


def _gauss_map(lefts, rights, rule: QuadratureRule):
    """Gauss points of rule on each panel [lefts_i, rights_i], and the half-widths.

    Returns (x, half) with x stored points-major, shape (n_points, n_panels):
    column i holds the points of panel i, whose weights are
    half[i] * rule.weights, so a panel's sum is the column of rule.weights @ y.
    """
    half = 0.5 * (rights - lefts)
    x = np.multiply.outer(rule.points, half)
    x += 0.5 * (rights + lefts)
    return x, half


def _finite_eval(f, x: np.ndarray, what: str = "integrand") -> np.ndarray:
    """_vec_eval(f, x) on any array x; a non-finite sample raises EvaluationError
    naming what f is and the first such x in x.T's order (panel by panel if
    points-major)."""
    y = _vec_eval(f, x)
    if not np.all(np.isfinite(y)):
        bad = x.T[~np.isfinite(y.T)]
        raise EvaluationError(f"non-finite {what} sample at x={float(bad[0])!r}")
    return y


def _panel_sums(f, lefts, rights, what: str = "integrand") -> np.ndarray:
    """_G5 sums of f over a batch of panels [lefts_i, rights_i]; what names f
    in _finite_eval's error."""
    x, half = _gauss_map(np.asarray(lefts, dtype=float),
                         np.asarray(rights, dtype=float), _G5)
    return (_G5.weights @ _finite_eval(f, x, what)) * half


def integrate(
    f: Callable,
    a: float,
    b: float,
    breakpoints=(),
) -> float:
    """Composite 5-point Gauss quadrature of f over [a, b], in one round.

    The panels run between a, the breakpoints inside (a, b) and b.  Whole
    panels and their two halves are sampled in one call of f; the result is
    the sum over the halves.  A panel's discrepancy is the gap between its
    whole-panel sum and the sum of its halves.  If the discrepancies sum to
    more than _REL_TOL (1e-10) times |result|, ConvergenceError is raised:
    there is no bisection, so a caller whose integrand has a layer, a kink
    or a singular derivative passes breakpoints that resolve it.
    """
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ParameterError("integration limits must be finite")
    if a > b:
        raise ParameterError("integrate requires a <= b")
    if a == b:
        return 0.0

    inner = np.asarray(breakpoints, dtype=float)
    inner = inner[(inner > a) & (inner < b)]
    edges = np.unique(np.concatenate(([a], inner, [b])))

    lefts, rights = edges[:-1], edges[1:]
    mids = 0.5 * (lefts + rights)
    wholes, left_halves, right_halves = _panel_sums(
        f, np.concatenate((lefts, lefts, mids)),
        np.concatenate((rights, mids, rights))).reshape(3, -1)
    fine = left_halves + right_halves
    total = float(fine.sum())
    if float(np.abs(fine - wholes).sum()) > _REL_TOL * abs(total):
        raise ConvergenceError(
            f"quadrature on [{a}, {b}] did not converge on {len(lefts)} "
            "panels; pass finer breakpoints")
    return total


@dataclass(frozen=True, eq=False)
class CumulativeIntegral:
    """x -> integral of a positive integrand from 0 to x, on [0, top], where
    top = breakpoints[-1]; the breakpoints must be finite and increase from 0.

    The constructor integrates the integrand into a partial sum at each
    breakpoint, so the sums always belong to it.  Point evaluation adds a
    single local Gauss panel to the nearest stored sum, so repeated
    evaluation (meshing does thousands) is cheap.  On layer_integral's
    breakpoints a panel spans 0.68 % of its distance from 0, where 1/eps of
    every built-in is near-polynomial: _G5 gives e within 1.9e-15 relative
    of the closed forms.
    """

    integrand: Callable
    breakpoints: np.ndarray
    partial_sums: np.ndarray = field(init=False)

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        if (bp.ndim != 1 or len(bp) < 2 or bp[0] != 0
                or not (bp[1:] > bp[:-1]).all() or not np.isfinite(bp[-1])):
            raise ParameterError("breakpoints must be finite and increase from 0")
        sums = np.zeros(bp.shape)
        np.cumsum(_panel_sums(self.integrand, bp[:-1], bp[1:]), out=sums[1:])
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "partial_sums", sums)

    def __call__(self, x):
        """Evaluate at x of any shape; a 0-d or scalar x returns a float.
        x's min and max must lie within 1e-12 top of [0, top]; x is clipped
        to [0, top] only if one of them lies outside it."""
        xa = np.asarray(x, dtype=float)
        xq = xa.ravel()
        top = self.breakpoints[-1]
        if xq.size:
            lo, hi, tol = xq.min(), xq.max(), 1e-12 * top
            if not (lo >= -tol and hi <= top + tol):  # NaN fails too
                raise ParameterError(f"cumulative integral is only defined on [0, {top}]")
            if lo < 0.0 or hi > top:
                xq = np.clip(xq, 0.0, top)
        # breakpoints[0] == 0 <= xq, so only the last panel's index needs a bound
        idx = np.searchsorted(self.breakpoints, xq, side="right") - 1
        np.minimum(idx, len(self.breakpoints) - 2, out=idx)
        lefts = self.breakpoints[idx]
        local = _panel_sums(self.integrand, lefts, xq)
        out = self.partial_sums[idx] + local
        return float(out[0]) if xa.ndim == 0 else out.reshape(xa.shape)


def layer_integral(coeffs, kind: str) -> CumulativeIntegral:
    """Cumulative layer integral for a coefficient set.

    kind "e"      : integral of 1/eps            (stretched layer coordinate)
    kind "etilde" : integral of 1/sqrt(eps_up*eps) (transformed-variable bounds)
    """
    def eps(t):  # a non-finite or non-positive sample raises EvaluationError
        t = np.asarray(t)
        y = _finite_eval(coeffs.eps, t, "eps")
        if not (y > 0.0).all():
            bad = t.T[~(y.T > 0.0)]
            raise EvaluationError(f"non-positive eps sample at x={float(bad[0])!r}")
        return y

    if kind == "e":
        integrand = lambda t: 1.0 / eps(t)
    elif kind == "etilde":
        eu = coeffs.eps_upper
        integrand = lambda t: 1.0 / np.sqrt(eu * eps(t))
    else:
        raise ParameterError(f"unknown layer integral kind {kind!r}")
    return CumulativeIntegral(integrand, _graded(_X_MIN, 1.0, _N_BREAKPOINTS - 1))


def invert_monotone(g: CumulativeIntegral, target: float) -> float:
    """Solve g(x) = target on [0, g.breakpoints[-1]] for strictly increasing g.

    The breakpoint panel that brackets target (searchsorted on partial_sums)
    gives the first iterate by linear interpolation.  Newton steps with
    g' = g.integrand follow; each shrinks the bracket, and a step that would
    leave it bisects instead.  Every iterate stays in that panel, where g(x)
    adds one _G5 panel to a stored sum, exact to roundoff on panels this
    narrow.  Iteration stops once the residual is within 4 ulps of target or
    the bracket is one ulp wide.
    """
    # g(0) and g(top) are the first and last stored partial sums
    lo, hi = float(g.partial_sums[0]), float(g.partial_sums[-1])
    if not lo <= target <= hi:  # NaN fails too
        raise ParameterError(
            f"target {target!r} outside cumulative range [{lo!r}, {hi!r}]"
        )
    if target == lo:
        return 0.0
    if target == hi:
        return float(g.breakpoints[-1])
    k = min(int(np.searchsorted(g.partial_sums, target, side="right")) - 1,
            len(g.breakpoints) - 2)
    a, b = g.breakpoints[k], g.breakpoints[k + 1]
    g_a, g_b = g.partial_sums[k], g.partial_sums[k + 1]
    x = min(b, a + (b - a) * (target - g_a) / (g_b - g_a))
    r = g(x) - target
    while abs(r) > 4 * np.finfo(float).eps * abs(target):
        a, b = (a, x) if r > 0 else (x, b)
        slope = float(g.integrand(x))
        step = x - r / slope if slope > 0 else a
        if not a < step < b:
            step = 0.5 * (a + b)
            if not a < step < b:
                break
        x = step
        r = g(x) - target
    if abs(r) > _INVERT_TOL * max(1.0, abs(target)):
        raise ConvergenceError("monotone inversion residual above tolerance")
    return float(x)
