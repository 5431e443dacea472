"""Quadrature, cumulative layer integrals and monotone inversion.

Everything downstream (meshing, assembly, error measurement, bound checks)
is built on the routines in this module.  Adaptive quadrature bisects in
batched rounds, and inversion takes bracketed Newton steps on a cumulative
integral's own breakpoints and integrand.  Integrands must accept numpy
arrays of any shape and are evaluated on whole batches of Gauss points at
once; a callable that fails on array input raises EvaluationError, there is
no point-by-point fallback.  A constant return value is broadcast.
"""

import functools

import numpy as np
from dataclasses import dataclass
from typing import Callable

from .errors import (
    ConvergenceError,
    EvaluationError,
    OutOfRangeError,
    ParameterError,
)


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre rule on [-1, 1]."""

    points: np.ndarray
    weights: np.ndarray
    order: int  # degree of polynomial exactness


@functools.lru_cache(maxsize=32)
def gauss_legendre(n: int) -> QuadratureRule:
    """The n-point rule, built once per n; its arrays are read-only because
    every caller shares them."""
    if n < 1:
        raise ParameterError("need at least one quadrature point")
    pts, wts = np.polynomial.legendre.leggauss(n)
    pts.setflags(write=False)
    wts.setflags(write=False)
    return QuadratureRule(points=pts, weights=wts, order=2 * n - 1)


_G5 = gauss_legendre(5)
_G10 = gauss_legendre(10)

_REL_TOL = 1e-10  # integrate's relative tolerance
# Live-panel cap of integrate: panels double each round that bisects them all.
_MAX_PANELS = 65536
# CumulativeIntegral.build stores partial sums at 0 and geomspace(_X_MIN, 1).
_N_BREAKPOINTS, _X_MIN = 4096, 1e-12


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

    Returns (x, half) with x of shape (n_panels, n_points); the weights on
    panel i are half[i] * rule.weights.
    """
    half = 0.5 * (rights - lefts)
    mid = 0.5 * (rights + lefts)
    return mid[:, None] + half[:, None] * rule.points[None, :], half


def _panel_sums(f, lefts, rights, rule: QuadratureRule) -> np.ndarray:
    """Gauss sums of f over a batch of panels [lefts_i, rights_i]."""
    x, half = _gauss_map(np.asarray(lefts, dtype=float),
                         np.asarray(rights, dtype=float), rule)
    y = _vec_eval(f, x)
    if not np.all(np.isfinite(y)):
        bad = x[~np.isfinite(y)]
        raise EvaluationError(f"non-finite integrand sample at x={bad.ravel()[0]!r}")
    return (y * rule.weights[None, :]).sum(axis=1) * half


def _panel_rows(f, lefts, rights, wholes, depths):
    """Rows (left, right, whole sum, left-half sum, right-half sum, depth)
    for a batch of panels whose whole sums are known; one batched 5-point
    Gauss call."""
    mids = 0.5 * (lefts + rights)
    halves = _panel_sums(f, np.concatenate((lefts, mids)),
                         np.concatenate((mids, rights)), _G5).reshape(2, -1)
    return np.column_stack((lefts, rights, wholes, halves[0], halves[1], depths))


def integrate(
    f: Callable,
    a: float,
    b: float,
    max_depth: int = 24,
    breakpoints=None,
) -> float:
    """Adaptive composite 5-point Gauss quadrature of f over [a, b].

    A panel's discrepancy is the gap between its whole-panel sum and the sum
    of its two halves.  Each round bisects, in one batched evaluation, every
    panel whose discrepancy is above its share _REL_TOL * |total| / n_panels
    (_REL_TOL = 1e-10); a child's whole-panel sum is its parent's half sum,
    so only quarters are new.  Rounds end once the discrepancies sum to at
    most _REL_TOL times the running integral.  ConvergenceError is raised
    past max_depth bisections of a panel or _MAX_PANELS live panels, so a
    noisy integrand fails fast.
    Optional breakpoints seed the initial panelization, which is how
    callers with known layer locations keep the bisection shallow.
    """
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ParameterError("integration limits must be finite")
    if a > b:
        raise ParameterError("integrate requires a <= b")
    if a == b:
        return 0.0

    if breakpoints is None:
        edges = np.array([a, b], dtype=float)
    else:
        inner = np.asarray(breakpoints, dtype=float)
        inner = inner[(inner > a) & (inner < b)]
        edges = np.unique(np.concatenate(([a], inner, [b])))

    lefts, rights = edges[:-1], edges[1:]
    panels = _panel_rows(f, lefts, rights, _panel_sums(f, lefts, rights, _G5),
                         np.zeros(len(lefts)))
    while True:
        lefts, rights, wholes, left_halves, right_halves, depths = panels.T
        fine = left_halves + right_halves
        total = float(fine.sum())
        err = np.abs(fine - wholes)
        tol = _REL_TOL * max(abs(total), 1e-300)
        if float(err.sum()) <= tol:
            return total
        split = err > tol / len(err)
        split[np.argmax(err)] = True
        if depths[split].max() >= max_depth:
            k = np.flatnonzero(split & (depths >= max_depth))[0]
            raise ConvergenceError(
                f"quadrature did not converge after {max_depth} bisections "
                f"on [{lefts[k]}, {rights[k]}]")
        if len(panels) + np.count_nonzero(split) > _MAX_PANELS:
            raise ConvergenceError(
                f"quadrature on [{a}, {b}] needs more than {_MAX_PANELS} panels")
        lo, hi = lefts[split], rights[split]
        mid = 0.5 * (lo + hi)
        children = _panel_rows(
            f, np.concatenate((lo, mid)), np.concatenate((mid, hi)),
            np.concatenate((left_halves[split], right_halves[split])),
            np.tile(depths[split] + 1, 2))
        panels = np.concatenate((panels[~split], children))


@dataclass(frozen=True)
class CumulativeIntegral:
    """x -> integral of a positive integrand from 0 to x, on [0, 1].

    Partial sums are precomputed at _N_BREAKPOINTS breakpoints clustered
    geometrically near x = 0; point evaluation adds a single local Gauss
    panel to the nearest stored sum, so repeated evaluation (meshing does
    thousands) is cheap.
    """

    breakpoints: np.ndarray
    partial_sums: np.ndarray
    integrand: Callable

    @classmethod
    def build(cls, integrand):
        bp = np.concatenate(([0.0], np.geomspace(_X_MIN, 1.0, _N_BREAKPOINTS - 1)))
        seg = _panel_sums(integrand, bp[:-1], bp[1:], _G10)
        sums = np.concatenate(([0.0], np.cumsum(seg)))
        return cls(breakpoints=bp, partial_sums=sums, integrand=integrand)

    def __call__(self, x):
        """Evaluate at x of any shape; a 0-d or scalar x returns a float."""
        xa = np.asarray(x, dtype=float)
        xq = xa.ravel()
        if not np.all((xq >= -1e-12) & (xq <= 1.0 + 1e-12)):  # NaN fails too
            raise ParameterError("cumulative integral is only defined on [0, 1]")
        xq = np.clip(xq, 0.0, 1.0)
        idx = np.searchsorted(self.breakpoints, xq, side="right") - 1
        idx = np.clip(idx, 0, len(self.breakpoints) - 2)
        lefts = self.breakpoints[idx]
        local = _panel_sums(self.integrand, lefts, xq, _G10)
        out = self.partial_sums[idx] + local
        return float(out[0]) if xa.ndim == 0 else out.reshape(xa.shape)

    @property
    def total(self) -> float:
        return float(self.partial_sums[-1])


def layer_integral(coeffs, kind: str) -> CumulativeIntegral:
    """Cumulative layer integral for a coefficient set.

    kind "e"      : integral of 1/eps            (stretched layer coordinate)
    kind "etilde" : integral of 1/sqrt(eps_up*eps) (transformed-variable bounds)
    """
    eps = coeffs.eps
    if kind == "e":
        integrand = lambda t: 1.0 / eps(t)
    elif kind == "etilde":
        eu = coeffs.eps_upper
        integrand = lambda t: 1.0 / np.sqrt(eu * eps(t))
    else:
        raise ParameterError(f"unknown layer integral kind {kind!r}")
    return CumulativeIntegral.build(integrand)


def invert_monotone(g: CumulativeIntegral, target: float, tol: float = 1e-12) -> float:
    """Solve g(x) = target on [0, 1] for strictly increasing g.

    The breakpoint panel that brackets target (searchsorted on partial_sums)
    gives the first iterate by linear interpolation.  Newton steps with
    g' = g.integrand follow; each shrinks the bracket, and a step that would
    leave it bisects instead.  Iteration stops once the residual is within
    4 ulps of target or the bracket is one ulp wide.
    """
    lo, hi = g(0.0), g(1.0)
    if not lo <= target <= hi:  # NaN fails too
        raise OutOfRangeError(
            f"target {target!r} outside cumulative range [{lo!r}, {hi!r}]"
        )
    if target == lo:
        return 0.0
    if target == hi:
        return 1.0
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
    if abs(r) > tol * max(1.0, abs(target)):
        raise ConvergenceError("monotone inversion residual above tolerance")
    return float(x)
