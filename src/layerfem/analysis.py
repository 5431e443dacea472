"""Interpolation, energy norms, error reports and convergence studies.

Error measurement against closed-form solutions uses 7-point Gauss per
element (_ERR_RULE), the package's one rule besides calculus._G5.  That
under-resolves element tau_index, the first coarse element: the layer tail
there, of size about h^2, decays on the scale eps inside a width of about h,
and 5, 7 or 10 points all miss it.  On manufactured the energy error reads
3.2 % low at eps0 = 1e-4, h = 1/16, and 1.7e-4 low at eps0 = 1e-6, h = 1/256.
FE functions are evaluated at the Gauss points by FemSolution's call and
slopes, with samples stored points-major, shape (points, elements).  A
piecewise-linear difference (an FE function alone, or the difference of a
solve and a finer solve) is integrated exactly: its square in closed form,
and eps times its constant slope squared from element integrals of eps by
_G5, the rule assembly stores them with.  A finer solve is compared
on its own nodes plus the coarse nodes it lacks, found by a binary search and
inserted in place; it is interpolated only at those.  The eps integrals of
its elements are the ones its assembly stored (FemSolution.eps_integrals), so
eps is sampled again only on the two pieces of each reference element that an
inserted node splits.  The difference and both per-element norms are formed
in place, and each norm is reduced by one sum.  Every sample of eps and of an
exact solution or its derivative is checked: a non-finite one, or a
non-positive eps, raises EvaluationError naming it."""

import math

import numpy as np
from dataclasses import dataclass
from typing import Callable, Optional

from .calculus import (_finite_eval, _gauss_map, _graded, _panel_sums,
                       gauss_legendre, integrate, layer_integral)
from .errors import DegenerateRegimeError, ParameterError
from .fem import FemSolution, galerkin_solve
from .mesh import LayerMesh, build_mesh

_ERR_RULE = gauss_legendre(7)
_REFERENCE_REFINE = 16  # h / reference h when there is no closed form


def interpolate(f, mesh: LayerMesh) -> FemSolution:
    """Nodal interpolant of f; boundary values are f(0), f(1), not forced to
    0.  interpolation_study measures the exemplars' interpolants from it.
    f is sampled on the nodes by _finite_eval: a constant return gives one
    value per node, a non-finite one raises EvaluationError."""
    return FemSolution(mesh=mesh, coefficients=_finite_eval(f, mesh.nodes, "f"))


def _error_on_elements(v: FemSolution, exact):
    """(gx, half, weights, d, dd): d = exact - v and dd = d' at the Gauss
    points gx of every element of v's mesh, shape (points, elements), whose
    integral of g is half * (weights @ g).  A non-finite sample of exact or
    exact.d raises EvaluationError naming its x."""
    nodes = v.mesh.nodes
    gx, half = _gauss_map(nodes[:-1], nodes[1:], _ERR_RULE)
    return (gx, half, _ERR_RULE.weights, _finite_eval(exact, gx, "exact") - v(gx),
            _finite_eval(exact.d, gx, "exact'") - v.slopes)


def _linear_norms(nodes, values, eps_int):
    """Per-element (integral of d^2, integral of eps * d'^2) of the
    piecewise-linear d with these nodal values: w/3 (d_l^2 + d_l d_r + d_r^2)
    exactly, and the slope squared times the element integrals eps_int of
    eps.  Each is formed in place in one buffer, with one more as scratch."""
    d = np.asarray(values, dtype=float)
    d_l, d_r = d[:-1], d[1:]
    w = np.diff(nodes)
    wg = np.subtract(d_r, d_l)
    wg /= w
    wg *= wg
    wg *= eps_int
    l2 = np.multiply(d_l, d_l)
    term = np.multiply(d_l, d_r)
    l2 += term
    l2 += np.multiply(d_r, d_r, out=term)
    w /= 3.0
    l2 *= w
    return l2, wg


@dataclass(frozen=True)
class ErrorReport:
    h: float
    node_count: int
    energy_error: float
    l2_error: float
    weighted_grad_error: float
    reference_kind: str  # "closed-form" | "fine-mesh"


def energy_norm(v, coeffs) -> float:
    """sqrt( || eps^(1/2) v' ||_0^2 + || v ||_0^2 ), library API and the
    tests' oracle for error_report.

    FE functions are integrated element by element, exactly but for the eps
    integrals; closed-form functions by integrate on 257 panels graded
    geometrically from 0.01 eps_lower, a hundredth of the narrowest layer
    width, to 1 (ConvergenceError if they do not resolve v).
    """
    if isinstance(v, FemSolution):
        nodes = v.mesh.nodes
        l2, wg = _linear_norms(nodes, v.coefficients,
                               _panel_sums(coeffs.eps, nodes[:-1], nodes[1:], "eps"))
        return math.sqrt(l2.sum() + wg.sum())
    eps = lambda x: _finite_eval(coeffs.eps, x, "eps")
    val = integrate(lambda x: eps(x) * v.d(x) ** 2 + v(x) ** 2, 0.0, 1.0,
                    breakpoints=_graded(1e-2 * coeffs.eps_lower, 1.0, 257))
    return math.sqrt(val)


def error_report(sol: FemSolution, scenario,
                 reference: Optional[FemSolution] = None) -> ErrorReport:
    """Energy/L2 errors of sol against the exact solution or a finer solve."""
    eps_fn = scenario.coeffs.eps
    if scenario.exact is not None and reference is None:
        gx, half, wq, d, dd = _error_on_elements(sol, scenario.exact)
        l2 = half * (wq @ (d * d))
        wg = half * (wq @ (_finite_eval(eps_fn, gx, "eps") * dd * dd))
        kind = "closed-form"
    elif reference is not None:
        if len(reference.mesh.nodes) < 8 * len(sol.mesh.nodes):
            raise ParameterError(
                "reference mesh must have at least 8x the node density")
        # the reference's nodes, values and eps integrals, with the coarse
        # nodes it lacks inserted in order
        fine, coarse = reference.mesh.nodes, sol.mesh.nodes
        at = np.searchsorted(fine, coarse)
        new = fine[np.minimum(at, len(fine) - 1)] != coarse
        extra, at = coarse[new], at[new]
        merged = np.insert(fine, at, extra)
        ref_vals = np.insert(reference.coefficients, at, reference(extra))
        eps_int = reference.eps_integrals
        if eps_int is None:
            eps_int = _panel_sums(eps_fn, fine[:-1], fine[1:], "eps")
        eps_int = np.insert(eps_int, at, 0.0)
        # merged node p = at + (nodes inserted before it) splits its reference
        # element into merged elements p - 1 and p
        p = at + np.arange(len(extra))
        split = np.concatenate((p - 1, p))
        eps_int[split] = _panel_sums(eps_fn, merged[split], merged[split + 1], "eps")
        ref_vals -= sol(merged)
        l2, wg = _linear_norms(merged, ref_vals, eps_int)
        kind = "fine-mesh"
    else:
        raise ParameterError(
            "need a closed-form exact solution or a finer reference solve")
    l2_sum, wg_sum = l2.sum(), wg.sum()
    return ErrorReport(
        h=sol.mesh.h, node_count=len(sol.mesh.nodes),
        energy_error=math.sqrt(l2_sum + wg_sum), l2_error=math.sqrt(l2_sum),
        weighted_grad_error=math.sqrt(wg_sum), reference_kind=kind)


@dataclass(frozen=True)
class ConvergenceRow:
    eps0: float
    h: float
    node_count: int
    energy_error: float
    l2_error: float
    rate: Optional[float]          # vs. previous coarser h at the same eps0
    skipped_reason: Optional[str] = None


def observed_rate(err_coarse, err_fine, h_coarse, h_fine) -> float:
    return math.log(err_coarse / err_fine) / math.log(h_coarse / h_fine)


def convergence_study(scenario_family: Callable[[float], "object"],
                      h_list, eps0_list) -> tuple:
    """Cartesian (h, eps0) sweep of solve + error measurement, returned as a
    tuple of ConvergenceRow, eps0 ascending and h descending within each.

    Scenarios without a closed-form solution are measured against a solve of
    the same mesh family at h/_REFERENCE_REFINE, made for each cell.
    Degenerate (h, eps0) cells are recorded as skipped, not fatal.  Repeated
    h values raise ParameterError, since a rate between equal h is
    undefined, and so do repeated eps0 values, which would repeat their rows.
    """
    if len(np.unique(h_list)) < len(h_list):
        raise ParameterError("h values must be distinct")
    if len(np.unique(eps0_list)) < len(eps0_list):
        raise ParameterError("eps0 values must be distinct")
    rows = []
    for eps0 in sorted(eps0_list):
        scenario = scenario_family(eps0)
        e = layer_integral(scenario.coeffs, "e")
        solve = lambda h: galerkin_solve(
            scenario, build_mesh(scenario.coeffs, e, h))
        prev = None  # (h, energy_error)
        for h in sorted(h_list, reverse=True):
            try:
                sol = solve(h)
                ref = (None if scenario.exact is not None
                       else solve(h / _REFERENCE_REFINE))
                rep = error_report(sol, scenario, reference=ref)
            except DegenerateRegimeError as exc:
                rows.append(ConvergenceRow(
                    eps0=eps0, h=h, node_count=0, energy_error=math.nan,
                    l2_error=math.nan, rate=None, skipped_reason=str(exc)))
                continue
            rate = None
            if prev is not None:
                rate = observed_rate(prev[1], rep.energy_error, prev[0], h)
            rows.append(ConvergenceRow(
                eps0=eps0, h=h, node_count=rep.node_count,
                energy_error=rep.energy_error, l2_error=rep.l2_error,
                rate=rate))
            prev = (h, rep.energy_error)
    return tuple(rows)


@dataclass(frozen=True)
class InterpolationRow:
    h: float
    node_count: int
    smooth_l2: float          # || S - S^I ||_0 on [0,1]
    smooth_h1: float          # | S - S^I |_1 on [0,1]
    layer_l2_coarse: float    # || E - E^I ||_0 on [tau,1]
    layer_max_coarse: float   # || E - E^I ||_inf on [tau,1]
    layer_wl2_fine: float     # || eps^(-1/2) (E - E^I) ||_0 on [0,tau]
    layer_wh1_fine: float     # || eps^(1/2) (E - E^I)' ||_0 on [0,tau]


def interpolation_study(scenario, h_list):
    """Interpolation-error table for the smooth and layer exemplars (distinct h)."""
    if len(np.unique(h_list)) < len(h_list):
        raise ParameterError("h values must be distinct")
    if scenario.smooth_exemplar is None or scenario.layer_exemplar is None:
        raise ParameterError("scenario must supply both exemplars")
    s = scenario.smooth_exemplar
    lay = scenario.layer_exemplar
    coeffs = scenario.coeffs
    e = layer_integral(coeffs, "e")

    rows = []
    for h in sorted(h_list, reverse=True):
        msh = build_mesh(coeffs, e, h)
        k = msh.tau_index
        _, half, wq, d, dd = _error_on_elements(interpolate(s, msh), s)
        s_l2, s_h1 = half * (wq @ (d * d)), half * (wq @ (dd * dd))

        # the layer norms share one Gauss grid and one evaluation of E - E^I
        gx, half, wq, d, dd = _error_on_elements(interpolate(lay, msh), lay)
        eps_g = _finite_eval(coeffs.eps, gx, "eps")
        e_l2 = half * (wq @ (d * d))
        e_wh1 = half * (wq @ (eps_g * dd * dd))
        e_invl2 = half * (wq @ (d * d / eps_g))  # weight 1/eps

        rows.append(InterpolationRow(
            h=h, node_count=len(msh.nodes),
            smooth_l2=math.sqrt(s_l2.sum()),
            smooth_h1=math.sqrt(s_h1.sum()),
            layer_l2_coarse=math.sqrt(e_l2[k:].sum()),
            layer_max_coarse=float(np.abs(d[:, k:]).max()),
            layer_wl2_fine=math.sqrt(e_invl2[:k].sum()),
            layer_wh1_fine=math.sqrt(e_wh1[:k].sum()),
        ))
    return rows
