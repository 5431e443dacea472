"""Interpolation, energy norms, error reports and convergence tables.

Error measurement against closed-form solutions uses 7-point Gauss per
element (assembly uses 5).  That under-resolves element tau_index, the first
coarse element: the layer tail there, of size about h^2, decays on the scale
eps inside a width of about h, and 5, 7 or 10 points all miss it.  On
manufactured the energy error reads 3.2 % low at eps0 = 1e-4, h = 1/16, and
1.7e-4 low at eps0 = 1e-6, h = 1/256.  FE functions are evaluated at the Gauss
points from their nodal values, element by element; against a finer solve,
the difference of the two is sampled once at the nodes of the merged mesh,
on whose elements it is linear.
"""

import math

import numpy as np
from dataclasses import dataclass
from typing import Callable, Optional

from .calculus import _gauss_map, gauss_legendre, integrate, layer_integral
from .errors import ConfigurationError, DegenerateRegimeError, ParameterError
from .fem import FemSolution, _on_elements, galerkin_solve
from .mesh import LayerMesh, build_mesh
from .problem import ScalarFunction

_ERR_QUAD = 7
_REFERENCE_REFINE = 16  # h / reference h when there is no closed form


def interpolate(f, mesh: LayerMesh) -> FemSolution:
    """Nodal interpolant of f; boundary values are f(0), f(1), not forced to 0."""
    values = np.asarray(f(mesh.nodes), dtype=float)
    return FemSolution(mesh=mesh, coefficients=values)


def _error_on_elements(nodes, coefficients, exact=None, n_quad=_ERR_QUAD):
    """(gx, half, weights, d, dd): d = exact - v_h and dd = d' at the Gauss
    points gx of every element, whose integral of g is half * (g @ weights);
    v_h is the piecewise-linear function with these nodal values, and
    exact=None gives d = -v_h."""
    rule = gauss_legendre(n_quad)
    gx, half = _gauss_map(nodes[:-1], nodes[1:], rule)
    vals, slopes = _on_elements(nodes, coefficients, gx)
    d, dd = -vals, -slopes
    if exact is not None:
        d += exact(gx)
        dd = dd + exact.d(gx)
    return gx, half, rule.weights, d, dd


def _norms_on_elements(nodes, coefficients, eps_fn, exact=None, n_quad=_ERR_QUAD):
    """Per-element (integral of d^2, integral of eps * d'^2), d as above."""
    gx, half, wq, d, dd = _error_on_elements(nodes, coefficients, exact, n_quad)
    return half * ((d * d) @ wq), half * ((eps_fn(gx) * dd * dd) @ wq)


@dataclass(frozen=True)
class ErrorReport:
    h: float
    node_count: int
    energy_error: float
    l2_error: float
    weighted_grad_error: float
    reference_kind: str  # "closed-form" | "fine-mesh"


def energy_norm(v, coeffs, quad_points: int = _ERR_QUAD) -> float:
    """sqrt( || eps^(1/2) v' ||_0^2 + || v ||_0^2 ).

    FE functions are integrated element by element; closed-form functions by
    adaptive quadrature seeded with breakpoints clustered into the layer.
    """
    if isinstance(v, FemSolution):
        l2, wg = _norms_on_elements(v.mesh.nodes, v.coefficients, coeffs.eps,
                                    n_quad=quad_points)
        return math.sqrt(l2.sum() + wg.sum())
    bp = np.concatenate(([0.0], np.geomspace(1e-12, 1.0, 257)))
    val = integrate(lambda x: coeffs.eps(x) * v.d(x) ** 2 + v(x) ** 2,
                    0.0, 1.0, breakpoints=bp)
    return math.sqrt(val)


def error_report(sol: FemSolution, scenario,
                 reference: Optional[FemSolution] = None,
                 quad_points: int = _ERR_QUAD) -> ErrorReport:
    """Energy/L2 errors of sol against the exact solution or a finer solve."""
    eps_fn = scenario.coeffs.eps
    if scenario.exact is not None and reference is None:
        l2, wg = _norms_on_elements(sol.mesh.nodes, sol.coefficients, eps_fn,
                                    scenario.exact, quad_points)
        kind = "closed-form"
    elif reference is not None:
        if len(reference.mesh.nodes) < 8 * len(sol.mesh.nodes):
            raise ConfigurationError(
                "reference mesh must have at least 8x the node density")
        merged = np.union1d(sol.mesh.nodes, reference.mesh.nodes)
        l2, wg = _norms_on_elements(merged, reference(merged) - sol(merged),
                                    eps_fn, n_quad=quad_points)
        kind = "fine-mesh"
    else:
        raise ConfigurationError(
            "need a closed-form exact solution or a finer reference solve")
    l2_err = math.sqrt(l2.sum())
    wg_err = math.sqrt(wg.sum())
    return ErrorReport(
        h=sol.mesh.h, node_count=len(sol.mesh.nodes),
        energy_error=math.sqrt(l2.sum() + wg.sum()),
        l2_error=l2_err, weighted_grad_error=wg_err, reference_kind=kind)


@dataclass(frozen=True)
class ConvergenceRow:
    eps0: float
    h: float
    node_count: int
    energy_error: float
    l2_error: float
    rate: Optional[float]          # vs. previous coarser h at the same eps0
    skipped_reason: Optional[str] = None


@dataclass(frozen=True)
class ConvergenceTable:
    rows: tuple

    def rates(self, eps0: float):
        return [r.rate for r in self.rows
                if r.eps0 == eps0 and r.rate is not None]

    def errors(self, eps0: float):
        return [(r.h, r.energy_error) for r in self.rows
                if r.eps0 == eps0 and r.skipped_reason is None]


def observed_rate(err_coarse, err_fine, h_coarse, h_fine) -> float:
    return math.log(err_coarse / err_fine) / math.log(h_coarse / h_fine)


def convergence_study(scenario_family: Callable[[float], "object"],
                      h_list, eps0_list, delta: float = 1.0) -> ConvergenceTable:
    """Cartesian (h, eps0) sweep of solve + error measurement.

    Scenarios without a closed-form solution are measured against a solve of
    the same mesh family at h/_REFERENCE_REFINE.  Degenerate (h, eps0) cells
    are recorded as skipped, not fatal.  Repeated h values raise
    ParameterError: a rate between equal h is undefined.
    """
    if len(np.unique(h_list)) < len(h_list):
        raise ParameterError("h values must be distinct")
    rows = []
    for eps0 in sorted(eps0_list):
        scenario = scenario_family(eps0)
        e = layer_integral(scenario.coeffs, "e")
        prev = None  # (h, energy_error)
        for h in sorted(h_list, reverse=True):
            try:
                msh = build_mesh(scenario.coeffs, e, h, delta)
                sol = galerkin_solve(scenario, msh)
                if scenario.exact is not None:
                    rep = error_report(sol, scenario)
                else:
                    ref_mesh = build_mesh(scenario.coeffs, e,
                                          h / _REFERENCE_REFINE, delta)
                    ref = galerkin_solve(scenario, ref_mesh)
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
    return ConvergenceTable(rows=tuple(rows))


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


def interpolation_study(scenario, h_list, delta: float = 1.0,
                        quad_points: int = _ERR_QUAD):
    """Interpolation-error table for the smooth and layer exemplars."""
    if scenario.smooth_exemplar is None or scenario.layer_exemplar is None:
        raise ConfigurationError("scenario must supply both exemplars")
    s = scenario.smooth_exemplar
    lay = scenario.layer_exemplar
    coeffs = scenario.coeffs
    e = layer_integral(coeffs, "e")
    one = ScalarFunction.constant(1.0)

    rows = []
    for h in sorted(h_list, reverse=True):
        msh = build_mesh(coeffs, e, h, delta)
        k = msh.tau_index
        # the interpolants are given by their nodal values
        s_l2, s_h1 = _norms_on_elements(msh.nodes, s(msh.nodes), one, s,
                                        quad_points)

        # the layer norms share one Gauss grid and one evaluation of E - E^I
        gx, half, wq, d, dd = _error_on_elements(msh.nodes, lay(msh.nodes),
                                                 lay, quad_points)
        eps_g = coeffs.eps(gx)
        e_l2 = half * ((d * d) @ wq)
        e_wh1 = half * ((eps_g * dd * dd) @ wq)
        e_invl2 = half * ((d * d / eps_g) @ wq)  # weight 1/eps
        e_max_coarse = float(np.abs(d[k:]).max()) if k < len(d) else 0.0

        rows.append(InterpolationRow(
            h=h, node_count=len(msh.nodes),
            smooth_l2=math.sqrt(s_l2.sum()),
            smooth_h1=math.sqrt(s_h1.sum()),
            layer_l2_coarse=math.sqrt(e_l2[k:].sum()),
            layer_max_coarse=e_max_coarse,
            layer_wl2_fine=math.sqrt(e_invl2[:k].sum()),
            layer_wh1_fine=math.sqrt(e_wh1[:k].sum()),
        ))
    return rows


def rates_of(values, hs):
    """Observed rates between consecutive table entries (h descending)."""
    return [observed_rate(values[i], values[i + 1], hs[i], hs[i + 1])
            for i in range(len(values) - 1)]
