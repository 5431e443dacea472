"""Linear Galerkin finite elements on a LayerMesh.

The bilinear form is a(v, w) = (eps v', w') - (b v', w) + (c v, w); the
convection term keeps its minus sign and there is no stabilization -- the
layer-adapted mesh does that job.  The assembled system is tridiagonal over
the interior nodes and is solved by LAPACK's pivoting tridiagonal solver
(gtsv) in O(n) time and memory, with no fallback path.
"""

import numpy as np
from dataclasses import dataclass
from scipy.linalg import solve_banded

from .calculus import _gauss_map, _vec_eval, gauss_legendre
from .errors import (
    AssemblyError,
    MeshMismatchError,
    ParameterError,
    SingularSystemError,
)
from .mesh import LayerMesh


@dataclass(frozen=True)
class TridiagonalSystem:
    sub: np.ndarray   # length n-1
    diag: np.ndarray  # length n
    sup: np.ndarray   # length n-1
    rhs: np.ndarray   # length n

    @property
    def size(self) -> int:
        return len(self.diag)

    def dense(self) -> np.ndarray:
        a = np.diag(self.diag)
        a += np.diag(self.sub, -1)
        a += np.diag(self.sup, 1)
        return a

    def matvec(self, x: np.ndarray) -> np.ndarray:
        y = self.diag * x
        y[1:] += self.sub * x[:-1]
        y[:-1] += self.sup * x[1:]
        return y


@dataclass(frozen=True)
class FemSolution:
    """Piecewise-linear function given by nodal values on a LayerMesh."""

    mesh: LayerMesh
    coefficients: np.ndarray

    def __call__(self, x):
        return np.interp(x, self.mesh.nodes, self.coefficients)

    def deriv(self, x):
        """Element-wise slope; at nodes the right-hand element is used."""
        slopes = self.slopes
        idx = np.clip(np.searchsorted(self.mesh.nodes, x, side="right") - 1,
                      0, len(slopes) - 1)
        return slopes[idx]

    @property
    def slopes(self) -> np.ndarray:
        return np.diff(self.coefficients) / np.diff(self.mesh.nodes)


def _element_quadrature(scenario, mesh: LayerMesh, n_quad: int):
    """Coefficient samples and hat-function values at element Gauss points.

    Returns (w, t, gw, vals): w holds the element widths; t, gw have shape
    (n_el, n_quad) and hold the hat coordinate (x - x_l)/w and the weights at
    the Gauss points gx; vals maps each coefficient name to its samples at gx.
    """
    rule = gauss_legendre(n_quad)
    xl, xr = mesh.nodes[:-1], mesh.nodes[1:]
    w = xr - xl
    gx, half = _gauss_map(xl, xr, rule)
    gw = half[:, None] * rule.weights[None, :]
    co = scenario.coeffs
    vals = {}
    for label, fn in (("eps", co.eps), ("b", co.b), ("c", co.c), ("f", co.f)):
        y = _vec_eval(fn, gx)
        if not np.all(np.isfinite(y)):
            el = int(np.argwhere(~np.isfinite(y))[0][0])
            raise AssemblyError(f"non-finite {label} sample in element {el}")
        vals[label] = y
    return w, (gx - xl[:, None]) / w[:, None], gw, vals


def assemble(scenario, mesh: LayerMesh, quad_points_per_element: int = 5) -> TridiagonalSystem:
    """Assemble the Galerkin tridiagonal system for the interior nodes."""
    if quad_points_per_element < 2:
        raise ParameterError("need at least 2 quadrature points per element")
    w, t, gw, vals = _element_quadrature(scenario, mesh, quad_points_per_element)
    n_nodes = len(mesh.nodes)

    # hat functions on each element: phi_L = (x_r - x)/w, phi_R = (x - x_l)/w = t
    phi = {"L": 1.0 - t, "R": t}
    dphi = {"L": -1.0 / w, "R": 1.0 / w}

    eps_v, b_v, c_v, f_v = vals["eps"], vals["b"], vals["c"], vals["f"]

    def entry(trial, test):
        stiff = (gw * eps_v).sum(axis=1) * dphi[trial] * dphi[test]
        conv = -(gw * b_v * phi[test]).sum(axis=1) * dphi[trial]
        react = (gw * c_v * phi[trial] * phi[test]).sum(axis=1)
        return stiff + conv + react

    e_ll = entry("L", "L")
    e_lr = entry("R", "L")  # row L, column R
    e_rl = entry("L", "R")
    e_rr = entry("R", "R")
    load_l = (gw * f_v * phi["L"]).sum(axis=1)
    load_r = (gw * f_v * phi["R"]).sum(axis=1)

    # scatter: global row/col i gets L-contributions from element i and
    # R-contributions from element i-1
    diag_full = np.zeros(n_nodes)
    sub_full = np.zeros(n_nodes - 1)
    sup_full = np.zeros(n_nodes - 1)
    rhs_full = np.zeros(n_nodes)
    diag_full[:-1] += e_ll
    diag_full[1:] += e_rr
    sup_full[:] = e_lr
    sub_full[:] = e_rl
    rhs_full[:-1] += load_l
    rhs_full[1:] += load_r

    # homogeneous Dirichlet conditions: keep interior rows/columns only
    return TridiagonalSystem(
        sub=sub_full[1:-1], diag=diag_full[1:-1], sup=sup_full[1:-1],
        rhs=rhs_full[1:-1],
    )


def solve_tridiagonal(system: TridiagonalSystem) -> np.ndarray:
    """LAPACK gtsv (Gaussian elimination with partial pivoting), then a residual check."""
    n = system.size
    sub, diag, sup, rhs = system.sub, system.diag, system.sup, system.rhs
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(sub))
            and np.all(np.isfinite(sup)) and np.all(np.isfinite(rhs))):
        raise SingularSystemError("system contains non-finite entries")
    ab = np.array([np.r_[0.0, sup], diag, np.r_[sub, 0.0]])
    try:
        # n = 1 is a plain division, which gives inf or nan when singular
        with np.errstate(divide="ignore", invalid="ignore"):
            x = solve_banded((1, 1), ab, rhs, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError("system is singular") from exc
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("system is singular to working precision")
    norm_a = np.abs(diag).max() + (np.abs(sub).max() + np.abs(sup).max() if n > 1 else 0.0)
    resid = np.abs(system.matvec(x) - rhs).max()
    scale = norm_a * np.abs(x).max() + np.abs(rhs).max()
    if resid > 1e-8 * max(scale, 1e-300):
        raise SingularSystemError("system is singular to working precision")
    return x


def galerkin_solve(scenario, mesh: LayerMesh, quad_points_per_element: int = 5) -> FemSolution:
    """Assemble and solve; boundary coefficients are pinned to zero."""
    system = assemble(scenario, mesh, quad_points_per_element)
    interior = solve_tridiagonal(system)
    coef = np.zeros(len(mesh.nodes))
    coef[1:-1] = interior
    return FemSolution(mesh=mesh, coefficients=coef)


def bilinear_form(v: FemSolution, w: FemSolution, scenario,
                  quad_points_per_element: int = 5) -> float:
    """Quadrature value of a(v, w) for two FE functions on the same mesh."""
    if v.mesh is not w.mesh and not np.array_equal(v.mesh.nodes, w.mesh.nodes):
        raise MeshMismatchError("bilinear_form requires a shared mesh")
    _, t, gw, vals = _element_quadrature(scenario, v.mesh, quad_points_per_element)
    v_vals = v.coefficients[:-1, None] * (1 - t) + v.coefficients[1:, None] * t
    w_vals = w.coefficients[:-1, None] * (1 - t) + w.coefficients[1:, None] * t
    v_slope = v.slopes[:, None]
    w_slope = w.slopes[:, None]
    integrand = (vals["eps"] * v_slope * w_slope
                 - vals["b"] * v_slope * w_vals
                 + vals["c"] * v_vals * w_vals)
    return float((gw * integrand).sum())
