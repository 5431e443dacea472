"""Linear Galerkin finite elements on a LayerMesh.

The bilinear form is a(v, w) = (eps v', w') - (b v', w) + (c v, w); the
convection term keeps its minus sign and there is no stabilization -- the
layer-adapted mesh does that job.  Each element integral is one weighted
moment of a coefficient's Gauss samples, because the hat functions take the
same values at the Gauss points of every element.  The assembled system is
tridiagonal over the interior nodes and is solved by LAPACK's pivoting
tridiagonal solver (gtsv) in O(n) time and memory, with no fallback path.
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
    SizeError,
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


def _on_elements(nodes, coefficients, x):
    """Values c_l + s (x - x_l) and slopes s, shape (n_el, 1), of the
    piecewise-linear function with these nodal values at the points x of
    every element, shape (n_el, k): np.interp's arithmetic, without a search."""
    c = np.asarray(coefficients, dtype=float)
    slopes = (np.diff(c) / np.diff(nodes))[:, None]
    return c[:-1, None] + slopes * (x - nodes[:-1, None]), slopes


def _element_quadrature(scenario, mesh: LayerMesh, n_quad: int):
    """(rule, gx, half, vals): element i has Gauss points gx[i] and weights
    half[i] * rule.weights; vals maps each coefficient name to its samples at gx."""
    rule = gauss_legendre(n_quad)
    gx, half = _gauss_map(mesh.nodes[:-1], mesh.nodes[1:], rule)
    co = scenario.coeffs
    vals = {}
    for label, fn in (("eps", co.eps), ("b", co.b), ("c", co.c), ("f", co.f)):
        y = _vec_eval(fn, gx)
        if not np.all(np.isfinite(y)):
            el = int(np.argwhere(~np.isfinite(y))[0][0])
            raise AssemblyError(f"non-finite {label} sample in element {el}")
        vals[label] = y
    return rule, gx, half, vals


def assemble(scenario, mesh: LayerMesh, quad_points_per_element: int = 5) -> TridiagonalSystem:
    """Assemble the Galerkin tridiagonal system for the interior nodes."""
    if quad_points_per_element < 2:
        raise ParameterError("need at least 2 quadrature points per element")
    rule, _, half, vals = _element_quadrature(scenario, mesh, quad_points_per_element)
    w = np.diff(mesh.nodes)

    # The hats phi_L = 1 - t, phi_R = t have slopes -1/w, 1/w and take the
    # same values at the Gauss points t = (1 + points)/2 of every element, so
    # each element integral is one weighted moment of a coefficient's samples.
    t = 0.5 * (1.0 + rule.points)
    moments = rule.weights[:, None] * np.column_stack(
        (1.0 - t, t, (1.0 - t) ** 2, (1.0 - t) * t, t * t))
    stiff = half * (vals["eps"] @ rule.weights) / (w * w)
    b_l, b_r = (half[:, None] * (vals["b"] @ moments[:, :2])).T
    c_ll, c_lr, c_rr = (half[:, None] * (vals["c"] @ moments[:, 2:])).T
    f_l, f_r = (half[:, None] * (vals["f"] @ moments[:, :2])).T

    # element entries a(trial, test); row = test function, column = trial
    e_ll = stiff + b_l / w + c_ll
    e_lr = -stiff - b_l / w + c_lr
    e_rl = -stiff + b_r / w + c_lr
    e_rr = stiff - b_r / w + c_rr

    # interior node i collects the R entries of element i-1 and the L entries
    # of element i; the boundary rows and columns are dropped (homogeneous
    # Dirichlet conditions)
    return TridiagonalSystem(
        sub=e_rl[1:-1], diag=e_rr[:-1] + e_ll[1:], sup=e_lr[1:-1],
        rhs=f_r[:-1] + f_l[1:],
    )


def solve_tridiagonal(system: TridiagonalSystem) -> np.ndarray:
    """LAPACK gtsv (Gaussian elimination with partial pivoting), then a residual check."""
    n = system.size
    if n == 0:  # a mesh of one element has no interior node
        raise SizeError("input array too short")
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
    rule, gx, half, vals = _element_quadrature(scenario, v.mesh,
                                               quad_points_per_element)
    v_vals, v_slope = _on_elements(v.mesh.nodes, v.coefficients, gx)
    w_vals, w_slope = _on_elements(v.mesh.nodes, w.coefficients, gx)
    integrand = (vals["eps"] * v_slope * w_slope
                 - vals["b"] * v_slope * w_vals
                 + vals["c"] * v_vals * w_vals)
    return float(half @ (integrand @ rule.weights))
