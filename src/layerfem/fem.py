"""Linear Galerkin finite elements on a LayerMesh.

The bilinear form is a(v, w) = (eps v', w') - (b v', w) + (c v, w); the
convection term keeps its minus sign and there is no stabilization -- the
layer-adapted mesh does that job.  Each element integral is one weighted
moment of a coefficient's Gauss samples, because the hat functions take the
same values at the Gauss points of every element.  Samples are stored
points-major, shape (points, elements), so the moments of all elements are
one matrix product; a coefficient made by ScalarFunction.constant is not
sampled at all, its moments are one closed-form column.  Only the element
entries that the system keeps are formed.  The assembled system is
tridiagonal over the interior nodes and is solved by calling LAPACK's
pivoting tridiagonal solver dgtsv directly, in O(n) time and memory, with no
fallback path.  dgtsv is the package's only use of scipy, and scipy.linalg
is imported by the first solve_tridiagonal call that reaches it, so runs that
never solve (meshes, interpolation errors, the lemma and barrier checks) skip
its import of about 0.2 s and 28 MB.  Assembly keeps the element integrals of
eps that the stiffness is made from (5-point Gauss, half-width times the
weighted sum), and galerkin_solve hands them on as FemSolution.eps_integrals;
they belong to the eps of the scenario that was solved, and fine-mesh error
reports reuse them in place of sampling eps again.  An element whose width
squared is below the smallest normal float raises AssemblyError before any
division.
"""

import numpy as np
from dataclasses import dataclass, field
from typing import Optional

from .calculus import _gauss_map, _vec_eval, gauss_legendre
from .errors import (
    AssemblyError,
    MeshMismatchError,
    SingularSystemError,
    SizeError,
)
from .mesh import LayerMesh

_QUAD = 5  # Gauss points per element in assembly and in bilinear_form


@dataclass(frozen=True)
class TridiagonalSystem:
    sub: np.ndarray   # length n-1
    diag: np.ndarray  # length n
    sup: np.ndarray   # length n-1
    rhs: np.ndarray   # length n
    # per-element integrals of eps, one per mesh element
    eps_integrals: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False)

    @property
    def size(self) -> int:
        return len(self.diag)

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
    # per-element integrals of the solved scenario's eps (galerkin_solve only)
    eps_integrals: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False)

    def __call__(self, x):
        return np.interp(x, self.mesh.nodes, self.coefficients)

    @property
    def slopes(self) -> np.ndarray:
        return np.diff(self.coefficients) / np.diff(self.mesh.nodes)


def _on_elements(nodes, coefficients, x):
    """Values c_l + s (x - x_l) and slopes s, shape (n_el,), of the
    piecewise-linear function with these nodal values at the points x of
    every element, stored points-major with shape (k, n_el): np.interp's
    arithmetic, without a search."""
    c = np.asarray(coefficients, dtype=float)
    slopes = np.diff(c) / np.diff(nodes)
    return c[:-1] + slopes * (x - nodes[:-1]), slopes


def _samples(label, fn, gx):
    """fn at the points-major Gauss points gx; AssemblyError names the first
    element with a non-finite sample."""
    y = _vec_eval(fn, gx)
    if not np.all(np.isfinite(y)):
        el = int(np.argmin(np.all(np.isfinite(y), axis=0)))
        raise AssemblyError(f"non-finite {label} sample in element {el}")
    return y


def _moments(label, fn, gx, weighted):
    """Moments weighted.T @ fn(gx), shape (k, n_el), for the k columns of
    weighted (Gauss weights times hat products); an element integral is its
    half-width times the moment.  A constant coefficient gives the column
    const * weighted.sum(axis=0), broadcast to (k, n_el) without a copy."""
    if fn.const is not None:
        if not np.isfinite(fn.const):
            raise AssemblyError(f"non-finite {label} sample in element 0")
        col = fn.const * weighted.sum(axis=0)
        return np.broadcast_to(col[:, None], (len(col), gx.shape[1]))
    return weighted.T @ _samples(label, fn, gx)


def assemble(scenario, mesh: LayerMesh) -> TridiagonalSystem:
    """Assemble the Galerkin tridiagonal system for the interior nodes."""
    w = np.diff(mesh.nodes)
    w2 = w * w
    subnormal = w2 < np.finfo(float).tiny
    if subnormal.any():
        el = int(np.argmax(subnormal))
        raise AssemblyError(
            f"element {el} has width {float(w[el])!r}, whose square is "
            "below the smallest normal float")
    rule = gauss_legendre(_QUAD)
    gx, half = _gauss_map(mesh.nodes[:-1], mesh.nodes[1:], rule)
    co = scenario.coeffs

    # The hats phi_L = 1 - t, phi_R = t have slopes -1/w, 1/w and take the
    # same values at the Gauss points t = (1 + points)/2 of every element, so
    # each element integral is half times one weighted moment of a
    # coefficient's samples.
    t = 0.5 * (1.0 + rule.points)
    moments = rule.weights[:, None] * np.column_stack(
        (1.0 - t, t, (1.0 - t) ** 2, (1.0 - t) * t, t * t))
    m_eps = _moments("eps", co.eps, gx, rule.weights[:, None])
    m_b = _moments("b", co.b, gx, moments[:, :2])
    m_c = _moments("c", co.c, gx, moments[:, 2:])
    m_f = _moments("f", co.f, gx, moments[:, :2])

    # Element entries a(trial, test), row = test function, column = trial:
    #   e_ll = stiff + b_l/w + c_ll    e_lr = -stiff - b_l/w + c_lr
    #   e_rl = -stiff + b_r/w + c_lr   e_rr = stiff - b_r/w + c_rr
    # Interior node i collects the R entries of element i-1 and the L entries
    # of element i; the boundary rows and columns are dropped (homogeneous
    # Dirichlet conditions).  So only elements [1:] need L entries, [:-1] R
    # entries and [1:-1] off-diagonal ones.  Rounding is symmetric, so
    # -stiff - b_l/w is exactly -(stiff + b_l/w), and -stiff + b_r/w is
    # -(stiff - b_r/w): the off-diagonals reuse the diagonal's sums.
    eps_int = half * m_eps[0]
    stiff = eps_int / w2
    left = stiff[1:] + half[1:] * m_b[0, 1:] / w[1:]
    right = stiff[:-1] - half[:-1] * m_b[1, :-1] / w[:-1]
    c_lr = half[1:-1] * m_c[1, 1:-1]
    return TridiagonalSystem(
        sub=c_lr - right[1:],
        diag=(right + half[:-1] * m_c[2, :-1]) + (left + half[1:] * m_c[0, 1:]),
        sup=c_lr - left[:-1],
        rhs=half[:-1] * m_f[1, :-1] + half[1:] * m_f[0, 1:],
        eps_integrals=eps_int,
    )


def solve_tridiagonal(system: TridiagonalSystem) -> np.ndarray:
    """LAPACK dgtsv (Gaussian elimination with partial pivoting) on copies of
    the diagonals, then a residual check; the system is left unchanged."""
    n = system.size
    if n == 0:  # a mesh of one element has no interior node
        raise SizeError("input array too short")
    sub, diag, sup, rhs = system.sub, system.diag, system.sup, system.rhs
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(sub))
            and np.all(np.isfinite(sup)) and np.all(np.isfinite(rhs))):
        raise SingularSystemError("system contains non-finite entries")
    if n == 1:
        # dgtsv rejects empty off-diagonals; a plain division gives inf or
        # nan when singular
        with np.errstate(divide="ignore", invalid="ignore"):
            x = rhs / diag
    else:
        from scipy.linalg import lapack  # here: runs that never solve skip it
        _, _, _, x, info = lapack.dgtsv(sub, diag, sup, rhs)
        if info > 0:  # a zero pivot U(info, info)
            raise SingularSystemError("system is singular")
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("system is singular to working precision")
    norm_a = np.abs(diag).max() + (np.abs(sub).max() + np.abs(sup).max() if n > 1 else 0.0)
    resid = np.abs(system.matvec(x) - rhs).max()
    scale = norm_a * np.abs(x).max() + np.abs(rhs).max()
    if resid > 1e-8 * max(scale, 1e-300):
        raise SingularSystemError("system is singular to working precision")
    return x


def galerkin_solve(scenario, mesh: LayerMesh) -> FemSolution:
    """Assemble and solve; boundary coefficients are pinned to zero."""
    system = assemble(scenario, mesh)
    interior = solve_tridiagonal(system)
    coef = np.zeros(len(mesh.nodes))
    coef[1:-1] = interior
    return FemSolution(mesh=mesh, coefficients=coef,
                       eps_integrals=system.eps_integrals)


def bilinear_form(v: FemSolution, w: FemSolution, scenario) -> float:
    """Quadrature value of a(v, w) for two FE functions on the same mesh,
    from samples of every coefficient: the oracle that assembly is tested on."""
    if v.mesh is not w.mesh and not np.array_equal(v.mesh.nodes, w.mesh.nodes):
        raise MeshMismatchError("bilinear_form requires a shared mesh")
    rule = gauss_legendre(_QUAD)
    nodes = v.mesh.nodes
    gx, half = _gauss_map(nodes[:-1], nodes[1:], rule)
    co = scenario.coeffs
    v_vals, v_slope = _on_elements(nodes, v.coefficients, gx)
    w_vals, w_slope = _on_elements(nodes, w.coefficients, gx)
    integrand = (_samples("eps", co.eps, gx) * v_slope * w_slope
                 - _samples("b", co.b, gx) * v_slope * w_vals
                 + _samples("c", co.c, gx) * v_vals * w_vals)
    return float(half @ (rule.weights @ integrand))
