"""Linear Galerkin finite elements on a LayerMesh.

The bilinear form is a(v, w) = (eps v', w') - (b v', w) + (c v, w); the
convection term keeps its minus sign and there is no stabilization -- the
layer-adapted mesh does that job.  Assembly and bilinear_form integrate
every element by calculus._G5.  Each element integral is one weighted moment
of a coefficient's samples, because the hat functions take the same values
at the Gauss points of every element (_HATS).  Samples are stored
points-major, shape (points, elements), and the moments of all elements are
one matrix product over them; the Gauss points are mapped and sampled _BLOCK
elements at a time, so no grid of them is held for the whole mesh.  A
coefficient made by ScalarFunction.constant is not sampled at all, its
moments are one closed-form column.  Only the element entries that the
system keeps are formed, in place in a few full-length buffers.
The assembled system is tridiagonal over the interior nodes and is solved by
calling LAPACK's pivoting tridiagonal solver dgtsv directly, in O(n) time
and memory, with no fallback path; its residual is formed in place, and
where entries near 1e308 overflow it or its scale, it is checked on copies
scaled by powers of two.  dgtsv is the package's only use of scipy.  The
first solve_tridiagonal call that reaches it imports the top-level scipy
package and loads scipy.linalg._flapack, the one extension module that holds
dgtsv, on its own, never scipy.linalg, whose __init__ would load hundreds
of modules that a solve does not use.  Runs that never solve (meshes,
interpolation errors, the lemma and barrier checks) load no scipy at all.
Assembly keeps the element integrals of eps that the stiffness is made from
(bit for bit calculus._panel_sums of eps), and galerkin_solve hands them on
as FemSolution.eps_integrals; they belong to the eps of the scenario that
was solved, and fine-mesh error reports reuse them in place of sampling eps
again.  A coefficient sample or const that is not finite, or of eps not
positive (calculus._admissible), raises EvaluationError naming the
coefficient; an element whose width squared is below the smallest normal
float raises ParameterError before any division.
"""

import importlib.util
import math
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np
from dataclasses import dataclass, field
from typing import Optional

from .calculus import _G5, _admissible, _finite_eval, _gauss_map
from .errors import ParameterError, SingularSystemError
from .mesh import LayerMesh

# Elements whose Gauss points assembly maps and samples at once: a mesh of
# h >= 1/512 (about 5,000 nodes) is one block, the h/16 references of a
# convergence study at h <= 1/64 are several.
_BLOCK = 8192


@dataclass(frozen=True, eq=False)
class TridiagonalSystem:
    sub: np.ndarray   # length n-1
    diag: np.ndarray  # length n
    sup: np.ndarray   # length n-1
    rhs: np.ndarray   # length n
    # per-element integrals of eps, one per mesh element
    eps_integrals: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def size(self) -> int:
        return len(self.diag)


@dataclass(frozen=True, eq=False)
class FemSolution:
    """Piecewise-linear function given by nodal values on a LayerMesh; values
    not of the nodes' shape, or a non-finite value, raise ParameterError."""

    mesh: LayerMesh
    coefficients: np.ndarray
    # per-element integrals of the solved scenario's eps (galerkin_solve only)
    eps_integrals: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        shapes = np.shape(self.coefficients), self.mesh.nodes.shape
        if shapes[0] != shapes[1]:
            raise ParameterError("FE coefficients of shape %s on mesh nodes of "
                                 "shape %s; the shapes must match" % shapes)
        finite = np.isfinite(self.coefficients)
        if not finite.all():
            i = int(np.argmin(finite))
            raise ParameterError(
                f"FE coefficient {i} is {float(self.coefficients[i])!r} at node "
                f"x = {float(self.mesh.nodes[i])!r}; it must be finite")

    def __call__(self, x):
        return np.interp(x, self.mesh.nodes, self.coefficients)

    @property
    def slopes(self) -> np.ndarray:
        return np.diff(self.coefficients) / np.diff(self.mesh.nodes)


def _hat_table():
    """_G5's weights times the values of the hats phi_L = 1 - t, phi_R = t
    and their products at t = (1 + points)/2, the same on every element:
    columns (L, R, LL, LR, RR), read-only."""
    t = 0.5 * (1.0 + _G5.points)
    table = _G5.weights[:, None] * np.column_stack(
        (1.0 - t, t, (1.0 - t) ** 2, (1.0 - t) * t, t * t))
    table.setflags(write=False)
    return table


_HATS = _hat_table()


def _moments(fn, nodes, weighted, what):
    """Moments weighted.T @ fn(x), shape (k, n_el), for the k columns of
    weighted (Gauss weights times hat products) and the _G5 points x on the
    elements of nodes, mapped and sampled (by _finite_eval, naming fn what)
    _BLOCK elements at a time; an element integral is its half-width times the
    moment.  An admissible const gives the column const * weighted.sum(axis=0),
    broadcast to (k, n_el) without a copy."""
    n_el = len(nodes) - 1
    if fn.const is not None:
        if not _admissible(fn.const, fn.const, what):  # raises, at nodes[0]
            _finite_eval(lambda x: fn.const, nodes[:1], what)
        col = fn.const * weighted.sum(axis=0)
        return np.broadcast_to(col[:, None], (len(col), n_el))
    y = np.empty((len(_G5.points), n_el))
    for a in range(0, n_el, _BLOCK):
        b = min(a + _BLOCK, n_el)
        gx, _ = _gauss_map(nodes[a:b], nodes[a + 1:b + 1], _G5)
        y[:, a:b] = _finite_eval(fn, gx, what)
    return weighted.T @ y


def assemble(scenario, mesh: LayerMesh) -> TridiagonalSystem:
    """Assemble the Galerkin tridiagonal system for the interior nodes."""
    nodes = mesh.nodes
    w = np.diff(nodes)
    tiny = np.finfo(float).tiny
    if (w * w < tiny).any():
        el = int(np.argmax(w * w < tiny))
        raise ParameterError(
            f"element {el} has width {float(w[el])!r}, whose square is "
            "below the smallest normal float")
    co = scenario.coeffs

    # Each element integral is half times one weighted moment of a
    # coefficient's samples (_HATS).
    eps_int = _moments(co.eps, nodes, _G5.weights[:, None], "eps")[0]
    m_b = _moments(co.b, nodes, _HATS[:, :2], "b")
    m_c = _moments(co.c, nodes, _HATS[:, 2:], "c")
    m_f = _moments(co.f, nodes, _HATS[:, :2], "f")
    half = 0.5 * w  # _gauss_map's half-widths

    # Element entries a(trial, test), row = test function, column = trial:
    #   e_ll = stiff + b_l/w + c_ll    e_lr = -stiff - b_l/w + c_lr
    #   e_rl = -stiff + b_r/w + c_lr   e_rr = stiff - b_r/w + c_rr
    # Interior node i collects the R entries of element i-1 and the L entries
    # of element i; the boundary rows and columns are dropped (homogeneous
    # Dirichlet conditions).  So only elements [1:] need L entries, [:-1] R
    # entries and [1:-1] off-diagonal ones.  Rounding is symmetric, so
    # -stiff - b_l/w is exactly -(stiff + b_l/w), and -stiff + b_r/w is
    # -(stiff - b_r/w): the off-diagonals reuse the diagonal's sums.  The
    # entries are formed in place, with the operands in the order of
    # diag = (right + c_rr) + (left + c_ll); w * w and then w are scratch
    # once they are used up.
    eps_int = half * eps_int
    stiff = w * w
    np.divide(eps_int, stiff, out=stiff)
    left = np.multiply(half[1:], m_b[0, 1:])
    left /= w[1:]
    left += stiff[1:]
    right = np.multiply(half[:-1], m_b[1, :-1])
    right /= w[:-1]
    np.subtract(stiff[:-1], right, out=right)
    c_lr = np.multiply(half[1:-1], m_c[1, 1:-1], out=stiff[1:-1])
    sub = c_lr - right[1:]
    sup = c_lr - left[:-1]
    term = np.multiply(half[:-1], m_c[2, :-1], out=w[:-1])
    right += term
    left += np.multiply(half[1:], m_c[0, 1:], out=term)
    diag = right
    diag += left
    rhs = np.multiply(half[:-1], m_f[1, :-1], out=left)
    rhs += np.multiply(half[1:], m_f[0, 1:], out=term)
    return TridiagonalSystem(sub=sub, diag=diag, sup=sup, rhs=rhs,
                             eps_integrals=eps_int)


def _flapack():
    """scipy.linalg._flapack, the f2py wrapper of LAPACK that
    scipy.linalg.lapack re-exports, loaded from scipy's linalg directory
    without running scipy.linalg's __init__.  It is registered in
    sys.modules under its own name, so a later import of scipy.linalg finds
    this very module, and one that scipy.linalg loaded first is reused."""
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        import scipy  # its __init__ sets up the shared-library path on some platforms
        where = os.path.join(os.path.dirname(scipy.__file__), "linalg")
        finder = FileFinder(where, (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec(name)
        if spec is None:
            raise ImportError(f"no LAPACK extension module _flapack in {where}")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return module


def _max_abs(a):
    """max |a_i| without a temporary array: NaN if a holds a NaN, inf if it
    holds an infinity, 0 if it is empty."""
    return max(a.max(), -a.min()) if a.size else 0.0


def solve_tridiagonal(system: TridiagonalSystem) -> np.ndarray:
    """LAPACK dgtsv (Gaussian elimination with partial pivoting) on copies of
    the diagonals, then a residual check; the system is left unchanged.  Its
    four arrays are read as float arrays, so lists solve as arrays do.
    ParameterError unless diag is 1-D with n >= 1 entries, sub and sup have n - 1
    and rhs has shape (n,)."""
    sub, diag, sup, rhs = (np.asarray(a, dtype=float) for a in
                           (system.sub, system.diag, system.sup, system.rhs))
    shapes = tuple(a.shape for a in (sub, diag, sup, rhs))
    n = shapes[1][0] if len(shapes[1]) == 1 else 0
    # n = 0: a mesh of one element has no interior node
    if n == 0 or shapes != ((n - 1,), (n,), (n - 1,), (n,)):
        raise ParameterError(
            "need a 1-D diag of n >= 1 entries, sub and sup of n - 1 and rhs "
            f"of shape (n,); got shapes sub {shapes[0]}, diag {shapes[1]}, "
            f"sup {shapes[2]}, rhs {shapes[3]}")
    # the max |entry| of each array scales the residual check, and it is not
    # finite iff the array has a non-finite entry
    top_sub, top_diag, top_sup, top_rhs = map(_max_abs, (sub, diag, sup, rhs))
    if not all(map(np.isfinite, (top_sub, top_diag, top_sup, top_rhs))):
        raise SingularSystemError("system contains non-finite entries")
    if n == 1:
        # dgtsv rejects empty off-diagonals; a plain division gives inf or
        # nan when singular
        with np.errstate(divide="ignore", invalid="ignore"):
            x = rhs / diag
    else:
        x, info = _flapack().dgtsv(sub, diag, sup, rhs)[3:]
        if info > 0:  # a zero pivot U(info, info)
            raise SingularSystemError("system is singular")
    top_x = _max_abs(x)
    if not np.isfinite(top_x):
        raise SingularSystemError("system is singular to working precision")
    tops = (top_sub, top_diag, top_sup, top_rhs, top_x)
    with np.errstate(over="ignore", invalid="ignore"):  # entries near 1e308
        resid, scale = _residual(sub, diag, sup, rhs, x, *tops)
    if not (np.isfinite(resid) and np.isfinite(scale)):
        # the same check on copies scaled by exact powers of two: A by 2^-p_A,
        # rhs by 2^-k and x by 2^(p_A - k), k = max(p_A + p_x, p_rhs), with p
        # the frexp exponent of the largest entry; so no entry reaches 1
        p_a = int(np.frexp(max(tops[:3]))[1])
        k = max(p_a + int(np.frexp(top_x)[1]), int(np.frexp(top_rhs)[1]))
        shifts = (-p_a, -p_a, -p_a, -k, p_a - k)
        resid, scale = _residual(
            *(np.ldexp(v, n) for v, n in zip((sub, diag, sup, rhs, x), shifts)),
            *(math.ldexp(t, n) for t, n in zip(tops, shifts)))
    if resid > 1e-8 * max(scale, 1e-300):
        raise SingularSystemError("system is singular to working precision")
    return x


def _residual(sub, diag, sup, rhs, x, top_sub, top_diag, top_sup, top_rhs, top_x):
    """max |A x - rhs|, formed in place, and the scale it is checked against."""
    r = diag * x
    term = sub * x[:-1]
    r[1:] += term
    r[:-1] += np.multiply(sup, x[1:], out=term)
    r -= rhs
    return _max_abs(r), (top_diag + (top_sub + top_sup)) * top_x + top_rhs


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
    from samples of every coefficient.  Library API, and the tests' oracle
    for assembly."""
    if v.mesh is not w.mesh and not np.array_equal(v.mesh.nodes, w.mesh.nodes):
        raise ParameterError("bilinear_form requires a shared mesh")
    nodes = v.mesh.nodes
    gx, half = _gauss_map(nodes[:-1], nodes[1:], _G5)
    co = scenario.coeffs
    v_slope, w_vals = v.slopes, w(gx)
    integrand = (_finite_eval(co.eps, gx, "eps") * v_slope * w.slopes
                 - _finite_eval(co.b, gx, "b") * v_slope * w_vals
                 + _finite_eval(co.c, gx, "c") * v(gx) * w_vals)
    return float(half @ (_G5.weights @ integrand))
