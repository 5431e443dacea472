import dataclasses
import re
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from layerfem import fem
from layerfem.analysis import energy_norm, error_report, interpolate
from layerfem.calculus import _finite_eval, gauss_legendre, layer_integral
from layerfem.errors import (
    DegenerateRegimeError,
    EvaluationError,
    ParameterError,
    SingularSystemError,
)
from layerfem.fem import (
    FemSolution,
    TridiagonalSystem,
    assemble,
    bilinear_form,
    galerkin_solve,
    solve_tridiagonal,
)
from layerfem.mesh import LayerMesh, build_mesh
from layerfem.problem import (
    SCENARIO_NAMES,
    CoefficientSet,
    Scenario,
    ScalarFunction,
    get_scenario,
)


def dense(system):
    """The O(n^2) matrix of a tridiagonal system, for comparisons in tests."""
    return (np.diag(system.diag) + np.diag(system.sub, -1)
            + np.diag(system.sup, 1))


def matvec(system, x):
    """A x for the tridiagonal system, from its three diagonals."""
    y = system.diag * x
    y[1:] += system.sub * x[:-1]
    y[:-1] += system.sup * x[1:]
    return y


def uniform_mesh(n_nodes):
    nodes = np.linspace(0.0, 1.0, n_nodes)
    return LayerMesh(nodes=nodes, h=1.0 / (n_nodes - 1), tau_index=1,
                     tau_star=float(nodes[1]))


def plain_scenario(eps=1.0, b=0.0, c=0.0, f=0.0):
    coeffs = CoefficientSet(
        eps=ScalarFunction.constant(eps), b=ScalarFunction.constant(b),
        c=ScalarFunction.constant(c), f=ScalarFunction.constant(f),
        beta=max(b / 2, 0.1), gamma=max(c, 0.1),
        eps_lower=eps, eps_upper=eps, sigma=0.0)
    return Scenario(name="synthetic", coeffs=coeffs, exact=None,
                    smooth_exemplar=None, layer_exemplar=None)


class TestAssembly:
    def test_uniform_laplacian_stencil(self):
        n = 11
        mesh = uniform_mesh(n)
        sys_ = assemble(plain_scenario(eps=1.0), mesh)
        H = 1.0 / (n - 1)
        assert sys_.size == n - 2  # one unknown per interior node
        assert sys_.diag == pytest.approx(np.full(n - 2, 2.0 / H), rel=1e-13)
        assert sys_.sub == pytest.approx(np.full(n - 3, -1.0 / H), rel=1e-13)
        assert sys_.sup == pytest.approx(np.full(n - 3, -1.0 / H), rel=1e-13)

    def test_pure_convection_stencil(self):
        # a(v, w) = -(v', w) with b = 1: skew part only, diag vanishes
        mesh = uniform_mesh(9)
        sys_ = assemble(plain_scenario(eps=0.0, b=1.0), mesh)
        assert sys_.diag == pytest.approx(np.zeros(7), abs=1e-15)
        assert sys_.sup == pytest.approx(np.full(6, -0.5), rel=1e-13)
        assert sys_.sub == pytest.approx(np.full(6, 0.5), rel=1e-13)

    def test_diagonal_positive_on_layer_mesh(self):
        sc = get_scenario("eps-linear", 1e-4)
        e = layer_integral(sc.coeffs, "e")
        mesh = build_mesh(sc.coeffs, e, 1.0 / 32)
        sys_ = assemble(sc, mesh)
        assert np.all(sys_.diag > 0)

    # 20,001 nodes put element 10,000 in the second block of fem._BLOCK
    @pytest.mark.parametrize("n_nodes", [9, 20001])
    def test_nan_coefficient_raises(self, n_nodes):
        sc = plain_scenario()
        bad = Scenario(
            name="bad",
            coeffs=CoefficientSet(
                eps=ScalarFunction(lambda x: np.where(x > 0.5, np.nan, 1.0)),
                b=sc.coeffs.b, c=sc.coeffs.c, f=sc.coeffs.f,
                beta=0.1, gamma=0.1, eps_lower=1.0, eps_upper=1.0, sigma=0.0),
            exact=None, smooth_exemplar=None, layer_exemplar=None)
        # eps is NaN for x > 0.5: on uniform nodes the first bad element is
        # the one that starts at 0.5, and the first bad sample lies in it
        mesh = uniform_mesh(n_nodes)
        el = (n_nodes - 1) // 2
        with pytest.raises(EvaluationError,
                           match=r"^non-finite eps sample at x=") as info:
            assemble(bad, mesh)
        x = float(str(info.value).rpartition("=")[2])
        assert mesh.nodes[el] < x < mesh.nodes[el + 1]

    def test_nan_constant_coefficient_raises(self):
        # a constant coefficient is integrated without samples; its value is
        # still checked
        sc = plain_scenario()
        bad = dataclasses.replace(sc, coeffs=dataclasses.replace(
            sc.coeffs, b=ScalarFunction.constant(np.nan)))
        with pytest.raises(EvaluationError, match="non-finite constant"):
            assemble(bad, uniform_mesh(9))


    @pytest.mark.parametrize("nodes, el", [
        ([0.0, 1e-200, 2e-200, 0.5, 1.0], 0),
        ([0.0, 1e-140, 2e-140, 2e-140 + 1e-155, 0.5, 1.0], 2),
        ([0.0, 0.25, 0.5, 0.5, 0.75, 1.0], 2),  # a repeated node
    ])
    def test_subnormal_width_squared_raises(self, nodes, el):
        # w * w underflows, so the stiffness would divide by zero or by a
        # subnormal with few significant bits; assembly refuses first
        mesh = LayerMesh(nodes=np.array(nodes), h=0.25,
                         tau_index=1, tau_star=nodes[1])
        with pytest.raises(ParameterError, match=f"element {el} has width"):
            assemble(plain_scenario(eps=1.0, f=1.0), mesh)

    def test_smallest_normal_width_squared_assembles(self):
        w = 2.0 ** -511  # w * w = 2**-1022, the smallest normal float
        mesh = LayerMesh(nodes=np.array([0.0, w, 2 * w, 0.5, 1.0]), h=0.25,
                         tau_index=1, tau_star=w)
        assert np.all(np.isfinite(assemble(plain_scenario(eps=1.0), mesh).diag))


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_solution_keeps_element_integrals_of_eps(name):
    sc = get_scenario(name, 1e-4)
    mesh = build_mesh(sc.coeffs, layer_integral(sc.coeffs, "e"), 1.0 / 64)
    nodes = mesh.nodes
    rule = gauss_legendre(5)
    w = np.diff(nodes)
    gx = 0.5 * (nodes[:-1] + nodes[1:]) + 0.5 * np.multiply.outer(rule.points, w)
    want = 0.5 * w * (rule.weights @ sc.coeffs.eps(gx))
    sol = galerkin_solve(sc, mesh)
    assert sol.eps_integrals.shape == want.shape
    assert np.all(np.abs(sol.eps_integrals - want) <= 1e-15 * want)
    # only a solve knows them; the field takes no part in repr or ==
    bare = FemSolution(mesh, sol.coefficients)
    assert bare.eps_integrals is None and repr(bare) == repr(sol)
    assert interpolate(sc.smooth_exemplar, mesh).eps_integrals is None


def unit_hat(mesh, i):
    coef = np.zeros(mesh.node_count)
    coef[i] = 1.0
    return FemSolution(mesh=mesh, coefficients=coef)


def load_on_hat(scenario, mesh, i, n_quad=5):
    """(f, phi_i) by the n_quad-point Gauss rule on the two elements of its support."""
    rule = gauss_legendre(n_quad)
    phi = unit_hat(mesh, i)
    total = 0.0
    for el in (i - 1, i):
        xl, xr = mesh.nodes[el], mesh.nodes[el + 1]
        gx = 0.5 * (xl + xr) + 0.5 * (xr - xl) * rule.points
        total += 0.5 * (xr - xl) * np.sum(
            rule.weights * scenario.coeffs.f(gx) * phi(gx))
    return total


# b, c and f are constant in every built-in scenario; varying them tells the
# two hat functions of an element apart in every term
_VARIABLE_BCF = dict(b=ScalarFunction(lambda x: 2.0 + x),
                     c=ScalarFunction(lambda x: 1.0 + x * x),
                     f=ScalarFunction(lambda x: np.exp(-3.0 * x)))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(name=st.sampled_from(SCENARIO_NAMES), log10_eps0=st.floats(-12.0, -2.0),
       k=st.integers(2, 5), variable_bcf=st.booleans())
@example(name="eps-exp", log10_eps0=-12.0, k=5, variable_bcf=True)
def test_assemble_matches_bilinear_form_on_hats(name, log10_eps0, k, variable_bcf):
    # row i, column j of the system is a(phi_j, phi_i); rhs i is (f, phi_i)
    sc = get_scenario(name, 10.0 ** log10_eps0)
    if variable_bcf:
        sc = dataclasses.replace(
            sc, coeffs=dataclasses.replace(sc.coeffs, **_VARIABLE_BCF))
    try:
        mesh = build_mesh(sc.coeffs, layer_integral(sc.coeffs, "e"), 2.0 ** -k)
    except DegenerateRegimeError:
        assume(False)
    sys_ = assemble(sc, mesh)
    hats = [unit_hat(mesh, i) for i in range(mesh.node_count)]
    inner = range(1, mesh.node_count - 1)
    want = TridiagonalSystem(
        diag=np.array([bilinear_form(hats[i], hats[i], sc) for i in inner]),
        sup=np.array([bilinear_form(hats[i + 1], hats[i], sc) for i in inner[:-1]]),
        sub=np.array([bilinear_form(hats[i], hats[i + 1], sc) for i in inner[:-1]]),
        rhs=np.array([load_on_hat(sc, mesh, i) for i in inner]))
    # diagonal entries can nearly cancel, so matrix errors are taken relative
    # to the largest entry of their row
    row_scale = np.abs(dense(want)).max(axis=1)
    row_err = np.abs(dense(sys_) - dense(want)).max(axis=1)
    assert np.all(row_err <= 1e-13 * row_scale)
    assert np.all(np.abs(sys_.rhs - want.rhs) <= 1e-13 * np.abs(want.rhs))



def assemble_by_element_entries(scenario, mesh):
    """The element-entry formulas assembly was built from: full-length
    moments (constants as outer products) and all four entries on every
    element, sliced at the end.  assemble must reproduce them bit for bit."""
    rule = gauss_legendre(5)
    gx, half = fem._gauss_map(mesh.nodes[:-1], mesh.nodes[1:], rule)
    w = np.diff(mesh.nodes)
    co = scenario.coeffs

    def moments(fn, weighted):
        if fn.const is not None:
            return np.multiply.outer(fn.const * weighted.sum(axis=0), half)
        return half * (weighted.T @ _finite_eval(fn, gx))

    t = 0.5 * (1.0 + rule.points)
    hats = rule.weights[:, None] * np.column_stack(
        (1.0 - t, t, (1.0 - t) ** 2, (1.0 - t) * t, t * t))
    eps_int = moments(co.eps, rule.weights[:, None])[0]
    stiff = eps_int / (w * w)
    b_l, b_r = moments(co.b, hats[:, :2])
    c_ll, c_lr, c_rr = moments(co.c, hats[:, 2:])
    f_l, f_r = moments(co.f, hats[:, :2])
    e_ll = stiff + b_l / w + c_ll
    e_lr = -stiff - b_l / w + c_lr
    e_rl = -stiff + b_r / w + c_lr
    e_rr = stiff - b_r / w + c_rr
    return TridiagonalSystem(
        sub=e_rl[1:-1], diag=e_rr[:-1] + e_ll[1:], sup=e_lr[1:-1],
        rhs=f_r[:-1] + f_l[1:], eps_integrals=eps_int)


# at h = 1/4096 every mesh has more than fem._BLOCK elements, so the Gauss
# points are sampled in several blocks
@pytest.mark.parametrize("name", SCENARIO_NAMES + ("variable-bcf",))
@pytest.mark.parametrize("eps0", [1e-2, 1e-6, 1e-12])
@pytest.mark.parametrize("h", [1.0 / 16, 1.0 / 256, 1.0 / 4096])
def test_assemble_matches_element_entries_exactly(name, eps0, h):
    if name == "variable-bcf":
        sc = get_scenario("eps-exp", eps0)
        sc = dataclasses.replace(
            sc, coeffs=dataclasses.replace(sc.coeffs, **_VARIABLE_BCF))
    else:
        sc = get_scenario(name, eps0)
    try:
        mesh = build_mesh(sc.coeffs, layer_integral(sc.coeffs, "e"), h)
    except DegenerateRegimeError:
        pytest.skip("no layer-adapted mesh in this regime")
    if h == 1.0 / 4096:
        assert mesh.node_count - 1 > 2 * fem._BLOCK
    got, want = assemble(sc, mesh), assemble_by_element_entries(sc, mesh)
    for part in ("sub", "diag", "sup", "rhs", "eps_integrals"):
        assert np.array_equal(getattr(got, part), getattr(want, part)), part


def test_assemble_memory_per_node():
    # the Gauss points are never held for the whole mesh and the entries
    # are formed in place: 40 B/node is the system itself, with its eps
    # integrals, and the rest is the samples of one coefficient (40 B/node
    # for eps) and a few full-length buffers
    sc = get_scenario("eps-exp", 1e-6)
    mesh = build_mesh(sc.coeffs, layer_integral(sc.coeffs, "e"), 1.0 / 4096)
    assert mesh.node_count == 49690
    assemble(sc, mesh)  # first-call caches stay out of the count
    tracemalloc.start()
    try:
        assemble(sc, mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 90 * mesh.node_count


class TestTridiagonalSolve:
    def test_identity(self):
        sys_ = TridiagonalSystem(sub=np.zeros(4), diag=np.ones(5),
                                 sup=np.zeros(4), rhs=np.arange(5.0))
        assert solve_tridiagonal(sys_) == pytest.approx(np.arange(5.0))

    def test_hand_solved_3x3(self):
        # [[2,-1,0],[-1,2,-1],[0,-1,2]] x = e_1  =>  x = (3/4, 1/2, 1/4)
        sys_ = TridiagonalSystem(
            sub=np.array([-1.0, -1.0]), diag=np.array([2.0, 2.0, 2.0]),
            sup=np.array([-1.0, -1.0]), rhs=np.array([1.0, 0.0, 0.0]))
        assert solve_tridiagonal(sys_) == pytest.approx([0.75, 0.5, 0.25])

    def test_random_diagonally_dominant(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            sub = rng.standard_normal(n - 1)
            sup = rng.standard_normal(n - 1)
            diag = 3.0 + np.abs(rng.standard_normal(n))
            diag[1:] += np.abs(sub)
            diag[:-1] += np.abs(sup)
            rhs = rng.standard_normal(n)
            sys_ = TridiagonalSystem(sub=sub, diag=diag, sup=sup, rhs=rhs)
            x = solve_tridiagonal(sys_)
            ref = np.linalg.solve(dense(sys_), rhs)
            assert np.abs(x - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())

    def test_singular_system(self):
        # an exact zero pivot, of the zero matrix and of [[1, 1], [1, 1]]:
        # LAPACK reports it (info > 0), not the residual check
        for value in (0.0, 1.0):
            sys_ = TridiagonalSystem(
                sub=np.array([value]), diag=np.full(2, value),
                sup=np.array([value]), rhs=np.array([1.0, 2.0]))
            with pytest.raises(SingularSystemError, match="singular$"):
                solve_tridiagonal(sys_)

    def test_single_unknown_is_a_division(self, monkeypatch):
        # dgtsv rejects the empty off-diagonals of a 1 x 1 system
        with pytest.raises(ValueError, match="unexpected array size"):
            scipy.linalg.lapack.dgtsv(np.zeros(0), np.ones(1), np.zeros(0), np.ones(1))

        def no_lapack(*args):
            raise AssertionError("dgtsv called")

        monkeypatch.setattr(fem._flapack(), "dgtsv", no_lapack)
        empty = np.zeros(0)
        sys_ = TridiagonalSystem(sub=empty, diag=np.array([4.0]), sup=empty,
                                 rhs=np.array([3.0]))
        assert solve_tridiagonal(sys_).tolist() == [0.75]
        with pytest.raises(SingularSystemError):
            solve_tridiagonal(dataclasses.replace(sys_, diag=np.zeros(1)))
        # two unknowns do reach the patched dgtsv, so the patch is the one
        # that solve_tridiagonal calls
        two = TridiagonalSystem(sub=np.ones(1), diag=np.full(2, 4.0),
                                sup=np.ones(1), rhs=np.ones(2))
        with pytest.raises(AssertionError, match="^dgtsv called$"):
            solve_tridiagonal(two)

    @pytest.mark.parametrize("n", [1, 2])
    def test_lists_solve_as_arrays(self, n):
        # lists passed the shape check, then raised AttributeError in _max_abs
        lists = dict(sub=[1.0] * (n - 1), diag=[4.0] * n, sup=[1.0] * (n - 1),
                     rhs=[1.0, 2.0][:n])
        arrays = {key: np.array(v) for key, v in lists.items()}
        assert (solve_tridiagonal(TridiagonalSystem(**lists)).tolist()
                == solve_tridiagonal(TridiagonalSystem(**arrays)).tolist())

    def test_missing_lapack_module_names_the_directory(self, monkeypatch, tmp_path):
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        monkeypatch.setattr(scipy, "__file__", str(tmp_path / "__init__.py"))
        where = str(tmp_path / "linalg")
        with pytest.raises(ImportError, match=re.escape(where)):
            fem._flapack()

    def test_system_is_left_unchanged(self):
        # a zero first pivot makes dgtsv swap rows in its working copies
        rng = np.random.default_rng(11)
        sys_ = TridiagonalSystem(sub=rng.standard_normal(9),
                                 diag=np.r_[0.0, rng.standard_normal(9)],
                                 sup=rng.standard_normal(9),
                                 rhs=rng.standard_normal(10))
        before = [a.copy() for a in (sys_.sub, sys_.diag, sys_.sup, sys_.rhs)]
        solve_tridiagonal(sys_)
        after = (sys_.sub, sys_.diag, sys_.sup, sys_.rhs)
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

    @pytest.mark.parametrize("part", ["sub", "diag", "sup", "rhs"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_entries(self, part, bad):
        sys_ = TridiagonalSystem(sub=np.full(3, -1.0), diag=np.full(4, 3.0),
                                 sup=np.full(3, -1.0), rhs=np.ones(4))
        getattr(sys_, part)[1] = bad
        with pytest.raises(SingularSystemError,
                           match="^system contains non-finite entries$"):
            solve_tridiagonal(sys_)

    def test_entries_near_overflow_solve(self):
        # every entry is finite, but the sum of the largest |entry| of the
        # diagonals, 2e308, overflows: only a non-finite entry may be refused
        n = 6
        big = 1e308
        sys_ = TridiagonalSystem(sub=np.full(n - 1, 0.25 * big),
                                 diag=np.full(n, 1.5 * big),
                                 sup=np.full(n - 1, 0.25 * big),
                                 rhs=np.full(n, big))
        x = solve_tridiagonal(sys_)
        scaled = TridiagonalSystem(sub=sys_.sub / big, diag=sys_.diag / big,
                                   sup=sys_.sup / big, rhs=sys_.rhs / big)
        ref = np.linalg.solve(dense(scaled), scaled.rhs)
        assert np.abs(x - ref).max() <= 1e-14

    @pytest.mark.parametrize("big, rel", [(1e308, 1e-6), (1e308, -1e-7),
                                          (1.0, 1e-6)])
    def test_residual_check_sees_a_wrong_solution(self, monkeypatch, big, rel):
        # the residual check's scale overflows to inf near 1e308; it is then
        # made on copies scaled by powers of two, so a wrong x still fails
        n = 6
        sys_ = TridiagonalSystem(sub=np.full(n - 1, 0.25 * big),
                                 diag=np.full(n, 1.5 * big),
                                 sup=np.full(n - 1, 0.25 * big),
                                 rhs=np.full(n, big))
        real = fem._flapack().dgtsv

        def perturbed(*args):
            *rest, x, info = real(*args)
            x[2] *= 1.0 + rel
            return (*rest, x, info)

        monkeypatch.setattr(fem._flapack(), "dgtsv", perturbed)
        with pytest.raises(SingularSystemError,
                           match="^system is singular to working precision$"):
            solve_tridiagonal(sys_)

    def test_overflow_inside_the_elimination_is_refused(self):
        # x = (0.75, 0.75), but dgtsv's elimination overflows to inf and
        # returns x = 0; the scale is then inf * 0 = nan, and only the check
        # on scaled copies sees the residual of 1.5e308
        sys_ = TridiagonalSystem(sub=np.array([1e308]), diag=np.array([1e308, 1e308]),
                                 sup=np.array([-1e308]), rhs=np.array([0.0, 1.5e308]))
        with pytest.raises(SingularSystemError,
                           match="^system is singular to working precision$"):
            solve_tridiagonal(sys_)

    def test_empty_system(self):
        empty = np.zeros(0)
        sys_ = TridiagonalSystem(sub=empty, diag=empty, sup=empty, rhs=empty)
        with pytest.raises(ParameterError):
            solve_tridiagonal(sys_)

    @pytest.mark.parametrize("sub, diag, rhs, shapes", [
        # f2py refused this sub, with its own message
        (np.ones(3), np.full(3, 4.0), np.ones(3), "sub (3,), diag (3,)"),
        # this rhs failed to broadcast in the residual
        (np.ones(2), np.full(3, 4.0), np.ones((3, 1)), "rhs (3, 1)"),
        # one unknown with a one-entry sub gave [1.] without complaint
        (np.ones(1), np.full(1, 4.0), np.full(1, 4.0), "sub (1,), diag (1,)"),
        (np.ones(1), np.full((2, 2), 4.0), np.ones(2), "diag (2, 2)"),
    ], ids=["long-sub", "2-D-rhs", "one-unknown-with-sub", "2-D-diag"])
    def test_inconsistent_lengths(self, sub, diag, rhs, shapes):
        sys_ = TridiagonalSystem(sub=sub, diag=diag, sup=sub.copy(), rhs=rhs)
        with pytest.raises(ParameterError, match=re.escape(shapes)):
            solve_tridiagonal(sys_)

    def test_zero_first_pivot_without_dense_matrix(self, monkeypatch):
        # [[0, 1], [1, 1]] x = (1, 2) has x = (1, 1); elimination without
        # pivoting fails at the first pivot, and no dense solve may step in
        def no_dense(*args, **kwargs):
            raise AssertionError("dense solve called")

        monkeypatch.setattr(np.linalg, "solve", no_dense)
        monkeypatch.setattr(scipy.linalg, "solve", no_dense)
        sys_ = TridiagonalSystem(sub=np.array([1.0]), diag=np.array([0.0, 1.0]),
                                 sup=np.array([1.0]), rhs=np.array([1.0, 2.0]))
        assert solve_tridiagonal(sys_) == pytest.approx([1.0, 1.0])


# diag_scale 0.1 and 0 give systems far from diagonal dominance
@settings(derandomize=True, max_examples=150, deadline=None)
@given(n=st.integers(1, 200), seed=st.integers(0, 2**32 - 1),
       diag_scale=st.sampled_from([0.0, 0.1, 1.0, 10.0]),
       zero_first_pivot=st.booleans())
@example(n=1, seed=0, diag_scale=1.0, zero_first_pivot=False)
@example(n=2, seed=0, diag_scale=1.0, zero_first_pivot=True)
@example(n=200, seed=1, diag_scale=0.1, zero_first_pivot=True)
def test_solve_matches_dense(n, seed, diag_scale, zero_first_pivot):
    rng = np.random.default_rng(seed)
    diag = diag_scale * rng.standard_normal(n)
    if zero_first_pivot:
        diag[0] = 0.0
    sys_ = TridiagonalSystem(sub=rng.standard_normal(n - 1), diag=diag,
                             sup=rng.standard_normal(n - 1),
                             rhs=rng.standard_normal(n))
    a = dense(sys_)
    cond = np.linalg.cond(a)
    assume(cond <= 1e8)
    x = solve_tridiagonal(sys_)
    ref = np.linalg.solve(a, sys_.rhs)
    assert np.abs(x - ref).max() <= 1e-12 * cond * np.abs(ref).max()


class TestGalerkinSolve:
    def test_zero_rhs_gives_zero(self):
        sc = get_scenario("eps-exp", 1e-3)
        zero = Scenario(
            name="zero",
            coeffs=CoefficientSet(
                eps=sc.coeffs.eps, b=sc.coeffs.b, c=sc.coeffs.c,
                f=ScalarFunction.constant(0.0), beta=sc.coeffs.beta,
                gamma=sc.coeffs.gamma, eps_lower=sc.coeffs.eps_lower,
                eps_upper=sc.coeffs.eps_upper, sigma=sc.coeffs.sigma),
            exact=None, smooth_exemplar=None, layer_exemplar=None)
        e = layer_integral(zero.coeffs, "e")
        mesh = build_mesh(zero.coeffs, e, 1.0 / 32)
        sol = galerkin_solve(zero, mesh)
        assert np.abs(sol.coefficients).max() <= 1e-13

    def test_single_element_mesh_has_no_unknowns(self):
        with pytest.raises(ParameterError):
            galerkin_solve(plain_scenario(f=1.0), uniform_mesh(2))

    def test_poisson_nodal_exactness(self):
        # -u'' = 1, u(0) = u(1) = 0: linear FEM is nodally exact
        mesh = uniform_mesh(17)
        sol = galerkin_solve(plain_scenario(eps=1.0, f=1.0), mesh)
        exact = mesh.nodes * (1 - mesh.nodes) / 2
        assert sol.coefficients == pytest.approx(exact, abs=1e-13)

    def test_layer_mesh_beats_uniform(self):
        # same unknown count, 10x smaller energy error on the adapted mesh
        sc = get_scenario("eps-linear", 1e-4)
        e = layer_integral(sc.coeffs, "e")
        mesh = build_mesh(sc.coeffs, e, 1.0 / 64)
        ref_mesh = build_mesh(sc.coeffs, e, 1.0 / 1024)
        ref = galerkin_solve(sc, ref_mesh)
        adapted = error_report(galerkin_solve(sc, mesh), sc, reference=ref)
        uni_mesh = uniform_mesh(mesh.node_count)
        uniform = error_report(galerkin_solve(sc, uni_mesh), sc, reference=ref)
        assert uniform.energy_error >= 10 * adapted.energy_error

    def test_discrete_galerkin_identity(self):
        # A x = rhs exactly for the returned interior coefficients
        sc = get_scenario("manufactured", 1e-3)
        e = layer_integral(sc.coeffs, "e")
        mesh = build_mesh(sc.coeffs, e, 1.0 / 16)
        sys_ = assemble(sc, mesh)
        sol = galerkin_solve(sc, mesh)
        resid = np.abs(matvec(sys_, sol.coefficients[1:-1]) - sys_.rhs).max()
        scale = np.abs(sys_.rhs).max() + np.abs(sys_.diag).max()
        assert resid <= 1e-10 * scale

    def test_quadrature_saturation(self, monkeypatch):
        # smooth coefficients: 5 vs 10 Gauss points changes nothing visible
        sc = get_scenario("eps-exp", 1e-3)
        e = layer_integral(sc.coeffs, "e")
        mesh = build_mesh(sc.coeffs, e, 1.0 / 32)
        assert len(fem._G5.points) == 5
        u5 = galerkin_solve(sc, mesh).coefficients
        monkeypatch.setattr(fem, "_G5", gauss_legendre(10))
        monkeypatch.setattr(fem, "_HATS", fem._hat_table())
        u10 = galerkin_solve(sc, mesh).coefficients
        assert np.abs(u5 - u10).max() <= 1e-8 * max(1.0, np.abs(u10).max())


class TestBilinearForm:
    def test_mesh_mismatch(self):
        sc = plain_scenario(eps=1.0)
        v = FemSolution(mesh=uniform_mesh(9), coefficients=np.zeros(9))
        w = FemSolution(mesh=uniform_mesh(10), coefficients=np.zeros(10))
        with pytest.raises(ParameterError):
            bilinear_form(v, w, sc)

    def test_symmetric_part_matches_stiffness(self):
        # with b = 0 the form is (eps v', w') + (c v, w); hand value for hats
        mesh = uniform_mesh(5)
        sc = plain_scenario(eps=2.0, c=0.0)
        coef = np.zeros(5)
        coef[2] = 1.0
        v = FemSolution(mesh=mesh, coefficients=coef)
        # (2 v', v') = 2 * (4 + 4) * 0.25 = 4  with slopes +-4 on two elements
        assert bilinear_form(v, v, sc) == pytest.approx(2 * (16 + 16) * 0.25)

    @pytest.mark.parametrize("name", ["eps-const", "eps-linear", "eps-exp"])
    def test_coercivity(self, name):
        # a(v, v) >= min(1, gamma) ||v||_eps^2 for random FE functions
        sc = get_scenario(name, 1e-4)
        e = layer_integral(sc.coeffs, "e")
        mesh = build_mesh(sc.coeffs, e, 1.0 / 16)
        rng = np.random.default_rng(3)
        gamma_min = min(1.0, sc.coeffs.gamma)
        for _ in range(20):
            coef = rng.standard_normal(mesh.node_count)
            coef[0] = coef[-1] = 0.0
            v = FemSolution(mesh=mesh, coefficients=coef)
            lhs = bilinear_form(v, v, sc)
            nrm2 = energy_norm(v, sc.coeffs) ** 2
            assert lhs >= gamma_min * nrm2 - 1e-9 * nrm2
