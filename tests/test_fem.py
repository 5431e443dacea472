import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from layerfem.analysis import energy_norm, error_report
from layerfem.calculus import gauss_legendre, layer_integral
from layerfem.errors import (
    AssemblyError,
    DegenerateRegimeError,
    MeshMismatchError,
    ParameterError,
    SingularSystemError,
    SizeError,
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


def uniform_mesh(n_nodes):
    nodes = np.linspace(0.0, 1.0, n_nodes)
    return LayerMesh(nodes=nodes, h=1.0 / (n_nodes - 1), delta=1.0,
                     n_star=0, tau_index=1, tau_star=float(nodes[1]))


def plain_scenario(eps=1.0, b=0.0, c=0.0, f=0.0):
    coeffs = CoefficientSet(
        eps=ScalarFunction.constant(eps), b=ScalarFunction.constant(b),
        c=ScalarFunction.constant(c), f=ScalarFunction.constant(f),
        beta=max(b / 2, 0.1), gamma=max(c, 0.1),
        eps_lower=eps, eps_upper=eps, sigma=0.0)
    return Scenario(name="synthetic", coeffs=coeffs, exact=None,
                    rhs_provenance="given", smooth_exemplar=None,
                    layer_exemplar=None, eps0=eps)


class TestAssembly:
    def test_uniform_laplacian_stencil(self):
        n = 11
        mesh = uniform_mesh(n)
        sys_ = assemble(plain_scenario(eps=1.0), mesh)
        H = 1.0 / (n - 1)
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

    def test_nan_coefficient_raises(self):
        sc = plain_scenario()
        bad = Scenario(
            name="bad",
            coeffs=CoefficientSet(
                eps=ScalarFunction(lambda x: np.where(x > 0.5, np.nan, 1.0)),
                b=sc.coeffs.b, c=sc.coeffs.c, f=sc.coeffs.f,
                beta=0.1, gamma=0.1, eps_lower=1.0, eps_upper=1.0, sigma=0.0),
            exact=None, rhs_provenance="given", smooth_exemplar=None,
            layer_exemplar=None, eps0=1.0)
        with pytest.raises(AssemblyError):
            assemble(bad, uniform_mesh(9))

    def test_too_few_quad_points(self):
        with pytest.raises(ParameterError):
            assemble(plain_scenario(), uniform_mesh(9), quad_points_per_element=1)


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
    row_scale = np.abs(want.dense()).max(axis=1)
    row_err = np.abs(sys_.dense() - want.dense()).max(axis=1)
    assert np.all(row_err <= 1e-13 * row_scale)
    assert np.all(np.abs(sys_.rhs - want.rhs) <= 1e-13 * np.abs(want.rhs))


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
            ref = np.linalg.solve(sys_.dense(), rhs)
            assert np.abs(x - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())

    def test_singular_system(self):
        sys_ = TridiagonalSystem(sub=np.array([0.0]), diag=np.zeros(2),
                                 sup=np.array([0.0]), rhs=np.ones(2))
        with pytest.raises(SingularSystemError):
            solve_tridiagonal(sys_)

    def test_nonfinite_entries(self):
        sys_ = TridiagonalSystem(sub=np.array([np.nan]), diag=np.ones(2),
                                 sup=np.array([0.0]), rhs=np.ones(2))
        with pytest.raises(SingularSystemError):
            solve_tridiagonal(sys_)

    def test_empty_system(self):
        empty = np.zeros(0)
        sys_ = TridiagonalSystem(sub=empty, diag=empty, sup=empty, rhs=empty)
        with pytest.raises(SizeError):
            solve_tridiagonal(sys_)

    def test_zero_first_pivot_without_dense_matrix(self, monkeypatch):
        # [[0, 1], [1, 1]] x = (1, 2) has x = (1, 1); elimination without
        # pivoting fails at the first pivot, and no O(n^2) matrix may be built
        def no_dense(self):
            raise AssertionError("dense matrix built")

        monkeypatch.setattr(TridiagonalSystem, "dense", no_dense)
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
    dense = sys_.dense()
    cond = np.linalg.cond(dense)
    assume(cond <= 1e8)
    x = solve_tridiagonal(sys_)
    ref = np.linalg.solve(dense, sys_.rhs)
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
            exact=None, rhs_provenance="given", smooth_exemplar=None,
            layer_exemplar=None, eps0=sc.eps0)
        e = layer_integral(zero.coeffs, "e")
        mesh = build_mesh(zero.coeffs, e, 1.0 / 32)
        sol = galerkin_solve(zero, mesh)
        assert np.abs(sol.coefficients).max() <= 1e-13

    def test_single_element_mesh_has_no_unknowns(self):
        with pytest.raises(SizeError):
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
        resid = np.abs(sys_.matvec(sol.coefficients[1:-1]) - sys_.rhs).max()
        scale = np.abs(sys_.rhs).max() + np.abs(sys_.diag).max()
        assert resid <= 1e-10 * scale

    def test_quadrature_saturation(self):
        # smooth coefficients: 5 vs 10 Gauss points changes nothing visible
        sc = get_scenario("eps-exp", 1e-3)
        e = layer_integral(sc.coeffs, "e")
        mesh = build_mesh(sc.coeffs, e, 1.0 / 32)
        u5 = galerkin_solve(sc, mesh, quad_points_per_element=5).coefficients
        u10 = galerkin_solve(sc, mesh, quad_points_per_element=10).coefficients
        assert np.abs(u5 - u10).max() <= 1e-8 * max(1.0, np.abs(u10).max())


class TestBilinearForm:
    def test_mesh_mismatch(self):
        sc = plain_scenario(eps=1.0)
        v = FemSolution(mesh=uniform_mesh(9), coefficients=np.zeros(9))
        w = FemSolution(mesh=uniform_mesh(10), coefficients=np.zeros(10))
        with pytest.raises(MeshMismatchError):
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
            nrm2 = energy_norm(v, sc.coeffs, quad_points=5) ** 2
            assert lhs >= gamma_min * nrm2 - 1e-9 * nrm2
