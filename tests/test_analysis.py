import json
import math
import os

import numpy as np
import pytest

from layerfem.analysis import (
    ConvergenceTable,
    energy_norm,
    error_report,
    convergence_study,
    interpolate,
    interpolation_study,
    observed_rate,
    rates_of,
)
from layerfem.calculus import gauss_legendre, layer_integral
from layerfem.errors import ConfigurationError, ParameterError
from layerfem.fem import FemSolution, galerkin_solve
from layerfem.mesh import LayerMesh, build_mesh
from layerfem.problem import SCENARIO_NAMES, ScalarFunction, Scenario, get_scenario


def uniform_mesh(n_nodes):
    nodes = np.linspace(0.0, 1.0, n_nodes)
    return LayerMesh(nodes=nodes, h=1.0 / (n_nodes - 1), delta=1.0,
                     n_star=0, tau_index=1, tau_star=float(nodes[1]))


def ds_mesh(scenario, h):
    e = layer_integral(scenario.coeffs, "e")
    return build_mesh(scenario.coeffs, e, h)


class TestInterpolate:
    def test_linear_reproduction(self):
        mesh = uniform_mesh(7)
        f = ScalarFunction(lambda x: 2 * x - 0.3, deriv=lambda x: 2.0 + 0 * x)
        fi = interpolate(f, mesh)
        xs = np.linspace(0, 1, 101)
        assert fi(xs) == pytest.approx(f(xs), abs=1e-14)

    def test_quadratic_midpoint_error(self):
        # two elements of width 1/2: max error of x^2 interpolant is H^2/8 * 2
        mesh = uniform_mesh(3)
        fi = interpolate(lambda x: np.asarray(x) ** 2, mesh)
        assert abs(fi(0.25) - 0.0625) == pytest.approx(1.0 / 16, rel=1e-13)

    def test_layer_exemplar_coarse_region_small(self):
        # outside the layer the exemplar is below h^2, so its interpolation
        # error there is too
        sc = get_scenario("eps-const", 1e-6)
        mesh = ds_mesh(sc, 1.0 / 64)
        li = interpolate(sc.layer_exemplar, mesh)
        xs = np.linspace(mesh.tau, 1.0, 500)
        err = np.abs(sc.layer_exemplar(xs) - li(xs)).max()
        assert err <= 2 * (1.0 / 64) ** 2


class TestEnergyNorm:
    def test_linear_function_closed_form(self):
        # v = x on const eps: ||v||^2 = eps0 * 1 + 1/3
        sc = get_scenario("eps-const", 1e-2)
        mesh = uniform_mesh(9)
        v = FemSolution(mesh=mesh, coefficients=mesh.nodes.copy())
        assert energy_norm(v, sc.coeffs) == pytest.approx(
            math.sqrt(1e-2 + 1.0 / 3), rel=1e-12)

    def test_zero_function(self):
        sc = get_scenario("eps-const", 1e-2)
        v = FemSolution(mesh=uniform_mesh(9), coefficients=np.zeros(9))
        assert energy_norm(v, sc.coeffs) == 0.0

    def test_layer_exemplar_closed_form(self):
        # const eps: E = (exp(-beta x/eps) - q)/(1-q), and
        # int eps E'^2 = beta (1 - q^2) / (2 (1-q)^2),
        # int E^2 = (eps/(2 beta) (1-q^2) - 2 q eps/beta (1-q) + q^2)/(1-q)^2
        eps0, beta = 1e-4, 1.0
        sc = get_scenario("eps-const", eps0)
        q = math.exp(-beta / eps0)
        grad2 = beta * (1 - q ** 2) / (2 * (1 - q) ** 2)
        l22 = (eps0 / (2 * beta) * (1 - q ** 2)
               - 2 * q * eps0 / beta * (1 - q) + q ** 2) / (1 - q) ** 2
        got = energy_norm(sc.layer_exemplar, sc.coeffs)
        assert got == pytest.approx(math.sqrt(grad2 + l22), rel=1e-8)


class TestErrorReport:
    def test_pythagorean_split(self):
        sc = get_scenario("manufactured", 1e-3)
        mesh = ds_mesh(sc, 1.0 / 32)
        rep = error_report(galerkin_solve(sc, mesh), sc)
        assert rep.energy_error ** 2 == pytest.approx(
            rep.l2_error ** 2 + rep.weighted_grad_error ** 2, rel=1e-10)
        assert rep.reference_kind == "closed-form"

    def test_error_halves_with_h(self):
        sc = get_scenario("manufactured", 1e-5)
        e1 = error_report(galerkin_solve(sc, ds_mesh(sc, 1.0 / 64)), sc)
        e2 = error_report(galerkin_solve(sc, ds_mesh(sc, 1.0 / 128)), sc)
        assert 1.7 <= e1.energy_error / e2.energy_error <= 2.6

    def test_self_comparison_is_zero(self):
        sc = get_scenario("manufactured", 1e-3)
        mesh = ds_mesh(sc, 1.0 / 32)
        sol = galerkin_solve(sc, mesh)
        wrapped = Scenario(
            name="self", coeffs=sc.coeffs,
            exact=ScalarFunction(value=sol, deriv=sol.deriv),
            rhs_provenance="given", smooth_exemplar=None,
            layer_exemplar=None, eps0=sc.eps0)
        rep = error_report(sol, wrapped)
        assert rep.energy_error <= 1e-13

    def test_missing_reference(self):
        sc = get_scenario("eps-const", 1e-3)  # no closed-form exact
        mesh = ds_mesh(sc, 1.0 / 16)
        with pytest.raises(ConfigurationError):
            error_report(galerkin_solve(sc, mesh), sc)

    def test_reference_too_coarse(self):
        sc = get_scenario("eps-const", 1e-3)
        sol = galerkin_solve(sc, ds_mesh(sc, 1.0 / 32))
        ref = galerkin_solve(sc, ds_mesh(sc, 1.0 / 64))
        with pytest.raises(ConfigurationError):
            error_report(sol, sc, reference=ref)

    def test_fem_is_near_best_approximation(self):
        # quasi-optimality: FE error within 10x of the interpolant's error
        sc = get_scenario("manufactured", 1e-4)
        mesh = ds_mesh(sc, 1.0 / 64)
        fe = error_report(galerkin_solve(sc, mesh), sc)
        ip = error_report(interpolate(sc.exact, mesh), sc)
        assert fe.energy_error <= 10 * ip.energy_error


def oracle_norms(nodes, diff, diff_deriv, eps_fn, n_quad=7):
    """(integral of diff^2, integral of eps diff'^2), evaluating both
    callables point by point at the Gauss points of every element."""
    rule = gauss_legendre(n_quad)
    half = 0.5 * np.diff(nodes)
    gx = 0.5 * (nodes[:-1] + nodes[1:])[:, None] + half[:, None] * rule.points
    gw = half[:, None] * rule.weights
    d, dd = diff(gx), diff_deriv(gx)
    return (gw * d * d).sum(), (gw * eps_fn(gx) * dd * dd).sum()


def assert_report_matches(rep, l2, wg):
    assert rep.l2_error == pytest.approx(math.sqrt(l2), rel=1e-12, abs=0)
    assert rep.weighted_grad_error == pytest.approx(math.sqrt(wg), rel=1e-12, abs=0)
    assert rep.energy_error == pytest.approx(math.sqrt(l2 + wg), rel=1e-12, abs=0)


class TestMatchesPointwiseOracle:
    # the library evaluates FE functions from their nodal values; the oracle
    # calls np.interp and deriv at each Gauss point

    @pytest.mark.parametrize("eps0", [1e-2, 1e-6, 1e-12])
    @pytest.mark.parametrize("h", [1.0 / 16, 1.0 / 128, 1.0 / 1024])
    def test_closed_form_report_and_energy_norm(self, eps0, h):
        sc = get_scenario("manufactured", eps0)
        sol = galerkin_solve(sc, ds_mesh(sc, h))
        u, eps = sc.exact, sc.coeffs.eps
        nodes = sol.mesh.nodes
        assert_report_matches(error_report(sol, sc), *oracle_norms(
            nodes, lambda x: u(x) - sol(x), lambda x: u.d(x) - sol.deriv(x), eps))
        l2, wg = oracle_norms(nodes, sol, sol.deriv, eps)
        assert energy_norm(sol, sc.coeffs) == pytest.approx(
            math.sqrt(l2 + wg), rel=1e-12, abs=0)

    # sampling the difference at the merged nodes moves the result by
    # roundoff relative to an error that shrinks with h: 1.4e-13 at h = 1/32,
    # 2e-12 at h = 1/128
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    @pytest.mark.parametrize("eps0", [1e-2, 1e-6, 1e-12])
    @pytest.mark.parametrize("h", [1.0 / 16, 1.0 / 32])
    def test_fine_mesh_report(self, name, eps0, h):
        sc = get_scenario(name, eps0)
        sol = galerkin_solve(sc, ds_mesh(sc, h))
        ref = galerkin_solve(sc, ds_mesh(sc, h / 16))
        merged = np.union1d(sol.mesh.nodes, ref.mesh.nodes)
        assert_report_matches(
            error_report(sol, sc, reference=ref),
            *oracle_norms(merged, lambda x: ref(x) - sol(x),
                          lambda x: ref.deriv(x) - sol.deriv(x), sc.coeffs.eps))


_REFERENCE_JSON = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                               "reference.json")


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_convergence_matches_recorded_rows(name):
    # rows recorded by the benchmark: exact node counts, and energy errors
    # within its 1e-8 gate (the solve at small eps is ill-conditioned, so
    # roundoff-level changes to the assembly move them by up to ~2.4e-9)
    with open(_REFERENCE_JSON) as fh:
        recorded = {(r["eps0"], r["h"]): r
                    for r in json.load(fh)["sweep"]["converge"]
                    if r["scenario"] == name}
    hs = [1.0 / 16, 1.0 / 32, 1.0 / 64, 1.0 / 128, 1.0 / 256]
    table = convergence_study(lambda eps0: get_scenario(name, eps0), hs,
                              [1e-12, 1e-07, 0.01])
    assert len(table.rows) == 15
    for row in table.rows:
        want = recorded[(row.eps0, row.h)]
        assert row.skipped_reason is None
        assert row.node_count == want["nodes"]
        assert row.energy_error == pytest.approx(want["energy_err"], rel=1e-8, abs=0)


class TestConvergenceStudy:
    def test_manufactured_table(self):
        hs = [1.0 / 8, 1.0 / 16, 1.0 / 32]
        table = convergence_study(
            lambda eps0: get_scenario("manufactured", eps0), hs, [1e-3, 1e-5])
        assert isinstance(table, ConvergenceTable)
        assert len(table.rows) == 6
        for eps0 in (1e-3, 1e-5):
            rates = table.rates(eps0)
            assert len(rates) == 2
            assert all(r >= 0.9 for r in rates)

    def test_degenerate_cell_skipped(self):
        # tau* = -2 eps0 ln h grows as h shrinks, so only the finer cell
        # crosses 1/2 and gets skipped
        table = convergence_study(
            lambda eps0: get_scenario("manufactured", eps0), [0.25, 1.0 / 16],
            [0.095])
        skipped = [r for r in table.rows if r.skipped_reason is not None]
        assert len(skipped) == 1 and skipped[0].h == 1.0 / 16

    def test_repeated_h_is_parameter_error(self):
        # 0.0625 and 1/16 are the same float; a rate between them is 0/0
        with pytest.raises(ParameterError):
            convergence_study(lambda eps0: get_scenario("manufactured", eps0),
                              [0.0625, 1.0 / 32, 1.0 / 16], [1e-3])

    def test_fine_mesh_reference_family(self):
        table = convergence_study(
            lambda eps0: get_scenario("eps-exp", eps0), [1.0 / 8, 1.0 / 16],
            [1e-4])
        errs = table.errors(1e-4)
        assert len(errs) == 2 and errs[0][1] > errs[1][1] > 0


class TestInterpolationStudy:
    def test_rates(self):
        sc = get_scenario("eps-const", 1e-6)
        hs = [1.0 / 16, 1.0 / 32, 1.0 / 64]
        rows = interpolation_study(sc, hs)
        got_h = [r.h for r in rows]
        assert got_h == sorted(hs, reverse=True)
        smooth_l2 = rates_of([r.smooth_l2 for r in rows], got_h)
        smooth_h1 = rates_of([r.smooth_h1 for r in rows], got_h)
        wl2 = rates_of([r.layer_wl2_fine for r in rows], got_h)
        wh1 = rates_of([r.layer_wh1_fine for r in rows], got_h)
        assert all(r >= 1.8 for r in smooth_l2)
        assert all(r >= 0.9 for r in smooth_h1)
        assert all(r >= 1.8 for r in wl2)
        assert all(r >= 0.9 for r in wh1)
        for r in rows:
            assert r.layer_max_coarse <= 2 * r.h ** 2

    def test_requires_exemplars(self):
        sc = get_scenario("eps-const", 1e-4)
        stripped = Scenario(name="x", coeffs=sc.coeffs, exact=None,
                            rhs_provenance="given", smooth_exemplar=None,
                            layer_exemplar=None, eps0=sc.eps0)
        with pytest.raises(ConfigurationError):
            interpolation_study(stripped, [1.0 / 16])


def test_observed_rate_identity():
    assert observed_rate(4.0, 1.0, 0.5, 0.25) == pytest.approx(2.0)
