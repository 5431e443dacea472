import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerfem import analysis
from layerfem.analysis import (
    energy_norm,
    error_report,
    convergence_study,
    interpolate,
    interpolation_study,
    observed_rate,
)
from layerfem.calculus import _panel_sums, gauss_legendre, layer_integral
from layerfem.errors import EvaluationError, ParameterError
from layerfem.fem import FemSolution, assemble, bilinear_form, galerkin_solve
from layerfem.mesh import LayerMesh, build_mesh
from layerfem.problem import SCENARIO_NAMES, ScalarFunction, Scenario, get_scenario
from layerfem.verify import (
    check_barrier_operator,
    check_integral_lemma,
    check_solution_bounds,
    reference_solution,
)


def uniform_mesh(n_nodes):
    nodes = np.linspace(0.0, 1.0, n_nodes)
    return LayerMesh(nodes=nodes, h=1.0 / (n_nodes - 1), tau_index=1,
                     tau_star=float(nodes[1]))


def ds_mesh(scenario, h):
    e = layer_integral(scenario.coeffs, "e")
    return build_mesh(scenario.coeffs, e, h)


def slope_at(sol, x):
    """Element-wise slope of an FE function; at nodes the right-hand element."""
    idx = np.clip(np.searchsorted(sol.mesh.nodes, x, side="right") - 1,
                  0, len(sol.slopes) - 1)
    return sol.slopes[idx]


def rates_of(values, hs):
    """Observed rates between consecutive table entries (h descending)."""
    return [observed_rate(values[i], values[i + 1], hs[i], hs[i + 1])
            for i in range(len(values) - 1)]


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

    def test_constant_return_gives_one_value_per_node(self):
        # a scalar-returning f once gave 0-d coefficients, on which
        # energy_norm failed with an IndexError
        sc = get_scenario("manufactured", 1e-3)
        mesh = ds_mesh(sc, 1.0 / 16)
        one = interpolate(lambda x: 1.0, mesh)
        assert one.coefficients.shape == mesh.nodes.shape
        assert np.all(one.coefficients == 1.0)
        assert energy_norm(one, sc.coeffs) == pytest.approx(1.0, rel=1e-14)

    def test_callable_failing_on_arrays_raises(self):
        with pytest.raises(EvaluationError, match="callable failed on array"):
            interpolate(math.exp, uniform_mesh(5))


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

    @pytest.mark.parametrize("eps0", [1e-4, 1e-12, 1e-14])
    def test_layer_exemplar_closed_form(self, eps0):
        # const eps: E = (exp(-beta x/eps) - q)/(1-q), and
        # int eps E'^2 = beta (1 - q^2) / (2 (1-q)^2),
        # int E^2 = (eps/(2 beta) (1-q^2) - 2 q eps/beta (1-q) + q^2)/(1-q)^2;
        # the quadrature's panels are graded from eps_lower, so one round
        # resolves the layer at every eps0
        beta = 1.0
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
            exact=ScalarFunction(value=sol, deriv=lambda x: slope_at(sol, x)),
            smooth_exemplar=None, layer_exemplar=None)
        rep = error_report(sol, wrapped)
        assert rep.energy_error <= 1e-13

    @pytest.mark.parametrize("coarse, fine", [(9, 129), (17, 257), (5, 161)])
    def test_nested_uniform_meshes(self, monkeypatch, coarse, fine):
        # every coarse node is a reference node, so nothing is inserted;
        # the oracle samples the difference on np.union1d of the meshes
        sc = get_scenario("eps-linear", 1e-3)
        sol = galerkin_solve(sc, uniform_mesh(coarse))
        ref = galerkin_solve(sc, uniform_mesh(fine))
        merged_meshes = []

        def spy(nodes, values, eps_int):
            merged_meshes.append(nodes)
            return linear_norms(nodes, values, eps_int)

        linear_norms = analysis._linear_norms
        monkeypatch.setattr(analysis, "_linear_norms", spy)
        rep = error_report(sol, sc, reference=ref)
        merged = np.union1d(sol.mesh.nodes, ref.mesh.nodes)
        assert np.array_equal(merged_meshes[0], ref.mesh.nodes)
        assert np.all(np.diff(merged_meshes[0]) > 0)
        assert_report_matches(rep, *oracle_norms(
            merged, lambda x: ref(x) - sol(x),
            lambda x: slope_at(ref, x) - slope_at(sol, x), sc.coeffs.eps))

    def test_two_coarse_nodes_in_one_reference_element(self):
        # the reference element [0.3, 0.52] holds the coarse nodes 0.375 and
        # 0.5, so its three merged pieces are all integrated anew
        sc = get_scenario("eps-exp", 1e-2)
        sol = galerkin_solve(sc, uniform_mesh(9))
        nodes = np.concatenate((np.linspace(0.0, 0.3, 60),
                                np.linspace(0.52, 1.0, 100)))
        ref = galerkin_solve(sc, LayerMesh(nodes=nodes, h=0.3 / 59,
                                           tau_index=1, tau_star=nodes[1]))
        merged = np.union1d(sol.mesh.nodes, ref.mesh.nodes)
        assert np.count_nonzero((merged > 0.3) & (merged < 0.52)) == 2
        assert_report_matches(
            error_report(sol, sc, reference=ref),
            *oracle_norms(merged, lambda x: ref(x) - sol(x),
                          lambda x: slope_at(ref, x) - slope_at(sol, x), sc.coeffs.eps))

    @pytest.mark.parametrize("name", ["eps-const", "eps-linear", "eps-exp"])
    @pytest.mark.parametrize("eps0", [1e-2, 1e-6, 1e-12])
    def test_stored_eps_integrals_match_resampled(self, name, eps0):
        # a reference built by hand has no stored integrals; they are sampled
        # by the same rule, calculus._G5, in the same order of operations
        sc = get_scenario(name, eps0)
        sol = galerkin_solve(sc, ds_mesh(sc, 1.0 / 32))
        ref = galerkin_solve(sc, ds_mesh(sc, 1.0 / 512))
        nodes = ref.mesh.nodes
        assert np.array_equal(ref.eps_integrals,
                              _panel_sums(sc.coeffs.eps, nodes[:-1], nodes[1:]))
        bare = FemSolution(ref.mesh, ref.coefficients)
        assert bare.eps_integrals is None
        assert (error_report(sol, sc, reference=ref)
                == error_report(sol, sc, reference=bare))

    def test_missing_reference(self):
        sc = get_scenario("eps-const", 1e-3)  # no closed-form exact
        mesh = ds_mesh(sc, 1.0 / 16)
        with pytest.raises(ParameterError, match="^need a closed-form exact "
                           "solution or a finer reference solve$"):
            error_report(galerkin_solve(sc, mesh), sc)

    def test_reference_too_coarse(self):
        sc = get_scenario("eps-const", 1e-3)
        sol = galerkin_solve(sc, ds_mesh(sc, 1.0 / 32))
        ref = galerkin_solve(sc, ds_mesh(sc, 1.0 / 64))
        with pytest.raises(ParameterError):
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
    # calls np.interp and slope_at at each Gauss point

    @pytest.mark.parametrize("eps0", [1e-2, 1e-6, 1e-12])
    @pytest.mark.parametrize("h", [1.0 / 16, 1.0 / 128, 1.0 / 1024])
    def test_closed_form_report_and_energy_norm(self, eps0, h):
        sc = get_scenario("manufactured", eps0)
        sol = galerkin_solve(sc, ds_mesh(sc, h))
        u, eps = sc.exact, sc.coeffs.eps
        nodes = sol.mesh.nodes
        assert_report_matches(error_report(sol, sc), *oracle_norms(
            nodes, lambda x: u(x) - sol(x), lambda x: u.d(x) - slope_at(sol, x), eps))
        l2, wg = oracle_norms(nodes, sol, lambda x: slope_at(sol, x), eps)
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
                          lambda x: slope_at(ref, x) - slope_at(sol, x), sc.coeffs.eps))


class TestConvergenceStudy:
    def test_each_cell_solves_its_own_reference(self, monkeypatch):
        # each cell solves h and then its reference h/16, so 1/256 is solved
        # twice: as the reference of 1/16 and as a cell
        solves = []

        def counting_solve(scenario, mesh):
            solves.append(mesh.h)
            return galerkin_solve(scenario, mesh)

        monkeypatch.setattr(analysis, "galerkin_solve", counting_solve)
        hs = [1.0 / 16, 1.0 / 32, 1.0 / 64, 1.0 / 128, 1.0 / 256]
        sc = get_scenario("eps-exp", 1e-6)
        rows = convergence_study(lambda eps0: sc, hs, [1e-6])
        assert solves == [x for h in hs for x in (h, h / 16)]
        last = rows[-1]
        fine = galerkin_solve(sc, ds_mesh(sc, 1.0 / 256))
        ref = galerkin_solve(sc, ds_mesh(sc, 1.0 / 4096))
        assert last.energy_error == error_report(fine, sc, ref).energy_error

    def test_eps_sampled_once_per_solved_mesh(self, monkeypatch):
        # assembly samples eps on each solved mesh's 5-point grid; a report
        # samples it again only on the 2 pieces of each reference element
        # that a coarse node splits, and not at all on the rest
        sc = get_scenario("eps-exp", 1e-6)
        eps = sc.coeffs.eps
        calls, phase = [], [None]

        def counting_eps(x):
            calls.append((phase[0], np.shape(x)))
            return eps.value(x)

        spied = dataclasses.replace(sc, coeffs=dataclasses.replace(
            sc.coeffs, eps=dataclasses.replace(eps, value=counting_eps)))
        solved, reported = [], []

        def in_phase(name, fn, *args, **kwargs):
            phase[0], start = name, len(calls)
            try:
                return fn(*args, **kwargs), calls[start:]
            finally:
                phase[0] = None

        def solve(scenario, mesh):
            sol, seen = in_phase("solve", galerkin_solve, scenario, mesh)
            solved.append((mesh.node_count - 1, seen))
            return sol

        def report(sol, scenario, reference=None):
            rep, seen = in_phase("report", error_report, sol, scenario,
                                 reference=reference)
            lacking = np.isin(sol.mesh.nodes, reference.mesh.nodes,
                              invert=True)
            reported.append((np.count_nonzero(lacking), seen))
            return rep

        monkeypatch.setattr(analysis, "galerkin_solve", solve)
        monkeypatch.setattr(analysis, "error_report", report)
        rows = convergence_study(lambda eps0: spied, [1.0 / 16, 1.0 / 32],
                                 [1e-6])
        assert len(rows) == 2
        assert len(solved) == 4 and len(reported) == 2
        for elements, seen in solved:
            assert seen == [("solve", (5, elements))]
        for lacking, seen in reported:
            assert lacking > 0 and seen == [("report", (5, 2 * lacking))]

    def test_manufactured_table(self):
        hs = [1.0 / 8, 1.0 / 16, 1.0 / 32]
        rows = convergence_study(
            lambda eps0: get_scenario("manufactured", eps0), hs, [1e-3, 1e-5])
        assert isinstance(rows, tuple)
        assert len(rows) == 6
        for eps0 in (1e-3, 1e-5):
            rates = [r.rate for r in rows if r.eps0 == eps0 and r.rate is not None]
            assert len(rates) == 2
            assert all(r >= 0.9 for r in rates)

    def test_degenerate_cell_skipped(self):
        # tau* = -2 eps0 ln h grows as h shrinks, so only the finer cell
        # crosses 1/2 and gets skipped
        rows = convergence_study(
            lambda eps0: get_scenario("manufactured", eps0), [0.25, 1.0 / 16],
            [0.095])
        skipped = [r for r in rows if r.skipped_reason is not None]
        assert len(skipped) == 1 and skipped[0].h == 1.0 / 16

    def test_repeated_h_is_parameter_error(self):
        # 0.0625 and 1/16 are the same float; a rate between them is 0/0
        family = lambda eps0: get_scenario("manufactured", eps0)
        with pytest.raises(ParameterError):
            convergence_study(family, [0.0625, 1.0 / 32, 1.0 / 16], [1e-3])
        # a repeated eps0 would repeat its rows, and so would a repeated h
        # in an interpolation table
        with pytest.raises(ParameterError):
            convergence_study(family, [1.0 / 16], [1e-3, 0.001])
        with pytest.raises(ParameterError, match="h values must be distinct"):
            interpolation_study(get_scenario("eps-const", 1e-6),
                                [1.0 / 16, 1.0 / 16, 0.0625])

    def test_fine_mesh_reference_family(self):
        rows = convergence_study(
            lambda eps0: get_scenario("eps-exp", eps0), [1.0 / 8, 1.0 / 16],
            [1e-4])
        errs = [r.energy_error for r in rows]
        assert len(errs) == 2 and errs[0] > errs[1] > 0


_ENERGY_H = (1.0 / 64, 1.0 / 128, 1.0 / 256)


@functools.lru_cache(maxsize=None)
def _energy_per_h(name, eps0):
    """convergence_study of scenario name at eps0 over _ENERGY_H: its rates,
    and the energy error over h at the finest h."""
    rows = convergence_study(lambda e: get_scenario(name, e), _ENERGY_H, [eps0])
    assert all(r.skipped_reason is None for r in rows)
    return [r.rate for r in rows[1:]], rows[-1].energy_error / rows[-1].h


@settings(derandomize=True, max_examples=40, deadline=None)
@given(name=st.sampled_from(SCENARIO_NAMES), log_eps0=st.floats(-12.0, -2.0))
def test_energy_convergence_is_first_order_and_eps_uniform(name, log_eps0):
    # the paper's main claim: E = |||u - u_h||| converges at first order in
    # h, with a constant that does not depend on eps; E/h is compared with
    # the scenario's own at eps0 = 1e-12
    rates, per_h = _energy_per_h(name, 10.0 ** log_eps0)
    assert min(rates) >= 0.9
    assert 1 / 1.5 <= per_h / _energy_per_h(name, 1e-12)[1] <= 1.5


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
                            smooth_exemplar=None, layer_exemplar=None)
        with pytest.raises(ParameterError,
                           match="^scenario must supply both exemplars$"):
            interpolation_study(stripped, [1.0 / 16])


def _poisoned_eps(sc):
    """sc with eps NaN for x > 0.7."""
    eps = sc.coeffs.eps
    bad = lambda x: np.where(np.asarray(x) > 0.7, np.nan, eps.value(x))
    return dataclasses.replace(sc, coeffs=dataclasses.replace(
        sc.coeffs, eps=dataclasses.replace(eps, value=bad, const=None)))


@pytest.mark.parametrize("entry", [
    "energy_norm", "closed-form report", "hand-built reference", "interpolation",
    "convergence", "assemble", "bilinear_form", "interpolate", "barrier",
    "solution bounds", "integral lemma"])
def test_nonfinite_eps_raises(entry):
    # the first three once returned energy_error = nan without an error;
    # assemble blamed an element's width, the barrier and bound
    # checks returned a nan margin or ratio, and the lemma raised numpy's
    # ValueError; every entry point names the function it sampled and the
    # first bad x as a plain float
    sc = get_scenario("manufactured", 1e-4)
    bad = _poisoned_eps(sc)
    e = layer_integral(sc.coeffs, "e")
    h = 1.0 / 16
    sol = galerkin_solve(sc, ds_mesh(sc, h))
    ref = galerkin_solve(sc, ds_mesh(sc, h / 16))
    calls = {
        "energy_norm": lambda: energy_norm(
            interpolate(sc.exact, sol.mesh), bad.coeffs),
        "closed-form report": lambda: error_report(sol, bad),
        "hand-built reference": lambda: error_report(
            sol, bad, reference=FemSolution(ref.mesh, ref.coefficients)),
        "interpolation": lambda: interpolation_study(bad, [h]),
        "convergence": lambda: convergence_study(lambda eps0: bad, [h], [1e-4]),
        "assemble": lambda: assemble(bad, sol.mesh),
        "bilinear_form": lambda: bilinear_form(sol, sol, bad),
        "interpolate": lambda: interpolate(bad.coeffs.eps, sol.mesh),
        "barrier": lambda: check_barrier_operator(bad.coeffs, e),
        "solution bounds": lambda: check_solution_bounds(
            bad, reference_solution(sc, e), "U1", e),
        # eps(x) at x = 0.75 is sampled before any quadrature
        "integral lemma": lambda: check_integral_lemma(
            bad.coeffs, 0.1, 0.75, 0, 1.0, e),
    }
    # interpolation_study and convergence_study first sample eps inside
    # layer_integral's integrand, which names eps too
    what = "f" if entry == "interpolate" else "eps"
    with pytest.raises(EvaluationError,
                       match=rf"^non-finite {what} sample at x=0\.7\d*$"):
        calls[entry]()


@pytest.mark.parametrize("field", ["value", "deriv"])
def test_nonfinite_exact_raises(field):
    # a NaN exact solution (or derivative) for x > 0.5 once gave
    # energy_error = nan without an error
    sc = get_scenario("manufactured", 1e-4)
    sol = galerkin_solve(sc, ds_mesh(sc, 1.0 / 16))
    good = getattr(sc.exact, field)
    bad = lambda x: np.where(np.asarray(x) > 0.5, np.nan, good(x))
    poisoned = dataclasses.replace(
        sc, exact=dataclasses.replace(sc.exact, **{field: bad}))
    what = {"value": "exact", "deriv": "exact'"}[field]
    with pytest.raises(EvaluationError,
                       match=rf"^non-finite {what} sample at x=0\.5\d*$"):
        error_report(sol, poisoned)


def test_observed_rate_identity():
    assert observed_rate(4.0, 1.0, 0.5, 0.25) == pytest.approx(2.0)
