import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from layerfem import mesh as mesh_module
from layerfem.calculus import layer_integral
from layerfem.errors import DegenerateRegimeError, ParameterError
from layerfem.mesh import build_mesh, compute_tau_star, predict_cardinality
from layerfem.problem import SCENARIO_NAMES, ScalarFunction, get_scenario


def scenario_e(name, eps0):
    sc = get_scenario(name, eps0)
    return sc, layer_integral(sc.coeffs, "e")


def recurrence(x1, h, tau_star):
    """0, then x_{k+1} = x_k (1 + h) from x_1 up to the first node >= tau*."""
    graded = [0.0, x1]
    while graded[-1] < tau_star:
        graded.append(graded[-1] * (1.0 + h))
    return graded


class TestTauStar:
    def test_constant_eps_closed_form(self):
        # e(x) = x / eps0, so tau* = -(2/beta) eps0 ln h = 0.02 ln 10
        sc, e = scenario_e("eps-const", 0.01)
        tau = compute_tau_star(sc.coeffs, e, 0.1)
        assert tau == pytest.approx(0.02 * math.log(10), rel=1e-10)

    def test_linear_eps_closed_form(self):
        # e(x) = ln(1+x)/eps0  =>  tau* = exp(-2 eps0 ln h / beta) - 1
        sc, e = scenario_e("eps-linear", 0.01)
        tau = compute_tau_star(sc.coeffs, e, 0.1)
        assert tau == pytest.approx(10 ** 0.02 - 1, rel=1e-10)
        assert tau == pytest.approx(0.0471285, abs=1e-6)

    def test_degenerate_when_eps_large(self):
        sc, e = scenario_e("eps-const", 0.1)
        # eps0 = 0.1, h = 0.05: target 2 ln 20 = 5.99 < e(1) = 10 but
        # tau* = 0.599 > 1/2 -> degenerate regime
        with pytest.raises(DegenerateRegimeError):
            compute_tau_star(sc.coeffs, e, 0.05)

    def test_degenerate_when_target_exceeds_domain(self):
        sc, e = scenario_e("eps-const", 0.1)
        # e(1) = 10 but the target -2 ln h exceeds it for h = 0.006
        with pytest.raises(DegenerateRegimeError):
            compute_tau_star(sc.coeffs, e, 0.006)

    def test_bad_h(self):
        sc, e = scenario_e("eps-const", 0.01)
        with pytest.raises(ParameterError):
            compute_tau_star(sc.coeffs, e, 1.5)


class TestBuildMesh:
    def test_constant_eps_geometric_sequence(self):
        # const eps = 0.01, h = 0.1: x1 = 0.001, ratio 1.1 until >= tau*.
        sc, e = scenario_e("eps-const", 0.01)
        mesh = build_mesh(sc.coeffs, e, 0.1)
        tau_star = 0.02 * math.log(10)
        # geometric oracle: n_star = ceil(log(tau*/x1) / log(1.1))
        n_star = math.ceil(math.log(tau_star / 0.001) / math.log(1.1))
        assert mesh.n_star == n_star == 41
        assert mesh.nodes[1] == pytest.approx(0.001, rel=1e-14)
        assert mesh.tau == pytest.approx(0.001 * 1.1 ** 41, rel=1e-12)
        assert mesh.tau == pytest.approx(0.049785, abs=1e-6)

    @pytest.mark.parametrize("name", ["eps-const", "eps-linear", "eps-exp"])
    @pytest.mark.parametrize("eps0", [1e-3, 1e-5])
    @pytest.mark.parametrize("h", [1.0 / 8, 1.0 / 64])
    def test_invariants(self, name, eps0, h):
        sc, e = scenario_e(name, eps0)
        mesh = build_mesh(sc.coeffs, e, h)
        nodes = mesh.nodes
        assert nodes[0] == 0.0 and nodes[-1] == 1.0
        assert np.all(np.diff(nodes) > 0)
        # first graded node is exactly h * eps_lower
        assert nodes[1] == h * sc.coeffs.eps_lower
        # graded region has exact ratio 1 + h
        graded = nodes[1:mesh.tau_index + 1]
        ratios = graded[1:] / graded[:-1]
        assert ratios == pytest.approx(np.full(len(ratios), 1 + h), rel=1e-14)
        # tau brackets tau*: previous node below, tau at or above
        assert nodes[mesh.tau_index - 1] < mesh.tau_star <= mesh.tau
        # coarse region equidistant with spacing <= h
        coarse = np.diff(nodes[mesh.tau_index:])
        assert np.all(coarse <= h + 1e-14)
        assert coarse == pytest.approx(np.full(len(coarse), coarse[0]), rel=1e-10)
        # layer resolved: exp(-beta e(tau)) <= h^2
        assert math.exp(-sc.coeffs.beta * e(mesh.tau)) <= h ** 2 * (1 + 1e-12)

    def test_linear_coarse_spacing(self):
        sc, e = scenario_e("eps-linear", 0.001)
        mesh = build_mesh(sc.coeffs, e, 0.05)
        coarse = np.diff(mesh.nodes[mesh.tau_index:])
        m = math.ceil((1 - mesh.tau) / 0.05)
        assert coarse[0] == pytest.approx((1 - mesh.tau) / m, rel=1e-12)

    def test_regions_labels(self):
        sc, e = scenario_e("eps-const", 0.01)
        mesh = build_mesh(sc.coeffs, e, 0.1)
        labels = mesh.regions()
        assert labels[mesh.tau_index] == "graded"
        assert labels[mesh.tau_index + 1] == "coarse"
        assert len(labels) == mesh.node_count

    def test_resource_cap(self, monkeypatch):
        monkeypatch.setattr(mesh_module, "_MAX_NODES", 50)
        sc, e = scenario_e("eps-const", 1e-5)
        with pytest.raises(ParameterError):
            build_mesh(sc.coeffs, e, 1.0 / 64)

    def test_oversize_graded_count_is_refused_before_allocating(self, monkeypatch):
        # eps0 = 1e-3 and h = 1e-6 need about 1.7e7 graded steps
        def no_nodes(*args, **kwargs):
            raise AssertionError("graded nodes were allocated")

        monkeypatch.setattr(mesh_module.np, "cumprod", no_nodes)
        sc, e = scenario_e("manufactured", 1e-3)
        with pytest.raises(ParameterError,
                           match="^graded node count exceeded cap 10000000$"):
            build_mesh(sc.coeffs, e, 1e-6)

    @pytest.mark.parametrize("eps_lower, x1", [
        (0.0, "0.0"), (-1e-6, "-6.25e-08"), (5e-324, "0.0")])
    def test_nonpositive_first_node_is_refused(self, eps_lower, x1):
        # x_1 = h eps_lower <= 0 never grows to tau*; a subnormal eps_lower
        # underflows it to 0, and no node cap is reached
        sc, e = scenario_e("eps-const", 1e-3)
        coeffs = dataclasses.replace(sc.coeffs, eps_lower=eps_lower)
        with pytest.raises(ParameterError,
                           match=rf"x_1 = h \* eps_lower = {x1} is not positive"):
            build_mesh(coeffs, e, 1.0 / 16)

    def test_first_node_past_one_is_degenerate(self):
        # eps = 2 and h = 0.9 give tau* = 0.42 <= 1/2, but x_1 = h eps_lower
        # = 1.8 is already past tau* and past 1, where the mesh would end
        sc = get_scenario("eps-const", 0.1)
        coeffs = dataclasses.replace(sc.coeffs, eps=ScalarFunction.constant(2.0),
                                     eps_lower=2.0, eps_upper=2.0)
        e = layer_integral(coeffs, "e")
        with pytest.raises(DegenerateRegimeError, match="already reaches 1.8 >= 1$"):
            build_mesh(coeffs, e, 0.9)

    def test_graded_count_nearly_eps_independent(self):
        # the multiplicative grading absorbs eps: the graded step count
        # stays essentially constant as eps0 shrinks by six orders
        counts = []
        for eps0 in (1e-2, 1e-4, 1e-6, 1e-8):
            sc, e = scenario_e("eps-const", eps0)
            counts.append(build_mesh(sc.coeffs, e, 1.0 / 32).n_star)
        assert max(counts) - min(counts) <= 5


class TestPredictCardinality:
    def test_constant_eps_value(self):
        # eps_up = eps_low: prediction = ln((-ln h)/h)/h at h = 0.1
        sc, _ = scenario_e("eps-const", 0.01)
        got = predict_cardinality(sc.coeffs, 0.1)
        assert got == pytest.approx(10 * math.log(10 * math.log(10)), rel=1e-12)
        assert got == pytest.approx(31.366, abs=1e-3)

    def test_linear_eps_value(self):
        # eps_up/eps_low = 2 adds ln 2 / h
        sc, _ = scenario_e("eps-linear", 0.01)
        got = predict_cardinality(sc.coeffs, 0.5)
        psi = (math.log(2) + math.log(2 * math.log(2))) / 0.5
        assert got == pytest.approx(psi, rel=1e-12)
        assert psi == pytest.approx(2.0396, abs=1e-4)

    @pytest.mark.parametrize("h", [0.0, 1.0, -0.5, math.nan])
    def test_h_outside_the_unit_interval(self, h):
        sc, _ = scenario_e("eps-const", 0.01)
        with pytest.raises(ParameterError, match=r"must lie in \(0, 1\)"):
            predict_cardinality(sc.coeffs, h)

    def test_h_too_large(self):
        sc, _ = scenario_e("eps-const", 0.01)
        with pytest.raises(ParameterError):
            predict_cardinality(sc.coeffs, 0.9)

    @pytest.mark.parametrize("name", ["eps-const", "eps-linear", "eps-exp"])
    def test_actual_count_within_factor_four(self, name):
        for eps0 in (1e-3, 1e-6):
            sc, e = scenario_e(name, eps0)
            for h in (1.0 / 16, 1.0 / 128):
                mesh = build_mesh(sc.coeffs, e, h)
                assert mesh.node_count <= 4 * predict_cardinality(sc.coeffs, h)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(name=st.sampled_from(SCENARIO_NAMES), log10_eps0=st.floats(-12.0, -2.0),
       k=st.integers(4, 12))
@example(name="eps-const", log10_eps0=-12.0, k=12)
@example(name="eps-exp", log10_eps0=-2.0, k=4)
def test_mesh_properties(name, log10_eps0, k):
    sc, e = scenario_e(name, 10.0 ** log10_eps0)
    h = 2.0 ** -k
    try:
        mesh = build_mesh(sc.coeffs, e, h)
    except DegenerateRegimeError:
        assume(False)
    nodes, ti = mesh.nodes, mesh.tau_index
    # the graded nodes are the recurrence x_{k+1} = x_k (1 + h), bit for bit
    graded = recurrence(h * sc.coeffs.eps_lower, h, mesh.tau_star)
    assert np.array_equal(nodes[:ti + 1], graded)
    assert mesh.n_star == ti - 1
    assert nodes[ti - 1] < mesh.tau_star <= mesh.tau
    assert math.exp(-sc.coeffs.beta * e(mesh.tau)) <= h ** 2 * (1 + 1e-12)
    assert mesh.node_count <= 4 * predict_cardinality(sc.coeffs, h)
    # the graded cap is checked before the whole mesh's, and that before the
    # coarse nodes are built; at the exact count nothing is raised
    # (mock.patch: hypothesis reruns this body per example)
    with mock.patch.object(mesh_module, "_MAX_NODES", ti):
        with pytest.raises(ParameterError, match="graded node count"):
            build_mesh(sc.coeffs, e, h)
    with mock.patch.object(mesh_module, "_MAX_NODES", ti + 1):
        with mock.patch.object(mesh_module.np, "linspace",
                               side_effect=AssertionError("coarse nodes built")):
            with pytest.raises(ParameterError, match="^node count"):
                build_mesh(sc.coeffs, e, h)
    with mock.patch.object(mesh_module, "_MAX_NODES", mesh.node_count - 1):
        with pytest.raises(ParameterError, match="^node count"):
            build_mesh(sc.coeffs, e, h)
    with mock.patch.object(mesh_module, "_MAX_NODES", mesh.node_count):
        assert np.array_equal(build_mesh(sc.coeffs, e, h).nodes, nodes)


# 1e5 to 9.4e5 graded steps: an upper bound on the step count that fell
# short here would raise the graded cap message instead
@pytest.mark.parametrize("h", [2.0**-13, 2.0**-16])
@pytest.mark.parametrize("name", SCENARIO_NAMES)
@pytest.mark.parametrize("eps0", [1e-2, 1e-12])
def test_long_graded_run_is_the_recurrence(eps0, name, h):
    sc, e = scenario_e(name, eps0)
    mesh = build_mesh(sc.coeffs, e, h)
    graded = recurrence(h * sc.coeffs.eps_lower, h, mesh.tau_star)
    assert np.array_equal(mesh.nodes[:mesh.tau_index + 1], graded)
