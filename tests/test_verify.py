import math

import numpy as np
import pytest

from layerfem.calculus import layer_integral
from layerfem.errors import ConfigurationError, ParameterError
from layerfem.fem import FemSolution
from layerfem.mesh import build_mesh
from layerfem.problem import (
    CoefficientSet,
    ScalarFunction,
    builtin_scenarios,
    get_scenario,
)
from layerfem.verify import (
    check_barrier_operator,
    check_bound_uniformity,
    check_integral_lemma,
    check_integral_lemma_random,
    check_solution_bounds,
    check_transformed_bounds,
    reference_solution,
    solution_bound_values,
    transformed_bound_values,
)


def const_coeffs(eps=0.01, b=2.0, c=1.0, beta=1.0):
    return CoefficientSet(
        eps=ScalarFunction.constant(eps), b=ScalarFunction.constant(b),
        c=ScalarFunction.constant(c), f=ScalarFunction.constant(1.0),
        beta=beta, gamma=c if c > 0 else 0.1,
        eps_lower=eps, eps_upper=eps, sigma=0.0)


class TestIntegralLemma:
    def test_constant_eps_is_equality(self):
        # sigma0 = 0: int_0^x exp(g t / eps) = eps/g (exp(g x/eps) - 1),
        # which is exactly the right-hand side -- margin ~ 0
        rep = check_integral_lemma(const_coeffs(), 0.0, 0.5, 0, 1.0)
        assert rep.passed
        assert abs(rep.worst_margin) <= 1e-8

    def test_linear_eps_strict_inequality(self):
        # eps' = eps0 is constant, so s0 = eps0 and
        # d/dt[eps^(l+1) exp(g e_a)] = (g + (l+1) s0) eps^l exp(g e_a):
        # the lemma holds with equality and the margin is roundoff of
        # either sign.  The strict case is test_exp_eps_strict_inequality.
        sc = get_scenario("eps-linear", 0.01)
        rep = check_integral_lemma(sc.coeffs, 0.1, 0.9, 0, 1.0)
        assert rep.passed
        assert abs(rep.worst_margin) <= 1e-8

    def test_exp_eps_strict_inequality(self):
        # eps' = eps varies on [a, x], so s0 = min eps' < eps' somewhere
        # and the lemma is not tight
        sc = get_scenario("eps-exp", 0.01)
        rep = check_integral_lemma(sc.coeffs, 0.1, 0.9, 0, 1.0)
        assert rep.passed and rep.worst_margin > 1e-3

    def test_higher_power(self):
        sc = get_scenario("eps-exp", 0.01)
        rep = check_integral_lemma(sc.coeffs, 0.0, 1.0, 1, 0.5)
        assert rep.passed

    def test_gamma_at_threshold_rejected(self):
        # gamma = -(l+1) sigma0 makes the denominator vanish
        rep_coeffs = const_coeffs()
        with pytest.raises(ParameterError):
            check_integral_lemma(rep_coeffs, 0.0, 1.0, 0, 0.0)

    def test_bad_interval(self):
        with pytest.raises(ParameterError):
            check_integral_lemma(const_coeffs(), 0.5, 0.5, 0, 1.0)

    @pytest.mark.parametrize("name", ["eps-const", "eps-linear", "eps-exp",
                                      "manufactured"])
    def test_random_tuples_no_violation(self, name):
        sc = get_scenario(name, 0.01)
        rng = np.random.default_rng(42)
        rep = check_integral_lemma_random(sc, 25, rng)
        assert rep.passed
        assert rep.worst_margin >= -1e-8

    def test_random_needs_a_tuple(self):
        # zero instances would report PASS with worst_margin = inf
        sc = get_scenario("eps-const", 0.01)
        with pytest.raises(ParameterError):
            check_integral_lemma_random(sc, 0, np.random.default_rng(0))


class TestBarrierOperator:
    def test_constant_eps_closed_form(self):
        # b = 2, beta = 1, c = 0, eps = 0.01:
        # image = 100 * exp(-100 x)
        coeffs = const_coeffs(c=0.0)
        e = layer_integral(coeffs, "e")
        rep = check_barrier_operator(coeffs, e, sample_count=200)
        assert rep.passed
        # worst (smallest) value is at x = 1
        assert rep.worst_point == pytest.approx(1.0)
        assert rep.worst_margin == pytest.approx(100 * math.exp(-100), rel=1e-10)

    def test_b_equal_beta_degenerate_but_nonnegative(self):
        # b == beta kills the 1/eps term; image = c exp(-beta e) >= 0
        coeffs = const_coeffs(b=1.0, c=1.0, beta=1.0)
        e = layer_integral(coeffs, "e")
        rep = check_barrier_operator(coeffs, e)
        assert rep.passed and rep.worst_margin >= 0

    def test_variable_coefficients(self):
        sc = get_scenario("eps-exp", 1e-4)
        e = layer_integral(sc.coeffs, "e")
        rep = check_barrier_operator(sc.coeffs, e)
        assert rep.passed

    @pytest.mark.parametrize("count", [0, 1])
    def test_needs_two_samples(self, count):
        # zero samples has no minimum; one sample checks only x = 0
        coeffs = const_coeffs()
        e = layer_integral(coeffs, "e")
        with pytest.raises(ParameterError):
            check_barrier_operator(coeffs, e, sample_count=count)

    @pytest.mark.parametrize("name", ["eps-const", "eps-linear", "eps-exp",
                                      "manufactured"])
    def test_all_builtins(self, name):
        sc = get_scenario(name, 1e-5)
        e = layer_integral(sc.coeffs, "e")
        assert check_barrier_operator(sc.coeffs, e, label=name).passed


class TestBoundValues:
    def test_classical_reduction_constant_eps(self):
        # for constant eps both bound families reduce to
        # 1 + eps^-k exp(-beta x / eps) (k = 1) up to the trivial k = 0 cases
        eps0 = 0.01
        coeffs = const_coeffs(eps=eps0)
        xs = np.linspace(0, 1, 50)
        e = layer_integral(coeffs, "e")
        et = layer_integral(coeffs, "etilde")
        classical = 1.0 + np.exp(-xs / eps0) / eps0
        got_e = solution_bound_values(coeffs, xs, e(xs), 1)
        got_t = transformed_bound_values(coeffs, xs, et(xs), 1)
        assert got_e == pytest.approx(classical, rel=1e-10)
        assert got_t == pytest.approx(classical, rel=1e-10)
        assert solution_bound_values(coeffs, xs, e(xs), 0) == pytest.approx(
            np.ones_like(xs))

    def test_k2_contains_eps_prime(self):
        sc = get_scenario("eps-linear", 0.01)
        xs = np.array([0.5])
        e = layer_integral(sc.coeffs, "e")
        got = solution_bound_values(sc.coeffs, xs, e(xs), 2)
        eps_v = sc.coeffs.eps(0.5)
        expect = (1 + 0.01) / eps_v * (1 + math.exp(-e(0.5)) / eps_v)
        assert got[0] == pytest.approx(expect, rel=1e-10)

    def test_bad_k(self):
        coeffs = const_coeffs()
        with pytest.raises(ParameterError):
            solution_bound_values(coeffs, np.array([0.5]), np.array([50.0]), 3)
        with pytest.raises(ParameterError):
            transformed_bound_values(coeffs, np.array([0.5]), np.array([5.0]), 2)


class TestSolutionBounds:
    def test_reference_too_coarse(self):
        sc = get_scenario("eps-const", 1e-3)
        ref = reference_solution(sc, h_ref=1.0 / 64)
        with pytest.raises(ConfigurationError):
            check_solution_bounds(sc, ref, "U0")

    def test_bad_which(self):
        sc = get_scenario("eps-const", 1e-3)
        ref = reference_solution(sc)
        with pytest.raises(ParameterError):
            check_solution_bounds(sc, ref, "U7")

    def test_single_solve_ratios_finite(self):
        sc = get_scenario("manufactured", 1e-4)
        ref = reference_solution(sc)
        for which in ("U0", "U1", "U2"):
            rep = check_solution_bounds(sc, ref, which)
            assert rep.passed and np.isfinite(rep.sup_ratio)
        for which in ("U0", "U1"):
            rep = check_transformed_bounds(sc, ref, which)
            assert rep.passed and np.isfinite(rep.sup_ratio)

    # The derivative stencils are exact for quadratics, so nodal values x^2
    # give u' = 2x at nodes[1:-1] and u'' = 2 at nodes[2:-2].  The second
    # difference amplifies the rounding of x^2 (half an ulp of 1) by about
    # 4 / h^2: 1.2e-10 at h = 1/512, or 6e-11 of u'' = 2.
    def quadratic_reference(self):
        sc = get_scenario("eps-exp", 1e-3)
        e = layer_integral(sc.coeffs, "e")
        mesh = build_mesh(sc.coeffs, e, 1.0 / 512)
        return sc, e, FemSolution(mesh=mesh, coefficients=mesh.nodes ** 2)

    def test_quadratic_first_derivative(self):
        sc, e, ref = self.quadratic_reference()
        xs = ref.mesh.nodes[1:-1]
        want = np.max(2 * xs / solution_bound_values(sc.coeffs, xs, e(xs), 1))
        rep = check_solution_bounds(sc, ref, "U1", e=e)
        assert rep.sample_count == len(xs)
        assert rep.sup_ratio == pytest.approx(want, rel=1e-12)

    def test_quadratic_second_derivative(self):
        sc, e, ref = self.quadratic_reference()
        xs = ref.mesh.nodes[2:-2]
        want = np.max(2 / solution_bound_values(sc.coeffs, xs, e(xs), 2))
        rep = check_solution_bounds(sc, ref, "U2", e=e)
        assert rep.sample_count == len(xs)
        assert rep.sup_ratio == pytest.approx(want, rel=1e-10)


class TestUniformity:
    def test_positive_u0_u1(self):
        fam = lambda eps0: get_scenario("manufactured", eps0)
        for which in ("U0", "U1"):
            rep = check_bound_uniformity(fam, which)
            assert rep.passed
            assert rep.sup_ratio <= 4.0

    def test_transformed_uniformity(self):
        fam = lambda eps0: get_scenario("eps-linear", eps0)
        rep = check_bound_uniformity(fam, "U0", transformed=True)
        assert rep.passed

    def test_negative_control_weakened_exponent_fails(self):
        # doubling beta in the bound demands decay the true layer does not
        # have; on the manufactured family (layer decays exactly like
        # exp(-beta e)) the ratio blows up as eps0 -> 0 and the check fails
        fam = lambda eps0: get_scenario("manufactured", eps0)
        rep = check_bound_uniformity(fam, "U1", beta_factor=2.0)
        assert not rep.passed
        assert rep.sup_ratio > 4.0
