import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from layerfem import verify
from layerfem.calculus import integrate, layer_integral
from layerfem.errors import ParameterError
from layerfem.fem import FemSolution
from layerfem.mesh import build_mesh
from layerfem.problem import (
    SCENARIO_NAMES,
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
    reference_solution,
)


def const_coeffs(eps=0.01, b=2.0, c=1.0, beta=1.0):
    return CoefficientSet(
        eps=ScalarFunction.constant(eps), b=ScalarFunction.constant(b),
        c=ScalarFunction.constant(c), f=ScalarFunction.constant(1.0),
        beta=beta, gamma=c if c > 0 else 0.1,
        eps_lower=eps, eps_upper=eps, sigma=0.0)


def lemma(coeffs, a, x, ell, gamma):
    return check_integral_lemma(coeffs, a, x, ell, gamma,
                                layer_integral(coeffs, "e"))


class TestIntegralLemma:
    def test_constant_eps_is_equality(self):
        # sigma0 = 0: int_0^x exp(g t / eps) = eps/g (exp(g x/eps) - 1),
        # which is exactly the right-hand side -- margin ~ 0
        rep = lemma(const_coeffs(), 0.0, 0.5, 0, 1.0)
        assert rep.passed
        assert abs(rep.worst_margin) <= 1e-8

    def test_linear_eps_strict_inequality(self):
        # eps' = eps0 is constant, so s0 = eps0 and
        # d/dt[eps^(l+1) exp(g e_a)] = (g + (l+1) s0) eps^l exp(g e_a):
        # the lemma holds with equality and the margin is roundoff of
        # either sign.  The strict case is test_exp_eps_strict_inequality.
        sc = get_scenario("eps-linear", 0.01)
        rep = lemma(sc.coeffs, 0.1, 0.9, 0, 1.0)
        assert rep.passed
        assert abs(rep.worst_margin) <= 1e-8

    def test_exp_eps_strict_inequality(self):
        # eps' = eps varies on [a, x], so s0 = min eps' < eps' somewhere
        # and the lemma is not tight
        sc = get_scenario("eps-exp", 0.01)
        rep = lemma(sc.coeffs, 0.1, 0.9, 0, 1.0)
        assert rep.passed and rep.worst_margin > 1e-3

    def test_higher_power(self):
        sc = get_scenario("eps-exp", 0.01)
        rep = lemma(sc.coeffs, 0.0, 1.0, 1, 0.5)
        assert rep.passed

    def test_gamma_at_threshold_rejected(self):
        # gamma = -(l+1) sigma0 makes the denominator vanish
        rep_coeffs = const_coeffs()
        with pytest.raises(ParameterError):
            lemma(rep_coeffs, 0.0, 1.0, 0, 0.0)

    def test_bad_interval(self):
        with pytest.raises(ParameterError):
            lemma(const_coeffs(), 0.5, 0.5, 0, 1.0)

    @pytest.mark.parametrize("name", ["eps-const", "eps-linear", "eps-exp",
                                      "manufactured"])
    def test_random_tuples_no_violation(self, name):
        sc = get_scenario(name, 0.01)
        rng = np.random.default_rng(42)
        rep = check_integral_lemma_random(sc, 25, rng,
                                          layer_integral(sc.coeffs, "e"))
        assert rep.passed
        assert rep.worst_margin >= -1e-8

    @pytest.mark.parametrize("ell, gamma", [
        (0, math.nan), (0, math.inf), (0, -math.inf), (0.5, 1.0), (1.0, 1.0),
        (-1, 1.0),
    ])
    def test_bad_parameters_raise_before_any_work(self, ell, gamma):
        def untouchable(x):
            raise AssertionError("evaluated before the parameters were checked")

        coeffs = dataclasses.replace(
            const_coeffs(), eps=ScalarFunction(untouchable, untouchable))
        with pytest.raises(ParameterError):
            check_integral_lemma(coeffs, 0.0, 1.0, ell, gamma, untouchable)

    def test_decreasing_eps_is_refused(self):
        # the lemma's bound divides by g + (l + 1) s0 with s0 = min eps' >= 0
        eps = ScalarFunction(
            value=lambda x: 0.02 - 0.01 * np.asarray(x, float),
            deriv=lambda x: np.full_like(np.asarray(x, float), -0.01))
        coeffs = dataclasses.replace(const_coeffs(), eps=eps, eps_upper=0.02,
                                     sigma=-0.01)
        with pytest.raises(ParameterError, match=r"requires eps' >= 0 on \[a, x\]"):
            lemma(coeffs, 0.1, 0.5, 0, 1.0)

    @pytest.mark.parametrize("n_tuples", [0, 2.5, 1.0, "3", None])
    def test_random_needs_an_integer_count(self, n_tuples):
        # zero instances would report PASS with worst_margin = inf, and a
        # float count would end in a bare TypeError from range
        sc = get_scenario("eps-const", 0.01)
        with pytest.raises(ParameterError):
            check_integral_lemma_random(sc, n_tuples, np.random.default_rng(0),
                                        layer_integral(sc.coeffs, "e"))


def fixed_grid_margin(coeffs, a, x, ell, gamma, e):
    """check_integral_lemma's margin as computed before it was taken in the
    reflected coordinate with graded breakpoints: in t, from the difference
    e(t) - e(x) or e(t) - e(a), on 200 breakpoints from 1e-14 (x - a) toward
    x, whatever gamma."""
    eps = coeffs.eps
    sigma0 = float(np.min(eps.d(np.linspace(a, x, 2001))))
    e_a, e_x = e(a), e(x)
    shift = e_x if gamma > 0 else e_a
    lhs = integrate(
        lambda t: eps(t) ** ell * np.exp(gamma * (e(t) - shift)),
        a, x, breakpoints=x - np.geomspace((x - a) * 1e-14, x - a, 200))
    with np.errstate(under="ignore"):
        rhs = (eps(x) ** (ell + 1) * math.exp(gamma * (e_x - shift))
               - eps(a) ** (ell + 1) * math.exp(gamma * (e_a - shift))
               ) / (gamma + (ell + 1) * sigma0)
    return (rhs - lhs) / max(abs(rhs), 1e-300)


def graded_breakpoints(monkeypatch, coeffs, a, x, gamma):
    """The breakpoints check_integral_lemma hands integrate."""
    seen = []

    def capture(f, lo, hi, breakpoints=()):
        seen.append(breakpoints)
        return 0.0

    monkeypatch.setattr(verify, "integrate", capture)
    check_integral_lemma(coeffs, a, x, 0, gamma, layer_integral(coeffs, "e"))
    return seen[0]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(a=st.floats(0.0, 1.0), length=st.floats(1e-3, 1.0),
       log10_eps=st.floats(-12.0, 0.0), log10_gamma=st.floats(-3.0, 8.0))
def test_graded_breakpoints_are_geomspace(a, length, log10_eps, log10_gamma):
    # in s = x - t: 0, then panels graded away from s = 0 up to x - a
    x = min(1.0, a + length)
    assume(a < x)
    gamma = 10.0 ** log10_gamma
    coeffs = const_coeffs(eps=10.0 ** log10_eps)
    start = min(max(0.01 * coeffs.eps(x) / gamma, 1e-14 * (x - a)), x - a)
    num = 1 + math.ceil(verify._LEMMA_PANELS_PER_DECADE
                        * math.log10((x - a) / start))
    with pytest.MonkeyPatch.context() as mp:
        got = graded_breakpoints(mp, coeffs, a, x, gamma)
    want = np.concatenate(([0.0], np.geomspace(start, x - a, num)))
    assert got.tobytes() == want.tobytes()


class CountingIntegrand:
    """An integrand that counts the points it is evaluated at."""

    def __init__(self, f):
        self.f, self.points = f, 0

    def __call__(self, x):
        self.points += np.size(x)
        return self.f(x)


def counting(e):
    """The layer integral e with an integrand that counts its points, from 0
    after the constructor has integrated it into the partial sums."""
    counted = dataclasses.replace(e, integrand=CountingIntegrand(e.integrand))
    counted.integrand.points = 0
    return counted


def random_instances(n, seed):
    """(a, x, ell, gamma) drawn as check_integral_lemma_random draws them."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        a, x = np.sort(rng.uniform(0.0, 1.0, size=2))
        if x - a < 1e-3:
            x = min(1.0, a + 1e-3)
        out.append((float(a), float(x), int(rng.integers(0, 2)),
                    float(rng.uniform(1e-3, verify._GAMMA_MAX))))
    return out


class TestGradedLemmaGrid:
    @pytest.mark.parametrize("eps0", [1e-2, 1e-4, 1e-6])
    def test_margins_match_the_fixed_grid(self, eps0):
        # both count the points that 1/eps is evaluated at
        graded = fixed = 0
        for sc in builtin_scenarios(eps0):
            e = layer_integral(sc.coeffs, "e")
            for a, x, ell, gamma in random_instances(16, 7):
                counted = counting(e)
                rep = check_integral_lemma(sc.coeffs, a, x, ell, gamma, counted)
                graded += counted.integrand.points
                counted = counting(e)
                want = fixed_grid_margin(sc.coeffs, a, x, ell, gamma, counted)
                fixed += counted.integrand.points
                assert rep.passed
                assert abs(rep.worst_margin - want) <= 1e-9
        if eps0 == 1e-2:
            # the layer is wide, so most of the fixed grid's panels are waste
            assert 3 * graded <= fixed

    @pytest.mark.parametrize("gamma_over_eps0", [0.0, -0.5])
    def test_nonpositive_gamma_matches_the_fixed_grid(self, gamma_over_eps0):
        # eps-exp has eps' = eps >= eps0 > 0, so gamma may be 0 or negative
        for eps0 in (1e-2, 1e-4, 1e-6):
            sc = get_scenario("eps-exp", eps0)
            e = layer_integral(sc.coeffs, "e")
            gamma = gamma_over_eps0 * eps0
            for a, x, ell, _ in random_instances(16, 8):
                rep = check_integral_lemma(sc.coeffs, a, x, ell, gamma, e)
                want = fixed_grid_margin(sc.coeffs, a, x, ell, gamma, e)
                assert rep.passed
                assert abs(rep.worst_margin - want) <= 1e-9


@settings(derandomize=True, max_examples=100, deadline=None)
@given(log10_eps0=st.floats(-12.0, -2.0), a=st.floats(0.0, 0.999),
       length=st.floats(1e-3, 1.0), ell=st.integers(0, 1),
       log10_gamma=st.floats(-3.0, math.log10(verify._GAMMA_MAX)))
def test_lemma_across_the_eps0_range(log10_eps0, a, length, ell, log10_gamma):
    # eps' is constant on eps-const, eps-linear and manufactured, so the
    # lemma is an equality there; on eps-exp it is strict
    x = min(1.0, a + length)
    gamma = 10.0 ** log10_gamma
    for sc in builtin_scenarios(10.0 ** log10_eps0):
        rep = check_integral_lemma(sc.coeffs, a, x, ell, gamma,
                                   layer_integral(sc.coeffs, "e"))
        assert rep.passed
        if sc.name == "eps-exp":
            # strict by about (l + 1) (eps'(x) - eps'(a)) / gamma, with the
            # weight near x; that nears roundoff on short intervals at the
            # smallest eps0
            eps_d = sc.coeffs.eps.d
            strict = (ell + 1) * float(eps_d(x) - eps_d(a)) / gamma
            assert rep.worst_margin > (0.0 if strict > 1e-14 else -1e-12)
        else:
            assert abs(rep.worst_margin) <= 1e-12


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

    def test_negative_bracket_fails_where_exp_damps_it(self):
        # b = 2 - 2.5x drops below beta = 1 at x = 0.4: the bracket
        # beta (b - beta) / eps + c is negative there, down to -149 at x = 1,
        # but exp(-beta e) shrinks the image to about -2.6e-18
        sc = get_scenario("eps-const", 0.01)
        coeffs = dataclasses.replace(sc.coeffs, b=ScalarFunction(
            lambda x: 2.0 - 2.5 * np.asarray(x, dtype=float),
            lambda x: np.full_like(np.asarray(x, dtype=float), -2.5)))
        rep = check_barrier_operator(coeffs, layer_integral(coeffs, "e"))
        assert not rep.passed
        assert -1e-12 < rep.worst_margin < 0.0
        assert 0.4 < rep.worst_point < 0.5

    def test_all_builtins_pass_where_exp_underflows(self):
        # at eps0 = 1e-12, exp(-beta e) is 0 at every sample but x = 0
        for sc in builtin_scenarios(1e-12):
            rep = check_barrier_operator(sc.coeffs, layer_integral(sc.coeffs, "e"))
            assert rep.passed

    @pytest.mark.parametrize("count", [10.5, 100.0, "100", None])
    def test_sample_count_must_be_an_integer(self, count):
        def untouchable(x):
            raise AssertionError("evaluated before sample_count was checked")

        with pytest.raises(ParameterError):
            check_barrier_operator(const_coeffs(), untouchable, sample_count=count)

    def test_numpy_integer_sample_count(self):
        coeffs = const_coeffs(c=0.0)
        rep = check_barrier_operator(coeffs, layer_integral(coeffs, "e"),
                                     sample_count=np.int64(200))
        assert rep.passed and rep.sample_count == 200


def bound_rhs(name, coeffs, xs, integral):
    """The right-hand side of bound `name` in its verify._BOUNDS row, at xs."""
    rhs = verify._BOUNDS[name][2]
    return rhs(coeffs, xs, coeffs.eps(xs), integral(xs), coeffs.beta)


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
        assert bound_rhs("U1", coeffs, xs, e) == pytest.approx(classical, rel=1e-10)
        assert bound_rhs("T1", coeffs, xs, et) == pytest.approx(classical, rel=1e-10)
        assert bound_rhs("U0", coeffs, xs, e) == pytest.approx(np.ones_like(xs))

    def test_k2_contains_eps_prime(self):
        sc = get_scenario("eps-linear", 0.01)
        xs = np.array([0.5])
        e = layer_integral(sc.coeffs, "e")
        got = bound_rhs("U2", sc.coeffs, xs, e)
        eps_v = sc.coeffs.eps(0.5)
        expect = (1 + 0.01) / eps_v * (1 + math.exp(-e(0.5)) / eps_v)
        assert got[0] == pytest.approx(expect, rel=1e-10)


class TestSolutionBounds:
    def test_reference_too_coarse(self, monkeypatch):
        sc = get_scenario("eps-const", 1e-3)
        e = layer_integral(sc.coeffs, "e")
        with monkeypatch.context() as m:
            m.setattr("layerfem.verify._H_REF", 1.0 / 64)
            ref = reference_solution(sc, e)
        with pytest.raises(ParameterError,
                           match=r"at h = 1/64 is too coarse \(need h <= 1/512\)$"):
            check_solution_bounds(sc, ref, "U0", e)
        # the message reads the reference h that the check holds to
        monkeypatch.setattr("layerfem.verify._H_REF", 1.0 / 256)
        with pytest.raises(ParameterError, match=r"need h <= 1/256\)$"):
            check_solution_bounds(sc, ref, "U0", e)

    def test_bad_which(self):
        sc = get_scenario("eps-const", 1e-3)
        e = layer_integral(sc.coeffs, "e")
        ref = reference_solution(sc, e)
        with pytest.raises(ParameterError, match="'U7'; known: U0, U1, U2, T0, T1"):
            check_solution_bounds(sc, ref, "U7", e)

    def test_single_solve_ratios_finite(self):
        sc = get_scenario("manufactured", 1e-4)
        e = layer_integral(sc.coeffs, "e")
        et = layer_integral(sc.coeffs, "etilde")
        ref = reference_solution(sc, e)
        for which, integral in (("U0", e), ("U1", e), ("U2", e),
                                ("T0", et), ("T1", et)):
            rep = check_solution_bounds(sc, ref, which, integral)
            assert rep.name == f"solution-bound-{which}[manufactured]"
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
        want = np.max(2 * xs / bound_rhs("U1", sc.coeffs, xs, e))
        rep = check_solution_bounds(sc, ref, "U1", e)
        assert rep.sample_count == len(xs)
        assert rep.sup_ratio == pytest.approx(want, rel=1e-12)

    def test_quadratic_second_derivative(self):
        sc, e, ref = self.quadratic_reference()
        xs = ref.mesh.nodes[2:-2]
        want = np.max(2 / bound_rhs("U2", sc.coeffs, xs, e))
        rep = check_solution_bounds(sc, ref, "U2", e)
        assert rep.sample_count == len(xs)
        assert rep.sup_ratio == pytest.approx(want, rel=1e-10)


ALL_BOUNDS = ("U0", "U1", "U2", "T0", "T1")


class TestUniformity:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_every_bound_is_uniform(self, name):
        # variations are at most 1.011 on the built-in families
        fam = lambda eps0: get_scenario(name, eps0)
        reps = check_bound_uniformity(fam, ALL_BOUNDS)
        assert [r.name for r in reps] == [
            f"uniformity[solution-bound-{b}[{name}]]" for b in ALL_BOUNDS]
        for rep in reps:
            assert rep.passed
            assert rep.sup_ratio <= 4.0

    def test_one_call_per_name_gives_the_same_reports(self):
        # several names share one reference solve and one layer integral of
        # each kind per eps0, and must report exactly what a call per name
        # reports
        fam = lambda eps0: get_scenario("eps-exp", eps0)
        together = check_bound_uniformity(fam, ALL_BOUNDS)
        single = sum((check_bound_uniformity(fam, (b,)) for b in ALL_BOUNDS), ())
        assert len(together) == len(ALL_BOUNDS)
        for got, want in zip(together, single):
            assert dataclasses.asdict(got) == dataclasses.asdict(want)

    def test_negative_control_weakened_exponent_fails(self):
        # doubling beta in the bound demands decay the true layer does not
        # have; on the manufactured family (layer decays exactly like
        # exp(-beta e)) the ratio blows up as eps0 -> 0 and the check fails
        # for u' and u'' (variation about 100), while U0 has no decay term
        fam = lambda eps0: get_scenario("manufactured", eps0)
        u0, u1, u2 = check_bound_uniformity(fam, ("U0", "U1", "U2"),
                                            beta_factor=2.0)
        assert u0.passed
        for rep in (u1, u2):
            assert not rep.passed
            assert rep.sup_ratio > 50.0

    def test_unknown_name_rejected_before_any_solve(self, monkeypatch):
        solves = []
        monkeypatch.setattr(verify, "galerkin_solve",
                            lambda *args: solves.append(args))
        fam = lambda eps0: get_scenario("eps-exp", eps0)
        with pytest.raises(ParameterError, match="unknown bound 'U3'"):
            check_bound_uniformity(fam, ("U0", "U3"))
        # a bare string would be read one character at a time
        with pytest.raises(ParameterError,
                           match="tuple of bound names, not the string 'U1'"):
            check_bound_uniformity(fam, "U1")
        # an empty tuple once ran three reference solves and returned ()
        with pytest.raises(ParameterError, match="names no bound"):
            check_bound_uniformity(fam, ())
        assert solves == []
