import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from layerfem.calculus import (
    CumulativeIntegral,
    gauss_legendre,
    integrate,
    invert_monotone,
    layer_integral,
)
from layerfem.errors import (
    ConvergenceError,
    EvaluationError,
    OutOfRangeError,
    ParameterError,
)
from layerfem.problem import builtin_scenarios, get_scenario


class TestQuadratureRule:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_weights_sum_to_two(self, n):
        rule = gauss_legendre(n)
        assert abs(rule.weights.sum() - 2.0) <= 1e-14

    @pytest.mark.parametrize("n", range(1, 11))
    def test_monomial_exactness(self, n):
        rule = gauss_legendre(n)
        for k in range(rule.order + 1):
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            got = (rule.weights * rule.points ** k).sum()
            assert abs(got - exact) <= 1e-12

    def test_rule_is_shared_and_read_only(self):
        # every caller gets the same rule, so none may change it for the rest
        rule = gauss_legendre(7)
        assert gauss_legendre(7) is rule
        with pytest.raises(ValueError):
            rule.points[0] = 0.0
        with pytest.raises(ValueError):
            rule.weights[:] = 1.0


class TestIntegrate:
    def test_constant(self):
        assert integrate(lambda t: np.ones_like(t), 0, 1) == pytest.approx(1.0)

    def test_reciprocal_linear(self):
        got = integrate(lambda t: 1.0 / (0.01 * (1 + t)), 0, 1)
        assert got == pytest.approx(100 * np.log(2), rel=1e-10)

    def test_fast_decay(self):
        got = integrate(lambda t: np.exp(-100 * t), 0, 0.5)
        assert got == pytest.approx((1 - np.exp(-50)) / 100, rel=1e-10)

    def test_empty_interval(self):
        assert integrate(lambda t: t, 0.3, 0.3) == 0.0

    def test_bad_limits(self):
        with pytest.raises(ParameterError):
            integrate(lambda t: t, 1, 0)

    def test_nonfinite_integrand(self):
        with np.errstate(divide="ignore"), pytest.raises(EvaluationError):
            integrate(lambda t: 1.0 / (t - 0.5), 0, 1)

    def test_scalar_only_integrand_raises(self):
        # integrands are evaluated on arrays only; there is no per-point path
        with pytest.raises(EvaluationError) as info:
            integrate(lambda t: math.exp(-t), 0, 1)
        assert isinstance(info.value.__cause__, TypeError)

    def test_constant_return_is_broadcast(self):
        assert integrate(lambda t: 2.0, 0, 1) == pytest.approx(2.0)

    @pytest.mark.parametrize("f, exact", [
        (lambda t: np.cos(50 * t), math.sin(50) / 50),
        (lambda t: np.abs(t - 1 / 3), 5 / 18),
        (lambda t: np.sqrt(t), 2 / 3),
    ], ids=["cos50", "kink", "sqrt"])
    def test_bisected_integrands_match_closed_form(self, f, exact):
        assert abs(integrate(f, 0, 1) - exact) <= 1e-10 * abs(exact)

    def test_max_depth_raises(self):
        with pytest.raises(ConvergenceError):
            integrate(lambda t: np.exp(-1e4 * t), 0, 1, max_depth=2)

    def test_noise_above_tolerance_fails_fast(self):
        # the wiggle never resolves, so the panel count hits its cap
        with pytest.raises(ConvergenceError):
            integrate(lambda t: 1 + 1e-6 * np.sin(1e9 * t), 0, 1)


class TestLayerIntegral:
    def test_constant_eps_e(self):
        sc = get_scenario("eps-const", 0.01)
        e = layer_integral(sc.coeffs, "e")
        for x in (1e-6, 1e-3, 0.1, 0.5, 1.0):
            assert e(x) == pytest.approx(x / 0.01, rel=1e-10)

    def test_linear_eps_closed_form(self):
        sc = get_scenario("eps-linear", 0.01)
        e = layer_integral(sc.coeffs, "e")
        assert e(1.0) == pytest.approx(100 * np.log(2), rel=1e-10)

    def test_unknown_kind(self):
        sc = get_scenario("eps-const", 0.01)
        with pytest.raises(ParameterError):
            layer_integral(sc.coeffs, "bogus")

    def test_all_integrals_strictly_increasing(self):
        for sc in builtin_scenarios(1e-3):
            for kind in ("e", "etilde"):
                ci = layer_integral(sc.coeffs, kind)
                assert np.all(np.diff(ci.partial_sums) > 0)

    def test_etilde_definitional_identity(self):
        sc = get_scenario("eps-exp", 1e-3)
        et = layer_integral(sc.coeffs, "etilde")
        eu = sc.coeffs.eps_upper
        for x in (0.05, 0.3, 0.9):
            oracle = integrate(
                lambda t: sc.coeffs.eps(t) ** -0.5, 0.0, x) / np.sqrt(eu)
            assert et(x) == pytest.approx(oracle, rel=1e-9)

    def test_domain_guard(self):
        sc = get_scenario("eps-const", 0.01)
        e = layer_integral(sc.coeffs, "e")
        with pytest.raises(ParameterError):
            e(1.5)

    def test_nan_is_outside_the_domain(self):
        e = layer_integral(get_scenario("eps-const", 0.01).coeffs, "e")
        with pytest.raises(ParameterError):
            e(np.nan)
        with pytest.raises(ParameterError):
            e(np.array([0.5, np.nan]))

    @pytest.mark.parametrize("shape", [(), (7,), (3, 7), (3, 1, 7)])
    def test_any_shape_matches_scalar_calls(self, shape):
        e = layer_integral(get_scenario("eps-exp", 1e-3).coeffs, "e")
        x = np.random.default_rng(5).uniform(0.0, 1.0, shape)
        got = e(x)
        assert np.shape(got) == shape
        if shape == ():
            assert type(got) is float
        scalar = [e(float(t)) for t in x.ravel()]
        assert np.array_equal(np.ravel(got), scalar)


# closed forms of e(x) = int_0^x dt / eps(t), written out independently of
# problem._eps_family
_CLOSED_FORM_E = {
    "eps-const": lambda x, eps0: x / eps0,
    "eps-linear": lambda x, eps0: np.log1p(x) / eps0,
    "eps-exp": lambda x, eps0: -np.expm1(-x) / eps0,
}

_unit_points = st.one_of(
    st.just(0.0),
    st.floats(1e-14, 1.0),
    st.floats(-14.0, 0.0).map(lambda p: 10.0 ** p),
)


@pytest.mark.parametrize("name", sorted(_CLOSED_FORM_E))
@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    log10_eps0=st.floats(-12.0, -1.0),
    x=hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, max_side=5),
                 elements=_unit_points),
)
@example(log10_eps0=-12.0, x=np.array([0.0, 1e-13, 1e-12, 0.5, 1.0]))
@example(log10_eps0=-1.0, x=np.array([[1e-13, 1.0], [0.25, 0.75]]))
def test_e_matches_closed_form(name, log10_eps0, x):
    eps0 = 10.0 ** log10_eps0
    e = layer_integral(get_scenario(name, eps0).coeffs, "e")
    got = np.asarray(e(x))
    want = _CLOSED_FORM_E[name](x, eps0)
    assert got.shape == x.shape
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


class TestInvertMonotone:
    def test_constant_eps(self):
        e = layer_integral(get_scenario("eps-const", 0.01).coeffs, "e")
        assert invert_monotone(e, 10.0) == pytest.approx(0.1, abs=1e-12)

    def test_linear_eps(self):
        e = layer_integral(get_scenario("eps-linear", 0.01).coeffs, "e")
        x = invert_monotone(e, 100 * np.log(1.5))
        assert x == pytest.approx(0.5, abs=1e-10)

    def test_out_of_range(self):
        e = layer_integral(get_scenario("eps-const", 0.01).coeffs, "e")
        with pytest.raises(OutOfRangeError):
            invert_monotone(e, e(1.0) + 1.0)

    def test_nan_target_is_out_of_range(self):
        e = layer_integral(get_scenario("eps-const", 0.01).coeffs, "e")
        with pytest.raises(OutOfRangeError):
            invert_monotone(e, math.nan)

    def test_round_trip(self):
        e = layer_integral(get_scenario("eps-exp", 0.01).coeffs, "e")
        rng = np.random.default_rng(11)
        tol = 1e-12
        for x in rng.uniform(0.01, 0.99, 20):
            target = e(x)
            root = invert_monotone(e, target, tol=tol)
            assert abs(e(root) - target) <= 10 * tol * max(1.0, abs(target))


# closed-form inverses of e, x = e^{-1}(T)
_CLOSED_FORM_INVERSE = {
    "eps-const": lambda T, eps0: eps0 * T,
    "eps-linear": lambda T, eps0: np.expm1(eps0 * T),
    "eps-exp": lambda T, eps0: -np.log1p(-eps0 * T),
}


# fraction is target / e(1); subnormal targets carry too few digits for a
# relative bound
@pytest.mark.parametrize("name", sorted(_CLOSED_FORM_INVERSE))
@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    log10_eps0=st.floats(-12.0, -1.0),
    fraction=st.one_of(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True,
                  allow_subnormal=False),
        st.floats(-300.0, 0.0, exclude_max=True).map(lambda p: 10.0 ** p),
    ),
)
def test_invert_matches_closed_form(name, log10_eps0, fraction):
    eps0 = 10.0 ** log10_eps0
    e = layer_integral(get_scenario(name, eps0).coeffs, "e")
    target = fraction * e(1.0)
    want = _CLOSED_FORM_INVERSE[name](target, eps0)
    assert abs(invert_monotone(e, target) - want) <= 1e-12 * want
