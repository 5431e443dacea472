import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from layerfem.calculus import (
    CumulativeIntegral,
    _graded,
    _panel_sums,
    gauss_legendre,
    integrate,
    invert_monotone,
    layer_integral,
)
from layerfem.errors import ConvergenceError, EvaluationError, ParameterError
from layerfem.mesh import compute_tau_star
from layerfem.problem import builtin_scenarios, get_scenario


class TestQuadratureRule:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_weights_sum_to_two(self, n):
        rule = gauss_legendre(n)
        assert abs(rule.weights.sum() - 2.0) <= 1e-14

    @pytest.mark.parametrize("n", range(1, 11))
    def test_monomial_exactness(self, n):
        rule = gauss_legendre(n)
        for k in range(2 * n):  # exact up to degree 2n - 1
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            got = (rule.weights * rule.points ** k).sum()
            assert abs(got - exact) <= 1e-12

    @pytest.mark.parametrize("n", [0, 2.5])
    def test_needs_a_positive_integer(self, n):
        # 2.5 once reached numpy's leggauss and raised its TypeError
        with pytest.raises(ParameterError, match="integer n >= 1"):
            gauss_legendre(n)

    def test_rule_is_shared_and_read_only(self):
        # the module-level rules are shared, so no caller may change them
        rule = gauss_legendre(7)
        with pytest.raises(ValueError):
            rule.points[0] = 0.0
        with pytest.raises(ValueError):
            rule.weights[:] = 1.0


class TestIntegrate:
    def test_constant(self):
        assert integrate(lambda t: np.ones_like(t), 0, 1) == pytest.approx(1.0)

    def test_reciprocal_linear(self):
        f = lambda t: 1.0 / (0.01 * (1 + t))
        with pytest.raises(ConvergenceError):
            integrate(f, 0, 1)
        got = integrate(f, 0, 1, breakpoints=np.linspace(0, 1, 9))
        assert got == pytest.approx(100 * np.log(2), rel=1e-10)

    def test_fast_decay(self):
        f = lambda t: np.exp(-100 * t)
        with pytest.raises(ConvergenceError):
            integrate(f, 0, 0.5)
        got = integrate(f, 0, 0.5, breakpoints=np.linspace(0, 0.5, 51))
        assert got == pytest.approx((1 - np.exp(-50)) / 100, rel=1e-10)

    def test_empty_interval(self):
        assert integrate(lambda t: t, 0.3, 0.3) == 0.0

    def test_bad_limits(self):
        with pytest.raises(ParameterError):
            integrate(lambda t: t, 1, 0)

    @pytest.mark.parametrize("a, b", [(math.nan, 1.0), (0.0, math.inf)])
    def test_nonfinite_limit(self, a, b):
        with pytest.raises(ParameterError, match="limits must be finite"):
            integrate(lambda t: t, a, b)

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

    @pytest.mark.parametrize("f, exact, breakpoints", [
        (lambda t: np.cos(50 * t), math.sin(50) / 50, np.linspace(0, 1, 65)),
        (lambda t: np.abs(t - 1 / 3), 5 / 18, [1 / 3]),
        (lambda t: np.sqrt(t), 2 / 3, np.geomspace(1e-12, 1, 81)),
    ], ids=["cos50", "kink", "sqrt"])
    def test_resolved_integrands_match_closed_form(self, f, exact, breakpoints):
        # one round on panels that resolve the integrand; without them the
        # single panel's halves disagree with it, and integrate raises
        # after its one call of f
        counted = CountingIntegrand(f)
        with pytest.raises(ConvergenceError, match="pass finer breakpoints"):
            integrate(counted, 0, 1)
        assert counted.shapes == [(5, 3)]
        got = integrate(f, 0, 1, breakpoints=breakpoints)
        assert abs(got - exact) <= 1e-10 * abs(exact)

    def test_noise_above_tolerance_fails_fast(self):
        # the wiggle is below any panel's resolution
        with pytest.raises(ConvergenceError):
            integrate(lambda t: 1 + 1e-6 * np.sin(1e9 * t), 0, 1)


class CountingIntegrand:
    """An integrand that records the shape of each batch it is called on."""

    def __init__(self, f):
        self.f, self.shapes = f, []

    def __call__(self, t):
        self.shapes.append(np.shape(t))
        return self.f(t)


class TestIntegrandCalls:
    def test_one_call_of_whole_panels_and_halves(self):
        # 5-point Gauss is exact for degree 9: the round converges
        f = CountingIntegrand(lambda t: t ** 9)
        assert integrate(f, 0.0, 1.0, breakpoints=(0.25, 0.5)) == pytest.approx(0.1)
        # whole panels and both halves of the 3 panels, in one batch
        assert f.shapes == [(5, 9)]


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

    def test_breakpoints_are_the_graded_grid(self):
        e = layer_integral(get_scenario("eps-exp", 1e-6).coeffs, "e")
        want = np.concatenate(([0.0], np.geomspace(1e-12, 1.0, 4095)))
        assert e.breakpoints.tobytes() == want.tobytes()

    def test_unknown_kind(self):
        sc = get_scenario("eps-const", 0.01)
        with pytest.raises(ParameterError):
            layer_integral(sc.coeffs, "bogus")

    @pytest.mark.parametrize("eps0", [1e-2, 1e-4, 1e-7, 1e-12])
    def test_endpoints_are_the_stored_sums(self, eps0):
        # invert_monotone and compute_tau_star read e(0) and e(1) from
        # partial_sums; evaluating them gives the same floats, so meshes
        # do not move
        for sc in builtin_scenarios(eps0):
            e = layer_integral(sc.coeffs, "e")
            assert e(0.0) == e.partial_sums[0] == 0.0
            assert e(1.0) == e.partial_sums[-1]

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
        # [-1e-12, 1 + 1e-12] is accepted, just past it is not
        for bad in (1.5, 1.0 + 2e-12, -2e-12):
            for x in (bad, np.array([0.5, bad, 0.25]), np.full((2, 3), bad)):
                with pytest.raises(ParameterError):
                    e(x)

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


class TestOwnDomain:
    """An integral built on [0, 0.5] is defined there, not on [0, 1]."""

    g = CumulativeIntegral(lambda t: 1.0 + t, np.linspace(0.0, 0.5, 9))

    def test_call_past_the_top_raises(self):
        assert self.g(0.5) == pytest.approx(0.625, rel=1e-15)
        assert self.g(0.5 + 0.5e-12) == self.g(0.5)
        for x in (0.75, 0.5 + 1e-12, np.array([0.25, 0.75])):
            with pytest.raises(ParameterError, match=r"\[0, 0\.5\]"):
                self.g(x)

    def test_tolerance_scales_with_the_domain(self):
        g = CumulativeIntegral(lambda t: 1.0 + 0.0 * t, np.linspace(0.0, 1e-13, 3))
        # 1e-12 of the domain's width, not 1e-12 absolute, past either end
        assert g(1e-13 + 1e-25) == g(1e-13)
        assert g(-1e-25) == 0.0
        for x in (5e-13, -5e-13, 1e-13 + 2e-25, -2e-25):
            with pytest.raises(ParameterError):
                g(x)

    def test_total_inverts_to_the_top(self):
        assert invert_monotone(self.g, self.g.partial_sums[-1]) == 0.5
        assert invert_monotone(self.g, 0.28125) == pytest.approx(0.25, rel=1e-15)

    @pytest.mark.parametrize("breakpoints", [
        [0.1, 0.5], [0.0, 0.5, 0.5], [0.0, 0.5, 0.25], [0.0], [0.0, np.nan],
        [[0.0, 0.5]],
        # an infinite one once gave numpy RuntimeWarnings, then an
        # EvaluationError at x=nan
        [0.0, 1.0, np.inf],
    ])
    def test_breakpoints_must_increase_from_zero(self, breakpoints):
        with pytest.raises(ParameterError):
            CumulativeIntegral(lambda t: 1.0 + t, breakpoints)

    def test_constructor_checks_the_breakpoints(self):
        # breakpoints from 0.25 once gave g(0.1) = -0.15, the last panel
        # integrated backwards
        with pytest.raises(ParameterError, match="increase from 0"):
            CumulativeIntegral(lambda t: 1.0 + 0.0 * t, np.array([0.25, 0.5, 1.0]))

    def test_sums_belong_to_the_integrand(self):
        # the sums were once a constructor argument, and replacing the
        # integrand kept the old integrand's sums
        e = layer_integral(get_scenario("eps-exp", 1e-3).coeffs, "e")
        doubled = dataclasses.replace(e, integrand=lambda t: 2 * e.integrand(t))
        assert np.array_equal(doubled.partial_sums, 2 * e.partial_sums)
        with pytest.raises(TypeError):
            CumulativeIntegral(e.integrand, e.breakpoints, partial_sums=e.partial_sums)


_positive = st.floats(1e-300, 1e300)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(ends=st.tuples(_positive, _positive).map(sorted),
       num=st.one_of(st.just(1), st.integers(1, 5000)))
def test_graded_is_zero_then_geomspace(ends, num):
    # num = 1 is only ever asked for with start = stop, the one-panel grid
    start, stop = ends
    if num == 1:
        start = stop
    want = np.concatenate(([0.0], np.geomspace(start, stop, num)))
    assert _graded(start, stop, num).tobytes() == want.tobytes()


def old_call(g, x):
    """CumulativeIntegral.__call__ as it was before its range check read the
    min and max and its clips were dropped where they cannot act."""
    xa = np.asarray(x, dtype=float)
    xq = xa.ravel()
    if not np.all((xq >= -1e-12) & (xq <= 1.0 + 1e-12)):  # NaN fails too
        raise ParameterError("cumulative integral is only defined on [0, 1]")
    xq = np.clip(xq, 0.0, 1.0)
    idx = np.searchsorted(g.breakpoints, xq, side="right") - 1
    idx = np.clip(idx, 0, len(g.breakpoints) - 2)
    out = g.partial_sums[idx] + _panel_sums(g.integrand, g.breakpoints[idx], xq)
    return float(out[0]) if xa.ndim == 0 else out.reshape(xa.shape)


_E_EXP = layer_integral(get_scenario("eps-exp", 1e-3).coeffs, "e")


@settings(derandomize=True, max_examples=300, deadline=None)
@given(x=hnp.arrays(
    np.float64, st.sampled_from([(), (7,), (3, 7), (0,), (0, 3)]),
    elements=st.one_of(
        st.floats(-1e-12, 1.0 + 1e-12),
        st.sampled_from([0.0, 1.0, -1e-12, 1.0 + 1e-12]),
        st.integers(0, len(_E_EXP.breakpoints) - 1).map(
            lambda k: float(_E_EXP.breakpoints[k])),
    )))
def test_e_matches_the_old_call_bit_for_bit(x):
    got, want = _E_EXP(x), old_call(_E_EXP, x)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want) == x.shape
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


# closed forms of e(x) = int_0^x dt / eps(t), written out independently of
# the diffusion-family table problem._FAMILIES
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


@pytest.mark.parametrize("name", sorted(_CLOSED_FORM_E))
@pytest.mark.parametrize("eps0", [1e-2, 1e-4, 1e-7, 1e-12])
def test_five_point_rule_gives_e_to_roundoff(name, eps0):
    # every breakpoint panel spans 0.68 % of its distance from 0, so one
    # 5-point Gauss panel resolves 1/eps of every built-in family
    e = layer_integral(get_scenario(name, eps0).coeffs, "e")
    bp = e.breakpoints
    x = np.concatenate((bp, 0.5 * (bp[:-1] + bp[1:]),
                        np.random.default_rng(3).uniform(0.0, 1.0, 40000)))
    want = _CLOSED_FORM_E[name](x, eps0)
    assert np.all(np.abs(e(x) - want) <= 1e-14 * np.abs(want))


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
        with pytest.raises(ParameterError):
            invert_monotone(e, e(1.0) + 1.0)

    def test_nan_target_is_out_of_range(self):
        e = layer_integral(get_scenario("eps-const", 0.01).coeffs, "e")
        with pytest.raises(ParameterError):
            invert_monotone(e, math.nan)

    def test_target_at_zero(self):
        e = layer_integral(get_scenario("eps-const", 0.01).coeffs, "e")
        assert invert_monotone(e, e(0.0)) == 0.0

    def test_newton_step_leaving_the_bracket_bisects(self):
        # one panel of exp(5 t): from the chord's iterate x = 1/2 Newton
        # steps to 1.53, past the panel, so the bracket is bisected instead
        g = CumulativeIntegral(lambda t: np.exp(5.0 * t), np.array([0.0, 1.0]))
        target = 0.5 * g.partial_sums[-1]
        x = invert_monotone(g, target)
        assert 0.5 < x < 1.0
        assert abs(g(x) - target) <= 4 * np.finfo(float).eps * target

    def test_jump_inside_a_panel_fails_to_converge(self):
        # g(x) = _G5 on [0, x] jumps from 0.52 to 0.59 where its last Gauss
        # point crosses the jump at 1/2, so no x gives 0.55
        g = CumulativeIntegral(lambda t: np.where(t < 0.5, 1.0, 2.0),
                               np.array([0.0, 1.0]))
        with pytest.raises(ConvergenceError, match="residual above tolerance"):
            invert_monotone(g, 0.55)

    def test_round_trip(self):
        e = layer_integral(get_scenario("eps-exp", 0.01).coeffs, "e")
        rng = np.random.default_rng(11)
        tol = 1e-12
        for x in rng.uniform(0.01, 0.99, 20):
            target = e(x)
            root = invert_monotone(e, target)
            assert abs(e(root) - target) <= 10 * tol * max(1.0, abs(target))


def newton_invert(g, target):
    """invert_monotone's bracketed Newton iteration without its range checks
    and end cases, written out again: every iterate through g's own
    __call__."""
    k = min(int(np.searchsorted(g.partial_sums, target, side="right")) - 1,
            len(g.breakpoints) - 2)
    a, b = g.breakpoints[k], g.breakpoints[k + 1]
    g_a, g_b = g.partial_sums[k], g.partial_sums[k + 1]
    x = min(b, a + (b - a) * (target - g_a) / (g_b - g_a))
    r = g(x) - target
    while abs(r) > 4 * np.finfo(float).eps * abs(target):
        a, b = (a, x) if r > 0 else (x, b)
        slope = float(g.integrand(x))
        step = x - r / slope if slope > 0 else a
        if not a < step < b:
            step = 0.5 * (a + b)
            if not a < step < b:
                break
        x = step
        r = g(x) - target
    return float(x)


class TestInversionOnItsPanel:
    @pytest.mark.parametrize("name", ["eps-const", "eps-linear", "eps-exp"])
    @pytest.mark.parametrize("eps0", [1e-2, 1e-4, 1e-7, 1e-12])
    @pytest.mark.parametrize("h", [1.0 / 16, 1.0 / 4096, 1.0 / 32768])
    def test_tau_star_matches_newton_through_e(self, name, eps0, h):
        coeffs = get_scenario(name, eps0).coeffs
        e = layer_integral(coeffs, "e")
        target = -2.0 * math.log(h) / coeffs.beta
        assert compute_tau_star(coeffs, e, h) == newton_invert(e, target)


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
