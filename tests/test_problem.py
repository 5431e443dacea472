import mpmath
import numpy as np
import pytest
import sympy as sp

from layerfem.errors import ConfigurationError, ParameterError
from layerfem.problem import (
    BoundCheckReport,
    CoefficientSet,
    ScalarFunction,
    builtin_scenarios,
    get_scenario,
    manufactured_rhs,
    validate_coefficients,
)


def make_coeffs(eps=None, b=None, c=None, f=None, beta=1.0, gamma=1.0,
                eps_lower=0.01, eps_upper=0.01, sigma=0.0):
    return CoefficientSet(
        eps=eps or ScalarFunction.constant(0.01),
        b=b or ScalarFunction.constant(2.0),
        c=c or ScalarFunction.constant(1.0),
        f=f or ScalarFunction.constant(1.0),
        beta=beta, gamma=gamma,
        eps_lower=eps_lower, eps_upper=eps_upper, sigma=sigma,
    )


def check_by_name(reports, name):
    for chk in reports:
        if chk.name == name:
            return chk
    raise AssertionError(f"no check named {name!r}")


class TestValidateCoefficients:
    def test_constant_coefficients_all_pass(self):
        rep = validate_coefficients(make_coeffs())
        assert all(chk.passed for chk in rep)
        assert check_by_name(rep, "b > beta").worst_margin == pytest.approx(1.0)

    def test_convection_below_beta_fails(self):
        rep = validate_coefficients(make_coeffs(b=ScalarFunction.constant(0.5)))
        chk = check_by_name(rep, "b > beta")
        assert not chk.passed
        assert chk.worst_margin == pytest.approx(-0.5)

    def test_coercivity_margin_zero(self):
        # c = 0, b = 2 + x so c + b'/2 = 0.5 exactly matches gamma
        eps = ScalarFunction(
            value=lambda x: 0.01 * (1 + np.asarray(x, float)),
            deriv=lambda x: np.full_like(np.asarray(x, float), 0.01),
        )
        b = ScalarFunction(
            value=lambda x: 2.0 + np.asarray(x, float),
            deriv=lambda x: np.ones_like(np.asarray(x, float)),
        )
        coeffs = make_coeffs(eps=eps, b=b, c=ScalarFunction.constant(0.0),
                             gamma=0.5, eps_lower=0.01, eps_upper=0.02,
                             sigma=0.01)
        rep = validate_coefficients(coeffs)
        assert all(chk.passed for chk in rep)
        assert check_by_name(rep, "c + b'/2 >= gamma").worst_margin == pytest.approx(0.0, abs=1e-14)

    def test_nonfinite_coefficient_reported(self):
        bad = ScalarFunction(
            value=lambda x: np.where(np.asarray(x, float) > 0.5, np.nan, 1.0),
            deriv=lambda x: np.zeros_like(np.asarray(x, float)),
        )
        rep = validate_coefficients(make_coeffs(c=bad))
        assert not all(chk.passed for chk in rep)
        assert not check_by_name(rep, "finite values").passed

    def test_scalar_returning_coefficient_is_broadcast(self):
        # a c that returns a float, not an array, once raised numpy's
        # ValueError for an inhomogeneous shape
        c = ScalarFunction(lambda x: 1.0, deriv=lambda x: 0.0)
        assert (validate_coefficients(make_coeffs(c=c))
                == validate_coefficients(make_coeffs(c=ScalarFunction.constant(1.0))))

    def test_sigma_mismatch_flagged(self):
        rep = validate_coefficients(make_coeffs(sigma=0.1))
        assert not check_by_name(rep, "sigma matches min eps'").passed

    def test_one_report_per_assumption(self):
        rep = validate_coefficients(make_coeffs())
        assert [chk.name for chk in rep] == [
            "finite values", "beta > 0", "b > beta", "eps_lower > 0",
            "eps >= eps_lower", "eps <= eps_upper", "c >= 0",
            "c + b'/2 >= gamma", "gamma > 0", "sigma matches min eps'",
            "sigma > -beta"]
        assert all(type(chk) is BoundCheckReport for chk in rep)
        # sampled checks count the grid, checks of one constant count 1
        assert check_by_name(rep, "b > beta").sample_count == 10001
        assert check_by_name(rep, "beta > 0").sample_count == 1

    def test_nonfinite_values_end_the_checks(self):
        bad = ScalarFunction(
            value=lambda x: np.where(np.asarray(x, float) >= 0.25, np.inf, 1.0),
            deriv=lambda x: np.zeros_like(np.asarray(x, float)),
        )
        (chk,) = validate_coefficients(make_coeffs(b=bad))
        assert chk.name == "finite values" and not chk.passed
        assert chk.worst_margin == -np.inf and chk.worst_point == 0.25


class TestManufacturedRhs:
    def test_polynomial(self):
        # u = x(1-x), eps = 1, b = 1, c = 0  =>  f = 2 - (1 - 2x) = 1 + 2x
        u = ScalarFunction(
            value=lambda x: np.asarray(x, float) * (1 - np.asarray(x, float)),
            deriv=lambda x: 1 - 2 * np.asarray(x, float),
            deriv2=lambda x: np.full_like(np.asarray(x, float), -2.0),
        )
        coeffs = make_coeffs(eps=ScalarFunction.constant(1.0),
                             b=ScalarFunction.constant(1.0),
                             c=ScalarFunction.constant(0.0),
                             eps_lower=1.0, eps_upper=1.0)
        f = manufactured_rhs(u, coeffs)
        xs = np.linspace(0, 1, 11)
        assert f(xs) == pytest.approx(1 + 2 * xs, abs=1e-14)

    def test_zero_solution(self):
        u = ScalarFunction.constant(0.0)
        f = manufactured_rhs(u, make_coeffs())
        assert f(np.linspace(0, 1, 7)) == pytest.approx(0.0, abs=1e-15)

    def test_sine_matches_closed_form_at_half(self):
        # u = sin(pi x), eps = 0.01 (1 + x), b = 2, c = 1.  At x = 0.5:
        # u = 1, u' = 0, u'' = -pi^2, so f = 0.015 pi^2 + 1.
        u = ScalarFunction(
            value=lambda x: np.sin(np.pi * np.asarray(x, float)),
            deriv=lambda x: np.pi * np.cos(np.pi * np.asarray(x, float)),
            deriv2=lambda x: -np.pi ** 2 * np.sin(np.pi * np.asarray(x, float)),
        )
        eps = ScalarFunction(
            value=lambda x: 0.01 * (1 + np.asarray(x, float)),
            deriv=lambda x: np.full_like(np.asarray(x, float), 0.01),
        )
        coeffs = make_coeffs(eps=eps, eps_lower=0.01, eps_upper=0.02,
                             sigma=0.01)
        f = manufactured_rhs(u, coeffs)
        assert float(f(0.5)) == pytest.approx(0.015 * np.pi ** 2 + 1.0,
                                              rel=1e-12)

    def test_missing_second_derivative(self):
        u = ScalarFunction(value=lambda x: np.asarray(x, float),
                           deriv=lambda x: np.ones_like(np.asarray(x, float)))
        with pytest.raises(ConfigurationError):
            manufactured_rhs(u, make_coeffs())

    def test_eps_without_derivative(self):
        eps = ScalarFunction(value=lambda x: np.full_like(np.asarray(x, float), 0.01))
        with pytest.raises(ConfigurationError, match="eps with a first derivative"):
            manufactured_rhs(ScalarFunction.constant(0.0), make_coeffs(eps=eps))


@pytest.mark.parametrize("method, message", [("d", "first"), ("d2", "second")])
def test_missing_derivative_is_configuration_error(method, message):
    f = ScalarFunction(value=lambda x: np.asarray(x, float))
    with pytest.raises(ConfigurationError,
                       match=f"^{message} derivative not available$"):
        getattr(f, method)(0.5)


# eps of each diffusion family, written out independently of problem._FAMILIES
_SYMBOLIC_EPS = {
    "eps-const": lambda x, eps0: eps0,
    "eps-linear": lambda x, eps0: eps0 * (1 + x),
    "eps-exp": lambda x, eps0: eps0 * sp.exp(x),
}


class TestBuiltinScenarios:
    def test_constant_scenario_values(self):
        sc = get_scenario("eps-const", 0.01)
        assert float(sc.coeffs.eps(0.5)) == pytest.approx(0.01)
        assert sc.coeffs.sigma == 0.0

    def test_linear_scenario_bounds(self):
        sc = get_scenario("eps-linear", 0.01)
        assert sc.coeffs.eps_upper == pytest.approx(0.02)
        assert sc.coeffs.sigma == pytest.approx(0.01)

    def test_all_scenarios_validate(self):
        for eps0 in (0.01, 1e-3, 1e-5):
            for sc in builtin_scenarios(eps0):
                rep = validate_coefficients(sc.coeffs)
                assert all(chk.passed for chk in rep), (
                    sc.name, eps0, [chk for chk in rep if not chk.passed])

    def test_eps0_out_of_range(self):
        with pytest.raises(ParameterError):
            builtin_scenarios(0.2)
        with pytest.raises(ParameterError):
            builtin_scenarios(0.0)
        # subnormal: 1/eps0 overflows
        for eps0 in (np.finfo(float).tiny / 2, 5e-324):
            with pytest.raises(ParameterError, match="subnormal"):
                builtin_scenarios(eps0)
        assert len(builtin_scenarios(np.finfo(float).tiny)) == 4

    def test_exact_boundary_values(self):
        sc = get_scenario("manufactured", 1e-3)
        assert abs(float(sc.exact(0.0))) <= 1e-12
        assert abs(float(sc.exact(1.0))) <= 1e-12

    def test_manufactured_rhs_against_sympy(self):
        # independent symbolic differentiation of the same closed-form u
        eps0 = 0.01
        sc = get_scenario("manufactured", eps0)
        x = sp.Symbol("x")
        e1 = sp.log(2) / eps0
        q = sp.exp(-e1)
        layer = (sp.exp(-sp.log(1 + x) / eps0) - q) / (1 - q)
        u = sp.cos(sp.pi * x / 2) - layer
        eps = eps0 * (1 + x)
        f_sym = -eps * sp.diff(u, x, 2) - (2 + sp.diff(eps, x)) * sp.diff(u, x) + u
        f_num = sp.lambdify(x, sp.simplify(f_sym), "numpy")
        rng = np.random.default_rng(7)
        xs = rng.uniform(0.0, 1.0, 200)
        expected = f_num(xs)
        got = sc.coeffs.f(xs)
        assert got == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("eps0", [10.0 ** -k for k in range(2, 13)])
    def test_manufactured_f_is_manufactured_rhs_bit_for_bit(self, eps0):
        # get_scenario's f is the generic formula on its exact solution u,
        # bit for bit: on 1-D and 2-D arrays (assembly samples a
        # (points, elements) block), on a scalar, and near x = 0, where the
        # layer terms are largest
        sc = get_scenario("manufactured", eps0)
        want = manufactured_rhs(sc.exact, sc.coeffs)
        rng = np.random.default_rng(5)
        xs = np.concatenate(([0.0, 1.0], np.geomspace(1e-14, 1.0, 299),
                             rng.uniform(0.0, 1.0, 299)))
        for x in (xs, xs.reshape(5, -1), xs[7:12], xs[9]):
            got = sc.coeffs.f(x)
            assert got.shape == x.shape
            assert np.array_equal(got, want(x))

    @pytest.mark.parametrize("eps0", [0.1, 0.01])
    @pytest.mark.parametrize("name", sorted(_SYMBOLIC_EPS))
    def test_family_against_sympy(self, name, eps0):
        # eps, eps' and the layer exemplar's E', E'' against sympy, with
        # E = (exp(-beta e) - q) / (1 - q) built from e = int_0^x dt / eps(t)
        # as sympy integrates it: the closed form of e enters E' and E''
        sc = get_scenario(name, eps0)
        x, t = sp.symbols("x t", nonnegative=True)
        eps_sym = _SYMBOLIC_EPS[name](x, sp.Rational(eps0))
        e_sym = sp.integrate(1 / eps_sym.subs(x, t), (t, 0, x))
        beta = sp.Rational(sc.coeffs.beta)
        q = sp.exp(-beta * e_sym.subs(x, 1))
        layer = (sp.exp(-beta * e_sym) - q) / (1 - q)
        xs = np.random.default_rng(11).uniform(0.0, 1.0, 25)
        pairs = [(sc.coeffs.eps, eps_sym), (sc.coeffs.eps.d, sp.diff(eps_sym, x)),
                 (sc.layer_exemplar.d, sp.diff(layer, x)),
                 (sc.layer_exemplar.d2, sp.diff(layer, x, 2))]
        for got_fn, expr in pairs:
            want_fn = sp.lambdify(x, expr, "mpmath")
            with mpmath.workdps(40):
                want = [float(want_fn(mpmath.mpf(float(xi)))) for xi in xs]
            np.testing.assert_allclose(got_fn(xs), want, rtol=1e-12, atol=0.0,
                                       err_msg=f"{name} {expr}")

    def test_layer_exemplar_bound_family(self):
        # sup |E^(k)| eps^k exp(beta e) stays below 10 for k = 0, 1
        for eps0 in (0.01, 0.05):
            for sc in builtin_scenarios(eps0):
                lay = sc.layer_exemplar
                coeffs = sc.coeffs
                from layerfem.calculus import layer_integral
                e = layer_integral(coeffs, "e")
                xs = np.linspace(0, 1, 501)
                grow = np.exp(coeffs.beta * e(xs))
                w0 = np.abs(lay(xs)) * grow
                w1 = np.abs(lay.d(xs)) * coeffs.eps(xs) * grow
                assert np.max(w0) <= 10.0
                assert np.max(w1) <= 10.0

    def test_layer_exemplar_endpoints(self):
        for sc in builtin_scenarios(1e-3):
            assert float(sc.layer_exemplar(0.0)) == pytest.approx(1.0)
            assert abs(float(sc.layer_exemplar(1.0))) <= 1e-12

    def test_unknown_name(self):
        with pytest.raises(ParameterError):
            get_scenario("nope", 0.01)
