import ast
import dataclasses
import functools
import glob
import json
import math
import os
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import layerfem
from layerfem import errors


def test_all_names_resolve_and_none_is_a_module():
    assert len(set(layerfem.__all__)) == len(layerfem.__all__)
    for name in layerfem.__all__:
        obj = getattr(layerfem, name)
        assert not isinstance(obj, types.ModuleType), name


def test_public_names_are_pinned():
    # adding or dropping a public name shows in this list
    assert sorted(layerfem.__all__) == [
        "BoundCheckReport", "CoefficientSet", "CumulativeIntegral",
        "ErrorReport", "FemSolution", "LayerMesh", "QuadratureRule",
        "ScalarFunction", "Scenario", "TridiagonalSystem", "assemble",
        "bilinear_form", "build_mesh", "builtin_scenarios",
        "check_barrier_operator", "check_bound_uniformity",
        "check_integral_lemma", "check_integral_lemma_random",
        "check_solution_bounds", "compute_tau_star", "convergence_study",
        "energy_norm", "error_report", "galerkin_solve", "gauss_legendre",
        "get_scenario", "integrate", "interpolate", "interpolation_study",
        "invert_monotone", "layer_integral", "manufactured_rhs",
        "predict_cardinality", "reference_solution", "solve_tridiagonal",
        "validate_coefficients",
    ]


def test_one_check_report_type():
    # assumption checks and bound checks report through the same class
    from layerfem import problem, verify
    assert layerfem.BoundCheckReport is problem.BoundCheckReport
    assert verify.BoundCheckReport is problem.BoundCheckReport


def _src_trees():
    """(module name, parsed tree) of each module of the package."""
    pattern = os.path.join(os.path.dirname(layerfem.__file__), "*.py")
    for path in sorted(glob.glob(pattern)):
        with open(path) as fh:
            yield os.path.basename(path)[:-3], ast.parse(fh.read())


def test_every_imported_name_is_read():
    # no linter runs on src/, so an import that nothing reads shows here
    unread = []
    for module, tree in _src_trees():
        if module == "__init__":
            continue
        imported = {alias.asname or alias.name.split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{module}: {name}" for name in sorted(imported - read)]
    assert unread == []


def _raised(node, where):
    """(where, function, class name) of each raise under node; function is
    the innermost def around it, or where[1] if there is none."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _raised(child, (where[0], child.name))
            continue
        if isinstance(child, ast.Raise):
            exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            yield where + (exc.id if isinstance(exc, ast.Name) else None,)
        yield from _raised(child, where)


def test_every_raise_names_a_library_error():
    # the CLI maps each class of layerfem.errors to an exit code, so a raise
    # of any other class (a bare re-raise included) is an error that escapes
    # that map; only the two raises that leave the library are exempt.  A
    # class that nothing raises is dead, and fails here too
    library = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, errors.LayerFemError)}
    raises = [r for module, tree in _src_trees()
              for r in _raised(tree, (module, "<module>"))]
    assert [r for r in raises if r[2] not in library] == [
        ("cli", "<module>", "SystemExit"), ("fem", "_flapack", "ImportError")]
    assert {r[2] for r in raises} & library == library - {"LayerFemError"}


def test_records_holding_arrays_compare_by_identity():
    # a generated __eq__ compared their numpy fields inside a tuple and raised
    # numpy's "truth value ... is ambiguous" ValueError; hash raised TypeError
    sc = layerfem.get_scenario("eps-exp", 1e-3)
    e = layerfem.layer_integral(sc.coeffs, "e")
    mesh = layerfem.build_mesh(sc.coeffs, e, 1.0 / 16)
    sol = layerfem.galerkin_solve(sc, mesh)
    system = layerfem.assemble(sc, mesh)
    rule = layerfem.gauss_legendre(5)
    copies = {  # the dict hashes each record
        e: dataclasses.replace(e),
        mesh: dataclasses.replace(mesh, nodes=mesh.nodes.copy()),
        sol: dataclasses.replace(sol, coefficients=sol.coefficients.copy()),
        system: dataclasses.replace(system, rhs=system.rhs.copy()),
        rule: dataclasses.replace(rule, points=rule.points.copy()),
    }
    for record, copy in copies.items():
        assert record == record
        assert record != copy
        assert isinstance(hash(copy), int)


def _run(code):
    """The last stdout line of code run in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(layerfem.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip().splitlines()[-1]


def _scipy_modules_after(code):
    """The scipy modules that a fresh interpreter holds after running code."""
    return json.loads(_run(code + (
        "\nimport json, sys; print(json.dumps(sorted("
        "m for m in sys.modules if m.split('.')[0] == 'scipy')))")))


def test_cli_import_loads_no_scipy():
    assert _scipy_modules_after("import layerfem.cli") == []


@pytest.mark.parametrize("argv", [
    ["mesh", "--h", "1/64"], ["interp"],
    ["verify", "--suite", "lemmas"], ["verify", "--suite", "barriers"]])
def test_commands_that_never_solve_load_no_scipy(argv):
    code = f"from layerfem import cli; assert cli.main({argv!r}) == 0"
    assert _scipy_modules_after(code) == []


def test_solve_loads_lapack_without_scipy_linalg():
    # the first tridiagonal solve loads the one extension module that holds
    # dgtsv, not the scipy.linalg package around it
    code = "from layerfem import cli; assert cli.main(['solve', '--h', '1/64']) == 0"
    loaded = _scipy_modules_after(code)
    assert "scipy.linalg._flapack" in loaded
    assert "scipy.linalg" not in loaded
    assert "scipy.optimize" not in loaded


_SOLVE = """
import numpy as np
from layerfem import fem
system = fem.TridiagonalSystem(sub=np.full(7, -1.0), diag=np.full(8, 2.5),
                               sup=np.full(7, -0.5), rhs=np.arange(8.0))
"""


def test_scipy_linalg_imported_after_a_solve_shares_its_dgtsv():
    code = _SOLVE + """
first = fem.solve_tridiagonal(system)
import scipy.linalg
second = fem.solve_tridiagonal(system)
print(scipy.linalg.lapack.dgtsv is fem._flapack().dgtsv,
      first.tobytes() == second.tobytes())
"""
    assert _run(code) == "True True"


def test_solve_after_scipy_linalg_reuses_its_lapack_module():
    code = _SOLVE + """
import sys
import scipy.linalg
before = set(sys.modules)
fem.solve_tridiagonal(system)
print(fem._flapack() is scipy.linalg.lapack._flapack,
      sorted(set(sys.modules) - before))
"""
    assert _run(code) == "True []"


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
# eps >= eps_lower > 0: a sample of eps must be finite and positive
_BAD_EPS = st.one_of(_NON_FINITE, st.floats(max_value=0.0))
# each call and input, and its bad values: NaN, +-inf, a finite value out
# of range, or a count of nodal values off the mesh's by that many
_BAD_VALUES = {
    "build_mesh h": st.one_of(_NON_FINITE, st.floats(max_value=0.0),
                              st.floats(min_value=1.0)),
    "layer_integral e": st.one_of(_NON_FINITE, st.floats(max_value=0.0)),
    "layer_integral etilde": st.one_of(_NON_FINITE, st.floats(max_value=0.0)),
    "integrate a": st.one_of(_NON_FINITE,
                             st.floats(min_value=0.75, exclude_min=True)),
    "integrate b": st.one_of(_NON_FINITE,
                             st.floats(max_value=0.25, exclude_max=True)),
    "assemble b": _NON_FINITE,
    "assemble c": _NON_FINITE,
    "assemble f": _NON_FINITE,
    "assemble eps": _BAD_EPS,
    "bilinear_form eps": _BAD_EPS,
    "energy_norm eps": _BAD_EPS,
    "check_barrier_operator eps": _BAD_EPS,
    "error_report eps": _BAD_EPS,
    "error_report solution": _NON_FINITE,
    "error_report reference": _NON_FINITE,
    "error_report length": st.sampled_from([-2, -1, 1, 2]),
}


@functools.lru_cache(maxsize=None)
def _solved():
    """manufactured at eps0 = 1e-4: its layer integral e, and solves at
    h = 1/16 and at the reference's h = 1/256."""
    sc = layerfem.get_scenario("manufactured", 1e-4)
    e = layerfem.layer_integral(sc.coeffs, "e")
    sol, ref = (layerfem.galerkin_solve(sc, layerfem.build_mesh(sc.coeffs, e, h))
                for h in (1.0 / 16, 1.0 / 256))
    return sc, e, sol, ref


def _spoiled(fn, value, at):
    """A ScalarFunction sampling fn, whose sample at flat index at (modulo
    the sample count) is value, unless value is None; it has no const, so
    assembly samples it."""
    def sample(x):
        y = np.broadcast_to(fn(x), np.shape(x)).astype(float)
        if value is not None:
            y.flat[at % y.size] = value
        return y
    return layerfem.ScalarFunction(value=sample)


def _call(label, value, at):
    """The call that label names, with value as the input it names (at picks
    one sample or coefficient); None leaves that input valid."""
    call, what = label.split()
    sc, e, sol, ref = _solved()
    co = sc.coeffs
    if call == "build_mesh":
        layerfem.build_mesh(co, e, 1.0 / 16 if value is None else value)
    elif call == "layer_integral":
        layerfem.layer_integral(
            dataclasses.replace(co, eps=_spoiled(co.eps, value, at)), what)
    elif call == "integrate":
        limits = {"a": 0.25, "b": 0.75}
        if value is not None:
            limits[what] = value
        layerfem.integrate(np.cos, limits["a"], limits["b"])
    elif what == "eps" or call == "assemble":
        spoiled = dataclasses.replace(
            co, **{what: _spoiled(getattr(co, what), value, at)})
        bad = dataclasses.replace(sc, coeffs=spoiled)
        if call == "assemble":
            layerfem.assemble(bad, sol.mesh)
        elif call == "bilinear_form":
            layerfem.bilinear_form(sol, sol, bad)
        elif call == "energy_norm":  # of the solve, or of the closed form
            layerfem.energy_norm(sol if at % 2 else sc.exact, spoiled)
        elif call == "check_barrier_operator":
            layerfem.check_barrier_operator(spoiled, e)
        else:
            layerfem.error_report(sol, bad)
    elif what == "length":
        n = len(sol.coefficients) + (value or 0)
        layerfem.error_report(
            layerfem.FemSolution(sol.mesh, np.resize(sol.coefficients, n)), sc)
    else:  # error_report against the closed form, or with a spoiled reference
        v = sol if what == "solution" else ref
        coef = v.coefficients.copy()
        if value is not None:
            coef[at % len(coef)] = value
        v = layerfem.FemSolution(v.mesh, coef)
        if what == "solution":
            layerfem.error_report(v, sc)
        else:
            layerfem.error_report(sol, sc, reference=v)


@pytest.mark.parametrize("label", _BAD_VALUES)
def test_valid_inputs_pass_the_contract_calls(label):
    # so that the refusals below come from the bad value alone
    for at in (12344, 12345):
        _call(label, None, at)


@settings(derandomize=True, max_examples=240, deadline=None)
@given(case=st.one_of(st.tuples(st.just(label), values)
                      for label, values in _BAD_VALUES.items()),
       at=st.integers(0, 10**6))
def test_bad_input_raises_a_library_error(case, at):
    # the library's error contract: one NaN, infinite or out-of-range input
    # to a call is refused as a LayerFemError, never returned as a NaN or
    # raised as a bare numpy or Python error
    with pytest.raises(errors.LayerFemError):
        _call(*case, at)
