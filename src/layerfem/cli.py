"""Command-line front end: meshes, solves, convergence tables, verification.

Exit codes: 0 success, 1 failed verification or other LayerFemError, 2 usage
error (a ParameterError, including unparsable numbers and an --output file
that cannot be opened), 3 degenerate mesh regime.  Any other exception is a bug and propagates with its traceback.
Each command returns its rows (mesh and solve a lazy zip, consumed once by
_emit; formatting cannot raise), and --output is opened only after it
returns, so a command that fails leaves an existing file as it was.
CSV output uses ',' separators, '.' decimal points, LF line endings and a
mandatory header; numbers carry 17 significant digits.
"""

import argparse
import contextlib
import functools
import json
import sys

import numpy as np

from . import __version__
from .analysis import convergence_study, interpolation_study
from .calculus import _finite_eval, layer_integral
from .errors import DegenerateRegimeError, LayerFemError, ParameterError
from .fem import galerkin_solve
from .mesh import build_mesh
from .problem import SCENARIO_NAMES, builtin_scenarios, get_scenario
from .verify import (
    _UNIFORMITY_EPS0,
    check_barrier_operator,
    check_bound_uniformity,
    check_integral_lemma_random,
)

_FMT = "%.17g"


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParameterError(f"not a number: {text!r}") from None


def parse_h(text: str) -> float:
    """Accept decimals and fractions like '1/64'."""
    if "/" in text:
        num, den = text.split("/", 1)
        try:
            h = _parse_float(num) / _parse_float(den)
        except ZeroDivisionError:
            raise ParameterError(f"h has a zero denominator: {text!r}") from None
    else:
        h = _parse_float(text)
    if not (0.0 < h < 1.0):
        raise ParameterError(f"h must lie in (0, 1), got {text!r}")
    return h


def _parse_list(text: str, parse=_parse_float):
    values = [parse(tok) for tok in text.split(",") if tok]
    if not values:
        raise ParameterError(f"expected a comma-separated list, got {text!r}")
    return values


def _cell(v, num_fmt) -> str:
    """A pretty cell, or the text a CSV cell gets: numbers in num_fmt, None
    (no value) empty."""
    if v is None:
        return ""
    return num_fmt % float(v) if isinstance(v, (int, float, np.floating)) else str(v)


@functools.lru_cache(maxsize=None)
def _csv_line(kinds):
    """The %-format of a CSV line whose cells have these types, giving each
    cell its _cell text: numbers in _FMT and anything else by str."""
    return ",".join(_FMT if issubclass(k, (int, float, np.floating)) else "%s"
                    for k in kinds) + "\n"


def _emit(rows, header, fmt, meta, out):
    if fmt == "csv":
        out.write(",".join(header) + "\n")
        for row in rows:
            if None in row:  # no value: an empty cell
                row = tuple("" if v is None else v for v in row)
            out.write(_csv_line(tuple(map(type, row))) % row)
    elif fmt == "json":
        payload = {
            "meta": meta,
            "rows": [dict(zip(header, row)) for row in rows],
        }
        out.write(json.dumps(payload, allow_nan=True))
        out.write("\n")
    else:  # pretty: each column as wide as its longest cell, at least 12
        lines = [header] + [[_cell(v, "%.6g") for v in row] for row in rows]
        widths = [max(12, *map(len, column)) for column in zip(*lines)]
        for cells in lines:
            out.write("  ".join(c.ljust(w) for c, w in zip(cells, widths)) + "\n")


def _meta(args):
    meta = {"version": __version__, "subcommand": args.command}
    for key in ("scenario", "eps0", "h", "format", "seed", "suite"):
        if hasattr(args, key):
            meta[key] = getattr(args, key)
    return meta


def cmd_mesh(args):
    scenario = get_scenario(args.scenario, _parse_float(args.eps0))
    e = layer_integral(scenario.coeffs, "e")
    msh = build_mesh(scenario.coeffs, e, parse_h(args.h))
    rows = zip(range(msh.node_count), msh.nodes.tolist(), msh.regions().tolist())
    return rows, ["index", "x", "region"], 0


def cmd_solve(args):
    scenario = get_scenario(args.scenario, _parse_float(args.eps0))
    e = layer_integral(scenario.coeffs, "e")
    msh = build_mesh(scenario.coeffs, e, parse_h(args.h))
    sol = galerkin_solve(scenario, msh)
    header = ["x", "u_h"]
    columns = [msh.nodes, sol.coefficients]
    if args.exact:
        if scenario.exact is None:
            raise ParameterError(
                f"scenario {scenario.name!r} has no closed-form solution")
        header.append("exact")
        columns.append(_finite_eval(scenario.exact, msh.nodes, "exact"))
    rows = zip(*(c.tolist() for c in columns))
    return rows, header, 0


def cmd_converge(args):
    eps0_list = _parse_list(args.eps0)
    h_list = _parse_list(args.h, parse_h)
    family = lambda eps0: get_scenario(args.scenario, eps0)
    study = convergence_study(family, h_list, eps0_list)
    rows = [
        (r.eps0, r.h, r.node_count, r.energy_error, r.l2_error, r.rate)
        for r in study if r.skipped_reason is None
    ]
    for r in study:
        if r.skipped_reason is not None:
            sys.stderr.write(f"skipped eps0={r.eps0} h={r.h}: {r.skipped_reason}\n")
    return rows, ["eps0", "h", "nodes", "energy_err", "l2_err", "rate"], 0


def cmd_interp(args):
    scenario = get_scenario(args.scenario, _parse_float(args.eps0))
    h_list = _parse_list(args.h, parse_h)
    rows_raw = interpolation_study(scenario, h_list)
    rows = [
        (r.h, r.node_count, r.smooth_l2, r.smooth_h1, r.layer_l2_coarse,
         r.layer_max_coarse, r.layer_wl2_fine, r.layer_wh1_fine)
        for r in rows_raw
    ]
    return rows, ["h", "nodes", "smooth_l2", "smooth_h1", "layer_l2_coarse",
                  "layer_max_coarse", "layer_wl2_fine", "layer_wh1_fine"], 0


def _verify_reports(suite: str, seed: int, eps0: float):
    if seed < 0:
        raise ParameterError(f"--seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    # one layer integral per scenario, shared by the lemma and barrier suites
    pairs = [] if suite == "bounds" else [
        (sc, layer_integral(sc.coeffs, "e")) for sc in builtin_scenarios(eps0)]
    reports = []
    if suite in ("lemmas", "all"):
        reports += [check_integral_lemma_random(sc, 100, rng, e=e) for sc, e in pairs]
    if suite in ("barriers", "all"):
        reports += [check_barrier_operator(sc.coeffs, e, label=sc.name)
                    for sc, e in pairs]
    if suite in ("bounds", "all"):
        for name in SCENARIO_NAMES:
            family = lambda z, name=name: get_scenario(name, z)
            reports += check_bound_uniformity(family, ("U0", "U1"))
    return reports


def cmd_verify(args):
    reports = _verify_reports(args.suite, args.seed, _parse_float(args.eps0))
    rows = [(r.name, r.worst_margin, r.worst_point,
             "PASS" if r.passed else "FAIL") for r in reports]
    return (rows, ["name", "worst_margin", "worst_point", "status"],
            0 if all(r.passed for r in reports) else 1)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="layerfem", allow_abbrev=False,
        description="Layer-adapted FEM for 1-D convection-diffusion with "
                    "variable small diffusion")
    sub = p.add_subparsers(dest="command", required=True)

    def subcommand(name, func, help_, h_default=None, eps0_help="diffusion scale eps0"):
        sp = sub.add_parser(name, help=help_, allow_abbrev=False)
        sp.set_defaults(func=func)
        if h_default is not None:  # the subcommands that build meshes
            sp.add_argument("--scenario", default="manufactured",
                            choices=SCENARIO_NAMES)
            sp.add_argument("--h", default=h_default,
                            help="mesh parameter(s); decimals or fractions like 1/64")
        sp.add_argument("--eps0", default="0.01", help=eps0_help)
        sp.add_argument("--format", default="csv",
                        choices=("csv", "json", "pretty"))
        sp.add_argument("--output", default=None)
        return sp

    subcommand("mesh", cmd_mesh, "emit mesh nodes", "0.1")
    subcommand("solve", cmd_solve, "solve and emit nodal values", "0.1").add_argument(
        "--exact", action="store_true", help="include the exact solution column")
    subcommand("converge", cmd_converge, "convergence table", "1/8,1/16,1/32,1/64",
               eps0_help="diffusion scale eps0, or comma list")
    subcommand("interp", cmd_interp, "interpolation-error table", "1/16,1/32,1/64,1/128")
    vp = subcommand("verify", cmd_verify, "run a verification suite",
                    eps0_help="diffusion scale eps0 of the lemma and barrier "
                              "suites; the bounds suite ignores it and sweeps "
                              + ", ".join(f"{z:g}" for z in _UNIFORMITY_EPS0))
    vp.add_argument("--suite", default="all",
                    choices=("lemmas", "barriers", "bounds", "all"))
    vp.add_argument("--seed", type=int, default=12345,
                    help="seed of the randomized integral-lemma instances")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        rows, header, code = args.func(args)
        try:
            out = (open(args.output, "w", newline="") if args.output
                   else contextlib.nullcontext(sys.stdout))
        except OSError as exc:
            raise ParameterError(f"cannot open --output: {exc}") from exc
        with out as fh:
            _emit(rows, header, args.format, _meta(args), fh)
        return code
    except DegenerateRegimeError as exc:
        sys.stderr.write(f"degenerate regime: {exc}\n")
        return 3
    except ParameterError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except LayerFemError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
