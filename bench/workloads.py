"""The three benchmark workloads: inputs from a seed, ops, correctness gates.

Every op calls a public entry point (`layerfem.cli.main` or a module
function), looked up on its module at call time so that traced runs see
it.  `run` is the timed part of an op; `check` is its correctness gate and
runs outside the timed region.  A pass is the workload's fixed work, the
same ops every time; `pass_ops()` lists them.

Tolerances follow the contracts of the code under test, not the roundoff
seen today, so that a pivoting LAPACK solve or a vectorised quadrature with
the same contract still passes:

* nodal values are O(1) and `solve_tridiagonal` accepts a relative
  residual of 1e-10, so max |u_h - exact| may move by 1e-10;
* energy errors are sums of element quadratures of solve outputs; 1e-8
  relative leaves two orders of headroom over the solver contract;
* lemma margins carry the lemma's own 1e-8 slack (`check_integral_lemma`
  passes iff lhs <= rhs (1 + 1e-8));
* barrier margins are exp(-beta e(x)) products; `e` is a fixed Gauss
  rule accurate to ~1e-14, so 1e-6 relative is far above any legitimate
  change.
"""

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import layerfem
from layerfem import calculus, cli, problem, verify
from layerfem.problem import SCENARIO_NAMES

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

# large-solve: the seed picks eps0 from these; h is fixed.
LARGE_EPS0 = (1e-4, 1e-5, 1e-6, 1e-7, 1e-8)
LARGE_H = "1/32768"
SOLVE_TOL = 1e-10

# sweep: eps0 drawn log-uniformly from a half-decade grid on [1e-12, 1e-2].
SWEEP_GRID = tuple(10.0 ** (-k / 2) for k in range(4, 25))
SWEEP_EPS0_PER_PASS = 4
SWEEP_H = "1/16,1/32,1/64,1/128,1/256"
ENERGY_RTOL = 1e-8
RATE_ATOL = 1e-9

# lemmas: instance j of a scenario is check_integral_lemma_random(sc, 1,
# default_rng([LEMMA_KEY, j])); the recorded pool holds LEMMA_POOL per scenario
# and the seed picks LEMMA_PER_PASS of them.
LEMMA_EPS0 = 0.01
LEMMA_KEY = 20200109
LEMMA_POOL = 128
LEMMA_PER_PASS = 6
LEMMA_SLACK = 1e-8
BARRIER_SAMPLES = 10000
BARRIER_RTOL = 1e-6


class GateError(Exception):
    """An op's output falls outside its correctness gate."""


@dataclass
class Op:
    label: str
    run: Callable          # timed; returns the op's output
    check: Callable        # gate on the output; raises GateError
    nodes: int = 0         # mesh nodes solved and written (large-solve)


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    bytes_out: int


def solve_argv(eps0, output):
    return ["solve", "--scenario", "manufactured", "--eps0", repr(eps0),
            "--h", LARGE_H, "--exact", "--output", output]


def converge_argv(scenario, eps0_list):
    return ["converge", "--scenario", scenario,
            "--eps0", ",".join(repr(x) for x in eps0_list),
            "--h", SWEEP_H, "--format", "json"]


VERIFY_ARGV = ["verify", "--suite", "bounds", "--format", "json"]


def run_cli(argv, output_path=None) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = out.getvalue()
    n = len(text.encode())
    if output_path is not None and os.path.exists(output_path):
        n += os.path.getsize(output_path)
    return CliResult(code, text, err.getvalue(), n)


def load_reference(path=REFERENCE_PATH):
    with open(path) as fh:
        return json.load(fh)


def _require(cond, message):
    if not cond:
        raise GateError(message)


def _close(value, ref, rtol=0.0, atol=0.0) -> bool:
    return abs(value - ref) <= atol + rtol * abs(ref)


def _rate(value):
    """converge emits rate as '' / text or as null / a number."""
    if value is None or value == "":
        return None
    return float(value)


class LargeSolve:
    """One large solve through the CLI, written as CSV with the exact column."""

    name = "large-solve"

    def __init__(self, seed, reference, workdir):
        rng = np.random.default_rng(seed)
        self.eps0 = LARGE_EPS0[int(rng.integers(len(LARGE_EPS0)))]
        self.ref = reference["large-solve"][repr(self.eps0)]
        self.output = os.path.join(workdir, "solve.csv")
        self.argv = solve_argv(self.eps0, self.output)

    def describe(self):
        return {"eps0": self.eps0, "h": LARGE_H, "nodes": self.ref["nodes"]}

    def _check(self, res: CliResult):
        _require(res.code == 0, f"solve exited {res.code}: {res.stderr.strip()}")
        _require(os.path.exists(self.output), "solve wrote no output")
        try:
            with open(self.output) as fh:
                header = fh.readline().strip()
                _require(header == "x,u_h,exact", f"bad header {header!r}")
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
        finally:
            os.remove(self.output)   # the next op must write its own
        _require(len(data) == self.ref["nodes"],
                 f"{len(data)} rows for {self.ref['nodes']} nodes")
        err = float(np.abs(data[:, 1] - data[:, 2]).max())
        _require(_close(err, self.ref["max_abs_err"], atol=SOLVE_TOL),
                 f"max|u_h - exact| = {err!r}, recorded {self.ref['max_abs_err']!r}")

    def pass_ops(self, tracer=None):
        return [Op("solve", lambda: run_cli(self.argv, self.output), self._check,
                   nodes=self.ref["nodes"])]


class Sweep:
    """converge --format json per scenario over seed-drawn eps0, then verify bounds."""

    name = "sweep"

    def __init__(self, seed, reference, workdir):
        rng = np.random.default_rng(seed)
        idx = np.sort(rng.choice(len(SWEEP_GRID), SWEEP_EPS0_PER_PASS, replace=False))
        self.eps0 = [SWEEP_GRID[i] for i in idx]
        self.table = {(r["scenario"], r["eps0"], r["h"]): r
                      for r in reference["sweep"]["converge"]}
        self.bounds_reports = reference["sweep"]["bounds_reports"]
        self.converge = [(sc, converge_argv(sc, self.eps0)) for sc in SCENARIO_NAMES]

    def describe(self):
        return {"eps0": self.eps0, "h": SWEEP_H}

    def _check_converge(self, scenario, res: CliResult):
        _require(res.code == 0, f"converge exited {res.code}: {res.stderr.strip()}")
        _require(res.stderr == "", f"converge skipped cells: {res.stderr.strip()}")
        rows = json.loads(res.stdout)["rows"]
        n_h = len(SWEEP_H.split(","))
        _require(len(rows) == n_h * len(self.eps0),
                 f"{len(rows)} rows for {len(self.eps0)} eps0 x {n_h} h")
        prev = None
        for row in rows:
            key = (scenario, row["eps0"], row["h"])
            _require(key in self.table, f"no recorded row for {key}")
            ref = self.table[key]
            _require(row["nodes"] == ref["nodes"],
                     f"{key}: {row['nodes']} nodes, recorded {ref['nodes']}")
            _require(_close(row["energy_err"], ref["energy_err"], rtol=ENERGY_RTOL),
                     f"{key}: energy_err {row['energy_err']!r}, "
                     f"recorded {ref['energy_err']!r}")
            rate = _rate(row["rate"])
            if prev is None or prev["eps0"] != row["eps0"]:
                _require(rate is None, f"{key}: rate {rate!r} on the first h")
            else:
                want = (math.log(prev["energy_err"] / row["energy_err"])
                        / math.log(prev["h"] / row["h"]))
                _require(rate is not None and _close(rate, want, atol=RATE_ATOL),
                         f"{key}: rate {rate!r}, errors give {want!r}")
            prev = row

    def _check_verify(self, res: CliResult):
        _require(res.code == 0, f"verify --suite bounds exited {res.code}")
        rows = json.loads(res.stdout)["rows"]
        _require(len(rows) == self.bounds_reports,
                 f"{len(rows)} bound reports, recorded {self.bounds_reports}")
        failed = [r["name"] for r in rows if r["status"] != "PASS"]
        _require(not failed, f"bound checks failed: {failed}")

    def pass_ops(self, tracer=None):
        ops = [Op(f"converge:{sc}", lambda argv=argv: run_cli(argv),
                  lambda res, sc=sc: self._check_converge(sc, res))
               for sc, argv in self.converge]
        ops.append(Op("verify:bounds", lambda: run_cli(VERIFY_ARGV),
                      self._check_verify))
        return ops


class Lemmas:
    """Randomized integral-lemma instances and barrier checks, library API."""

    name = "lemmas"

    def __init__(self, seed, reference, workdir):
        rng = np.random.default_rng(seed)
        self.scenarios = problem.builtin_scenarios(LEMMA_EPS0)
        self.e = {sc.name: calculus.layer_integral(sc.coeffs, "e")
                  for sc in self.scenarios}
        self.picks = {sc.name: [int(j) for j in rng.choice(
                          LEMMA_POOL, LEMMA_PER_PASS, replace=False)]
                      for sc in self.scenarios}
        self.margins = reference["lemmas"]["margins"]
        self.barriers = reference["lemmas"]["barriers"]

    def describe(self):
        return {"eps0": LEMMA_EPS0, "pool": LEMMA_POOL, "picks": self.picks}

    def _check_lemma(self, name, j, rep):
        ref = self.margins[name][j]
        _require(rep.passed, f"lemma {name}[{j}] failed: margin {rep.worst_margin!r}")
        _require(_close(rep.worst_margin, ref, atol=LEMMA_SLACK),
                 f"lemma {name}[{j}] margin {rep.worst_margin!r}, recorded {ref!r}")

    def _check_barrier(self, name, rep):
        ref = self.barriers[name]
        _require(rep.passed, f"barrier {name} failed: margin {rep.worst_margin!r}")
        _require(rep.worst_point == ref["worst_point"],
                 f"barrier {name} worst point {rep.worst_point!r}, "
                 f"recorded {ref['worst_point']!r}")
        _require(_close(rep.worst_margin, ref["worst_margin"], rtol=BARRIER_RTOL),
                 f"barrier {name} margin {rep.worst_margin!r}, "
                 f"recorded {ref['worst_margin']!r}")

    def pass_ops(self, tracer=None):
        ops = []
        for sc in self.scenarios:
            e = self.e[sc.name]
            if tracer is not None:
                e = tracer.counting(e)
            for j in self.picks[sc.name]:
                rng = np.random.default_rng([LEMMA_KEY, j])
                ops.append(Op(
                    f"lemma:{sc.name}",
                    lambda sc=sc, rng=rng, e=e: verify.check_integral_lemma_random(
                        sc, 1, rng, e=e),
                    lambda rep, sc=sc, j=j: self._check_lemma(sc.name, j, rep)))
            ops.append(Op(
                f"barrier:{sc.name}",
                lambda sc=sc, e=e: verify.check_barrier_operator(
                    sc.coeffs, e, sample_count=BARRIER_SAMPLES, label=sc.name),
                lambda rep, sc=sc: self._check_barrier(sc.name, rep)))
        return ops


WORKLOADS = {w.name: w for w in (LargeSolve, Sweep, Lemmas)}


def package_dir():
    return os.path.dirname(os.path.abspath(layerfem.__file__))
