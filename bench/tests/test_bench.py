"""Tests of the benchmark itself: gates, negative control, tracing.

    python3 -m pytest -q bench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402

workloads = run.import_program()

import spans  # noqa: E402
from layerfem import cli, fem  # noqa: E402


@pytest.fixture
def workdir(tmp_path):
    return str(tmp_path)


def _perturb_one(wl):
    """Move one recorded value that the workload checks by 100x its tolerance."""
    if isinstance(wl, workloads.LargeSolve):
        wl.ref["max_abs_err"] += 100 * workloads.SOLVE_TOL
    elif isinstance(wl, workloads.Sweep):
        row = wl.table[("eps-const", wl.eps0[0], 1.0 / 16)]
        row["energy_err"] *= 1 + 100 * workloads.ENERGY_RTOL
    else:
        j = wl.picks["eps-exp"][0]
        wl.margins["eps-exp"][j] += 100 * workloads.LEMMA_SLACK


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_negative_control(workload, workdir):
    """One perturbed reference value fails exactly the op that checks it."""
    wl = workloads.WORKLOADS[workload](7, workloads.load_reference(), workdir)
    _perturb_one(wl)
    phase = run.Phase().run(wl, 0)
    assert phase.attempted == len(wl.pass_ops())
    assert phase.failed == 1
    assert phase.failed / phase.attempted > 0


def test_converge_gate_accepts_numeric_rates(workdir):
    wl = workloads.Sweep(3, workloads.load_reference(), workdir)
    scenario, argv = wl.converge[-1]
    res = workloads.run_cli(argv)
    wl._check_converge(scenario, res)
    payload = json.loads(res.stdout)
    for row in payload["rows"]:
        row["rate"] = None if row["rate"] == "" else float(row["rate"])
    numeric = workloads.CliResult(res.code, json.dumps(payload), res.stderr,
                                  res.bytes_out)
    wl._check_converge(scenario, numeric)


def _banded_solve(system):
    from scipy.linalg import solve_banded

    ab = np.zeros((3, system.size))
    ab[0, 1:] = system.sup
    ab[1] = system.diag
    ab[2, :-1] = system.sub
    return solve_banded((1, 1), ab, system.rhs)


def test_gates_survive_a_pivoting_lapack_solve(workdir):
    """The sweep gates pass when the Thomas loop is replaced by LAPACK."""
    patches = spans.replace_everywhere(fem.solve_tridiagonal, _banded_solve)
    try:
        wl = workloads.Sweep(5, workloads.load_reference(), workdir)
        phase = run.Phase().run(wl, 0)
    finally:
        spans.restore(patches)
    assert phase.failed == 0, phase.errors


def test_tracer_restores_attributes_and_partitions_time(workdir):
    before = spans.snapshot()
    assert before, "no traced attributes found"
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert not spans.untouched(before)
        assert cli.galerkin_solve is not before[("layerfem.cli", "galerkin_solve")]
        out = os.path.join(workdir, "u.csv")
        assert cli.main(["solve", "--h", "1/64", "--eps0", "1e-4",
                         "--output", out]) == 0
    finally:
        tracer.uninstall()
    assert spans.untouched(before)
    assert tracer.calls["cli.main"] == 1
    assert tracer.calls["fem.assemble"] == tracer.calls["fem.solve_tridiagonal"] == 1
    assert tracer.counters["calculus.e.calls"] > 0
    assert tracer.counters["fem.unknowns"] == tracer.counters["mesh.nodes"] - 2
    # self times of all spans partition the top-level span, less bookkeeping
    total_self = sum(tracer.self_s.values())
    assert 0 < total_self <= tracer.top_level_s
    assert total_self == pytest.approx(tracer.top_level_s - tracer._excluded, abs=1e-6)


@pytest.mark.parametrize("workload,top", [
    ("large-solve", {"cli.main": 1}),
    ("sweep", {"cli.main": 5}),
    ("lemmas", {"verify.check_integral_lemma_random": 4 * workloads.LEMMA_PER_PASS,
                "verify.check_barrier_operator": 4}),
])
def test_traced_pass_is_covered_by_top_level_spans(workload, top, workdir):
    wl = workloads.WORKLOADS[workload](11, workloads.load_reference(), workdir)
    tracer = spans.Tracer()
    tracer.install()
    try:
        phase = run.Phase().run(wl, 0, tracer)
    finally:
        tracer.uninstall()
    assert phase.failed == 0, phase.errors
    for name, calls in top.items():
        assert tracer.calls[name] == calls
    assert tracer.top_level_s >= 0.95 * sum(phase.pass_s)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_matches_benchmark_json(trace, section):
    """The last stdout line carries exactly the declared metrics and units."""
    root = os.path.dirname(BENCH_DIR)
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lemmas", "--seed", "2",
         "--seconds", "0", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lemmas", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
