"""Record the reference values the correctness gates compare against.

    python3 bench/record.py        # rewrites bench/reference.json

Every input any seed can draw is recorded: each large-solve eps0, every
(scenario, eps0, h) cell of the sweep grid, and the whole lemma pool.  Run
this only when the numerics change on purpose, and say so in the change.
"""

import json
import os
import sys
import tempfile

import numpy as np

import run

workloads = run.import_program()

from layerfem import calculus, problem, verify  # noqa: E402


def _require(cond, message):
    if not cond:
        raise RuntimeError(f"cannot record a failing reference: {message}")


def large_solve(workdir):
    out = {}
    for eps0 in workloads.LARGE_EPS0:
        path = os.path.join(workdir, "solve.csv")
        res = workloads.run_cli(workloads.solve_argv(eps0, path), path)
        _require(res.code == 0, res.stderr)
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        out[repr(eps0)] = {"nodes": len(data),
                           "max_abs_err": float(np.abs(data[:, 1] - data[:, 2]).max())}
        print("large-solve", eps0, out[repr(eps0)], flush=True)
    return out


def sweep():
    rows = []
    for sc in problem.SCENARIO_NAMES:
        res = workloads.run_cli(workloads.converge_argv(sc, workloads.SWEEP_GRID))
        _require(res.code == 0 and res.stderr == "", res.stderr)
        for r in json.loads(res.stdout)["rows"]:
            rows.append({"scenario": sc, "eps0": r["eps0"], "h": r["h"],
                         "nodes": r["nodes"], "energy_err": r["energy_err"]})
        print("sweep", sc, flush=True)
    res = workloads.run_cli(workloads.VERIFY_ARGV)
    _require(res.code == 0, res.stderr)
    return {"converge": rows, "bounds_reports": len(json.loads(res.stdout)["rows"])}


def lemmas():
    margins, barriers = {}, {}
    for sc in problem.builtin_scenarios(workloads.LEMMA_EPS0):
        e = calculus.layer_integral(sc.coeffs, "e")
        reps = [verify.check_integral_lemma_random(
                    sc, 1, np.random.default_rng([workloads.LEMMA_KEY, j]), e=e)
                for j in range(workloads.LEMMA_POOL)]
        _require(all(r.passed for r in reps), f"lemma instance failed on {sc.name}")
        margins[sc.name] = [r.worst_margin for r in reps]
        rep = verify.check_barrier_operator(
            sc.coeffs, e, sample_count=workloads.BARRIER_SAMPLES, label=sc.name)
        _require(rep.passed, f"barrier check failed on {sc.name}")
        barriers[sc.name] = {"worst_margin": rep.worst_margin,
                             "worst_point": rep.worst_point}
        print("lemmas", sc.name, flush=True)
    return {"margins": margins, "barriers": barriers}


def main():
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".bench-tmp-") as workdir:
        reference = {"large-solve": large_solve(workdir), "sweep": sweep(),
                     "lemmas": lemmas()}
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
