"""CLI tables pinned against tests/golden.json (written by record_golden.py).

Names, node counts, exit codes and PASS/FAIL must match exactly, and so do
mesh nodes, which come from cumprod and linspace alone, and the solve's x
column (by its sha256).  Floats match at the tolerances of the benchmark's
gates: interpolation norms to 1e-12 relative, convergence errors to 1e-8
relative (the solve at small eps is ill-conditioned, so roundoff-level
changes to the assembly move them by up to ~2.4e-9) and their rates to 1e-7
absolute, nodal values to 1e-10 absolute, the lemma aggregates' margins to
1e-8 absolute (the lemma's own slack), barrier margins to 1e-6 relative and
uniformity ratios to 1e-8 relative.  Barrier and uniformity worst points
are grid nodes and match exactly; a lemma aggregate's worst point is not
pinned, because in the equality cases its margins are roundoff of either
sign and the worst of them is any draw.

Every row's columns must come in the recorded order, and every subcommand of
the CLI must have an entry, so golden.json is the one statement of each
table.
"""

import argparse
import dataclasses
import json

import numpy as np
import pytest

from layerfem import cli
from layerfem.mesh import build_mesh
from layerfem.verify import _MAX_VARIATION
from record_golden import GOLDEN_PATH, run, x_sha256

with open(GOLDEN_PATH) as fh:
    GOLDEN = json.load(fh)


def _check_verify_row(got, ref):
    assert (got["name"], got["status"]) == (ref["name"], ref["status"])
    kind = ref["name"].partition("[")[0]
    if kind == "integral-lemma-random":
        assert got["worst_margin"] == pytest.approx(ref["worst_margin"], rel=0, abs=1e-8)
    elif kind == "barrier-operator":
        assert got["worst_point"] == ref["worst_point"]
        assert got["worst_margin"] == pytest.approx(ref["worst_margin"], rel=1e-6, abs=0)
    elif kind == "uniformity":
        # worst_margin is _MAX_VARIATION minus the ratio max/min of the sups
        assert got["worst_point"] == ref["worst_point"]
        assert _MAX_VARIATION - got["worst_margin"] == pytest.approx(
            _MAX_VARIATION - ref["worst_margin"], rel=1e-8, abs=0)
    else:
        raise AssertionError(f"no tolerance for the row {ref['name']!r}")


def _check_interp_row(got, ref):
    assert (got["h"], got["nodes"]) == (ref["h"], ref["nodes"])
    for key in ref.keys() - {"h", "nodes"}:
        assert got[key] == pytest.approx(ref[key], rel=1e-12, abs=0), key


def _check_converge_row(got, ref):
    assert (got["eps0"], got["h"], got["nodes"]) == (ref["eps0"], ref["h"], ref["nodes"])
    for key in ("energy_err", "l2_err"):
        assert got[key] == pytest.approx(ref[key], rel=1e-8, abs=0), key
    if ref["rate"] is None:
        assert got["rate"] is None
    else:
        assert got["rate"] == pytest.approx(ref["rate"], rel=0, abs=1e-7)


def _check_mesh_row(got, ref):
    assert got == ref


def _check_solve_row(got, ref):
    assert got["x"] == ref["x"]
    for key in ("u_h", "exact"):
        assert got[key] == pytest.approx(ref[key], rel=0, abs=1e-10), key


_CHECKS = {"verify": _check_verify_row, "interp": _check_interp_row,
           "converge": _check_converge_row, "mesh": _check_mesh_row,
           "solve": _check_solve_row}


def check_entry(name):
    """Run the command of golden entry name and assert that its table
    matches the recorded one."""
    want = GOLDEN[name]
    code, rows = run(want["argv"])
    assert code == want["code"]
    if "stride" in want:
        assert len(rows) == want["row_count"]
        assert x_sha256(rows) == want["x_sha256"]
        rows = rows[::want["stride"]]
    assert len(rows) == len(want["rows"])
    check = _CHECKS[want["argv"][0]]
    for got, ref in zip(rows, want["rows"]):
        assert list(got) == list(ref)
        check(got, ref)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_table_matches_golden(name):
    check_entry(name)


def test_every_subcommand_is_pinned():
    (subcommands,) = [a.choices for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)]
    assert {want["argv"][0] for want in GOLDEN.values()} == set(subcommands)


@pytest.mark.parametrize("name", ["mesh-eps-linear@1e-4", "solve@1/4096"])
def test_one_ulp_move_of_one_node_fails(name, monkeypatch):
    def nudged_mesh(*args):
        mesh = build_mesh(*args)
        nodes = mesh.nodes.copy()
        mid = len(nodes) // 2
        nodes[mid] = np.nextafter(nodes[mid], 1.0)
        return dataclasses.replace(mesh, nodes=nodes)

    monkeypatch.setattr(cli, "build_mesh", nudged_mesh)
    with pytest.raises(AssertionError):
        check_entry(name)
