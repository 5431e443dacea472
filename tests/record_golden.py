"""Write tests/golden.json, the CLI tables that tests/test_golden.py pins.

Each entry holds a command's arguments, its exit code and the rows of its
JSON output.  The solve at h = 1/4096 has 49,294 rows, so its entry holds
their count, a sha256 of the x column and only every stride-th row.
Re-record after a change that moves these outputs on purpose, and list the
moved cells from the diff of the file:

    PYTHONPATH=src python tests/record_golden.py
"""

import contextlib
import hashlib
import io
import json
import os

import numpy as np

from layerfem import cli
from layerfem.problem import SCENARIO_NAMES

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

COMMANDS = {
    **{f"verify-all@{z}": ["verify", "--suite", "all", "--eps0", z, "--format", "json"]
       for z in ("1e-2", "1e-7", "1e-12")},
    **{f"interp-{name}@1e-6": ["interp", "--scenario", name, "--eps0", "1e-6",
                               "--format", "json"]
       for name in SCENARIO_NAMES},
    **{f"converge-{name}": ["converge", "--scenario", name,
                            "--eps0", "1e-2,1e-7,1e-12",
                            "--h", "1/16,1/32,1/64,1/128,1/256", "--format", "json"]
       for name in SCENARIO_NAMES},
    **{f"mesh-{name}@1e-4": ["mesh", "--scenario", name, "--eps0", "1e-4",
                             "--h", "1/32", "--format", "json"]
       for name in SCENARIO_NAMES},
    "solve@1/4096": ["solve", "--h", "1/4096", "--exact", "--format", "json"],
}
STRIDES = {"solve@1/4096": 64}  # entries that keep every stride-th row


def run(argv):
    """The exit code of cli.main(argv) and the rows of its JSON output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, json.loads(out.getvalue())["rows"]


def x_sha256(rows) -> str:
    """sha256 of the rows' x values as float64 bytes."""
    return hashlib.sha256(np.array([r["x"] for r in rows]).tobytes()).hexdigest()


def record():
    golden = {}
    for name, argv in COMMANDS.items():
        code, rows = run(argv)
        entry = golden[name] = {"argv": argv, "code": code}
        if name in STRIDES:
            entry.update(row_count=len(rows), x_sha256=x_sha256(rows),
                         stride=STRIDES[name])
            rows = rows[::STRIDES[name]]
        entry["rows"] = rows
    return golden


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(record(), fh, indent=1)
        fh.write("\n")
