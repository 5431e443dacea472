"""Write tests/golden.json, the CLI tables that tests/test_golden.py pins.

Each entry holds a command's arguments, its exit code and the rows of its
JSON output.  Re-record after a change that moves these outputs on purpose,
and list the moved cells from the diff of the file:

    PYTHONPATH=src python tests/record_golden.py
"""

import contextlib
import io
import json
import os

from layerfem import cli
from layerfem.problem import SCENARIO_NAMES

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

COMMANDS = {
    **{f"verify-all@{z}": ["verify", "--suite", "all", "--eps0", z, "--format", "json"]
       for z in ("1e-7", "1e-12")},
    **{f"interp-{name}@1e-6": ["interp", "--scenario", name, "--eps0", "1e-6",
                               "--format", "json"]
       for name in SCENARIO_NAMES},
}


def run(argv):
    """The exit code of cli.main(argv) and the rows of its JSON output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, json.loads(out.getvalue())["rows"]


def record():
    golden = {}
    for name, argv in COMMANDS.items():
        code, rows = run(argv)
        golden[name] = {"argv": argv, "code": code, "rows": rows}
    return golden


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(record(), fh, indent=1)
        fh.write("\n")
