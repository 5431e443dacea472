import os
import subprocess
import sys
import types

import layerfem


def test_all_names_resolve_and_none_is_a_module():
    assert len(set(layerfem.__all__)) == len(layerfem.__all__)
    for name in layerfem.__all__:
        obj = getattr(layerfem, name)
        assert not isinstance(obj, types.ModuleType), name


def test_one_check_report_type():
    # assumption checks and bound checks report through the same class
    from layerfem import problem, verify
    assert layerfem.BoundCheckReport is problem.BoundCheckReport
    assert verify.BoundCheckReport is problem.BoundCheckReport


def test_cli_import_leaves_out_scipy_optimize():
    # scipy.optimize alone costs a third of a second to import
    src = os.path.dirname(os.path.dirname(os.path.abspath(layerfem.__file__)))
    code = "import sys, layerfem.cli; print('scipy.optimize' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
