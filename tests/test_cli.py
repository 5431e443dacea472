import csv
import dataclasses
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import layerfem
from layerfem import errors
from layerfem.calculus import layer_integral
from layerfem.cli import main, parse_h
from layerfem.errors import ParameterError
from layerfem.fem import galerkin_solve
from layerfem.mesh import build_mesh
from layerfem.problem import get_scenario
from layerfem.verify import _UNIFORMITY_EPS0


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseH:
    def test_fraction(self):
        assert parse_h("1/64") == 1.0 / 64

    def test_decimal(self):
        assert parse_h("0.125") == 0.125

    def test_out_of_range(self):
        with pytest.raises(ParameterError):
            parse_h("2.0")

    @pytest.mark.parametrize("text", ["abc", "1/x", "1/0", ""])
    def test_unparsable_is_parameter_error(self, text):
        with pytest.raises(ParameterError):
            parse_h(text)


class TestMesh:
    def test_csv_first_graded_node(self, capsys):
        code, out, _ = run_cli(
            ["mesh", "--scenario", "eps-const", "--eps0", "0.01",
             "--h", "0.1"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "index,x,region"
        first = lines[1].split(",")
        second = lines[2].split(",")
        assert first == ["0", "0", "graded"]
        # x_1 = h * eps_lower = 0.001
        assert float(second[1]) == 0.001
        assert lines[-1].split(",")[1] == "1"

    def test_degenerate_exit_code(self, capsys):
        code, _, err = run_cli(
            ["mesh", "--scenario", "eps-const", "--eps0", "0.1",
             "--h", "0.05"], capsys)
        assert code == 3
        assert "degenerate" in err

    def test_underflowing_first_node_is_usage_error(self, capsys):
        # x_1 = h * eps_lower rounds to 0
        code, out, err = run_cli(
            ["mesh", "--h", "1e-300", "--eps0", "1e-300"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("usage error: first graded node x_1")

    def test_node_cap_is_usage_error(self, capsys):
        # refused before the 1.7e7 graded nodes are built
        code, out, err = run_cli(["mesh", "--h", "1e-6"], capsys)
        assert (code, out) == (2, "")
        assert err == "usage error: graded node count exceeded cap 10000000\n"

    def test_nonfinite_eps_names_eps(self, capsys, monkeypatch):
        # the layer integral samples eps before any mesh is built
        sc = get_scenario("manufactured", 1e-2)
        eps = sc.coeffs.eps
        bad = dataclasses.replace(sc, coeffs=dataclasses.replace(
            sc.coeffs, eps=dataclasses.replace(
                eps, value=lambda x: np.where(np.asarray(x) > 0.7, np.nan,
                                              eps.value(x)))))
        monkeypatch.setattr("layerfem.cli.get_scenario", lambda name, eps0: bad)
        code, out, err = run_cli(["mesh"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: non-finite eps sample at x=0.7")
        assert err.count("\n") == 1

    def test_bad_h_exit_code(self, capsys):
        code, _, err = run_cli(
            ["mesh", "--scenario", "eps-const", "--h", "1.5"], capsys)
        assert code == 2

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "mesh.csv"
        code, out, _ = run_cli(
            ["mesh", "--eps0", "0.001", "--h", "1/16",
             "--output", str(target)], capsys)
        assert code == 0 and out == ""
        text = target.read_text()
        assert text.startswith("index,x,region")
        assert "\r" not in text  # LF line endings

    def test_output_in_missing_directory_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "mesh.csv"
        code, out, err = run_cli(
            ["mesh", "--eps0", "0.001", "--h", "1/16",
             "--output", str(target)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("usage error") and err.count("\n") == 1
        assert not target.parent.exists()

    def test_failing_command_keeps_existing_output(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        target.write_bytes(b"keep\n")
        for argv, expected in (
                (["solve", "--eps0", "1e-310"], 2),  # eps0 below the normal floats
                (["mesh", "--scenario", "eps-const", "--eps0", "0.1",
                  "--h", "0.05"], 3)):  # degenerate regime
            code, out, _ = run_cli(argv + ["--output", str(target)], capsys)
            assert (code, out) == (expected, "")
            assert target.read_bytes() == b"keep\n"
        code, _, _ = run_cli(["mesh", "--eps0", "0.001", "--h", "1/16",
                              "--output", str(target)], capsys)
        assert code == 0
        assert target.read_text().startswith("index,x,region\n")


def per_cell_csv(header, columns):
    """CSV text formatted cell by cell: numbers as '%.17g' % float(v),
    strings as they are."""
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(v if isinstance(v, str) else "%.17g" % float(v)
                              for v in row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", ["eps-exp", "manufactured"])
def test_mesh_and_solve_csv_match_per_cell_format(capsys, name):
    # the rows are formatted one %-string per line from Python lists
    sc = get_scenario(name, 1e-6)
    msh = build_mesh(sc.coeffs, layer_integral(sc.coeffs, "e"), 1.0 / 64)
    regions = ["graded" if i <= msh.tau_index else "coarse"
               for i in range(msh.node_count)]
    code, out, _ = run_cli(["mesh", "--scenario", name, "--eps0", "1e-6",
                            "--h", "1/64"], capsys)
    assert code == 0
    assert out == per_cell_csv(["index", "x", "region"],
                               [range(msh.node_count), msh.nodes, regions])
    argv = ["solve", "--scenario", name, "--eps0", "1e-6", "--h", "1/64"]
    header, columns = ["x", "u_h"], [msh.nodes, galerkin_solve(sc, msh).coefficients]
    if sc.exact is not None:
        argv.append("--exact")
        header.append("exact")
        columns.append(sc.exact(msh.nodes))
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out == per_cell_csv(header, columns)


class TestSolve:
    def test_nonfinite_exact_is_an_error(self, capsys, monkeypatch, tmp_path):
        # a NaN exact solution for x > 0.5 once wrote nan cells and exited 0
        sc = get_scenario("manufactured", 1e-3)
        bad = dataclasses.replace(sc, exact=dataclasses.replace(
            sc.exact, value=lambda x: np.where(x > 0.5, np.nan, 0.0)))
        monkeypatch.setattr("layerfem.cli.get_scenario", lambda name, eps0: bad)
        target = tmp_path / "out.csv"
        target.write_bytes(b"keep\n")
        code, out, err = run_cli(["solve", "--exact", "--h", "1/16",
                                  "--output", str(target)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: non-finite exact sample at x=0.5")
        assert target.read_bytes() == b"keep\n"

    def test_exact_column(self, capsys):
        code, out, _ = run_cli(
            ["solve", "--scenario", "manufactured", "--eps0", "0.001",
             "--h", "1/16", "--exact"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,u_h,exact"
        last = lines[-1].split(",")
        assert float(last[0]) == 1.0 and float(last[1]) == 0.0

    def test_exact_unavailable(self, capsys):
        code, _, err = run_cli(
            ["solve", "--scenario", "eps-const", "--eps0", "0.001",
             "--h", "1/16", "--exact"], capsys)
        assert code == 2

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(
            ["solve", "--scenario", "manufactured", "--eps0", "0.001",
             "--h", "1/16", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"meta", "rows"}
        assert payload["meta"]["subcommand"] == "solve"
        assert set(payload["rows"][0]) == {"x", "u_h"}

    def test_deterministic_output(self, capsys):
        argv = ["solve", "--scenario", "eps-exp", "--eps0", "0.001",
                "--h", "1/32"]
        _, out1, _ = run_cli(argv, capsys)
        _, out2, _ = run_cli(argv, capsys)
        assert out1 == out2

    def test_17_significant_digits(self, capsys):
        _, out, _ = run_cli(
            ["solve", "--scenario", "manufactured", "--eps0", "0.001",
             "--h", "1/16"], capsys)
        # some interior nodal value must round-trip with 17 digits
        values = [line.split(",")[1] for line in out.strip().split("\n")[1:]]
        assert any(len(v.replace(".", "").replace("-", "").lstrip("0")) >= 16
                   for v in values)


class TestConverge:
    def test_table_shape(self, capsys):
        code, out, _ = run_cli(
            ["converge", "--scenario", "manufactured", "--eps0", "0.001",
             "--h", "1/8,1/16,1/32,1/64"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "eps0,h,nodes,energy_err,l2_err,rate"
        assert len(lines) == 5
        # first row has no rate, the other three do
        assert lines[1].endswith(",")
        rates = [float(line.split(",")[-1]) for line in lines[2:]]
        assert len(rates) == 3 and all(r > 0.8 for r in rates)

    def test_degenerate_cell_is_skipped_on_stderr(self, capsys):
        # eps0 = 0.1 puts tau* past 1/2 at h = 1/16: that cell is reported
        # and left out, and the 1e-3 row is written
        code, out, err = run_cli(["converge", "--eps0", "0.1,1e-3",
                                  "--h", "1/16"], capsys)
        assert code == 0
        assert err == ("skipped eps0=0.1 h=0.0625: "
                       "transition point tau* = 0.7411 > 1/2\n")
        lines = out.strip().split("\n")
        assert len(lines) == 2 and lines[1].startswith("0.001,0.0625,")

    def test_empty_h_list_is_usage_error(self, capsys):
        code, out, err = run_cli(["converge", "--h", ","], capsys)
        assert (code, out) == (2, "")
        assert err == "usage error: expected a comma-separated list, got ','\n"

    def test_json_rate_is_number_or_null(self, capsys):
        argv = ["converge", "--scenario", "manufactured", "--eps0", "0.001",
                "--h", "1/8,1/16,1/32"]
        code, out, _ = run_cli(argv + ["--format", "json"], capsys)
        assert code == 0
        rows = json.loads(out)["rows"]
        assert rows[0]["rate"] is None
        assert all(type(r["rate"]) is float for r in rows[1:])
        # the same rates as the CSV text, to the last bit
        _, csv_out, _ = run_cli(argv, capsys)
        csv_rates = [line.split(",")[-1] for line in csv_out.strip().split("\n")[2:]]
        assert [r["rate"] for r in rows[1:]] == [float(t) for t in csv_rates]

    def test_pretty_rate_has_six_digits(self, capsys):
        argv = ["converge", "--scenario", "manufactured", "--eps0", "0.001",
                "--h", "1/8,1/16,1/32"]
        code, out, _ = run_cli(argv + ["--format", "pretty"], capsys)
        assert code == 0
        _, js, _ = run_cli(argv + ["--format", "json"], capsys)
        rates = [line.split()[5] for line in out.strip().split("\n")[2:]]
        assert rates == ["%.6g" % r["rate"] for r in json.loads(js)["rows"][1:]]

    @pytest.mark.parametrize(
        "command, eps0, h", [("converge", "0.001", "1/16,1/16"),
                             ("converge", "0.001", "0.0625,1/16"),
                             ("converge", "1e-3,0.001", "1/16"),
                             ("interp", "1e-6", "1/16,1/16,0.0625")],
        ids=["1/16,1/16", "0.0625,1/16", "eps0=1e-3,0.001", "interp"])
    def test_repeated_h_is_usage_error(self, capsys, command, eps0, h):
        # a repeated eps0 is refused too: it would repeat its rows
        code, out, err = run_cli([command, "--eps0", eps0, "--h", h], capsys)
        assert code == 2 and out == ""
        assert err.startswith("usage error:") and err.count("\n") == 1


class TestErrorContract:
    def test_error_classes_and_exit_codes_are_pinned(self, capsys, monkeypatch):
        # adding an error class shows in this table, with the exit code and
        # the stderr prefix that cli.main gives it
        want = {
            "ConfigurationError": (1, "error"), "ConvergenceError": (1, "error"),
            "DegenerateRegimeError": (3, "degenerate regime"),
            "EvaluationError": (1, "error"), "LayerFemError": (1, "error"),
            "ParameterError": (2, "usage error"),
            "SingularSystemError": (1, "error"),
        }
        classes = {name: obj for name, obj in vars(errors).items()
                   if isinstance(obj, type) and issubclass(obj, errors.LayerFemError)}
        assert sorted(classes) == list(want)
        for name, (code, prefix) in want.items():
            def fail(args, cls=classes[name]):
                raise cls("boom")

            monkeypatch.setattr("layerfem.cli.cmd_mesh", fail)
            assert run_cli(["mesh"], capsys) == (code, "", f"{prefix}: boom\n"), name

    @pytest.mark.parametrize("bad", [["--eps0", "abc"], ["--eps0", ","],
                                     ["--h", "1/0"]])
    def test_bad_input_is_usage_error(self, capsys, bad):
        code, _, err = run_cli(["mesh", "--scenario", "eps-const"] + bad, capsys)
        assert code == 2
        assert err.startswith("usage error")

    def test_negative_seed_is_usage_error(self, capsys):
        # numpy's default_rng would raise a bare ValueError
        code, out, err = run_cli(["verify", "--suite", "lemmas", "--seed", "-1"],
                                 capsys)
        assert code == 2 and out == ""
        assert err == "usage error: --seed must be nonnegative, got -1\n"

    # a mesh element whose width squared is subnormal (w = h^2 eps0 at
    # the first graded step) is refused before assembly divides by it, as
    # a usage error like the subnormal eps0 and the x_1 that underflows
    @pytest.mark.parametrize("argv", [
        ["converge", "--scenario", "eps-exp", "--eps0", "1e-155", "--h", "1/16,1/32"],
        ["converge", "--scenario", "eps-exp", "--eps0", "1e-160", "--h", "1/16"],
        ["converge", "--scenario", "eps-linear", "--eps0", "1e-300", "--h", "1/16"],
        ["solve", "--eps0", "1e-300", "--h", "1/16"],
    ], ids=["eps-exp-1e-155", "eps-exp-1e-160", "eps-linear-1e-300", "solve"])
    def test_subnormal_element_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("usage error: element ") and err.count("\n") == 1
        assert "smallest normal float" in err

    def test_mesh_with_subnormal_element_is_printed(self, capsys):
        # mesh does no assembly, so nothing refuses the narrow element
        code, out, err = run_cli(["mesh", "--eps0", "1e-300", "--h", "1/16"],
                                 capsys)
        assert code == 0 and err == ""
        assert out.split("\n")[2] == "1,6.2500000000000002e-302,graded"

    def test_subnormal_eps0_is_usage_error(self, capsys):
        code, out, err = run_cli(["mesh", "--eps0", "1e-310", "--h", "1/16"],
                                 capsys)
        assert code == 2 and out == ""
        assert err.startswith("usage error: eps0 must lie in (0, 0.1]")

    def test_eps0_1e_100_still_converges(self, capsys):
        code, out, _ = run_cli(["converge", "--scenario", "eps-exp",
                                "--eps0", "1e-100", "--h", "1/16,1/32"], capsys)
        assert code == 0 and len(out.strip().split("\n")) == 3

    def test_closed_stdout_ends_quietly(self):
        # about 473k rows, far more than a pipe holds, so the writer meets
        # the closed pipe; neither its writes nor the flush at interpreter
        # exit may print a traceback
        src = os.path.dirname(os.path.dirname(os.path.abspath(layerfem.__file__)))
        proc = subprocess.Popen(
            [sys.executable, "-m", "layerfem.cli", "mesh", "--eps0", "1e-4",
             "--h", "1/32768"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src))
        assert proc.stdout.readline() == b"index,x,region\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (0, b"")

    def test_internal_value_error_is_not_usage_error(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("internal failure")

        monkeypatch.setattr("layerfem.cli.galerkin_solve", broken)
        with pytest.raises(ValueError, match="internal failure"):
            main(["solve", "--eps0", "0.001", "--h", "1/16"])
        assert "usage error" not in capsys.readouterr().err


class TestInterp:
    def test_table_shape(self, capsys):
        code, out, _ = run_cli(
            ["interp", "--scenario", "eps-const", "--eps0", "1e-5",
             "--h", "1/16,1/32"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("h,nodes,smooth_l2")
        assert len(lines) == 3


class TestVerify:
    def test_barriers_pass(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--suite", "barriers", "--eps0", "0.001",
             "--format", "pretty"], capsys)
        assert code == 0
        assert out.count("PASS") == 4 and "FAIL" not in out

    def test_lemmas_json(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--suite", "lemmas", "--eps0", "0.01",
             "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rows"]) == 4
        assert all(r["status"] == "PASS" for r in payload["rows"])

    def test_all_is_the_three_suites_in_turn(self, capsys):
        # "all" shares one layer integral per scenario between the lemma and
        # barrier suites; its rows must not differ from separate runs
        def rows(suite):
            code, out, _ = run_cli(["verify", "--suite", suite, "--eps0", "1e-4",
                                    "--seed", "7", "--format", "json"], capsys)
            assert code == 0
            return json.loads(out)["rows"]

        assert rows("all") == rows("lemmas") + rows("barriers") + rows("bounds")

    def test_help_lists_the_bounds_sweep(self, capsys):
        code, out, _ = run_cli(["verify", "--help"], capsys)
        text = " ".join(out.split())  # argparse wraps the help text
        assert code == 0
        assert "sweeps " + ", ".join(f"{z:g}" for z in _UNIFORMITY_EPS0) in text

    def test_verify_deterministic(self, capsys):
        argv = ["verify", "--suite", "barriers", "--eps0", "0.01"]
        _, out1, _ = run_cli(argv, capsys)
        _, out2, _ = run_cli(argv, capsys)
        assert out1 == out2


class TestOptionContract:
    @pytest.mark.parametrize("argv", [
        ["verify", "--h", "1/3"],
        ["verify", "--scenario", "eps-exp"],
        ["verify", "--delta", "2"],
        ["mesh", "--delta", "2"],
        ["solve", "--delta", "2"],
        ["converge", "--delta", "2"],
        ["interp", "--delta", "2"],
        ["mesh", "--seed", "1"],
        ["solve", "--seed", "1"],
        ["converge", "--seed", "1"],
        ["interp", "--seed", "1"],
    ])
    def test_unread_or_abbreviated_option_is_rejected(self, capsys, argv):
        # "--h" must not match "--help" by prefix on verify
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("command", ["mesh", "solve", "interp", "verify"])
    def test_list_eps0_is_usage_error(self, capsys, command):
        code, out, err = run_cli([command, "--eps0", "1e-3,1e-5"], capsys)
        assert code == 2 and out == ""
        assert err == "usage error: not a number: '1e-3,1e-5'\n"

    @pytest.mark.parametrize("argv,keys", [
        (["mesh", "--h", "1/16"], {"scenario", "eps0", "h"}),
        (["solve", "--h", "1/16"], {"scenario", "eps0", "h"}),
        (["converge", "--h", "1/8,1/16"], {"scenario", "eps0", "h"}),
        (["interp", "--h", "1/16"], {"scenario", "eps0", "h"}),
        (["verify", "--suite", "barriers"], {"eps0", "seed", "suite"}),
    ])
    def test_meta_keys_are_read_options(self, capsys, argv, keys):
        code, out, _ = run_cli(argv + ["--format", "json"], capsys)
        assert code == 0
        meta = json.loads(out)["meta"]
        assert set(meta) == {"version", "subcommand", "format"} | keys


class TestVerifyFormats:
    ARGV = ["verify", "--suite", "barriers", "--eps0", "0.001"]

    def test_csv_matches_json(self, capsys):
        code, out, _ = run_cli(self.ARGV + ["--format", "csv"], capsys)
        assert code == 0
        reader = csv.DictReader(io.StringIO(out))
        assert reader.fieldnames == ["name", "worst_margin", "worst_point",
                                     "status"]
        rows = list(reader)
        _, js, _ = run_cli(self.ARGV + ["--format", "json"], capsys)
        assert len(rows) == 4 and all(r["status"] == "PASS" for r in rows)
        for row, ref in zip(rows, json.loads(js)["rows"]):
            assert row["name"] == ref["name"]
            for key in ("worst_margin", "worst_point"):
                assert "%.17g" % float(row[key]) == row[key]
                assert float(row[key]) == ref[key]

    def test_pretty_columns_fit_the_longest_name(self, capsys):
        code, out, _ = run_cli(self.ARGV + ["--format", "pretty"], capsys)
        assert code == 0
        lines = out.rstrip("\n").split("\n")
        width = max(len(line.split()[0]) for line in lines)
        assert width > 12
        for line in lines:
            # every cell after the name starts in the same column
            assert line[width:width + 2] == "  " and line[width + 2] != " "


@pytest.mark.parametrize("argv", [
    ["mesh", "--scenario", "eps-exp", "--eps0", "1e-6", "--h", "1/16"],
    ["solve", "--eps0", "1e-5", "--h", "1/16", "--exact"],
    ["converge", "--scenario", "eps-exp", "--eps0", "1e-2,1e-6",
     "--h", "1/8,1/16"],
    ["interp", "--scenario", "eps-exp", "--eps0", "1e-6", "--h", "1/16,1/32"],
])
def test_pretty_keeps_twelve_character_columns(capsys, argv):
    # cells of these tables fit in 12 characters, so every column is padded
    # to max(12, len(header))
    code, out, _ = run_cli(argv + ["--format", "pretty"], capsys)
    assert code == 0
    header, *body = out.rstrip("\n").split("\n")
    names = header.split()
    widths = [max(12, len(n)) for n in names]
    assert header == "  ".join(n.ljust(w) for n, w in zip(names, widths))
    for line in body:
        cells = line.split()
        cells += [""] * (len(names) - len(cells))  # a blank first rate
        assert line == "  ".join(c.ljust(w) for c, w in zip(cells, widths))
