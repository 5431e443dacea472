import csv
import io
import json

import pytest

from layerfem.cli import main, parse_h
from layerfem.errors import ParameterError


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
        # x_1 = h * delta * eps_lower = 0.001
        assert float(second[1]) == 0.001
        assert lines[-1].split(",")[1] == "1"

    def test_degenerate_exit_code(self, capsys):
        code, _, err = run_cli(
            ["mesh", "--scenario", "eps-const", "--eps0", "0.1",
             "--h", "0.05"], capsys)
        assert code == 3
        assert "degenerate" in err

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


class TestSolve:
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

    @pytest.mark.parametrize("h", ["1/16,1/16", "0.0625,1/16"])
    def test_repeated_h_is_usage_error(self, capsys, h):
        code, out, err = run_cli(["converge", "--eps0", "0.001", "--h", h],
                                 capsys)
        assert code == 2 and out == ""
        assert err.startswith("usage error:") and err.count("\n") == 1


class TestErrorContract:
    @pytest.mark.parametrize("bad", [["--eps0", "abc"], ["--eps0", ","],
                                     ["--h", "1/0"], ["--delta", "nan"]])
    def test_bad_input_is_usage_error(self, capsys, bad):
        code, _, err = run_cli(["mesh", "--scenario", "eps-const"] + bad, capsys)
        assert code == 2
        assert err.startswith("usage error")

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
        (["mesh", "--h", "1/16"], {"scenario", "eps0", "h", "delta"}),
        (["solve", "--h", "1/16"], {"scenario", "eps0", "h", "delta"}),
        (["converge", "--h", "1/8,1/16"], {"scenario", "eps0", "h", "delta"}),
        (["interp", "--h", "1/16"], {"scenario", "eps0", "h", "delta"}),
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
