import json
import subprocess
import sys
from pathlib import Path

import pytest

import gfenum
import gfenum.cli as cli
from gfenum import mzv
from gfenum.transforms import NonIntegerExponent


def run_cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_tsv(text):
    rows = [line.split("\t") for line in text.splitlines()]
    return rows[0], rows[1:]


class TestTables:
    def test_primitives_last_row(self, capsys):
        code, out, _ = run_cli(capsys, "primitives", "--max-degree", "12")
        assert code == 0
        assert out.splitlines()[-1] == "12\t55"

    def test_beta_grid_cell(self, capsys):
        code, out, _ = run_cli(capsys, "beta", "--max-degree", "14", "--format", "tsv")
        header, rows = parse_tsv(out)
        assert code == 0
        column = header.index("u=8")
        row = next(r for r in rows if r[0] == "14")
        assert row[column] == "26"

    @pytest.mark.parametrize(
        "size, text",
        [
            ("0", "m\tu=0\n0\t1\n"),
            ("1", "m\tu=0\tu=2\n0\t1\t\n1\t1\t1\n"),
            ("3", "m\tu=0\tu=2\n0\t1\t\n1\t1\t1\n2\t1\t1\n3\t1\t1\n"),
        ],
    )
    def test_beta_pads_short_rows_to_the_longest(self, capsys, size, text):
        code, out, _ = run_cli(capsys, "beta", "--max-degree", size)
        assert (code, out) == (0, text)

    def test_beta_rows_sum_to_primitives(self, capsys):
        _, beta_out, _ = run_cli(capsys, "beta", "--max-degree", "20")
        _, prim_out, _ = run_cli(capsys, "primitives", "--max-degree", "20")
        _, beta_rows = parse_tsv(beta_out)
        _, prim_rows = parse_tsv(prim_out)
        prim = {int(m): int(p) for m, p in prim_rows}
        for row in beta_rows:
            m = int(row[0])
            if m < 1:
                continue
            cells = [int(c) for c in row[2:] if c != ""]
            assert sum(cells) == prim[m], m

    def test_knots_and_framed(self, capsys):
        _, knots_out, _ = run_cli(capsys, "knots")
        _, framed_out, _ = run_cli(capsys, "framed")
        _, knot_rows = parse_tsv(knots_out)
        _, framed_rows = parse_tsv(framed_out)
        assert [int(v) for _, v in knot_rows] == [0, 1, 1, 3, 4, 9, 14, 27, 44, 80,
                                                  132, 232, 384, 659, 1095, 1851,
                                                  3065, 5128, 8461, 14031]
        assert framed_rows[-1] == ["20", "35222"]

    def test_mzv_rows(self, capsys):
        _, out, _ = run_cli(capsys, "mzv", "--max-weight", "23")
        assert "23\t7\t4\t" in out.splitlines()
        _, out, _ = run_cli(capsys, "mzv", "--max-weight", "12", "--euler-sums")
        assert "12\t4\t0\t" in out.splitlines()

    def test_mzv_extrapolation_notes(self, capsys):
        _, out, _ = run_cli(capsys, "mzv", "--max-weight", "27")
        flagged = [line for line in out.splitlines() if "extrapolated" in line]
        assert flagged == ["24\t8\t1\textrapolated beyond checked range",
                           "27\t9\t2\textrapolated beyond checked range"]

    def test_asymptote_quantities(self, capsys):
        _, out, _ = run_cli(capsys, "asymptote", "--max-degree", "12")
        _, rows = parse_tsv(out)
        table = dict((r[0], r[1]) for r in rows)
        assert abs(float(table["r"]) - 1.38027756909761) < 1e-12
        assert abs(float(table["C"]) - 1.06260548918755) < 1e-11
        assert float(table["abs(r^4-r^3-1)"]) < 1e-13
        assert "P_12/r^12" in table


class TestFormats:
    def test_json_and_tsv_hold_identical_values(self, capsys):
        _, tsv_out, _ = run_cli(capsys, "primitives", "--max-degree", "8")
        code, json_out, _ = run_cli(capsys, "primitives", "--max-degree", "8",
                                    "--format", "json")
        assert code == 0
        doc = json.loads(json_out)
        header, rows = parse_tsv(tsv_out)
        assert doc["columns"] == header
        assert [[str(c) for c in row] for row in doc["rows"]] == rows
        assert doc["meta"] == {"command": "primitives", "version": cli.__version__}

    def test_output_is_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "beta", "--max-degree", "14", "--format", "json")
        _, second, _ = run_cli(capsys, "beta", "--max-degree", "14", "--format", "json")
        assert first == second

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "table.tsv"
        code, out, _ = run_cli(capsys, "primitives", "--max-degree", "4",
                               "--output", str(target))
        assert code == 0 and out == ""
        assert target.read_text(encoding="utf-8").splitlines()[-1] == "4\t2"

    def test_integer_cells_never_use_scientific_notation(self, capsys):
        _, out, _ = run_cli(capsys, "framed", "--max-degree", "20")
        assert "e" not in out.splitlines()[-1]


class TestExitCodes:
    def test_zero_degree_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "knots", "--max-degree", "0")
        assert code == 2
        assert "must be >= 1" in err

    @pytest.mark.parametrize(
        "command, flag, minimum",
        [
            ("beta", "--max-degree", 0),
            ("primitives", "--max-degree", 1),
            ("knots", "--max-degree", 1),
            ("framed", "--max-degree", 1),
            ("mzv", "--max-weight", 3),
            ("asymptote", "--max-degree", 2),
        ],
    )
    def test_the_parser_enforces_each_minimum_size(self, capsys, command, flag, minimum):
        code, out, err = run_cli(capsys, command, flag, str(minimum - 1))
        assert code == 2 and out == ""
        expected = f"gfenum {command}: error: argument {flag}: must be >= {minimum}"
        assert err.splitlines()[-1] == expected
        assert run_cli(capsys, command, flag, str(minimum))[0] == 0

    @pytest.mark.parametrize(
        "command, flag, maximum",
        [
            ("beta", "--max-degree", 1000),
            ("primitives", "--max-degree", 20000),
            ("knots", "--max-degree", 2000),
            ("framed", "--max-degree", 2000),
            ("mzv", "--max-weight", 300),
            ("asymptote", "--max-degree", 2202),
        ],
    )
    @pytest.mark.parametrize("excess", ["one", "huge"])
    def test_the_parser_enforces_each_maximum_size(self, capsys, command, flag, maximum, excess):
        # rejected by the parser, so no size near the limit is ever computed
        size = maximum + 1 if excess == "one" else 10 ** 23
        code, out, err = run_cli(capsys, command, flag, str(size))
        assert code == 2 and out == ""
        expected = f"gfenum {command}: error: argument {flag}: must be <= {maximum}"
        assert err.splitlines()[-1] == expected
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", ["1_0", "+20", " 20 ", "\uff12"])
    @pytest.mark.parametrize("command, flag", [
        ("beta", "--max-degree"), ("primitives", "--max-degree"), ("mzv", "--max-weight"),
    ])
    def test_a_size_is_ascii_digits_with_an_optional_minus(self, capsys, command, flag, text):
        code, out, err = run_cli(capsys, command, flag, text)
        assert code == 2 and out == ""
        expected = f"gfenum {command}: error: argument {flag}: invalid size value: {text!r}"
        assert err.splitlines()[-1] == expected

    @pytest.mark.parametrize("text, bound", [
        pytest.param("9" * 5000, "<= {maximum}", id="5000-nines"),  # past int()'s digit limit
        pytest.param("-" + "9" * 5000, ">= {minimum}", id="minus-5000-nines"),
        pytest.param("1" + "0" * 40, "<= {maximum}", id="1e40"),
        pytest.param("-1" + "0" * 40, ">= {minimum}", id="minus-1e40"),
    ])
    @pytest.mark.parametrize("command, flag, minimum, maximum", [
        ("beta", "--max-degree", 0, 1000), ("asymptote", "--max-degree", 2, 2202),
    ])
    def test_an_over_long_size_fails_on_its_bound_echoing_no_digits(
        self, capsys, text, bound, command, flag, minimum, maximum
    ):
        code, out, err = run_cli(capsys, command, flag, text)
        assert code == 2 and out == ""
        expected = f"gfenum {command}: error: argument {flag}: must be "
        assert err.splitlines()[-1] == expected + bound.format(minimum=minimum, maximum=maximum)
        assert text.lstrip("-")[:10] not in err and "Traceback" not in err

    @pytest.mark.parametrize("text, value", [
        pytest.param("0" * 5000 + "7", 7, id="5000-zeros-then-7"),
        pytest.param("-" + "0" * 5000, 0, id="minus-5000-zeros"),
        pytest.param("0" * 5000, 0, id="5000-zeros"),
        pytest.param("-0", 0, id="minus-zero"),
        pytest.param("0020", 20, id="0020"),
    ])
    def test_leading_zeros_are_not_digits_of_the_size(self, text, value):
        assert cli._size_in(0, 1000)(text) == value

    def test_unknown_argument(self, capsys):
        code, _, _ = run_cli(capsys, "beta", "--nope")
        assert code == 2

    def test_missing_subcommand(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_verify_passes_on_shipped_data(self, capsys):
        code, out, err = run_cli(capsys, "verify")
        assert code == 0
        assert "\tfail\t" not in out
        assert "91 passed, 0 failed" in err

    def test_verify_fails_on_mutated_data(self, capsys, tmp_path):
        from gfenum.verify import default_data_path

        lines = default_data_path().read_text(encoding="utf-8").splitlines()
        index = next(i for i, line in enumerate(lines) if line.startswith("const:r"))
        lines[index] = "const:r\tgrowth-constants\tdecimal_constant\t1.5,1e-12"
        data = tmp_path / "broken.tsv"
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "verify", "--data", str(data))
        assert code == 1
        failing = [line for line in out.splitlines() if "\tfail\t" in line]
        assert len(failing) == 1 and failing[0].startswith("const:r")

    def test_a_claim_past_the_engine_horizon_fails_verify(self, capsys, tmp_path):
        data = tmp_path / "horizon.tsv"
        data.write_text("table1:m30:u02\tx\texact_value\t1\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "verify", "--data", str(data))
        assert code == 1
        row = out.splitlines()[1].split("\t")
        assert row[:3] == ["table1:m30:u02", "fail", "1"]
        assert row[3].startswith("outside the engine horizon")

    @pytest.mark.parametrize(
        "line", ["table1:m12:u06\tx\texact_value\t", "\tx\texact_value\t15"],
        ids=["empty-payload", "empty-id"],
    )
    def test_an_empty_first_or_last_field_fails_its_claim(self, capsys, tmp_path, line):
        data = tmp_path / "empty.tsv"
        data.write_text(f"table1:m12:u06\tx\texact_value\t15\n{line}\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "verify", "--data", str(data))
        assert code == 1
        failing = [row.split("\t") for row in out.splitlines() if "\tfail\t" in row]
        assert [row[0] for row in failing] == [line.split("\t")[0]]
        assert "Traceback" not in err and "1 passed, 1 failed" in err

    def test_a_claim_index_too_long_for_int_fails_only_its_claim(self, capsys, tmp_path):
        claim_id = f"table1:m{'1' * 5000}:u02"
        data = tmp_path / "huge.tsv"
        lines = f"table1:m12:u06\tx\texact_value\t15\n{claim_id}\tx\texact_value\t1\n"
        data.write_text(lines, encoding="utf-8")
        code, out, err = run_cli(capsys, "verify", "--data", str(data))
        assert code == 1
        failing = [line.split("\t") for line in out.splitlines() if "\tfail\t" in line]
        assert [row[0] for row in failing] == [claim_id]
        assert failing[0][3].startswith("outside the engine horizon")
        assert "Traceback" not in err and "1 passed, 1 failed" in err

    def test_unwritable_output_is_a_usage_error(self, capsys, tmp_path):
        target = tmp_path / "no-such-dir" / "x.tsv"
        code, out, err = run_cli(capsys, "beta", "--output", str(target))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and "no-such-dir" in err

    def test_unreadable_reference_data_is_a_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "verify", "--data", str(tmp_path / "missing.tsv"))
        assert code == 2
        assert len(err.splitlines()) == 1 and "missing.tsv" in err
        malformed = tmp_path / "malformed.tsv"
        malformed.write_text("seq:P\tsomewhere\tsequence\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "verify", "--data", str(malformed))
        assert code == 2
        assert len(err.splitlines()) == 1 and "4 tab-separated" in err

    @pytest.mark.parametrize("text", ["", "# comment\n\n"], ids=["empty", "comments-only"])
    def test_a_reference_file_without_claims_is_a_usage_error(self, capsys, tmp_path, text):
        bare = tmp_path / "bare.tsv"
        bare.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "verify", "--data", str(bare))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "bare.tsv: no claims" in err
        assert "Traceback" not in err

    def test_a_reference_file_that_is_not_utf8_is_a_usage_error(self, capsys, tmp_path):
        undecodable = tmp_path / "undecodable.tsv"
        undecodable.write_bytes(b"\xff")
        code, _, err = run_cli(capsys, "verify", "--data", str(undecodable))
        assert code == 2
        assert len(err.splitlines()) == 1 and "undecodable.tsv: not UTF-8" in err

    def test_internal_error_exits_three(self, capsys, monkeypatch):
        def boom(_):
            raise NonIntegerExponent("fabricated inconsistency")

        monkeypatch.setattr(mzv, "mzv_counts", boom)  # the handler imports it when run
        code, _, err = run_cli(capsys, "mzv")
        assert code == 3
        assert "internal consistency error" in err


class TestHelp:
    SUBCOMMANDS = [
        ["beta", "bigraded dimension grid"],
        ["primitives", "primitive counts P_m"],
        ["knots", "knot invariant counts V_m"],
        ["framed", "framed-knot invariant counts F_m"],
        ["mzv", "irreducible counts by weight and depth"],
        ["asymptote", "growth root, limit constant, ratios"],
        ["verify", "replay the reference data"],
    ]

    def test_help_lists_each_subcommand_once_in_order(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        listed = [line.split(None, 1) for line in out.splitlines() if line.startswith("    ")]
        assert listed == self.SUBCOMMANDS

    @pytest.mark.parametrize(
        "command, options",
        [
            ("beta", ["--max-degree"]),
            ("primitives", ["--max-degree"]),
            ("knots", ["--max-degree"]),
            ("framed", ["--max-degree"]),
            ("mzv", ["--max-weight", "--euler-sums"]),
            ("asymptote", ["--max-degree"]),
            ("verify", ["--data"]),
        ],
    )
    def test_each_subcommand_help_names_its_options(self, capsys, monkeypatch, command, options):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, _ = run_cli(capsys, command, "--help")
        assert code == 0 and out.startswith(f"usage: gfenum {command} ")
        listed = [line.split()[0] for line in out.splitlines() if line.startswith("  -")]
        assert listed == ["-h,", "--format", "--output"] + options


# A child interpreter with no site packages, writing no bytecode, runs one
# subcommand, then prints the gfenum modules it loaded and whether
# dataclasses was loaded.
_IMPORT_PROBE = """
import io, sys
sys.path.insert(0, sys.argv[1])
sys.stdout = sys.stderr = io.StringIO()
from gfenum.cli import main
main(sys.argv[2:])
loaded = [name for name in sys.modules if name.partition(".")[0] == "gfenum"]
print(" ".join(sorted(loaded)), "dataclasses" in sys.modules, file=sys.__stdout__)
"""
_BASE = ["gfenum", "gfenum.cli", "gfenum.series"]


class TestStartup:
    @pytest.mark.parametrize(
        "argv, extra",
        [
            (["--help"], []),
            (["beta"], ["generators"]),
            (["primitives"], ["generators"]),
            (["knots"], ["generators", "transforms"]),
            (["framed", "--format", "json"], ["generators", "transforms"]),
            (["mzv"], ["generators", "mzv", "transforms"]),
            (["asymptote"], ["asymptotics", "generators"]),
            (["verify"], ["asymptotics", "generators", "mzv", "transforms", "verify"]),
        ],
    )
    def test_a_subcommand_imports_only_the_modules_it_runs(self, argv, extra):
        src = str(Path(gfenum.__file__).resolve().parents[1])
        child = [sys.executable, "-I", "-S", "-B", "-c", _IMPORT_PROBE, src, *argv]
        out = subprocess.run(child, capture_output=True, text=True, check=True).stdout
        expected = sorted(_BASE + [f"gfenum.{name}" for name in extra])
        assert out.split() == [*expected, "False"]
