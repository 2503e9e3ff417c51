import hashlib
import json
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from discfrac import monotone
from discfrac.cli import _parse_values, main
from discfrac.errors import BudgetExceeded, DomainError
from discfrac.operators import Family, Formulation, Kind, OperatorSpec

from conftest import examples

# sha256 of the acceptance campaign's report: every margin in it, the float
# min_conclusion_margin too, is an exact value rounded once, so the whole report
# is machine-independent
CAMPAIGN_DIGEST = "8a52160e4cdef702398190a684de504e367d0b8ce1c30193732ac7c8f1aac8df"
# the same digest of `theorems --all --random --budget 5000 --seed 3 --length 7
# --values -2,-1,0,1/3,1,2`, which draws every fallback length from its own
# sample stream
RANDOM_DIGEST = "21bd2cb94beb118c352c539e737a89e8d21333e08e6fb0a0bc4cd4a4ee06ddef"
# sha256 of `check --all --instances 200 --seed 0 --backend rational`: every
# residual is exact, so the whole report is machine-independent
RATIONAL_CHECK_DIGEST = "9d1de2198523040cec5474eb9664f33eab040297a4b26cee7e0892288fec1375"
# the same run on the floating backend: its kernels come from one recurrence
# of IEEE additions, products and quotients and it calls no libm function, so
# its residuals depend on no platform's math library
FLOATING_CHECK_DIGEST = "5522ec46dde3a7b8bb57166586d8ce06fd6849fcbfe00426ac9512a4a07ede14"
# the pins the numpy-free CI job checks on every version, reproduced in process
# by test_every_version_pin_holds_in_process: the seed-1 check reports
SEED1_CHECK_DIGESTS = {
    "rational": "0f6ffeb154c81c1eac31eee308d73b01795374b016d8964aec69ac2267bdc0cb",
    "floating": "f3d52b1dd815b6ee2bbba89da858a9a621226de4b05ece7e3a3df1008f3589ae",
}
# one composed and one direct floating operator on 64 values
LONG_APPLY_DIGESTS = {
    "sum.json": "faec9c149c2afc5da52fb0ec4aa4f97b3a992ec3031e1d737ac750fb1d269e3c",
    "direct.json": "b59189b9eb6ef5c9e1f95c342551fef652e56970cf0664ea91a3e5874ec739ca",
}
# the 40 operator rows (kind, side, family, form, backend) on short grids
ROWS_DIGEST = "9b3b7ce7663955bea70a62ebb28d3d604b654193a1e99a9bfc3016ee643dd753"
# 10**5000 written out: past the 4,300 digits of Python's int conversion
LONG = "1" + "0" * 5000
# 5,000 zeros that do not change a numeral's value
ZEROS = "0" * 5000
# the same zeros in Arabic-Indic digits
ARABIC_ZEROS = "\u0660" * 5000


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def ones_json(tmp_path, count=5):
    return write(
        tmp_path,
        "ones.json",
        json.dumps({"origin": "0", "direction": "forward", "values": ["1"] * count}),
    )


class TestApply:
    def test_order_one_sum_of_ones_is_ramp(self, tmp_path, capsys):
        src = ones_json(tmp_path)
        out = str(tmp_path / "out.json")
        code = main(["apply", "--input", src, "--kind", "delta", "--side", "left",
                     "--family", "sum", "--order", "1", "--backend", "rational",
                     "--output", out])
        assert code == 0
        record = json.loads(open(out).read())
        assert record["origin"] == "1"
        assert record["values"] == ["1", "2", "3", "4", "5"]

    def test_nabla_half_order_value_at_two(self, tmp_path):
        src = ones_json(tmp_path)
        out = str(tmp_path / "out.json")
        code = main(["apply", "--input", src, "--kind", "nabla", "--side", "left",
                     "--family", "sum", "--order", "0.5", "--backend", "rational",
                     "--output", out])
        assert code == 0
        record = json.loads(open(out).read())
        assert record["origin"] == "0"
        assert record["values"][2] == "3/2"

    def test_direct_integer_order_is_usage_error(self, tmp_path, capsys):
        src = ones_json(tmp_path)
        code = main(["apply", "--input", src, "--kind", "delta", "--side", "left",
                     "--family", "riemann", "--form", "direct", "--order", "2"])
        assert code == 2
        assert "non-integer order" in capsys.readouterr().err

    @pytest.mark.parametrize("operator", [["--family", "sum"], ["--family", "caputo"],
                                          ["--family", "riemann", "--form", "composed"]])
    def test_extended_without_the_direct_form_is_usage_error(self, tmp_path, capsys,
                                                             operator):
        out = tmp_path / "out.json"
        code = main(["apply", "--input", ones_json(tmp_path), "--kind", "nabla",
                     "--order", "1/2", *operator, "--extended", "--output", str(out)])
        assert code == 2
        assert "--extended needs --form direct" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("family", ["sum", "caputo"])
    def test_direct_form_off_riemann_is_usage_error(self, tmp_path, capsys, family):
        out = tmp_path / "out.json"
        code = main(["apply", "--input", ones_json(tmp_path), "--kind", "delta",
                     "--family", family, "--form", "direct", "--order", "1/2",
                     "--output", str(out)])
        assert code == 2
        assert "--form direct needs --family riemann" in capsys.readouterr().err
        assert not out.exists()
        # a library caller still gets the domain error from the spec
        with pytest.raises(DomainError, match="Riemann differences only"):
            OperatorSpec(Kind.DELTA, Family(family), Fraction(1, 2),
                         Formulation.DIRECT)

    def test_extended_direct_form_adds_points(self, tmp_path):
        args = ["apply", "--input", ones_json(tmp_path), "--kind", "delta",
                "--family", "riemann", "--form", "direct", "--order", "3/2",
                "--backend", "rational"]
        plain, extended = tmp_path / "plain.json", tmp_path / "extended.json"
        assert main(args + ["--output", str(plain)]) == 0
        assert main(args + ["--extended", "--output", str(extended)]) == 0
        plain, extended = json.loads(plain.read_text()), json.loads(extended.read_text())
        assert len(extended["values"]) == len(plain["values"]) + 1
        assert extended["values"][1:] == plain["values"]
        assert extended["operator"]["formulation"] == "extended"
        assert plain["operator"]["formulation"] == "direct"

    @pytest.mark.parametrize("side, direction, want", [("left", "backward", "forward"),
                                                       ("right", "forward", "backward")])
    def test_direction_mismatch_is_domain_error(self, tmp_path, capsys, side, direction, want):
        # an operator acts on the side its grid's direction gives, so --side
        # must name the input's
        src = write(tmp_path, "f.json", json.dumps(
            {"origin": "5", "direction": direction, "values": ["1", "2", "3"]}))
        out = tmp_path / "out.json"
        code = main(["apply", "--input", src, "--kind", "delta", "--side", side,
                     "--family", "sum", "--order", "1", "--output", str(out)])
        assert code == 3
        assert capsys.readouterr().err == (
            f"domain error: {side} operators require a {want} grid, got {direction}\n")
        assert not out.exists()

    def test_csv_input(self, tmp_path):
        src = write(tmp_path, "f.csv", "0,1\n1,2\n2,4\n")
        out = str(tmp_path / "out.json")
        code = main(["apply", "--input", src, "--kind", "delta", "--side", "left",
                     "--family", "sum", "--order", "1", "--backend", "rational",
                     "--output", out])
        assert code == 0
        assert json.loads(open(out).read())["values"] == ["1", "3", "7"]

    def test_csv_requires_consecutive_integer_points(self, tmp_path):
        src = write(tmp_path, "f.csv", "0,1\n2,2\n")
        assert main(["apply", "--input", src, "--kind", "delta", "--side", "left",
                     "--family", "sum", "--order", "1"]) == 3

    def test_round_trip_is_stable(self, tmp_path):
        from discfrac.backends import RATIONAL
        from discfrac.cli import _grid_record, _read_grid

        src = ones_json(tmp_path)
        out1 = str(tmp_path / "o1.json")
        out2 = str(tmp_path / "o2.json")
        main(["apply", "--input", src, "--kind", "nabla", "--side", "left",
              "--family", "sum", "--order", "1/2", "--backend", "rational",
              "--output", out1])
        # the output re-ingests as input and re-serializes identically
        record = json.loads(open(out1).read())
        grid = _read_grid(out1, RATIONAL)
        again = _grid_record(grid)
        assert again == {k: record[k] for k in ("origin", "direction", "values")}
        code = main(["apply", "--input", out1, "--kind", "nabla", "--side", "left",
                     "--family", "sum", "--order", "1/2", "--backend", "rational",
                     "--output", out2])
        assert code == 0

    def test_missing_file_is_usage_error(self):
        assert main(["apply", "--input", "/nonexistent.json", "--kind", "delta",
                     "--side", "left", "--family", "sum", "--order", "1"]) == 2


def apply_args(src, *extra):
    return ["apply", "--input", src, "--kind", "delta", "--side", "left",
            "--family", "sum", "--order", "1", *extra]


class TestInputContract:
    @pytest.mark.parametrize("name,text", [
        ("empty.csv", ""),
        ("one-column.csv", "0\n1\n2\n"),
        ("ragged.csv", "0,1\n1\n"),
    ])
    def test_malformed_csv_is_usage_error(self, tmp_path, capsys, name, text):
        assert main(apply_args(write(tmp_path, name, text))) == 2
        assert "t,value rows" in capsys.readouterr().err

    @pytest.mark.parametrize("record", [
        "abc",
        {"origin": "0", "direction": "forward", "values": "12"},
        {"origin": "0", "direction": "forward", "values": 12},
        [1, 2],
    ])
    def test_json_shape_is_usage_error(self, tmp_path, capsys, record):
        src = write(tmp_path, "f.json", json.dumps(record))
        assert main(apply_args(src)) == 2
        assert '"values" is a list' in capsys.readouterr().err

    @pytest.mark.parametrize("name,text", [
        ("f.json", json.dumps({"origin": "0", "direction": "forward", "values": ["1", "x"]})),
        ("f.json", json.dumps({"origin": "1/0", "direction": "forward", "values": ["1"]})),
        ("f.csv", "0,1\n1,one\n"),
    ])
    def test_unparsable_number_in_file_is_usage_error(self, tmp_path, capsys, name, text):
        assert main(apply_args(write(tmp_path, name, text))) == 2
        assert "cannot parse number" in capsys.readouterr().err

    def test_unparsable_order_is_usage_error(self, tmp_path, capsys):
        src = ones_json(tmp_path)
        code = main(["apply", "--input", src, "--kind", "delta", "--family", "sum",
                     "--order", "half"])
        assert code == 2
        assert "cannot parse number" in capsys.readouterr().err

    @pytest.mark.parametrize("nu, numeral", [("1/2,abc", "abc"), ("", "")])
    def test_unparsable_nu_is_usage_error(self, capsys, nu, numeral):
        """An empty --nu names no order, as --nu , does: it is refused, not
        read as the default orders."""
        code = main(["theorems", "--id", "T_U1", "--length", "3", "--nu", nu])
        assert code == 2
        assert capsys.readouterr().err == f"input error: cannot parse number {numeral!r}\n"

    def test_one_number_grammar_on_every_python_version(self, tmp_path, capsys):
        """Every --order form names 5/2 with one output, "_" between digits
        and spaces around "/" included, which Python 3.10's Fraction refuses;
        malformed ones exit 2 on every version."""
        src = write(tmp_path, "f.json", json.dumps(
            {"origin": "0", "direction": "forward", "values": ["1", "1/2", "-2", "3", "5/4"]}))
        outputs = set()
        for order in ("5/2", "1_0/4", "10 / 4", "2.5", "2_5e-1", "0.25e1"):
            assert main(["apply", "--input", src, "--kind", "delta", "--family", "caputo",
                         "--order", order, "--backend", "rational"]) == 0
            outputs.add(capsys.readouterr().out)
        assert len(outputs) == 1
        for order in ("1__0", "_1", "1/", "1.5/2", "1e"):
            assert main(["apply", "--input", src, "--kind", "delta", "--family", "caputo",
                         "--order", order, "--backend", "rational"]) == 2
            assert capsys.readouterr().err == f"input error: cannot parse number {order!r}\n"

    def test_json_numbers_are_read_from_their_text(self, tmp_path, capsys):
        """An unquoted JSON number is read exactly as its quoted text is, never
        through a double: 20 significant digits keep their value, and 1e400
        gets the double-range message."""
        record = '{"origin": 0, "direction": "forward", "values": [1, %s, 2]}'
        outputs = []
        for number in ("0.12345678901234567891", '"0.12345678901234567891"'):
            src = write(tmp_path, "f.json", record % number)
            assert main(apply_args(src, "--backend", "rational")) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert '"112345678901234567891/100000000000000000000"' in outputs[0]
        for number in ("1e400", '"1e400"'):
            assert main(apply_args(write(tmp_path, "f.json", record % number))) == 3
            assert capsys.readouterr().err == (
                "domain error: value 1e400 lies outside the double range\n")

    def test_nonpositive_tolerance_and_budget_are_domain_errors(self, capsys):
        assert main(["check", "--id", "Q_SUM_DELTA", "--tolerance", "0"]) == 3
        assert "tolerance must be positive" in capsys.readouterr().err
        for text in ("nan", "inf", "1e400"):
            assert main(["check", "--id", "Q_SUM_DELTA", "--tolerance", text]) == 3
            assert "tolerance must be positive and finite" in capsys.readouterr().err
        assert main(["theorems", "--id", "T_U1", "--budget", "0"]) == 3
        assert "budget must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("command, message", [
        (["apply", "--input", "ONES", "--kind", "delta", "--family", "sum", "--order", "-1/2"],
         "operator order must be positive"),
        (["apply", "--input", "ONES", "--kind", "delta", "--family", "sum", "--order=-1/2"],
         "operator order must be positive"),
        (["check", "--id", "LEFT_DUAL_SUM", "--instances", "2", "--tolerance", "-1e-3"],
         "tolerance must be positive and finite"),
        (["check", "--id", "LEFT_DUAL_SUM", "--instances", "2", "--tolerance=-1e-3"],
         "tolerance must be positive and finite"),
    ])
    def test_a_negative_order_or_tolerance_is_a_domain_error(self, tmp_path, capsys, command,
                                                            message):
        # "-1/2" and "-1e-3" are no plain numbers to argparse, which would
        # read them as option strings: either spelling reaches the value check
        code = main([ones_json(tmp_path) if arg == "ONES" else arg for arg in command])
        assert code == 3
        assert capsys.readouterr().err == f"domain error: {message}\n"

    @pytest.mark.parametrize("flag", ["--order", "--values"])
    def test_a_number_flag_followed_by_a_flag_has_no_value(self, tmp_path, capsys, flag):
        command = {"--order": ["apply", "--input", ones_json(tmp_path), "--kind", "delta",
                               "--family", "sum"],
                   "--values": ["theorems", "--id", "T_U1"]}[flag]
        assert main(command + [flag, "--seed", "1"]) == 2
        assert f"argument {flag}: expected one argument" in capsys.readouterr().err


    @pytest.mark.parametrize("command", [
        ["apply", "--input", "BIG", "--kind", "delta", "--family", "sum", "--order", "1/2"],
        ["apply", "--input", "ONES", "--kind", "delta", "--family", "sum", "--order", "1e400"],
        ["apply", "--input", "CSV", "--kind", "nabla", "--family", "caputo", "--order", "1/3"],
        ["theorems", "--id", "T_U1", "--length", "3", "--values", "1e400,0"],
        ["theorems", "--id", "T_U1", "--length", "3", "--values", "-1e400,0", "--random"],
    ])
    def test_value_outside_double_range_is_domain_error(self, tmp_path, capsys, command):
        big = write(tmp_path, "big.json", json.dumps(
            {"origin": "0", "direction": "forward", "values": ["1", "1e400", "2"]}))
        csv = write(tmp_path, "big.csv", "0,1\n1,-1e400\n2,0\n")
        files = {"BIG": big, "CSV": csv, "ONES": ones_json(tmp_path)}
        assert main([files.get(arg, arg) for arg in command]) == 3
        err = capsys.readouterr().err
        assert "1e400 lies outside the double range" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["1e2000", "-1e2000", "1e-2000"])
    def test_value_past_the_bit_cap_is_domain_error(self, tmp_path, capsys, value):
        big = write(tmp_path, "big.json", json.dumps(
            {"origin": "0", "direction": "forward", "values": ["1", value, "2"]}))
        code = main(["apply", "--input", big, "--kind", "delta", "--family", "sum",
                     "--order", "1/2", "--backend", "rational"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("domain error: rational magnitude exceeds 4096-bit cap")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", [
        ["apply", "--input", "VALUE", "--kind", "delta", "--family", "sum", "--order", "1/2"],
        ["apply", "--input", "VALUE", "--kind", "delta", "--family", "sum", "--order", "1/2",
         "--backend", "rational"],
        ["apply", "--input", "ORIGIN", "--kind", "nabla", "--family", "caputo", "--order", "1/2"],
        ["apply", "--input", "ONES", "--kind", "delta", "--family", "sum",
         "--order", "1e99999999"],
        ["theorems", "--id", "T_U1", "--length", "3", "--values", "0,1e99999999"],
        ["theorems", "--id", "T_U1", "--length", "3", "--nu", "1e-99999999"],
        pytest.param(["theorems", "--id", "T_U1", "--length", "3", "--values",
                      f"0,{LONG}e99999999"], id="long-mantissa"),
    ])
    def test_a_huge_decimal_exponent_is_refused_unexpanded(self, tmp_path, capsys, command):
        """Fraction would expand 10**99999999 for minutes; the exponent is
        refused before any of it is built."""
        value = write(tmp_path, "value.json", json.dumps(
            {"origin": "0", "direction": "forward", "values": ["1", "-1e99999999", "2"]}))
        origin = write(tmp_path, "origin.json", json.dumps(
            {"origin": "1e99999999", "direction": "forward", "values": ["1", "2", "3"]}))
        files = {"VALUE": value, "ORIGIN": origin, "ONES": ones_json(tmp_path)}
        assert main([files.get(arg, arg) for arg in command]) == 3
        err = capsys.readouterr().err
        assert err.startswith("domain error: value ")
        assert err.endswith("99999999 has a decimal exponent past 10000 in magnitude\n")
        assert len(err) < 120  # at most 40 characters of the numeral

    @pytest.mark.parametrize("value, backend, message", [
        ("1e5000", "floating", "value 1e5000 lies outside the double range"),
        ("-1e10000", "floating", "value -1e10000 lies outside the double range"),
        ("1e10000", "rational", "rational magnitude exceeds 4096-bit cap"),
        ("1e-10000", "rational", "rational magnitude exceeds 4096-bit cap"),
    ])
    def test_an_exponent_up_to_the_limit_is_parsed(self, tmp_path, capsys, value, backend,
                                                   message):
        big = write(tmp_path, "big.json", json.dumps(
            {"origin": "0", "direction": "forward", "values": ["1", value, "2"]}))
        code = main(["apply", "--input", big, "--kind", "delta", "--family", "sum",
                     "--order", "1/2", "--backend", backend])
        assert code == 3
        assert capsys.readouterr().err == f"domain error: {message}\n"

    @pytest.mark.parametrize("backend", ["floating", "rational"])
    @pytest.mark.parametrize("name, text, origin", [
        ("huge.json", json.dumps({"origin": "1e5000", "direction": "forward",
                                  "values": ["1", "1/2", "-2"]}), "1e5000"),
        ("tiny.json", json.dumps({"origin": "1e-5000", "direction": "forward",
                                  "values": ["1", "1/2", "-2"]}), "1e-5000"),
        ("huge.csv", "1e5000,1\n", "1e5000"),
    ])
    def test_an_origin_past_the_bit_cap_is_refused_before_the_operator(
            self, tmp_path, capsys, monkeypatch, backend, name, text, origin):
        """Formatting a 5001-digit origin fails past Python's 4300-digit limit;
        it is refused where it is parsed, so no operator runs."""

        def no_operator(*args, **kwargs):
            raise AssertionError("the operator ran")

        monkeypatch.setattr("discfrac.cli.apply_operator", no_operator)
        output = tmp_path / "out.json"
        code = main(["apply", "--input", write(tmp_path, name, text), "--kind", "delta",
                     "--family", "sum", "--order", "1/2", "--backend", backend,
                     "--output", str(output)])
        assert code == 3
        err = capsys.readouterr().err
        assert err == f"domain error: origin {origin} has more than 4096 bits\n"
        assert not output.exists()

    @pytest.mark.parametrize("command, shown", [
        *((["apply", "--input", "ONES", "--kind", "delta", "--family", "sum",
            "--order", order, "--backend", backend], f"--order {order}")
          for order in ("1e-5000", "1e-1300") for backend in ("floating", "rational")),
        (["theorems", "--id", "T_U1", "--length", "3", "--values", "0,1e-5000"],
         "--values 1e-5000"),
        (["theorems", "--id", "T_U1", "--length", "3", "--values", "0,1e-1300,1"],
         "--values 1e-1300"),
        (["theorems", "--id", "T_U1", "--length", "2", "--values", "0,1e-1300"],
         "--values 1e-1300"),
        (["theorems", "--id", "T_U1", "--length", "3", "--values", f"{10**1300}..{10**1300}"],
         f"--values {10**1300}"),
        (["theorems", "--id", "T_U1", "--length", "3", "--nu", "1e-1300"], "--nu 1e-1300"),
        pytest.param(["theorems", "--id", "T_U1", "--length", "3", "--values",
                      f"{LONG}..{LONG}"], f"--values {LONG}", id="long-range"),
        pytest.param(["theorems", "--id", "T_U1", "--length", "3", "--values", f"0,{LONG}"],
                     f"--values {LONG}", id="long-list"),
        pytest.param(["theorems", "--id", "T_U1", "--length", "3", "--values",
                      f"0,1.{'3' * 5000}"], f"--values 1.{'3' * 5000}", id="long-decimal"),
        pytest.param(["theorems", "--id", "T_U1", "--length", "3", "--values",
                      f"0,0.{ZEROS}1"], f"--values 0.{ZEROS}1", id="long-fraction"),
        pytest.param(["apply", "--input", "ONES", "--kind", "delta", "--family", "sum",
                      "--order", f"1{ZEROS}.5{ZEROS}"], f"--order 1{ZEROS}.5{ZEROS}",
                     id="long-order"),
    ])
    def test_a_number_past_the_bit_cap_is_refused_where_it_is_parsed(
            self, tmp_path, capsys, command, shown):
        """An order or a searched value past the bit cap exits 3 as an origin
        does, whatever the backend and whichever witness a search would
        report: formatting 1e-5000 would fail past Python's 4300-digit limit,
        no theorem case can hold 1e-1300, and 10**5000 written out, or a
        decimal of 5,000 significant digits, is past the limit of Python's int
        conversion.  The message shows at most 40 characters of the numeral."""
        assert main([ones_json(tmp_path) if arg == "ONES" else arg for arg in command]) == 3
        what, numeral = shown.split(" ", 1)
        if len(numeral) > 40:
            numeral = f"{numeral[:18]}...{numeral[-18:]}"
        assert capsys.readouterr().err == (
            f"domain error: {what} {numeral} has more than 4096 bits\n")

    @pytest.mark.parametrize("values, parsed", [
        pytest.param(f"0,{ZEROS}1", [0, 1], id="leading"),
        pytest.param(f"1.5{ZEROS},0", [Fraction(3, 2), 0], id="trailing"),
        pytest.param(f"-{ZEROS}2.5{ZEROS},{ZEROS}", [Fraction(-5, 2), 0], id="both"),
        pytest.param(f"0..{ZEROS}1", range(0, 2), id="range"),
        pytest.param(f"0,0.{ZEROS}1e5001", [0, 1], id="exponent-cancels-zeros"),
        pytest.param(f"0,0.{ZEROS}_1e5001", [0, 1], id="underscore-digits"),
        pytest.param(f"0,0.{ZEROS}1e50_01", [0, 1], id="underscore-exponent"),
    ])
    def test_value_neutral_zeros_do_not_count_toward_the_bit_cap(self, capsys, values,
                                                                 parsed):
        """A numeral too long for int conversion only because of its leading
        zeros, of the trailing zeros of its decimal fraction, or of zeros its
        exponent cancels, is the number it names, not one past the cap."""
        assert _parse_values(values) == parsed
        assert main(["theorems", "--id", "T_U1", "--length", "3", "--values", values]) == 0
        assert "bits" not in capsys.readouterr().err

    @pytest.mark.parametrize("command, plain", [
        pytest.param(["apply", "--input", "ORIGIN", "--order", "1/2"],
                     ["apply", "--input", "ONE", "--order", "1/2"], id="origin"),
        pytest.param(["apply", "--input", "ONE", "--order", f"0.{ZEROS}5e5000"],
                     ["apply", "--input", "ONE", "--order", "1/2"], id="order"),
        pytest.param(["theorems", "--id", "T_U1", "--length", "3", "--nu", f"0.{ZEROS}5e5000"],
                     ["theorems", "--id", "T_U1", "--length", "3", "--nu", "1/2"], id="nu"),
        pytest.param(["theorems", "--id", "T_U1", "--length", "3", "--values",
                      f"0,\u0661{ARABIC_ZEROS}e-5000"],
                     ["theorems", "--id", "T_U1", "--length", "3", "--values", "0,1"],
                     id="non-ascii-digits"),
    ])
    def test_zeros_an_exponent_cancels_are_read_wherever_a_number_is_parsed(
            self, tmp_path, command, plain):
        """An origin, an order, a nu or a searched value written with 5,000
        zeros that its exponent cancels, in ASCII or Arabic-Indic digits,
        gives the report of the number it names."""
        series = {"origin": "1", "direction": "forward", "values": ["1", "1/2", "-2"]}
        files = {"ONE": write(tmp_path, "one.json", json.dumps(series)),
                 "ORIGIN": write(tmp_path, "origin.json",
                                 json.dumps({**series, "origin": f"0.{ZEROS}1e5001"}))}
        reports = []
        for i, args in enumerate((command, plain)):
            out = tmp_path / f"out{i}"
            args = [files.get(arg, arg) for arg in args]
            if args[0] == "apply":
                args += ["--kind", "delta", "--family", "sum", "--backend", "rational",
                         "--output", str(out)]
            else:
                args += ["--report", str(out)]
            assert main(args) == 0
            reports.append(out.read_text())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("values, numeral, message", [
        pytest.param(f"0,x{LONG}", f"x{LONG}", "input error: cannot parse number 'N'", id="junk"),
        pytest.param(f"0..{LONG}x", f"{LONG}x", "input error: cannot parse integer 'N'",
                     id="range-junk"),
        pytest.param(f"{LONG}9e-5001..1", f"{LONG}9e-5001",
                     "domain error: --values N has more than 4096 bits", id="range-past-the-cap"),
        pytest.param(f"0,{'9' * 1000}, {'9' * 1000}", "9" * 1000,
                     "usage error: --values repeats N", id="repeat"),
        pytest.param(f"{'9' * 1000}..{'9' * 1001}", f"{'9' * 1000}..{'9' * 1001}",
                     "budget error: --values N names more values than the budget of 500000 "
                     "evaluations", id="budget"),
    ])
    def test_a_message_shows_at_most_40_characters_of_a_numeral(self, capsys, values, numeral,
                                                                message):
        """A numeral N that does not parse, or one named in a refusal, is shown
        by its first and last 18 characters once it is longer than 40."""
        assert main(["theorems", "--id", "T_U1", "--length", "3", "--values", values]) in (2, 3, 4)
        shown = f"{numeral[:18]}...{numeral[-18:]}"
        assert capsys.readouterr().err == message.replace("N", shown) + "\n"


class TestCheck:
    def test_single_identity_passes(self, tmp_path):
        report = str(tmp_path / "r.jsonl")
        code = main(["check", "--id", "Q_SUM_DELTA", "--instances", "5",
                     "--seed", "5", "--report", report])
        assert code == 0
        lines = open(report).read().strip().splitlines()
        assert len(lines) == 1
        rec = json.loads(lines[0])
        assert rec["pass"] is True and rec["id"] == "Q_SUM_DELTA"

    def test_all_rational_residuals_zero(self, tmp_path):
        report = str(tmp_path / "r.jsonl")
        code = main(["check", "--all", "--backend", "rational", "--instances", "3",
                     "--report", report])
        assert code == 0
        for line in open(report).read().strip().splitlines():
            assert json.loads(line)["max_residual"] == "0"

    def test_inject_error_fails(self, tmp_path):
        code = main(["check", "--all", "--instances", "3", "--inject-error",
                     "--report", str(tmp_path / "r.jsonl")])
        assert code == 1

    def test_inject_error_fails_on_the_exact_backend(self, tmp_path):
        report = tmp_path / "r.jsonl"
        code = main(["check", "--all", "--instances", "3", "--inject-error",
                     "--backend", "rational", "--report", str(report)])
        assert code == 1
        failed = [json.loads(line) for line in report.read_text().splitlines()]
        failed = {rec["id"]: rec for rec in failed if not rec["pass"]}
        # a single-lag fault escapes some instances: RELATE_DELTA_LEFT
        # passes all three of these
        assert {k: rec["failures"] for k, rec in failed.items()} == {
            "RELATE_DELTA_RIGHT": 2, "RELATE_NABLA_LEFT": 3, "RELATE_NABLA_RIGHT": 3,
            "CAPUTO_INVERSION": 3}
        assert all(rec["max_residual"] != "0" for rec in failed.values())

    def test_rational_report_is_pinned(self, tmp_path):
        report = tmp_path / "r.jsonl"
        assert main(["check", "--all", "--instances", "200", "--seed", "0",
                     "--backend", "rational", "--report", str(report)]) == 0
        assert hashlib.sha256(report.read_bytes()).hexdigest() == RATIONAL_CHECK_DIGEST

    def test_floating_report_is_pinned(self, tmp_path):
        report = tmp_path / "r.jsonl"
        assert main(["check", "--all", "--instances", "200", "--seed", "0",
                     "--backend", "floating", "--report", str(report)]) == 0
        assert hashlib.sha256(report.read_bytes()).hexdigest() == FLOATING_CHECK_DIGEST

    def test_every_version_pin_holds_in_process(self, tmp_path, capsys):
        """The seed-1 check reports, the two 64-value floating ``apply``
        outputs and the 40 operator rows' stdout keep the digests the
        numpy-free CI job checks on every version."""
        for backend, digest in SEED1_CHECK_DIGESTS.items():
            report = tmp_path / f"{backend}-1.jsonl"
            assert main(["check", "--all", "--instances", "200", "--seed", "1",
                         "--backend", backend, "--report", str(report)]) == 0
            assert hashlib.sha256(report.read_bytes()).hexdigest() == digest
        long = write(tmp_path, "long.json", json.dumps({
            "origin": "1/3", "direction": "forward",
            "values": [f"{(7 * i) % 17 - 8}/{i % 4 + 1}" for i in range(64)]}))
        for name, operator in [
                ("sum.json", ["--kind", "nabla", "--family", "sum", "--order", "1/3"]),
                ("direct.json", ["--kind", "delta", "--family", "riemann", "--order", "5/4",
                                 "--form", "direct"])]:
            out = tmp_path / name
            assert main(["apply", "--input", long, "--side", "left", *operator,
                         "--backend", "floating", "--output", str(out)]) == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == LONG_APPLY_DIGESTS[name]
        grids = {
            "left": write(tmp_path, "fwd.json", '{"origin": "-1", "direction": "forward", '
                          '"values": ["1", "-1/2", "2", "3/4", "-5", "7/3"]}'),
            "right": write(tmp_path, "bwd.json", '{"origin": "5/2", "direction": "backward", '
                           '"values": ["2/3", "4", "-1", "1/5", "3", "-3/2"]}'),
        }
        families = [["sum"], ["riemann"], ["caputo"], ["riemann", "--form", "direct"],
                    ["riemann", "--form", "direct", "--extended"]]
        capsys.readouterr()
        for backend in ("floating", "rational"):
            for side, grid in grids.items():
                for kind in ("delta", "nabla"):
                    for family in families:
                        assert main(["apply", "--input", grid, "--kind", kind, "--side", side,
                                     "--family", *family, "--order", "3/2",
                                     "--backend", backend]) == 0
        rows = capsys.readouterr().out
        assert hashlib.sha256(rows.encode()).hexdigest() == ROWS_DIGEST
        assert rows.count('"formulation": "extended"') == 8

    @pytest.mark.parametrize("instances", ["0", "-3"])
    def test_no_instances_is_usage_error(self, tmp_path, capsys, instances):
        report = tmp_path / "r.jsonl"
        code = main(["check", "--all", "--instances", instances, "--report", str(report)])
        assert code == 2
        assert "--instances must be at least 1" in capsys.readouterr().err
        assert not report.exists()

    def test_unknown_identity_is_domain_error(self):
        assert main(["check", "--id", "NOT_AN_IDENTITY", "--instances", "1"]) == 3

    def test_repeated_id_is_usage_error(self, tmp_path, capsys):
        report = tmp_path / "r.jsonl"
        code = main(["check", "--id", "LEFT_DUAL_SUM", "--id", "Q_SUM_DELTA",
                     "--id", "LEFT_DUAL_SUM", "--instances", "1", "--report", str(report)])
        assert code == 2
        assert "--id repeats LEFT_DUAL_SUM" in capsys.readouterr().err
        assert not report.exists()

    def test_all_and_id_are_exclusive(self, tmp_path, capsys):
        report = tmp_path / "r.jsonl"
        code = main(["check", "--all", "--id", "LEFT_DUAL_SUM", "--instances", "1",
                     "--report", str(report)])
        assert code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not report.exists()

    def test_reports_are_deterministic(self, tmp_path):
        r1, r2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        args = ["check", "--id", "LEFT_DUAL_DIFF", "--instances", "4", "--seed", "3"]
        main(args + ["--report", r1])
        main(args + ["--report", r2])
        assert open(r1, "rb").read() == open(r2, "rb").read()

    def test_environment_does_not_choose_the_backend(self, tmp_path, monkeypatch):
        report = str(tmp_path / "r.jsonl")
        monkeypatch.setenv("FRAC_BACKEND", "rational")
        code = main(["check", "--id", "LEFT_DUAL_SUM", "--instances", "2",
                     "--backend", "floating", "--report", report])
        assert code == 0
        rec = json.loads(open(report).read().strip())
        assert rec["config"]["backend"] == "floating"
        assert rec["max_residual"] == "0.0"


class TestTheorems:
    def test_exhaustive_small_run(self, tmp_path):
        report = str(tmp_path / "t.jsonl")
        code = main(["theorems", "--id", "T_JEP1", "--exhaustive", "--length", "5",
                     "--values", "-1,0,1", "--report", report])
        assert code == 0
        recs = [json.loads(line) for line in open(report).read().strip().splitlines()]
        assert len(recs) == 3  # one per default order sample
        for rec in recs:
            assert rec["counterexamples"] == []
            assert rec["witness"] is not None

    def test_budget_exceeded(self, tmp_path):
        code = main(["theorems", "--id", "T_U1", "--exhaustive", "--length", "20",
                     "--values", "-2..2", "--report", str(tmp_path / "t.jsonl")])
        assert code == 4

    def test_value_range_past_the_budget_is_refused_unbuilt(self, tmp_path, capsys):
        # 3,000,001 values: built, they took seconds and half a gigabyte
        report = tmp_path / "t.jsonl"
        code = main(["theorems", "--id", "T_U1", "--values", "0..3000000", "--length", "2",
                     "--report", str(report)])
        assert code == 4
        assert capsys.readouterr().err == ("budget error: --values 0..3000000 names more "
                                           "values than the budget of 500000 evaluations\n")
        assert not report.exists()
        with pytest.raises(BudgetExceeded):
            _parse_values("0..3000000", 500_000)
        # one value past the budget; a range within it stays a range, never built
        assert main(["theorems", "--id", "T_U1", "--values", "1..11", "--budget", "10"]) == 4
        assert _parse_values("1..10", 10) == range(1, 11)

    def test_k_cap_past_the_budget_is_refused_unbuilt(self, tmp_path, capsys):
        # a start ray makes one hypothesis row per k up to --k-cap: at 1,000,000
        # the 16 vectors below took 17 s and 860 MB
        report = tmp_path / "t.jsonl"
        args = ["theorems", "--values", "0,1", "--length", "4", "--budget", "100",
                "--report", str(report)]
        for k_cap in ("1000000", "100"):
            assert main(args + ["--id", "T_SLOV1", "--nu", "3/2", "--k-cap", k_cap]) == 4
            assert capsys.readouterr().err == (
                f"budget error: k_cap {k_cap} expands the T_SLOV1 start ray into up to "
                f"{int(k_cap) + 1} rows, more than the budget of 100\n")
            assert not report.exists()
        assert main(args + ["--id", "T_SLOV1", "--nu", "3/2", "--k-cap", "99"]) == 0
        # a theorem without a start ray reads no k_cap
        assert main(args + ["--id", "T_U1", "--nu", "1/2", "--k-cap", "1000000"]) == 0

    def test_random_mode_builds_any_range(self, tmp_path):
        code = main(["theorems", "--id", "T_U1", "--random", "--values", "0..20",
                     "--budget", "10", "--length", "2", "--nu", "1/2",
                     "--report", str(tmp_path / "t.jsonl")])
        assert code == 0

    def test_a_range_past_what_a_search_can_index_is_a_domain_error(self, capsys):
        code = main(["theorems", "--id", "T_U1", "--random", "--values", f"0..{2 ** 63}",
                     "--length", "2"])
        assert code == 3
        assert capsys.readouterr().err == (f"domain error: --values 0..{2 ** 63} names more "
                                           f"than {sys.maxsize} values\n")

    @pytest.mark.parametrize("mode", ["--exhaustive", "--random"])
    def test_a_range_reports_as_its_text(self, tmp_path, capsys, mode):
        """A range searches what its comma list does; its report names it by
        its lo..hi text, where the list's names every value, and every other
        field is the list's."""
        runs = []
        for values in (" 01..4", "1,2,3,4"):
            report = tmp_path / "t.jsonl"
            assert main(["theorems", "--id", "T_U1", mode, "--values", values, "--length", "2",
                         "--budget", "200", "--report", str(report)]) == 0
            runs.append(([json.loads(line) for line in report.read_text().splitlines()],
                         capsys.readouterr()))
        (ranged, ranged_out), (listed, listed_out) = runs
        assert ranged_out == listed_out and len(ranged) == len(listed) == 3
        for a, b in zip(ranged, listed):
            assert (a["config"].pop("values"), b["config"].pop("values")) == (
                "1..4", ["1", "2", "3", "4"])
            assert a == b
        # a range cannot repeat a value, so it skips the repeat check
        assert main(["theorems", "--id", "T_U1", mode, "--values", "1,2,3,2", "--length", "2",
                     "--budget", "200"]) == 2
        assert capsys.readouterr().err == "usage error: --values repeats 2\n"

    def test_a_long_range_keeps_the_report_small(self, tmp_path):
        """The report of a range does not grow with its length: 300,001 values
        write what 4 do, but for the wider witnesses a wider range draws."""
        sizes = []
        for values in ("0..3", "0..300000"):
            report = tmp_path / "t.jsonl"
            assert main(["theorems", "--id", "T_U1", "--random", "--values", values,
                         "--budget", "100", "--k-cap", "3", "--report", str(report)]) == 0
            sizes.append(report.stat().st_size)
        assert sizes[1] < sizes[0] + 200 and sizes[1] < 2000

    @pytest.mark.parametrize("length", ["6000", "7000"])
    def test_long_grid_budget_error_names_its_factors(self, capsys, length):
        # 5**7000 * 3 has more digits than int-to-str conversion allows
        code = main(["theorems", "--id", "T_U1", "--values", "-2..2", "--length", length])
        assert code == 4
        assert capsys.readouterr().err == (
            f"budget error: exhaustive search needs 5^{length} x 3 evaluations (5 values, "
            f"length {length}, 3 orders), more than the budget of 500000\n")

    def test_range_value_syntax(self, tmp_path):
        report = str(tmp_path / "t.jsonl")
        code = main(["theorems", "--id", "T_U1", "--exhaustive", "--length", "3",
                     "--values", "-1..1", "--nu", "1/2", "--report", report])
        assert code == 0

    def test_random_mode_all_theorems(self, tmp_path):
        report = str(tmp_path / "t.jsonl")
        code = main(["theorems", "--all", "--random", "--budget", "300",
                     "--seed", "1", "--length", "6", "--values", "-1,-1/2,0,1/2,1",
                     "--report", report])
        assert code == 0

    def test_empty_value_set_is_usage_error(self, capsys):
        for values in (",", "1..0"):
            code = main(["theorems", "--id", "T_U1", "--length", "3", "--values", values])
            assert code == 2
            assert "names no value" in capsys.readouterr().err

    def test_repeated_values_are_usage_error(self, capsys):
        code = main(["theorems", "--id", "T_U1", "--length", "3",
                     "--values", "0,0,1,1/2,2/4"])
        assert code == 2
        assert "repeats 0, 1/2" in capsys.readouterr().err

    def test_vacuous_result_is_labelled(self, tmp_path, capsys):
        # the zero function is never a witness, so {0} leaves none
        code = main(["theorems", "--id", "T_JEP1", "--length", "3", "--values", "0",
                     "--nu", "3/2", "--report", str(tmp_path / "t.jsonl")])
        assert code == 0
        err = capsys.readouterr().err
        assert "vacuous" in err and " pass " not in err

    def test_random_and_exhaustive_are_exclusive(self, capsys):
        code = main(["theorems", "--id", "T_U1", "--random", "--exhaustive"])
        assert code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_all_and_id_are_exclusive(self, tmp_path, capsys):
        report = tmp_path / "t.jsonl"
        code = main(["theorems", "--all", "--id", "T_U1", "--length", "2",
                     "--report", str(report)])
        assert code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not report.exists()

    def test_backend_flag_is_gone(self):
        assert main(["theorems", "--id", "T_U1", "--backend", "rational"]) == 2

    def test_unknown_theorem_is_domain_error(self):
        assert main(["theorems", "--id", "T_NOPE", "--exhaustive"]) == 3

    def test_repeated_id_is_usage_error(self, tmp_path, capsys):
        report = tmp_path / "t.jsonl"
        code = main(["theorems", "--id", "T_U1", "--id", "T_U1", "--length", "3",
                     "--report", str(report)])
        assert code == 2
        assert "--id repeats T_U1" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("nu", ["1/2,1/2", "1/2,2/4", "1/4,0.5,1/2"])
    def test_repeated_nu_is_usage_error(self, tmp_path, capsys, nu):
        report = tmp_path / "t.jsonl"
        code = main(["theorems", "--id", "T_U1", "--length", "3", "--values", "0,1",
                     "--nu", nu, "--report", str(report)])
        assert code == 2
        assert "--nu repeats 1/2" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("values,nu", [("0", "2"), ("-1,0,1", "5/2")])
    def test_order_outside_range_is_domain_error(self, tmp_path, capsys, values, nu):
        report = tmp_path / "t.jsonl"
        code = main(["theorems", "--id", "T_JEP1", "--length", "3", "--values", values,
                     "--nu", nu, "--report", str(report)])
        assert code == 3
        assert "T_JEP1 needs an order strictly between 1 and 2" in capsys.readouterr().err
        assert not report.exists()

    def test_campaign_report_is_pinned(self, tmp_path, monkeypatch):
        # witnesses, margins and counts of the 28-theorem campaign, byte for byte
        calls = dict.fromkeys(["_row_matrices", "evaluate_theorem"], 0)
        for name in calls:
            def counting(*args, inner=getattr(monotone, name), name=name):
                calls[name] += 1
                return inner(*args)

            monkeypatch.setattr(monotone, name, counting)
        report = tmp_path / "t.jsonl"
        assert main(["theorems", "--all", "--length", "6", "--values", "-1,-1/2,0,1/2,1",
                     "--report", str(report)]) == 0
        assert hashlib.sha256(report.read_bytes()).hexdigest() == CAMPAIGN_DIGEST
        records = [json.loads(line) for line in report.read_text().splitlines()]
        assert len(records) == 84
        assert sum(rec["instances"] for rec in records) == 1_312_500
        assert sum(rec["hypothesis_count"] for rec in records) == 1_851
        # one row build per (theorem, order): no shorter length is re-searched;
        # witness tries are decided from the rows, and only each reported
        # witness goes through evaluate_theorem
        assert calls == {"_row_matrices": 84, "evaluate_theorem": 84}

    def test_random_report_is_pinned(self, tmp_path, monkeypatch):
        calls = dict.fromkeys(["_row_matrices", "evaluate_theorem"], 0)
        for name in calls:
            def counting(*args, inner=getattr(monotone, name), name=name):
                calls[name] += 1
                return inner(*args)

            monkeypatch.setattr(monotone, name, counting)
        report = tmp_path / "t.jsonl"
        assert main(["theorems", "--all", "--random", "--budget", "5000", "--seed", "3",
                     "--length", "7", "--values", "-2,-1,0,1/3,1,2",
                     "--report", str(report)]) == 0
        assert hashlib.sha256(report.read_bytes()).hexdigest() == RANDOM_DIGEST
        records = [json.loads(line) for line in report.read_text().splitlines()]
        assert len(records) == 84
        # every fallback length draws its own vectors from the one row build
        # per (theorem, order)
        assert calls == {"_row_matrices": 84, "evaluate_theorem": 84}

    def test_reports_are_deterministic(self, tmp_path):
        r1, r2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        args = ["theorems", "--id", "T_D5", "--exhaustive", "--length", "4",
                "--values", "0,1,2", "--nu", "1/2", "--seed", "2"]
        main(args + ["--report", r1])
        main(args + ["--report", r2])
        assert open(r1, "rb").read() == open(r2, "rb").read()


def test_usage_error_exit_code():
    assert main(["apply", "--kind", "delta"]) == 2
    assert main([]) == 2


APPLY = ["apply", "--input", "ONES", "--kind", "delta", "--order", "1/2"]


@pytest.mark.parametrize("command,message", [
    (APPLY + ["--family", "sum", "--extended"], "--extended needs --form direct"),
    (APPLY + ["--family", "caputo", "--form", "direct"], "--form direct needs --family riemann"),
    (["apply", "--input", "ONES", "--kind", "delta", "--family", "riemann", "--form", "direct",
      "--order", "2"], "the single-sum difference form needs a non-integer order"),
    (["check", "--all", "--instances", "0"], "--instances must be at least 1"),
    (["check", "--id", "Q_SUM_DELTA", "--id", "Q_SUM_DELTA"], "--id repeats Q_SUM_DELTA"),
    (["theorems", "--id", "T_U1", "--id", "T_U1"], "--id repeats T_U1"),
    (["theorems", "--id", "T_U1", "--values", "0,1,0"], "--values repeats 0"),
    (["theorems", "--id", "T_U1", "--nu", "1/2,2/4"], "--nu repeats 1/2"),
    (["theorems", "--id", "T_U1", "--length", "0"], "--length must be at least 1"),
    (["theorems", "--id", "T_U1", "--length", "-3"], "--length must be at least 1"),
    (["theorems", "--id", "T_SLOV1", "--length", "4", "--k-cap", "-1"],
     "--k-cap must be at least 0"),
])
def test_flag_conflicts_are_usage_errors(tmp_path, capsys, command, message):
    code = main([ones_json(tmp_path) if arg == "ONES" else arg for arg in command])
    assert code == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"


# malformed input for the fuzz test: numbers outside the double range, NaN,
# infinities, zero denominators and plain junk next to well-formed values
number_text = st.one_of(
    st.sampled_from(["1e400", "-1e400", "1e-400", "nan", "inf", "-inf", "1/0", "0", "-0",
                     "1/3", "2.5", "3/-4", "", " ", "abc", "0x10", "1_0", "1..2", "--1"]),
    st.integers(-4, 4).map(str),
    st.fractions(min_value=-3, max_value=3, max_denominator=12).map(str),
    st.text(max_size=4),
)
json_value = st.one_of(number_text, st.integers(-3, 3), st.floats(), st.none(),
                       st.lists(number_text, max_size=2))


@st.composite
def input_file(draw):
    """(file name, text) of a JSON record or CSV table, well formed or not."""
    shape = draw(st.sampled_from(["json", "csv", "text"]))
    if shape == "json":
        record = draw(st.fixed_dictionaries(
            {}, optional={"origin": json_value,
                          "direction": st.sampled_from(["forward", "backward", "up", 1]),
                          "values": st.one_of(st.lists(json_value, max_size=6), json_value)}))
        return "f.json", json.dumps(record)
    if shape == "csv":
        rows = draw(st.lists(st.lists(number_text, min_size=1, max_size=3), max_size=6))
        return "f.csv", "".join(",".join(row) + "\n" for row in rows)
    return draw(st.sampled_from(["f.json", "f.csv", "f.txt"])), draw(st.text(max_size=30))


@st.composite
def cli_command(draw):
    command = draw(st.sampled_from(["apply", "check", "theorems"]))
    if command == "apply":
        return ["apply", "--input", "INPUT",
                "--kind", draw(st.sampled_from(["delta", "nabla"])),
                "--side", draw(st.sampled_from(["left", "right"])),
                "--family", draw(st.sampled_from(["sum", "riemann", "caputo"])),
                "--form", draw(st.sampled_from(["composed", "direct"])),
                "--order", draw(number_text),
                "--backend", draw(st.sampled_from(["floating", "rational"])),
                *draw(st.sampled_from([[], ["--extended"]]))]
    if command == "check":
        return ["check", "--id", draw(st.sampled_from(["Q_SUM_DELTA", "CAPUTO_INVERSION", "X"])),
                "--instances", draw(st.sampled_from(["1", "2", "0", "-1", "x", "1e400"])),
                "--tolerance", draw(number_text),
                "--backend", draw(st.sampled_from(["floating", "rational"]))]
    return ["theorems", "--id", draw(st.sampled_from(["T_U1", "T_JEP1", "T_NOPE"])),
            "--length", draw(st.sampled_from(["1", "3", "4", "0", "-2", "x"])),
            "--values", draw(st.one_of(st.lists(number_text, min_size=1, max_size=3)
                                       .map(",".join), st.sampled_from(["-1..1", "2..1", "a..b"]))),
            *draw(st.sampled_from([[], ["--nu", "1/2"], ["--nu", "nan"], ["--nu", "1e400"]])),
            "--budget", draw(st.sampled_from(["100", "0", "x"])),
            *draw(st.sampled_from([[], ["--random"]]))]


@given(command=cli_command(), source=input_file())
@settings(max_examples=examples(80), deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_malformed_input_never_escapes_the_exit_codes(tmp_path, capsys, command, source):
    name, text = source
    path = write(tmp_path, name, text)
    code = main([path if arg == "INPUT" else arg for arg in command])
    assert code in (0, 1, 2, 3, 4)
    assert "Traceback" not in capsys.readouterr().err
