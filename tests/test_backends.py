from fractions import Fraction

import pytest

from discfrac.backends import as_fraction, numeral_parts

# 5,000 zeros that do not change a numeral's value
ZEROS = "0" * 5000
# the same zeros in Arabic-Indic digits
ARABIC_ZEROS = "\u0660" * 5000


@pytest.mark.parametrize("numeral, parts", [
    ("12.300", ("123", -1, "1")),
    ("-0.0015e3", ("-15", -1, "1")),
    ("+1e2", ("+1", 2, "1")),
    ("1.5E-2", ("15", -3, "1")),
    (" 7 ", ("7", 0, "1")),
    ("000", ("0", 0, "1")),
    ("0.", ("0", 0, "1")),
    ("-0.0e5", ("0", 0, "1")),
    (".5", ("5", -1, "1")),
    ("1_000", ("1", 3, "1")),
    ("1_0.2_5e-0_1", ("1025", -3, "1")),
    ("3/4", ("3", 0, "4")),
    ("-30/004", ("-3", 1, "4")),
    ("3/400", ("3", -2, "4")),
    ("12/1_0", ("12", -1, "1")),
    ("0/00", ("0", 0, "0")),
    ("1_0/3", ("1", 1, "3")),
    (" 1 / 3 ", ("1", 0, "3")),
    ("1\t/\t3", ("1", 0, "3")),
    ("5/0", ("5", 0, "0")),
    pytest.param("\u0660.\u0665", ("5", -1, "1"), id="arabic-indic-0.5"),
    (".", None),
    ("1e", None),
    ("inf", None),
    ("1__0", None),
    ("_1", None),
    ("1_", None),
    ("1._5", None),
    ("1e_5", None),
    ("1/", None),
    ("/3", None),
    ("1.5/2", None),
    ("1/2e3", None),
    ("3/-4", None),
    ("- 1", None),
    ("0x10", None),
])
def test_numeral_parts_are_the_significant_digits_exponent_and_denominator(numeral, parts):
    """One grammar, Python 3.13's Fraction's, whatever the version: "_"
    between digits and whitespace around "/" are read on 3.10 too."""
    assert numeral_parts(numeral) == parts
    if parts is not None and parts[2] != "0":
        n, e, q = parts
        assert as_fraction(numeral) == Fraction(int(n)) * Fraction(10) ** e / int(q)


@pytest.mark.parametrize("numeral, value", [
    (f"0.{ZEROS}1e5001", 1),
    (f"-0.{ZEROS}5e5000", Fraction(-1, 2)),
    (f"{ZEROS}1.5{ZEROS}", Fraction(3, 2)),
    (f"0.{ZEROS}_1e5001", 1),
    (f"0.{ZEROS}1e50_01", 1),
    (f"{ZEROS}3/{ZEROS}4", Fraction(3, 4)),
    (f"1{ZEROS}/1{ZEROS}", 1),
    pytest.param(f"\u0661{ARABIC_ZEROS}e-5000", 1, id="arabic-indic-zeros"),
])
def test_as_fraction_reads_a_numeral_long_only_through_value_neutral_digits(numeral, value):
    assert as_fraction(numeral) == value
