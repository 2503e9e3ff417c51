from fractions import Fraction

import pytest

from discfrac.backends import as_fraction, decimal_parts

# 5,000 zeros that do not change a numeral's value
ZEROS = "0" * 5000


@pytest.mark.parametrize("numeral, parts", [
    ("12.300", ("123", -1)),
    ("-0.0015e3", ("-15", -1)),
    ("+1e2", ("+1", 2)),
    ("1.5E-2", ("15", -3)),
    (" 7 ", ("7", 0)),
    ("000", ("0", 0)),
    ("0.", ("0", 0)),
    ("1_000", None),
    ("3/4", None),
    (".", None),
    ("1e", None),
    ("inf", None),
])
def test_decimal_parts_are_the_significant_digits_and_their_exponent(numeral, parts):
    assert decimal_parts(numeral) == parts
    if parts is not None:
        n, e = parts
        assert Fraction(n) * Fraction(10) ** e == Fraction(numeral)


@pytest.mark.parametrize("numeral, value", [
    (f"0.{ZEROS}1e5001", 1),
    (f"-0.{ZEROS}5e5000", Fraction(-1, 2)),
    (f"{ZEROS}1.5{ZEROS}", Fraction(3, 2)),
])
def test_as_fraction_reads_a_numeral_long_only_through_value_neutral_digits(numeral, value):
    assert as_fraction(numeral) == value
