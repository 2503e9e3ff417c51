"""Scalar backends: IEEE floating point and exact rational arithmetic.

Every kernel coefficient produced by the operator pipelines is a plain
rational number, because the two gamma arguments inside one coefficient
always differ by a nonnegative integer.  Standalone factorial-function
values (``falling``, ``rising`` at non-integer exponents) are not
rational; the exact backend represents them as a rational coefficient
times a monomial in gamma values at arguments in (0, 1).  No operator or
identity checked here computes such a value.  Sums and orderings of them
are exact between values of the same monomial, and a monomial of gamma
values on (0, 1) is strictly positive, so ordering and equality are
decided by the rational coefficient alone.
"""

from __future__ import annotations

import copy
import functools
import math
import numbers
import re
from fractions import Fraction

from .errors import BackendOverflow, DomainError, UnitMismatch

DEFAULT_BIT_CAP = 4096
# Fraction expands a decimal exponent to a power of ten: minutes for 1e99999999
MAX_DECIMAL_EXPONENT = 10_000
_DIGITS = r"\d+(?:_\d+)*"
_NUMERAL = re.compile(rf"\s*([-+]?)(?:({_DIGITS})\s*/\s*({_DIGITS})|(?=\.?\d)({_DIGITS})?"
                      rf"(?:\.({_DIGITS})?)?(?:[eE]([-+]?{_DIGITS}))?)\s*")


def clipped(text: str) -> str:
    """``text`` as an error message shows it: whole up to 40 characters, else
    its first and last 18 around "..."."""
    return text if len(text) <= 40 else f"{text[:18]}...{text[-18:]}"


def numeral_parts(text: str) -> tuple[str, int, str] | None:
    """``(n, e, q)`` with ``text == n * 10**e / q``, or None unless ``text`` is
    a numeral in the grammar of Python 3.13's ``Fraction``, here on every
    version: optional surrounding whitespace, a sign, then ``p/q``
    (whitespace allowed around "/") or a decimal (``1``, ``1.``, ``.5``,
    ``1.5``) with an optional ``e``/``E`` exponent, "_" only between digits.
    n is the sign and significant digits (the first nonzero digit to the
    last), or "0" with e = 0; q is the denominator's significant digits,
    "1" for a decimal.  A decimal exponent past ``MAX_DECIMAL_EXPONENT``
    raises ``DomainError``.  A decimal digit outside ASCII, which the digit
    class matches too, reads as its ASCII digit."""
    m = _NUMERAL.fullmatch(text if text.isascii() else "".join(
        str(int(c)) if c.isdecimal() else c for c in text))
    if m is None:
        return None
    sign, digits, q, whole, fraction, exponent = m.groups()
    e = 0
    if digits is None:  # a decimal
        fraction = (fraction or "").replace("_", "")
        digits, q, e = (whole or "") + fraction, "1", -len(fraction)
        if exponent:  # six digits tell one past the limit, before int() reads them all
            power = int(exponent.lstrip("-+").replace("_", "").lstrip("0")[:6] or 0)
            if power > MAX_DECIMAL_EXPONENT:
                raise DomainError(f"value {clipped(text.strip())} has a decimal exponent past "
                                  f"{MAX_DECIMAL_EXPONENT} in magnitude")
            e += -power if exponent[0] == "-" else power
    digits = digits.replace("_", "").lstrip("0")
    q = q.replace("_", "").lstrip("0") or "0"
    n, r = digits.rstrip("0"), len(q.rstrip("0")) or 1
    e += len(digits) - len(n) - (len(q) - r)
    return (sign + n, e, q[:r]) if n else ("0", 0, q[:r])


def as_fraction(x) -> Fraction:
    """Exact Fraction from int, Fraction, str ("3/4", "0.75") or float.

    Floats convert to their exact binary value, never to a decimal guess; a
    string is read from its ``numeral_parts``.
    """
    # the builtin types first: an isinstance check against Fraction, an
    # abstract base class, is slow for anything but a Fraction
    if isinstance(x, (int, float)):
        return Fraction(x)
    if isinstance(x, str):
        parts = numeral_parts(x)
        if parts is None:
            raise ValueError(f"invalid literal for Fraction: {x!r}")
        n, e, q = parts  # past Python's 4,300-digit int conversion, int() raises ValueError
        return Fraction(int(n) * 10**e, int(q)) if e >= 0 else Fraction(int(n), int(q) * 10**-e)
    if isinstance(x, Fraction):
        return x
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def _normalize_units(units: dict) -> tuple:
    return tuple(sorted((r, e) for r, e in units.items() if e != 0))


@functools.total_ordering
class GammaValue:
    """Exact value of the form ``coef * prod Gamma(r_i)**e_i`` with r_i in (0, 1).

    Supports field arithmetic; addition and ordering require matching
    monomials (a nonempty monomial makes the value irrational, so
    cross-monomial equality is simply False).
    """

    __slots__ = ("coef", "units")

    def __init__(self, coef: Fraction, units: tuple):
        self.coef = coef
        self.units = units

    @staticmethod
    def make(coef: Fraction, units: dict):
        norm = _normalize_units(units)
        if coef == 0 or not norm:
            return Fraction(coef)
        return GammaValue(coef, norm)

    def _unit_dict(self) -> dict:
        return dict(self.units)

    def __float__(self) -> float:
        out = float(self.coef)
        for r, e in self.units:
            out *= math.gamma(float(r)) ** e
        return out

    def __repr__(self) -> str:
        mono = "*".join(f"G({r})^{e}" for r, e in self.units)
        return f"{self.coef}*{mono}"

    def __neg__(self):
        return GammaValue(-self.coef, self.units)

    def __abs__(self):
        return GammaValue(abs(self.coef), self.units)

    def __add__(self, other):
        if isinstance(other, GammaValue):
            if other.units != self.units:
                raise UnitMismatch(f"cannot add {self!r} and {other!r}")
            return GammaValue.make(self.coef + other.coef, self._unit_dict())
        other = as_fraction(other)
        if other == 0:
            return self
        raise UnitMismatch(f"cannot add rational {other} to {self!r}")

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(-other if isinstance(other, GammaValue) else -as_fraction(other))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, GammaValue):
            units = self._unit_dict()
            for r, e in other.units:
                units[r] = units.get(r, 0) + e
            return GammaValue.make(self.coef * other.coef, units)
        return GammaValue.make(self.coef * as_fraction(other), self._unit_dict())

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, GammaValue):
            units = self._unit_dict()
            for r, e in other.units:
                units[r] = units.get(r, 0) - e
            return GammaValue.make(self.coef / other.coef, units)
        return GammaValue.make(self.coef / as_fraction(other), self._unit_dict())

    def __rtruediv__(self, other):
        units = {r: -e for r, e in self.units}
        return GammaValue.make(as_fraction(other) / self.coef, units)

    def _cmp_coef(self, other) -> tuple:
        """Return (self.coef, other_coef) when ordering is decidable."""
        if isinstance(other, GammaValue):
            if other.units == self.units:
                return self.coef, other.coef
            raise UnitMismatch(f"cannot order {self!r} against {other!r}")
        other = as_fraction(other)
        if other == 0:
            # the monomial is positive, so the sign is the coefficient's
            return self.coef, Fraction(0)
        raise UnitMismatch(f"cannot order {self!r} against rational {other}")

    def __eq__(self, other):
        """Equal to a ``GammaValue`` of the same value, or to a number only at
        0; anything else, a string too, is left to ``other``."""
        if isinstance(other, GammaValue):
            return self.units == other.units and self.coef == other.coef
        if isinstance(other, numbers.Number):
            return other == 0 and self.coef == 0
        return NotImplemented

    def __hash__(self):
        return hash((self.coef, self.units))

    def __lt__(self, other):
        a, b = self._cmp_coef(other)
        return a < b


class _Backend:
    """What both backends share: an optional table of kernels and an
    optional kernel fault.  Backends compare by value, by class, bit cap and
    fault; a copy from ``run_scoped`` equals its original, since its table
    only caches what the original would build."""

    kernels = None  # see run_scoped()
    fault = None  # see with_fault()
    bit_cap = None  # a RationalBackend's own

    def _key(self) -> tuple:
        return self.__class__, self.bit_cap, self.fault

    def __eq__(self, other):
        return isinstance(other, _Backend) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def run_scoped(self, kernel_length: int):
        """A copy of this backend that owns an empty kernel table.

        ``kernels.kernel`` builds each kernel for grids on the copy once, at
        ``kernel_length`` weights, keeps it in the table and serves later
        calls a prefix.  The table lives as long as the copy does, which is
        one run of the identity suite.
        """
        run = copy.copy(self)
        run.kernels, run.kernel_length = {}, kernel_length
        return run

    def with_fault(self):
        """A copy of this backend whose kernels come with the lag-1 weight
        scaled by 1 + 1e-6: the identity suite's self-test.

        ``kernels.kernel`` applies the fault.  The copy owns a fresh table if
        this backend has one, so a faulted kernel never reaches a clean run.
        """
        bad = copy.copy(self)
        bad.fault = 1 + 1e-6
        if bad.kernels is not None:
            bad.kernels = {}
        return bad


class FloatBackend(_Backend):
    """IEEE double-precision scalars."""

    name = "floating"
    exact = False

    def scalar(self, x) -> float:
        exact = as_fraction(x) if isinstance(x, str) else x
        try:
            return float(exact)
        except OverflowError:
            size = math.log10(abs(exact.numerator)) - math.log10(exact.denominator)
            sign = "-" if exact < 0 else ""
            raise DomainError(f"value {sign}1e{size:.0f} lies outside the double range") from None

    zero = 0.0
    one = 1.0

    def guard(self, value):
        return value

    def __repr__(self):
        return "FloatBackend()"


class RationalBackend(_Backend):
    """Arbitrary-precision rational scalars with a configurable bit cap.

    Growth past ``bit_cap`` bits in a numerator or denominator raises
    ``BackendOverflow``; nothing is ever rounded silently.
    """

    name = "rational"
    exact = True

    def __init__(self, bit_cap: int = DEFAULT_BIT_CAP):
        self.bit_cap = bit_cap

    def scalar(self, x) -> Fraction:
        return self.guard(as_fraction(x))

    zero = Fraction(0)
    one = Fraction(1)

    def guard(self, value):
        frac = value.coef if isinstance(value, GammaValue) else value
        if (
            frac.numerator.bit_length() > self.bit_cap
            or frac.denominator.bit_length() > self.bit_cap
        ):
            raise BackendOverflow(
                f"rational magnitude exceeds {self.bit_cap}-bit cap"
            )
        return value

    def __repr__(self):
        return f"RationalBackend(bit_cap={self.bit_cap})"


FLOATING = FloatBackend()
RATIONAL = RationalBackend()

_BACKENDS = {"floating": FLOATING, "float": FLOATING, "rational": RATIONAL, "exact": RATIONAL}


def get_backend(name: str):
    try:
        return _BACKENDS[name.lower()]
    except KeyError:
        raise ValueError(f"unknown backend {name!r}; use 'floating' or 'rational'") from None
