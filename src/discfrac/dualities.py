"""Executable checkers for the dual, reflection and relation identities.

``check_identity`` is the one checker: it evaluates both sides of one
row of the identity table ``IDENTITIES`` on the identity's stated index
set, asserts that both computations land on exactly that index set (an
off-by-one in a domain is reported as a failure, never absorbed into a
tolerance), and reports pointwise residuals.  The one identity without a
row, CAPUTO_INVERSION, compares the inversion residual with zero.

Each step of a check runs in integers.  ``random_instance`` holds the
drawn values as integer numerators over 12 and reads the order and the
anchor from tables of ``Fraction``s built once per run.  A row's two
operator specs (from ``operators.cached_spec``) and its stated origin
offsets are derived once per (row, order), by ``_row_plan``.  Every
output origin is read as its integer ``origin_parts`` and compared with
the table's integer offsets by cross-multiplication; then the stated
index set is a range of storage indices, and a Q identity, whose table
row states one offset for both sides, pairs its right-hand output with
the left-hand one index for index instead of reflecting it.
Both sides are read as their ``(nums, den)`` parts (floats over 1) and
compared by cross-multiplication, x * dy == y * dx; residual
``Fraction``s, and origins for an error message, are formed only on a
mismatch, so a passing check builds no ``Fraction`` here or in
``grids``.  ``run_identity_suite`` puts its grids on a
``run_scoped()`` copy of the backend, whose table builds each kernel
once per call; nothing of it outlives the call.

Tolerance policy: the rational backend must produce residuals that are
exactly zero; the floating backend uses an absolute tolerance for values
of magnitude up to one and a relative tolerance above that.
"""

from __future__ import annotations

import enum
import functools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .backends import FLOATING, as_fraction
from .errors import DomainError
from .grids import Direction, GridFunction
from .operators import (
    Family,
    Formulation,
    Kind,
    apply_operator,
    cached_spec,
    caputo_from_riemann,
    caputo_inversion_residual,
)

DEFAULT_TOLERANCE = 1e-10
# the stored lengths random_instance draws
MIN_LENGTH, MAX_LENGTH = 4, 12


class IdentityId(enum.Enum):
    LEFT_DUAL_SUM = "LEFT_DUAL_SUM"
    LEFT_DUAL_DIFF = "LEFT_DUAL_DIFF"
    RIGHT_DUAL_SUM = "RIGHT_DUAL_SUM"
    RIGHT_DUAL_DIFF = "RIGHT_DUAL_DIFF"
    CAPUTO_DUAL_LEFT = "CAPUTO_DUAL_LEFT"
    CAPUTO_DUAL_RIGHT = "CAPUTO_DUAL_RIGHT"
    Q_SUM_DELTA = "Q_SUM_DELTA"
    Q_DIFF_DELTA = "Q_DIFF_DELTA"
    Q_CAPUTO_DELTA = "Q_CAPUTO_DELTA"
    Q_SUM_NABLA = "Q_SUM_NABLA"
    Q_DIFF_NABLA = "Q_DIFF_NABLA"
    Q_CAPUTO_NABLA = "Q_CAPUTO_NABLA"
    RELATE_DELTA_LEFT = "RELATE_DELTA_LEFT"
    RELATE_DELTA_RIGHT = "RELATE_DELTA_RIGHT"
    RELATE_NABLA_LEFT = "RELATE_NABLA_LEFT"
    RELATE_NABLA_RIGHT = "RELATE_NABLA_RIGHT"
    CAPUTO_INVERSION = "CAPUTO_INVERSION"
    __hash__ = object.__hash__  # as operators.Kind's: a table lookup hashes in C


# The identity table.  Each row applies a left- and a right-hand operator,
# given as (kind, family), to a transform of the data f and pairs the
# outputs on the identity's stated index set.  Each operator acts on the
# side of its operand's grid: a row whose data is backward, or a Q row's
# reversed operand, runs the right operators.  Origins are offsets
# inward from f's origin a, written (constant, multiple of n, multiple of
# alpha); a Q identity measures its right-hand output from b, the origin
# of the reversed data, at its left-hand offset, so the two outputs pair
# index for index (``_check_row``).  A relation's
# right-hand side is the Riemann-minus-correction form of its Caputo spec.


@dataclass(frozen=True)
class IdentitySpec:
    family: str  # "dual", "q" or "relation"
    lhs: tuple | None = None  # (Kind, Family)
    lhs_input: Callable | None = None  # f -> left-hand operand
    rhs: tuple | None = None
    rhs_input: Callable | None = None
    origins: tuple | None = None  # stated (lhs, rhs) output origins
    # the stated index set: the right-hand output of a dual identity, the
    # left-hand output otherwise, from this position on
    points: int = 0
    direction: Direction | None = Direction.FORWARD  # data grid; None: either


# data transforms: the operands the table's operators are applied to
_anchored, _reversed = GridFunction.prepend_zero, GridFunction.reversed_view


def _data(f):
    return f


def _past_anchor(f):
    return f.drop_leading(1)


def _reflected(f):
    # (Qf)(s) = f(a + b - s) on the forward grid {a..b}: the same grid with
    # its values reversed
    return f.reflected()


_D, _N = Kind.DELTA, Kind.NABLA
_SUM, _DIFF, _CAP = Family.SUM, Family.RIEMANN, Family.CAPUTO
_BWD = Direction.BACKWARD
_COMPOSED = Formulation.COMPOSED  # every row's form
# a, a+alpha, a+n-alpha and a+n, inward of the data origin
_AT_A, _AT_ALPHA, _AT_BETA, _AT_N = (0, 0, 0), (0, 0, 1), (0, 1, -1), (0, 1, 0)

IDENTITIES = {
    IdentityId.LEFT_DUAL_SUM: IdentitySpec(
        "dual", (_D, _SUM), _data, (_N, _SUM), _anchored, (_AT_ALPHA, (-1, 0, 0)), points=1),
    IdentityId.LEFT_DUAL_DIFF: IdentitySpec(
        "dual", (_D, _DIFF), _data, (_N, _DIFF), _anchored, (_AT_BETA, (-1, 1, 0)), points=1),
    IdentityId.RIGHT_DUAL_SUM: IdentitySpec(
        "dual", (_D, _SUM), _past_anchor, (_N, _SUM), _data, ((1, 0, 1), _AT_A),
        points=1, direction=_BWD),
    IdentityId.RIGHT_DUAL_DIFF: IdentitySpec(
        "dual", (_D, _DIFF), _past_anchor, (_N, _DIFF), _data, ((1, 1, -1), _AT_N),
        points=1, direction=_BWD),
    IdentityId.CAPUTO_DUAL_LEFT: IdentitySpec(
        "dual", (_D, _CAP), _data, (_N, _CAP), _data, (_AT_BETA, _AT_N)),
    IdentityId.CAPUTO_DUAL_RIGHT: IdentitySpec(
        "dual", (_D, _CAP), _data, (_N, _CAP), _data, (_AT_BETA, _AT_N), direction=_BWD),
    IdentityId.Q_SUM_DELTA: IdentitySpec(
        "q", (_D, _SUM), _reflected, (_D, _SUM), _reversed, (_AT_ALPHA, _AT_ALPHA)),
    IdentityId.Q_DIFF_DELTA: IdentitySpec(
        "q", (_D, _DIFF), _reflected, (_D, _DIFF), _reversed, (_AT_BETA, _AT_BETA)),
    IdentityId.Q_CAPUTO_DELTA: IdentitySpec(
        "q", (_D, _CAP), _reflected, (_D, _CAP), _reversed, (_AT_BETA, _AT_BETA)),
    IdentityId.Q_SUM_NABLA: IdentitySpec(
        "q", (_N, _SUM), _reflected, (_N, _SUM), _reversed, (_AT_A, _AT_A), points=1),
    IdentityId.Q_DIFF_NABLA: IdentitySpec(
        "q", (_N, _DIFF), _reflected, (_N, _DIFF), _reversed, (_AT_N, _AT_N)),
    IdentityId.Q_CAPUTO_NABLA: IdentitySpec(
        "q", (_N, _CAP), _reflected, (_N, _CAP), _reversed, (_AT_N, _AT_N)),
    IdentityId.RELATE_DELTA_LEFT: IdentitySpec(
        "relation", (_D, _CAP), _data, (_D, _CAP), _data, (_AT_BETA, _AT_BETA)),
    IdentityId.RELATE_DELTA_RIGHT: IdentitySpec(
        "relation", (_D, _CAP), _data, (_D, _CAP), _data, (_AT_BETA, _AT_BETA), direction=_BWD),
    IdentityId.RELATE_NABLA_LEFT: IdentitySpec(
        "relation", (_N, _CAP), _data, (_N, _CAP), _data, (_AT_N, _AT_N)),
    IdentityId.RELATE_NABLA_RIGHT: IdentitySpec(
        "relation", (_N, _CAP), _data, (_N, _CAP), _data, (_AT_N, _AT_N), direction=_BWD),
    IdentityId.CAPUTO_INVERSION: IdentitySpec("relation", direction=None),
}

DUAL_IDS, Q_IDS, RELATION_IDS = (
    tuple(i for i, row in IDENTITIES.items() if row.family == family)
    for family in ("dual", "q", "relation")
)


@dataclass
class CheckReport:
    identity: IdentityId
    order: Fraction
    data: GridFunction  # the checked instance
    # residual values on the stated index set, the storage of ``stated``
    # from index ``start`` on
    values: list
    stated: GridFunction
    start: int
    max_abs_residual: object
    passed: bool
    tolerance: float = DEFAULT_TOLERANCE
    backend: str = "floating"

    @property
    def grid(self) -> str:
        f = self.data
        return f"{f.direction.value} origin={f.origin} length={f.length}"

    @property
    def first(self) -> Fraction:
        return self.stated.point(self.start)

    @property
    def step(self) -> int:
        return 1 if self.stated.direction is Direction.FORWARD else -1

    @property
    def residuals(self) -> list:
        """(point, residual) pairs on the stated index set."""
        return [(self.first + self.step * i, r) for i, r in enumerate(self.values)]

    def as_record(self) -> dict:
        return {
            "id": self.identity.value,
            "order": str(self.order),
            "grid": self.grid,
            "max_abs_residual": str(self.max_abs_residual),
            "pass": self.passed,
            "points": len(self.values),
            "backend": self.backend,
        }


_ALL = slice(None)


def _part(grid: GridFunction, part: slice) -> tuple:
    """The ``(nums, den)`` parts of ``grid`` at the storage slice ``part``."""
    nums, den = grid.parts
    return nums[part], den


def _build_report(identity, alpha, f, stated, start, lhs, rhs, tolerance) -> CheckReport:
    """Residuals ``lhs - rhs`` on the stated index set, which is the storage
    of the grid ``stated`` from index ``start`` on; each side is a
    ``_part``, compared by cross-multiplication: x/dx == y/dy iff
    x*dy == y*dx (on floats both denominators are 1).  Exact residuals pass
    when all are zero, that is when the sides are equal; floating ones
    within ``tolerance`` times ``max(1, |lhs|, |rhs|)``."""
    backend = f.backend
    (xs, dx), (ys, dy) = lhs, rhs
    diffs = [x * dy - y * dx for x, y in zip(xs, ys)]
    if any(diffs):
        values = diffs if dx * dy == 1 else [Fraction(r, dx * dy) for r in diffs]
        largest = max([abs(backend.zero), *map(abs, values)])
        ok = not backend.exact and all(abs(r) <= tolerance * max(1.0, abs(x), abs(y))
                                       for r, x, y in zip(values, xs, ys))
    else:
        values, largest, ok = [backend.zero] * len(xs), backend.zero, True
    return CheckReport(identity, alpha, f, values, stated, start, largest, ok, tolerance,
                       backend.name)


def _expect_origin(grid, base, inward: int, den: int, which: IdentityId, side: str) -> None:
    """Raise unless ``grid``'s origin o is ``base``'s origin a moved
    ``inward / den`` steps inward, compared by cross-multiplication of their
    ``origin_parts``."""
    (a, a_den), (o, o_den) = base.origin_parts, grid.origin_parts
    if base.direction is Direction.BACKWARD:
        inward = -inward
    num = a * den + inward * a_den
    if o * a_den * den != num * o_den:
        raise DomainError(f"{which.value} {side}-hand side: produced origin {grid.origin}, "
                          f"stated index set starts at {Fraction(num, a_den * den)}")


def _paired(points, lhs_values, rhs_values) -> None:
    if not (len(points) == len(lhs_values) == len(rhs_values)):
        raise DomainError(
            f"index sets differ: {len(lhs_values)} vs {len(rhs_values)} values "
            f"for {len(points)} stated points"
        )


@functools.lru_cache(maxsize=4096)
def _row_plan(which: IdentityId, num: int, den: int) -> tuple:
    """``(lhs_spec, rhs_spec, at_lhs, at_rhs)``, what row ``which`` reads at
    the order num/den, derived once per (row, order): the specs of its two
    operators and its stated origin offsets, each (steps, n_times,
    alpha_times) as (steps + n_times * n + alpha_times * alpha) * den."""
    row = IDENTITIES[which]
    lhs_spec = cached_spec(*row.lhs, num, den, _COMPOSED)
    rhs_spec = cached_spec(*row.rhs, num, den, _COMPOSED)
    at_lhs, at_rhs = [(steps + n_times * lhs_spec.n) * den + alpha_times * num
                      for steps, n_times, alpha_times in row.origins]
    return lhs_spec, rhs_spec, at_lhs, at_rhs


def _check_row(f: GridFunction, order, which: IdentityId, tolerance) -> CheckReport:
    """Evaluate one table row on its stated index set."""
    row = IDENTITIES[which]
    alpha = as_fraction(order)
    reflect = row.family == "q"
    if f.direction is not row.direction:  # the side every operator of the row acts on
        raise DomainError("Q identities take the data as a forward grid on {a..b}" if reflect
                          else f"{which.value} takes the data as a {row.direction.value} grid, "
                               f"got {f.direction.value}")
    den = alpha.denominator
    lhs_spec, rhs_spec, at_lhs, at_rhs = _row_plan(which, alpha.numerator, den)
    lhs = apply_operator(lhs_spec, row.lhs_input(f))
    rhs_input = row.rhs_input(f)
    # a relation row's right-hand side is the Caputo difference in Riemann form
    rhs = (caputo_from_riemann if row.family == "relation" else apply_operator)(
        rhs_spec, rhs_input)
    _expect_origin(rhs, rhs_input if reflect else f, at_rhs, den, which, "right")
    _expect_origin(lhs, f, at_lhs, den, which, "left")
    start = row.points
    if reflect:
        # a Q row states one offset d for both sides, so lhs index i, the
        # point a + d + i, reflects to b - d - i, which is rhs index i
        stated, lhs_part, rhs_part = lhs, slice(start, None), slice(start, lhs.length)
    else:
        stated, lhs_part, rhs_part = rhs, _ALL, slice(start, None)
    lhs_values, rhs_values = _part(lhs, lhs_part), _part(rhs, rhs_part)
    _paired(range(start, stated.length), lhs_values[0], rhs_values[0])
    return _build_report(which, alpha, f, stated, start, lhs_values, rhs_values, tolerance)


def check_identity(f: GridFunction, order, which: IdentityId,
                   tolerance: float = DEFAULT_TOLERANCE) -> CheckReport:
    """Check identity ``which`` on the data ``f`` at ``order``: its table row,
    or for CAPUTO_INVERSION, which has none, the inversion residual."""
    if which not in IDENTITIES:
        raise DomainError(f"{which} is not an identity")
    if which is not IdentityId.CAPUTO_INVERSION:
        return _check_row(f, order, which, tolerance)
    alpha = as_fraction(order)
    res = caputo_inversion_residual(f, alpha)
    return _build_report(which, alpha, f, res, 0, _part(res, _ALL), ((0,) * res.length, 1),
                         tolerance)


# the values p/q (|p| <= 8, 1 <= q <= 4) random_instance draws, at [p + 8][q - 1]
_DRAWN = tuple(tuple(Fraction(p, q) for q in range(1, 5)) for p in range(-8, 9))
_DRAWN_DEN = 12  # the LCM of their denominators


def _drawn_values(backend) -> tuple:
    """``(table, den, orders, anchors)``, what ``random_instance`` reads its
    draws from.  ``table`` is ``_DRAWN`` with every value through
    ``backend.scalar``, held as given (den None) or on an exact backend
    cleared over ``_DRAWN_DEN``.  ``orders[den - 2]`` holds the orders
    num/den for 1 <= num < 2*den, at [num - 1], with den + 1 in place of
    num = den, and ``anchors`` the anchors p/q (|p| <= 12, 1 <= q <= 3) at
    [p + 12][q - 1], as ``Fraction``s."""
    den = _DRAWN_DEN if backend.exact else None
    table = [[int(v * den) if den else v for v in map(backend.scalar, row)] for row in _DRAWN]
    orders = tuple(tuple(Fraction(num + (num == d), d) for num in range(1, 2 * d))
                   for d in range(2, 13))
    anchors = tuple(tuple(Fraction(p, q) for q in range(1, 4)) for p in range(-12, 13))
    return tuple(map(tuple, table)), den, orders, anchors


def _below(bits, n: int) -> int:
    """An int in [0, n) from ``bits``, a generator's ``getrandbits``, drawn as
    CPython's ``Random._randbelow`` draws it: n.bit_length() bits, drawn
    again while they read n or more."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def random_instance(which: IdentityId, rng: random.Random, backend, drawn=None):
    """Seeded (grid, order) instance admissible for the given identity.

    Every draw is read from ``drawn``, ``_drawn_values(backend)``, which a
    run of many instances builds, and validates, once: the values are held
    as drawn and the order and the anchor are the table's ``Fraction``s.
    Every integer comes straight from ``rng.getrandbits`` by ``_below``'s
    loop, the one ``randint``, ``randrange`` and ``choice`` end in (the same
    source on Python 3.10 to 3.13), so the stream and the generator's state
    after it are those of ``randint``: a length, the order's denominator
    ``randint(2, 12)`` and numerator ``randint(1, 2 * den - 1)``, the
    anchor's numerator and denominator, and per value ``randint(-8, 8)``, a
    row of the table from 5 bits, and ``randint(1, 4)``, a column from 3
    bits.
    """
    drawn, held_den, orders, anchors = drawn or _drawn_values(backend)
    bits = rng.getrandbits
    length = MIN_LENGTH + _below(bits, MAX_LENGTH - MIN_LENGTH + 1)
    over_den = orders[_below(bits, len(orders))]
    alpha = over_den[_below(bits, len(over_den))]
    anchor = anchors[_below(bits, len(anchors))][_below(bits, len(anchors[0]))]
    values = []
    for _ in range(length):
        row = bits(5)
        while row >= 17:
            row = bits(5)
        col = bits(3)
        while col >= 4:
            col = bits(3)
        values.append(drawn[row][col])
    direction = IDENTITIES[which].direction
    if direction is None:
        direction = Direction.BACKWARD if rng.random() < 0.5 else Direction.FORWARD
    return GridFunction.from_parts(anchor, direction, tuple(values), held_den, backend), alpha


@dataclass
class SuiteResult:
    identity: IdentityId
    instances: int
    failures: int
    max_abs_residual: object
    passed: bool

    def as_record(self) -> dict:
        return {
            "id": self.identity.value,
            "instances": self.instances,
            "failures": self.failures,
            "max_residual": str(self.max_abs_residual),
            "pass": self.passed,
        }


def run_identity_suite(ids=None, instances: int = 200, seed: int = 0, backend=FLOATING,
                       tolerance: float = DEFAULT_TOLERANCE) -> list[SuiteResult]:
    """Randomized identity campaign; deterministic for a fixed seed.

    The run's grids carry a ``run_scoped()`` copy of ``backend``, so each
    kernel is built once per call, long enough for the longest operand (a
    grid of ``MAX_LENGTH`` with a zero prepended), and dropped when it
    returns.
    """
    if ids is None:
        ids = list(IdentityId)
    backend = backend.run_scoped(MAX_LENGTH + 1)
    drawn = _drawn_values(backend)
    results = []
    for which in ids:
        rng = random.Random((seed, which.value).__repr__())
        worst = backend.zero
        failures = 0
        for _ in range(instances):
            f, alpha = random_instance(which, rng, backend, drawn)
            report = check_identity(f, alpha, which, tolerance)
            failures += not report.passed
            # max_abs_residual is never negative
            if report.max_abs_residual > worst:
                worst = report.max_abs_residual
        results.append(
            SuiteResult(
                identity=which,
                instances=instances,
                failures=failures,
                max_abs_residual=worst,
                passed=failures == 0,
            )
        )
    return results
