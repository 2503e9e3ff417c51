"""Finite functions on shifted integer grids, integer differences, Q-reflection.

A forward grid with origin ``a`` stores ``values[k] = f(a + k)``; a
backward grid with origin ``b`` stores ``values[k] = f(b - k)``, i.e.
backward grids keep their values in decreasing-point order.  With that
convention the storage-space difference ``s[k] = v[k+1] - v[k]`` covers
all eight (kind, direction, signed) integer differences:

    direction  operator        values        origin
    ---------  --------------  ------------  -----------------
    forward    delta^n         s^n           unchanged
    forward    nabla^n         s^n           origin + n
    backward   nabla^n         (-1)^n s^n    unchanged
    backward   delta^n         (-1)^n s^n    origin - n

and the signed variants multiply by a further (-1)^n, so the signed
right-hand operators (nabla_signed on backward grids, delta_signed on
backward grids) are exactly ``s^n`` in storage space.

Any sum over an empty index range is zero; operators rely on this at
their anchor point.

Every grid exposes its values as one ``(nums, den)`` view, ``parts``,
and every operator reads that view and builds its output from one
(``with_parts``), so the exact and the floating operators run the same
code.  Only this module knows how a grid stores it.  On the exact backend
a grid is held cleared, integer numerators over one positive denominator
(not reduced): a grid of ``Fraction``s as ints, whose normalized
``Fraction``s ``values`` builds when first read, and a grid of the
symbolic row pass's ``CoefficientVector``s as integer arrays over the LCM
of their denominators, whose vectors ``values`` builds the same way.  The
exact zero beside vectors is a zero array, and any other constant among
them a ``TypeError``.  Floats are held as given, over 1.  The
constructor, ``with_parts`` and ``from_parts`` (parts already in that
form) end in one function that sets the slots.  ``drop_leading``,
``prepend_zero``, ``reflected`` and ``reversed_view`` keep the
denominator.

Every grid, on either backend, holds its origin the same way: a numerator
and a positive denominator in lowest terms, read as ``origin_parts``.
``origin`` builds the ``Fraction`` when it is read, as ``point`` and
``far_point`` do for the points.  A grid moves its origin in integers
(``with_parts(..., inward=...)``): an integer step adds a multiple of
the denominator, which keeps the lowest terms, and a fractional step is
cross-multiplied and reduced by one ``math.gcd``.  So no transform here
and no operator output builds a ``Fraction`` for its origin;
``shift_origin`` is the same move for a caller that wants one.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction

from .backends import FLOATING, as_fraction
from .errors import DomainError, EmptyValues, GridTooShort
from .kernels import cleared


class Direction(enum.Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


@dataclass(slots=True, eq=False)
class CoefficientVector:
    """A value of the symbolic row pass: the linear form ``nums / den`` (ints
    over one positive denominator) in the stored values and a last, constant
    coordinate that no stored value reads, where an added scalar lands.  A
    product of two vectors is not linear and raises ``TypeError``."""

    nums: "numpy.ndarray"
    den: int = 1

    def __add__(self, other):
        if not isinstance(other, CoefficientVector):  # a constant: the last coordinate
            unit = self.nums * 0
            unit[-1] = 1
            other = CoefficientVector(unit) * as_fraction(other)
        return CoefficientVector(self.nums * other.den + other.nums * self.den,
                                 self.den * other.den)

    def __mul__(self, scalar):
        if isinstance(scalar, CoefficientVector):
            raise TypeError("a product of two coefficient vectors is not linear")
        return CoefficientVector(self.nums * scalar.numerator, self.den * scalar.denominator)

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    __radd__, __rmul__ = __add__, __mul__


class GridFunction:
    """Finite function on a shifted integer grid.

    ``parts`` is the ``(nums, den)`` view of the values and ``origin_parts``
    that of the origin (see the module docstring).  Instances are
    immutable; ``==`` and ``hash`` are those of ``(origin, direction,
    values, backend)``.
    """

    # _origin_num and _origin_den: the origin in lowest terms, den > 0;
    # _nums and _den: the cleared numerators (ints or integer arrays) and
    # denominator, or the values as held and None
    __slots__ = ("_origin_num", "_origin_den", "direction", "backend", "_nums", "_den",
                 "_values")

    def __init__(self, origin, direction, values, backend=FLOATING):
        values = tuple(values)
        nums, den = (_cleared(values) if backend.exact else None) or (values, None)
        _fill(self, *_fraction_parts(origin), direction, nums, den, backend, values)

    @classmethod
    def from_parts(cls, origin: Fraction, direction, nums: tuple, den, backend=FLOATING):
        """The grid of ``nums`` over an int ``den`` > 0, or held as given if ``den`` is None."""
        return _fill(_blank(cls), origin.numerator, origin.denominator, direction, nums, den,
                     backend)

    @property
    def origin(self) -> Fraction:
        return Fraction(self._origin_num, self._origin_den)

    @property
    def origin_parts(self) -> tuple:
        """``(num, den)`` with ``origin == num / den`` in lowest terms, den > 0."""
        return self._origin_num, self._origin_den

    @property
    def values(self) -> tuple:
        if self._values is None:
            nums, den = self._nums, self._den
            form = Fraction if not nums or isinstance(nums[0], int) else CoefficientVector
            _set_values(self, tuple([form(x, den) for x in nums]))
        return self._values

    @property
    def parts(self) -> tuple:
        """``(nums, den)`` with ``values[i] == nums[i] / den``."""
        return self._nums, self._den or 1

    def __setattr__(self, name, value=None):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def _fields(self) -> tuple:
        return self.origin, self.direction, self.values, self.backend

    def __reduce__(self):
        return GridFunction, self._fields()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return "GridFunction(origin={!r}, direction={!r}, values={!r}, backend={!r})".format(
            *self._fields())

    @property
    def length(self) -> int:
        return len(self._nums)

    def point(self, index: int) -> Fraction:
        return Fraction(*self._moved(operator.index(index)))

    def points(self) -> list[Fraction]:
        return [self.point(i) for i in range(self.length)]

    @property
    def far_point(self) -> Fraction:
        return self.point(self.length - 1)

    def index_of(self, t) -> int:
        tf = as_fraction(t)
        step = tf - self.origin
        if self.direction is Direction.BACKWARD:
            step = -step
        if step.denominator != 1 or not (0 <= step < self.length):
            raise DomainError(f"point {t} not on grid starting at {self.origin}")
        return int(step)

    def value_at(self, t):
        return self.values[self.index_of(t)]

    def mapping(self) -> dict:
        return {self.point(i): v for i, v in enumerate(self.values)}

    def with_values(self, values, origin=None) -> "GridFunction":
        return GridFunction(self.origin if origin is None else origin, self.direction, values,
                            self.backend)

    def with_parts(self, nums, den: int, origin=None, direction=None,
                   inward=0) -> "GridFunction":
        """The grid of values ``nums[i] / den`` (``den > 0``, 1 on a grid held
        as given) in ``direction`` (this grid's own by default) and in this
        grid's form, at ``origin``, or without one at this grid's origin
        moved ``inward`` steps into its own direction: an int, or a
        ``(num, den)`` pair of ints with den > 0."""
        if origin is not None:
            onum, oden = _fraction_parts(origin)
        elif inward == 0:
            onum, oden = self._origin_num, self._origin_den
        else:
            onum, oden = self._moved(inward)
        return _fill(_blank(GridFunction), onum, oden, direction or self.direction,
                     tuple(nums), None if self._den is None else den, self.backend)

    def shift_origin(self, inward) -> Fraction:
        """Origin moved ``inward`` steps into the grid's own direction."""
        if inward.__class__ is not int:
            inward = _fraction_parts(inward)
        return Fraction(*self._moved(inward))

    def _moved(self, inward) -> tuple:
        """``origin_parts`` moved ``inward`` steps into the grid's direction,
        ``inward`` an int or a ``(num, den)`` pair of ints with den > 0."""
        num, den = self._origin_num, self._origin_den
        step, step_den = (inward, 1) if inward.__class__ is int else inward
        if self.direction is Direction.BACKWARD:
            step = -step
        if step_den == 1:  # gcd(num + step * den, den) = gcd(num, den) = 1
            return num + step * den, den
        num, den = num * step_den + step * den, den * step_den
        g = math.gcd(num, den)
        return num // g, den // g

    def drop_leading(self, n: int) -> "GridFunction":
        if n >= self.length:
            raise GridTooShort("cannot drop every grid value")
        nums, den = self.parts
        return self.with_parts(nums[n:], den, inward=n)

    def prepend_zero(self) -> "GridFunction":
        """Extend one step toward the anchor side with a zero value."""
        nums, den = self.parts
        if self._den is None:
            zero = self.backend.zero
        else:  # the int 0, or a zero array beside coefficient vectors
            zero = nums[0] * 0 if nums else 0
        return self.with_parts((zero,) + nums, den, inward=-1)

    def reflected(self, origin=None) -> "GridFunction":
        """The values in reverse storage order, same direction, at ``origin``
        (this grid's own by default)."""
        nums, den = self.parts
        return self.with_parts(nums[::-1], den, origin)

    def reversed_view(self) -> "GridFunction":
        """Same function, opposite storage direction: its origin is the far point."""
        other = (
            Direction.BACKWARD if self.direction is Direction.FORWARD else Direction.FORWARD
        )
        nums, den = self.parts
        return self.with_parts(nums[::-1], den, direction=other, inward=len(nums) - 1)


# the slots' own setters, which the frozen ``__setattr__`` does not block
(_set_origin_num, _set_origin_den, _set_direction, _set_backend, _set_nums, _set_den,
 _set_values) = (GridFunction.__dict__[name].__set__ for name in GridFunction.__slots__)
_blank = object.__new__


def _fraction_parts(x) -> tuple:
    """``(num, den)`` of ``as_fraction(x)``, in lowest terms with den > 0."""
    x = as_fraction(x)
    return x.numerator, x.denominator


def _fill(grid, origin_num, origin_den, direction, nums, den, backend,
          values=None) -> GridFunction:
    """Set every slot of ``grid``, the one path by which a grid is built."""
    _set_origin_num(grid, origin_num)
    _set_origin_den(grid, origin_den)
    _set_direction(grid, direction)
    _set_backend(grid, backend)
    _set_nums(grid, nums)
    _set_den(grid, den)
    _set_values(grid, nums if den is None else values)
    return grid


def _cleared(values):
    """``(nums, den)`` with ``values[i] == nums[i] / den``, or None for values
    held as given: ``cleared`` for exact scalars, and coefficient vectors as
    integer arrays over the LCM of their denominators, the exact zero beside
    them as a zero array."""
    if CoefficientVector not in {*map(type, values)}:
        return cleared(values)
    vectors = [v for v in values if isinstance(v, CoefficientVector)]
    if any(not isinstance(v, CoefficientVector) and v != 0 for v in values):
        raise TypeError("a nonzero constant among coefficient vectors")
    e = math.lcm(*(v.den for v in vectors))
    zero = vectors[0].nums * 0
    return tuple([v.nums * (e // v.den) if isinstance(v, CoefficientVector) else zero
                  for v in values]), e


def make_grid_function(origin, direction, values, backend=FLOATING) -> GridFunction:
    """Construct and validate a grid function."""
    vals = tuple(backend.scalar(v) for v in values)
    if not vals:
        raise EmptyValues("a grid function needs at least one value")
    if isinstance(direction, str):
        direction = Direction(direction)
    return GridFunction(origin=origin, direction=direction, values=vals, backend=backend)


def storage_difference(values, n: int = 1):
    """n-th storage-space difference, ``s[k] = v[k+1] - v[k]`` iterated, as a
    tuple; at n = 0 the values themselves, not a copy."""
    for _ in range(n):
        values = tuple(map(operator.sub, values[1:], values[:-1]))
    return values


def integer_difference(f: GridFunction, kind: str, n: int, signed: bool = False) -> GridFunction:
    """n-th forward (delta) or backward (nabla) difference of ``f``.

    ``signed=True`` multiplies by (-1)^n.
    """
    if kind not in ("delta", "nabla"):
        raise DomainError(f"unknown kind {kind!r}")
    if n < 0:
        raise DomainError("difference order must be nonnegative")
    if f.length < n + 1:
        raise GridTooShort(f"grid of length {f.length} cannot take {n} differences")
    nums, den = f.parts
    vals = storage_difference(nums, n)
    sign = 1
    if f.direction is Direction.BACKWARD and n % 2 == 1:
        sign = -sign
    if signed and n % 2 == 1:
        sign = -sign
    if sign == -1:
        vals = tuple(-v for v in vals)
    forward = f.direction is Direction.FORWARD
    moves = (kind == "nabla") if forward else (kind == "delta")
    return f.with_parts(vals, den, inward=n if moves else 0)


def q_reflect(f: GridFunction, a, b) -> GridFunction:
    """Reflection ``(Qf)(s) = f(a + b - s)``.

    ``a`` and ``b`` must be congruent mod 1.  When ``f`` itself lives on
    the integer lattice through ``a``, its points must lie inside
    ``[a, b]``; grids on shifted lattices (operator outputs) are
    reflected through the same center without a coverage requirement.
    Applying the reflection twice returns the original function.
    """
    af, bf = as_fraction(a), as_fraction(b)
    if (af - bf).denominator != 1:
        raise DomainError(f"anchors {a} and {b} are not congruent mod 1")
    sigma = af + bf
    lo = min(f.point(0), f.far_point)
    hi = max(f.point(0), f.far_point)
    if (f.origin - af).denominator == 1 and not (min(af, bf) <= lo and hi <= max(af, bf)):
        raise DomainError("grid points fall outside the reflection window")
    return f.reflected(sigma - f.far_point)
