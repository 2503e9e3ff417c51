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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .backends import FLOATING, as_fraction
from .errors import DomainError, EmptyValues, GridTooShort


class Direction(enum.Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


@dataclass(frozen=True)
class GridFunction:
    """Finite function on a shifted integer grid."""

    origin: Fraction
    direction: Direction
    values: tuple
    backend: object = FLOATING

    @property
    def length(self) -> int:
        return len(self.values)

    def point(self, index: int) -> Fraction:
        if self.direction is Direction.FORWARD:
            return self.origin + index
        return self.origin - index

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
        return GridFunction(
            origin=self.origin if origin is None else as_fraction(origin),
            direction=self.direction,
            values=tuple(values),
            backend=self.backend,
        )

    def shift_origin(self, inward) -> Fraction:
        """Origin moved ``inward`` steps into the grid's own direction."""
        amount = inward if isinstance(inward, int) else as_fraction(inward)
        if self.direction is Direction.FORWARD:
            return self.origin + amount
        return self.origin - amount

    def drop_leading(self, n: int) -> "GridFunction":
        if n >= self.length:
            raise GridTooShort("cannot drop every grid value")
        return self.with_values(self.values[n:], origin=self.shift_origin(n))

    def prepend_zero(self) -> "GridFunction":
        """Extend one step toward the anchor side with a zero value."""
        return self.with_values(
            (self.backend.zero,) + self.values, origin=self.shift_origin(-1)
        )

    def reversed_view(self) -> "GridFunction":
        """Same function, opposite storage direction."""
        other = (
            Direction.BACKWARD if self.direction is Direction.FORWARD else Direction.FORWARD
        )
        return GridFunction(
            origin=self.far_point,
            direction=other,
            values=tuple(reversed(self.values)),
            backend=self.backend,
        )


def make_grid_function(origin, direction, values, backend=FLOATING) -> GridFunction:
    """Construct and validate a grid function."""
    vals = tuple(backend.scalar(v) for v in values)
    if not vals:
        raise EmptyValues("a grid function needs at least one value")
    if isinstance(direction, str):
        direction = Direction(direction)
    return GridFunction(
        origin=as_fraction(origin), direction=direction, values=vals, backend=backend
    )


def storage_difference(values, n: int = 1) -> tuple:
    """n-th storage-space difference, ``s[k] = v[k+1] - v[k]`` iterated."""
    values = tuple(values)
    for _ in range(n):
        values = tuple(values[k + 1] - values[k] for k in range(len(values) - 1))
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
    vals = storage_difference(f.values, n)
    sign = 1
    if f.direction is Direction.BACKWARD and n % 2 == 1:
        sign = -sign
    if signed and n % 2 == 1:
        sign = -sign
    if sign == -1:
        vals = tuple(-v for v in vals)
    forward = f.direction is Direction.FORWARD
    moves = (kind == "nabla") if forward else (kind == "delta")
    origin = f.shift_origin(n) if moves else f.origin
    return f.with_values(vals, origin=origin)


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
    new_origin = sigma - f.far_point
    return f.with_values(tuple(reversed(f.values)), origin=new_origin)
