"""Fractional sums and differences on shifted integer grids.

Conventions shared by all operators (f of length L, order alpha > 0,
n = smallest integer >= alpha, beta = n - alpha):

    operator                input grid   output origin        length
    ----------------------  -----------  -------------------  ------
    delta-left sum          N_a          a + alpha            L
    delta-right sum         bN           b - alpha            L
    nabla-left sum          N_a          a        (0 at a)    L
    nabla-right sum         bN           b        (0 at b)    L
    delta-left difference   N_a          a + beta             L - n
    delta-right difference  bN           b - beta             L - n
    nabla-left difference   N_a          a + n                L - n
    nabla-right difference  bN           b - n                L - n
    delta-left Caputo       N_a          a + beta             L - n
    delta-right Caputo      bN           b - beta             L - n
    nabla-left Caputo       N_a          a + n                L - n
    nabla-right Caputo      bN           b - n                L - n

The nabla sums carry a conventional zero at their anchor (empty sum).
The single-sum (direct) Riemann forms reproduce the composed values and
extend the nabla differences to anchor+1 (n-1 extra points toward the
anchor); ``extended=True`` exposes the analogous extra points of the
delta differences as well.  The nabla Caputo differences anchor their
inner sum one step before the first value of the n-th difference
(anchor + n - 1 on the left, anchor - n + 1 on the right).

In storage space every pipeline is direction-free: sums are lower
triangular convolutions against the binomial kernel, differences are
iterated storage diffs (see grids module), and only origins differ.

Every operator reads its input as the grid's ``(nums, den)`` view
(``GridFunction.parts``) and builds its output from one (``with_parts``):
integer numerators over one denominator on the exact backend (integer
arrays for the coefficient vectors of the symbolic row pass), floats over
1 on the floating one.  The code is the same for all of them: the kernel
comes in the same form (``kernel``), every convolution runs through the
one loop of ``_convolve``, and the Riemann-to-Caputo correction
(``_correction_terms``, which the theorem engine's Caputo bound adds back)
and the Caputo inversion residual subtract their sums over one common
denominator (``_correction``).  No operator clears its input again, knows
how a grid stores its values or builds a Fraction per output point.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .backends import as_fraction
from .errors import DirectFormIntegerOrder, DomainError, GridTooShort
from .grids import Direction, GridFunction, storage_difference
from .kernels import kernel


class Kind(enum.Enum):
    DELTA = "delta"
    NABLA = "nabla"
    __hash__ = object.__hash__  # members are singletons: hash by identity, in C


class Side(enum.Enum):
    LEFT = "left"
    RIGHT = "right"
    __hash__ = object.__hash__  # as Kind's


class Family(enum.Enum):
    SUM = "sum"
    RIEMANN = "riemann"
    CAPUTO = "caputo"
    __hash__ = object.__hash__  # as Kind's


class Formulation(enum.Enum):
    COMPOSED = "composed"
    DIRECT = "direct"


def order_ceiling(order) -> int:
    """n = [alpha] + 1 where [alpha] is the greatest integer below alpha."""
    a = as_fraction(order)
    return -(-a.numerator // a.denominator)


@dataclass(frozen=True)
class OperatorSpec:
    """One fractional operator: kind x side x family at a positive order."""

    kind: Kind
    side: Side
    family: Family
    order: Fraction
    formulation: Formulation = Formulation.COMPOSED
    n: int = field(init=False, repr=False, compare=False)  # order_ceiling(order)

    def __post_init__(self):
        object.__setattr__(self, "order", as_fraction(self.order))
        if self.order.numerator <= 0:
            raise DomainError("operator order must be positive")
        if self.formulation is Formulation.DIRECT:
            if self.family is not Family.RIEMANN:
                raise DomainError("direct formulation applies to Riemann differences only")
            if self.order.denominator == 1:
                raise DirectFormIntegerOrder(
                    "the single-sum difference form needs a non-integer order"
                )
        object.__setattr__(self, "n", order_ceiling(self.order))


def _require_direction(spec: OperatorSpec, f: GridFunction) -> None:
    want = Direction.FORWARD if spec.side is Side.LEFT else Direction.BACKWARD
    if f.direction is not want:
        raise DomainError(
            f"{spec.side.value} operators require a {want.value} grid, got {f.direction.value}"
        )


def _convolve(weights, values, skip_first: bool) -> list:
    """out[m] = sum of weights[m-j] * values[j] over j <= m (j >= 1 with
    skip_first), for ints, integer arrays and floats alike.  Each sum is
    added from its first term on, so floats round in one order on every
    Python version and an array never meets a plain 0; an empty sum is the
    values' own zero (+0.0 on floats)."""
    lo = 1 if skip_first else 0
    out = []
    for m in range(len(values)):
        acc = None
        for j in range(lo, m + 1):
            term = weights[m - j] * values[j]
            acc = term if acc is None else acc + term
        out.append(values[0] - values[0] if acc is None else acc)
    return out


def _pipeline(f: GridFunction, beta, origin=None, *, skip_first=False, pre=0,
              post=0) -> GridFunction:
    """f through its ``pre``-th storage difference, the convolution with
    w(beta, .) (none when beta is 0) and a ``post``-th storage difference,
    as a grid at ``origin`` (f's own by default).

    Every step runs on ``f.parts``, numerators over E (floats over 1).  The
    kernel comes over its own denominator D (1 for floats), and the output
    is the grid of the resulting numerators over D*E.
    """
    vals, den = f.parts
    vals = storage_difference(vals, pre)
    if beta != 0:
        w, d = kernel(beta, len(vals), f.backend)
        vals, den = _convolve(w, vals, skip_first), den * d
    return f.with_parts(storage_difference(vals, post), den, origin)


def fractional_sum(spec: OperatorSpec, f: GridFunction) -> GridFunction:
    """Fractional sum of order alpha; see the module table for domains."""
    if spec.family is not Family.SUM:
        raise DomainError("fractional_sum needs a spec with family=sum")
    _require_direction(spec, f)
    alpha = spec.order
    delta = spec.kind is Kind.DELTA
    return _pipeline(f, alpha, f.shift_origin(alpha) if delta else None, skip_first=not delta)


def riemann_difference(
    spec: OperatorSpec, f: GridFunction, *, extended: bool = False
) -> GridFunction:
    """Riemann fractional difference (integer differences of a sum).

    ``extended=True`` is honored by the direct formulation only and adds
    the n-1 points between anchor+1 and the composed domain.
    """
    if spec.family is not Family.RIEMANN:
        raise DomainError("riemann_difference needs a spec with family=riemann")
    _require_direction(spec, f)
    n = spec.n
    alpha = spec.order
    if spec.formulation is Formulation.DIRECT:
        return _riemann_direct(spec, f, extended)
    if f.length < n + 1:
        raise GridTooShort(f"length {f.length} cannot support an order-{alpha} difference")
    beta = Fraction(n * alpha.denominator - alpha.numerator, alpha.denominator)
    delta = spec.kind is Kind.DELTA
    return _pipeline(f, beta, f.shift_origin(beta if delta else n), skip_first=not delta,
                     post=n)


def _nabla_single_sum(f: GridFunction, alpha) -> GridFunction:
    """Single-sum nabla difference on its full domain, one step past the
    anchor.  Also meaningful at integer orders, where the kernel truncates
    to the signed binomial row (the limit of the non-integer form)."""
    if f.length < 2:
        raise GridTooShort("grid too short for the single-sum difference form")
    return _pipeline(f, -as_fraction(alpha), skip_first=True).drop_leading(1)


def _riemann_direct(spec: OperatorSpec, f: GridFunction, extended: bool) -> GridFunction:
    n = spec.n
    alpha = spec.order
    if spec.kind is Kind.DELTA:
        q = 1 if extended else n
        if f.length <= q:
            raise GridTooShort("grid too short for the direct difference form")
        return _pipeline(f, -alpha, f.shift_origin(-alpha)).drop_leading(q)
    grid = _nabla_single_sum(f, alpha)
    if extended:
        return grid
    if grid.length < n:
        raise GridTooShort("grid too short for the composed difference domain")
    return grid.drop_leading(n - 1)


def caputo_difference(spec: OperatorSpec, f: GridFunction) -> GridFunction:
    """Caputo fractional difference (sum of integer differences).

    Integer orders reduce to the plain n-th difference of the matching
    kind (with the signed variants on the right side).
    """
    if spec.family is not Family.CAPUTO:
        raise DomainError("caputo_difference needs a spec with family=caputo")
    _require_direction(spec, f)
    n = spec.n
    alpha = spec.order
    if f.length < n + 1:
        raise GridTooShort(f"length {f.length} cannot support an order-{alpha} difference")
    beta = Fraction(n * alpha.denominator - alpha.numerator, alpha.denominator)
    # the nabla inner sum is anchored one step before the differenced grid
    return _pipeline(f, beta, f.shift_origin(beta if spec.kind is Kind.DELTA else n), pre=n)


def caputo_from_riemann(spec: OperatorSpec, f: GridFunction) -> GridFunction:
    """Right-hand side of the Riemann-to-Caputo relation.

    Evaluates the Riemann difference minus the finite correction sum
    whose k-th term pairs the k-th integer difference at the anchor with
    a falling-factorial (delta) or rising-factorial (nabla) weight.  The
    result should match ``caputo_difference`` pointwise.
    """
    if spec.family is not Family.CAPUTO:
        raise DomainError("caputo_from_riemann needs a spec with family=caputo")
    _require_direction(spec, f)
    n = spec.n
    alpha = spec.order
    if f.length < n + 1:
        raise GridTooShort(f"length {f.length} cannot support an order-{alpha} difference")
    if spec.kind is Kind.DELTA:
        riem = riemann_difference(
            OperatorSpec(spec.kind, spec.side, Family.RIEMANN, alpha), f
        )
    else:
        # nabla: Riemann side anchored n-1 steps inward, on its extended
        # domain.  The single-sum form is used for every order: at integer
        # orders the stated correction terms are pole-over-pole and this
        # together with the fused correction weights realizes their limits.
        riem = _nabla_single_sum(f.drop_leading(n - 1) if n > 1 else f, alpha)
    return riem.with_parts(*_correction(riem.parts, *_correction_terms(spec, f, riem.length)))


def _correction_terms(spec: OperatorSpec, f: GridFunction, length: int) -> tuple:
    """``(anchors, e, rows)``, the Riemann-to-Caputo correction sum of f for
    ``spec`` at ``length`` outputs as ``_correction`` reads it.  Term k < n is
    w(k+1-alpha, lag_k + m) at output m times the k-th storage difference of
    f at the anchor: from the first point (delta, lag_k = n - k) or up to
    storage index n - 1, where the Caputo inner sum is anchored (nabla,
    lag_k = 0)."""
    n, alpha = spec.n, spec.order
    data, e = f.parts
    delta = spec.kind is Kind.DELTA
    anchors, rows = [], []
    for k in range(n):
        anchors.append(storage_difference(data[:k + 1] if delta else data[n - 1 - k:n], k)[0])
        lag = n - k if delta else 0
        order = Fraction((k + 1) * alpha.denominator - alpha.numerator, alpha.denominator)
        w, d = kernel(order, lag + length, f.backend)
        rows.append((w[lag:], d))
    return anchors, e, rows


def _correction(base: tuple, coefficients: list, e: int, rows: list) -> tuple:
    """``base``, a ``(nums, den)``, minus the correction sum
    ``sum_k rows[k][m] * coefficients[k]`` at each output m: the
    coefficients are numerators over e, each row ``(nums, d_k)`` a kernel
    over d_k.  The result is ``(nums, den)`` over the LCM of the base's
    denominator and D*e, D the LCM of the d_k; on floats every denominator
    is 1.  The terms are summed first, from the first, and then
    subtracted, so floats round ``r - (c_0 + c_1)``."""
    nums, den = base
    d = math.lcm(*(dk for _, dk in rows))
    common = math.lcm(den, d * e)
    total = None
    for c, (w, dk) in zip(coefficients, rows):
        s = c * (d // dk)
        terms = [wm * s for wm in w[:len(nums)]]
        total = terms if total is None else list(map(operator.add, total, terms))
    scale, unit = common // den, common // (d * e)
    return [x * scale - t * unit for x, t in zip(nums, total)], common


def caputo_inversion_residual(f: GridFunction, order, side: Side) -> GridFunction:
    """Residual of the nabla sum-after-Caputo inversion identity.

    Computes ``sum_of_order_alpha(caputo_difference(f)) - (f - T)`` where
    ``T`` is the degree-(n-1) discrete Taylor polynomial of ``f`` at the
    Caputo anchor; the contract is that the residual vanishes.
    """
    alpha = as_fraction(order)
    if isinstance(side, str):
        side = Side(side)
    spec = OperatorSpec(Kind.NABLA, side, Family.CAPUTO, alpha)
    n = spec.n
    _require_direction(spec, f)
    cap = caputo_difference(spec, f)
    # anchored sum of the Caputo output: full convolution, origin kept,
    # plus the conventional zero at the anchor point itself
    summed = _pipeline(cap, alpha).prepend_zero()
    stored, e = f.parts
    taylor_coeffs = [storage_difference(stored[n - 1 - k:n], k)[0] for k in range(n)]
    data = stored[n - 1:]  # f from the anchor on
    # Taylor weight rising(m, k)/k! = C(m+k-1, k) at the point m steps inward
    # of the anchor: w(k+1, m-1) for m >= 1, and at m = 0 it is 1 for k = 0
    # and 0 otherwise
    rows = [([0 if k else d, *w], d) for k, (w, d) in enumerate(
        kernel(Fraction(k + 1), summed.length - 1, f.backend)
        for k in range(n))]
    f_minus_taylor = _correction((data, e), taylor_coeffs, e, rows)
    residual = _correction(summed.parts, [1], 1, [f_minus_taylor])
    return f.with_parts(*residual, f.shift_origin(n - 1))


def apply_operator(spec: OperatorSpec, f: GridFunction, *, extended: bool = False) -> GridFunction:
    """Dispatch on the spec's family."""
    if spec.family is Family.SUM:
        return fractional_sum(spec, f)
    if spec.family is Family.RIEMANN:
        return riemann_difference(spec, f, extended=extended)
    return caputo_difference(spec, f)


def semigroup_diagnostic(f: GridFunction, order_a, order_b) -> GridFunction:
    """Residual of composing two delta-left sums against one combined sum.

    Diagnostic only; not part of the verified identity set.
    """
    a, b = as_fraction(order_a), as_fraction(order_b)
    inner = fractional_sum(OperatorSpec(Kind.DELTA, Side.LEFT, Family.SUM, b), f)
    two_step = fractional_sum(OperatorSpec(Kind.DELTA, Side.LEFT, Family.SUM, a), inner)
    combined = fractional_sum(OperatorSpec(Kind.DELTA, Side.LEFT, Family.SUM, a + b), f)
    vals = [x - y for x, y in zip(two_step.values, combined.values)]
    return two_step.with_values(vals)
