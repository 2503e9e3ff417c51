"""Fractional sums and differences on shifted integer grids.

Every operator is one row of this table (f of length L, order alpha > 0,
n = smallest integer >= alpha): f's ``pre``-th storage difference (see
the grids module), its convolution with the binomial kernel w(beta, .),
the ``post``-th storage difference of that, less its first ``drop``
outputs.  ``OperatorSpec`` derives the row when it is built.

    operator         beta       pre  post  drop  inward shift  length
    ---------------  ---------  ---  ----  ----  ------------  ------
    delta sum        alpha      0    0     0     alpha         L
    nabla sum        alpha      0    0     0     0             L
    delta Riemann    n - alpha  0    n     0     n - alpha     L - n
    nabla Riemann    n - alpha  0    n     0     n             L - n
    delta Caputo     n - alpha  n    0     0     n - alpha     L - n
    nabla Caputo     n - alpha  n    0     0     n             L - n
    delta direct     -alpha     0    0     n     n - alpha     L - n
    nabla direct     -alpha     0    0     n     n             L - n
    delta extended   -alpha     0    0     1     1 - alpha     L - 1
    nabla extended   -alpha     0    0     1     1             L - 1

An operator's side is the direction of its grid: it acts as the left
operator on a forward grid N_a and as the right one on a backward grid
bN.  In storage space the row is the same for both: only the output
origin differs, the input's moved the shift inward (a + shift on the
left, b - shift on the right).  A delta row shifts by beta + drop,
a nabla row by pre + post + drop, and the nabla rows with pre = 0 leave
the value at the anchor out of the convolution, so the nabla sums carry a
conventional zero there (empty sum).  A grid of at most pre + post + drop
values raises ``GridTooShort``.

The single-sum (direct) Riemann forms reproduce the composed values; the
extended direct rows drop 1 output instead of n, which extends them by the
n-1 points between anchor+1 and the composed domain.  The nabla Caputo
differences anchor their inner sum one step before the first value of
the n-th difference (anchor + n - 1 on the left, anchor - n + 1 on the
right).

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

``cached_spec`` is the one place a path that evaluates many operators
takes its specs from (the identity rows, the two Caputo helpers and the
theorem row kinds): each (kind, family, order, formulation) is built
once, and ``OperatorSpec`` derives its row then.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .backends import as_fraction
from .errors import DirectFormIntegerOrder, DomainError, GridTooShort
from .grids import GridFunction, storage_difference
from .kernels import kernel


class Kind(enum.Enum):
    DELTA = "delta"
    NABLA = "nabla"
    __hash__ = object.__hash__  # members are singletons: hash by identity, in C


class Family(enum.Enum):
    SUM = "sum"
    RIEMANN = "riemann"
    CAPUTO = "caputo"
    __hash__ = object.__hash__  # as Kind's


class Formulation(enum.Enum):
    COMPOSED = "composed"
    DIRECT = "direct"
    EXTENDED = "extended"  # the direct row on its whole domain: drop 1, not n


def order_ceiling(order) -> int:
    """n = [alpha] + 1 where [alpha] is the greatest integer below alpha."""
    a = as_fraction(order)
    return -(-a.numerator // a.denominator)


@dataclass(frozen=True)
class OperatorSpec:
    """One fractional operator: kind x family at a positive order.  It has no
    side of its own: it is the left operator on a forward grid and the right
    one on a backward grid."""

    kind: Kind
    family: Family
    order: Fraction
    formulation: Formulation = Formulation.COMPOSED
    # the row, derived once (see the module table): n = order_ceiling(order),
    # the kernel order beta, the storage differences taken before (pre) and
    # after (post) the convolution, and the outputs dropped after it
    n: int = field(init=False, repr=False, compare=False)
    beta: Fraction = field(init=False, repr=False, compare=False)
    pre: int = field(init=False, repr=False, compare=False)
    post: int = field(init=False, repr=False, compare=False)
    drop: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "order", as_fraction(self.order))
        if self.order.numerator <= 0:
            raise DomainError("operator order must be positive")
        n = order_ceiling(self.order)
        if self.formulation is not Formulation.COMPOSED:
            if self.family is not Family.RIEMANN:
                raise DomainError("direct formulation applies to Riemann differences only")
            if self.order.denominator == 1:
                raise DirectFormIntegerOrder(
                    "the single-sum difference form needs a non-integer order"
                )
            row = -self.order, 0, 0, n if self.formulation is Formulation.DIRECT else 1
        elif self.family is Family.SUM:
            row = self.order, 0, 0, 0
        elif self.family is Family.RIEMANN:
            row = n - self.order, 0, n, 0
        else:
            row = n - self.order, n, 0, 0
        for name, value in zip(("n", "beta", "pre", "post", "drop"), (n, *row)):
            object.__setattr__(self, name, value)


@functools.lru_cache(maxsize=4096)
def cached_spec(kind: Kind, family: Family, num: int, den: int,
                formulation: Formulation, /) -> OperatorSpec:
    """The one frozen ``OperatorSpec`` of (kind, family, formulation) at order
    num/den, built on the first call and shared by later ones, on either
    side: the grid it runs on gives that.  Every argument is positional and
    required, so one spec has one key."""
    return OperatorSpec(kind, family, Fraction(num, den), formulation)


def _require_grid(spec: OperatorSpec, f: GridFunction) -> None:
    """Refuse f unless it holds more than the ``pre + post + drop`` values the
    row takes away.  Either direction is accepted: f's direction is the
    operator's side."""
    if f.length <= spec.pre + spec.post + spec.drop:
        raise GridTooShort(f"a grid of length {f.length} cannot support this "
                           f"order-{spec.order} {spec.family.value}")


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


def _pipeline(f: GridFunction, beta, shift=0, *, skip_first=False, pre=0, post=0,
              drop=0) -> GridFunction:
    """f through its ``pre``-th storage difference, the convolution with
    w(beta, .) (none when beta is 0) and a ``post``-th storage difference,
    less its first ``drop`` outputs, as a grid whose origin is f's moved
    ``shift + drop`` steps inward.

    Every step runs on ``f.parts``, numerators over E (floats over 1).  The
    kernel comes over its own denominator D (1 for floats), and the output
    is the grid of the resulting numerators over D*E.
    """
    vals, den = f.parts
    if pre:
        vals = storage_difference(vals, pre)
    if beta != 0:
        w, d = kernel(beta, len(vals), f.backend)
        vals, den = _convolve(w, vals, skip_first), den * d
    if post:
        vals = storage_difference(vals, post)
    inward = shift + drop if drop else shift
    return f.with_parts(vals[drop:] if drop else vals, den,
                        f.shift_origin(inward) if inward else None)


def _apply(spec: OperatorSpec, f: GridFunction) -> GridFunction:
    """The spec's row run on f: see the module table."""
    _require_grid(spec, f)
    delta = spec.kind is Kind.DELTA
    return _pipeline(f, spec.beta, spec.beta if delta else spec.pre + spec.post,
                     skip_first=not (delta or spec.pre), pre=spec.pre, post=spec.post,
                     drop=spec.drop)


def fractional_sum(spec: OperatorSpec, f: GridFunction) -> GridFunction:
    """Fractional sum of order alpha; see the module table for domains."""
    if spec.family is not Family.SUM:
        raise DomainError("fractional_sum needs a spec with family=sum")
    return _apply(spec, f)


def riemann_difference(spec: OperatorSpec, f: GridFunction) -> GridFunction:
    """Riemann fractional difference (integer differences of a sum)."""
    if spec.family is not Family.RIEMANN:
        raise DomainError("riemann_difference needs a spec with family=riemann")
    return _apply(spec, f)


def caputo_difference(spec: OperatorSpec, f: GridFunction) -> GridFunction:
    """Caputo fractional difference (sum of integer differences).

    Integer orders reduce to the plain n-th difference of the matching
    kind (with the signed variants on the right side).
    """
    if spec.family is not Family.CAPUTO:
        raise DomainError("caputo_difference needs a spec with family=caputo")
    return _apply(spec, f)


def caputo_from_riemann(spec: OperatorSpec, f: GridFunction) -> GridFunction:
    """Right-hand side of the Riemann-to-Caputo relation.

    Evaluates the Riemann difference minus the finite correction sum
    whose k-th term pairs the k-th integer difference at the anchor with
    a falling-factorial (delta) or rising-factorial (nabla) weight.  The
    result should match ``caputo_difference`` pointwise.
    """
    if spec.family is not Family.CAPUTO:
        raise DomainError("caputo_from_riemann needs a spec with family=caputo")
    _require_grid(spec, f)
    n = spec.n
    alpha = spec.order
    if spec.kind is Kind.DELTA:
        riem = riemann_difference(
            cached_spec(spec.kind, Family.RIEMANN, alpha.numerator, alpha.denominator,
                        Formulation.COMPOSED), f)
    else:
        # nabla: the extended direct row anchored n-1 steps inward.  It runs
        # at every order: at integer orders the stated correction terms are
        # pole-over-pole, and the kernel w(-alpha, .), which truncates to the
        # signed binomial row, together with the fused correction weights
        # realizes their limits.
        riem = _pipeline(f.drop_leading(n - 1) if n > 1 else f, -alpha, skip_first=True,
                         drop=1)
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


def caputo_inversion_residual(f: GridFunction, order) -> GridFunction:
    """Residual of the nabla sum-after-Caputo inversion identity, on f's side.

    Computes ``sum_of_order_alpha(caputo_difference(f)) - (f - T)`` where
    ``T`` is the degree-(n-1) discrete Taylor polynomial of ``f`` at the
    Caputo anchor; the contract is that the residual vanishes.
    """
    alpha = as_fraction(order)
    spec = cached_spec(Kind.NABLA, Family.CAPUTO, alpha.numerator, alpha.denominator,
                       Formulation.COMPOSED)
    n = spec.n
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


def apply_operator(spec: OperatorSpec, f: GridFunction) -> GridFunction:
    """Dispatch on the spec's family."""
    if spec.family is Family.SUM:
        return fractional_sum(spec, f)
    if spec.family is Family.RIEMANN:
        return riemann_difference(spec, f)
    return caputo_difference(spec, f)

