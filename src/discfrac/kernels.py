"""Falling and rising factorial functions and fractional-sum kernel weights.

The falling factorial is ``t^(alpha) = Gamma(t+1)/Gamma(t+1-alpha)`` with
the convention that a denominator pole yields zero.  The rising factorial
is ``t^^alpha = Gamma(t+alpha)/Gamma(t)`` with ``0^^alpha = 0``.  Every
convolution kernel of the fractional sums and of the single-sum
difference forms reduces to the binomial weight

    w(beta, lag) = Gamma(beta + lag) / (Gamma(beta) * Gamma(lag + 1))
                 = (beta)(beta+1)...(beta+lag-1) / lag!

with ``beta = alpha`` for sums and ``beta = -alpha`` for direct
differences; the normalizing ``1/Gamma(beta)`` is always fused into the
product so the exact backend never evaluates a transcendental gamma.

Every weight comes from one recurrence in ``kernel_vector``,
``w(beta, lag) = w(beta, lag-1) * (beta+lag-1) / lag``, formed in integers
on the exact backend and in floats on the floating one; ``binomial_weight``
reads it to its lag.  ``gamma_ratio`` is the same product, unnormalized,
on both backends; ``falling`` and ``rising`` take it whenever their two
gamma arguments differ by an integer, so log-gamma serves only the other
exponents on the floating backend.

``kernel`` hands the operators a kernel in the ``(nums, den)`` form of
``GridFunction.parts``: exact weights cleared to integers over their LCM,
floats as they are over 1.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .backends import FLOATING, GammaValue, as_fraction
from .errors import BackendOverflow, DomainError, PoleAmbiguous


def _is_nonpositive_integer(x: Fraction) -> bool:
    return x.denominator == 1 and x <= 0


def _gamma_sign(x: float) -> int:
    """Sign of Gamma(x) away from poles."""
    if x > 0:
        return 1
    return 1 if math.floor(x) % 2 == 0 else -1


def _float_gamma_quotient(x: float, y: float) -> float:
    """Gamma(x)/Gamma(y) for x, y away from poles, via log-gamma."""
    return _gamma_sign(x) * _gamma_sign(y) * math.exp(math.lgamma(x) - math.lgamma(y))


def _reduce_gamma(x: Fraction) -> tuple[Fraction, Fraction | None]:
    """Write Gamma(x) = coef * Gamma(r) with r in (0, 1), exactly.

    For positive integer x the value is the plain factorial and r is None.
    ``x`` must not be a nonpositive integer.
    """
    if x.denominator == 1:
        if x <= 0:
            raise ValueError("gamma pole")
        return Fraction(math.factorial(int(x) - 1)), None
    k = math.floor(x)
    r = x - k
    coef = Fraction(1)
    if k >= 0:
        # Gamma(x) = (r)(r+1)...(r+k-1) Gamma(r)
        for j in range(k):
            coef *= r + j
    else:
        # Gamma(r) = (x)(x+1)...(x-k-1... ) Gamma(x)  =>  divide
        for j in range(-k):
            coef /= x + j
    return coef, r


def _exact_gamma_quotient(x: Fraction, y: Fraction):
    """Gamma(x)/Gamma(y) exactly; x, y away from poles."""
    cx, rx = _reduce_gamma(x)
    cy, ry = _reduce_gamma(y)
    coef = cx / cy
    units: dict = {}
    if rx is not None:
        units[rx] = units.get(rx, 0) + 1
    if ry is not None:
        units[ry] = units.get(ry, 0) - 1
    return GammaValue.make(coef, units)


def _gamma_quotient(x: Fraction, y: Fraction, backend):
    """Gamma(x)/Gamma(y): the finite product ``gamma_ratio(y, x - y)`` when
    x - y is a natural number (which is also the limit when both sit at
    poles), its reciprocal ``1/gamma_ratio(x, y - x)`` when y - x is, and
    otherwise, away from poles, the exact reduced quotient or log-gamma."""
    gap = x - y
    if gap.denominator == 1:
        if gap >= 0:
            return gamma_ratio(y, int(gap), backend)
        return backend.one / gamma_ratio(x, int(-gap), backend)
    if backend.exact:
        return backend.guard(_exact_gamma_quotient(x, y))
    return _float_gamma_quotient(float(x), float(y))


def falling(t, alpha, backend=FLOATING):
    """Falling factorial ``t^(alpha)``.

    Returns 0 when the denominator gamma sits at a pole and the numerator
    does not.  When both gammas sit at poles the limiting value exists
    only for natural alpha (the finite product ``t(t-1)...(t-alpha+1)``);
    any other exponent raises PoleAmbiguous.
    """
    tf, af = as_fraction(t), as_fraction(alpha)
    x = tf + 1
    y = tf + 1 - af
    if _is_nonpositive_integer(y):
        if not _is_nonpositive_integer(x):
            return backend.zero
        if af.denominator != 1 or af < 0:
            raise PoleAmbiguous(
                f"falling({t}, {alpha}): both gamma arguments at poles"
            )
    elif _is_nonpositive_integer(x):
        raise DomainError(f"falling({t}, {alpha}): numerator gamma pole")
    return _gamma_quotient(x, y, backend)


def rising(t, alpha, backend=FLOATING):
    """Rising factorial ``t^^alpha``; ``0^^alpha = 0`` and ``t^^0 = 1``."""
    tf, af = as_fraction(t), as_fraction(alpha)
    if af == 0:
        return backend.one
    if tf == 0:
        return backend.zero
    if _is_nonpositive_integer(tf):
        raise DomainError(f"rising({t}, {alpha}): negative-integer base")
    x = tf + af
    if _is_nonpositive_integer(x):
        raise DomainError(f"rising({t}, {alpha}): numerator gamma pole")
    return _gamma_quotient(x, tf, backend)


def gamma_ratio(x, k: int, backend=FLOATING):
    """Finite product ``Gamma(x+k)/Gamma(x) = x(x+1)...(x+k-1)``.

    Defined for every x: a factor is zero exactly when x is an integer
    <= 0 and x + k > 0, and then the product is zero.  Each exact partial
    product is guarded; a float one stops once it overflows, signed by its
    remaining factors, of which x + j is negative exactly when j < -x.
    """
    if k < 0:
        raise DomainError("gamma_ratio needs k >= 0")
    xf = as_fraction(x)
    start = xf if backend.exact else float(xf)
    if start <= 0 < start + k and start == math.floor(start):
        return backend.zero
    prod = backend.one
    for j in range(k):
        prod = backend.guard(prod * (start + j))
        if prod in (math.inf, -math.inf):
            negatives = max(0, min(k, math.ceil(-start)) - j - 1)
            return -prod if negatives % 2 else prod
    # ``or`` turns a float -0.0 into +0.0
    return prod or backend.zero


def binomial_weight(beta, lag: int, backend=FLOATING):
    """Kernel weight ``w(beta, lag) = Gamma(beta+lag)/(Gamma(beta) lag!)``."""
    if lag < 0:
        raise DomainError("kernel lag must be nonnegative")
    return kernel_vector(beta, lag + 1, backend)[lag]


def kernel_vector(beta, count: int, backend=FLOATING) -> list:
    """Weights ``[w(beta, 0), ..., w(beta, count-1)]``, each the last times
    (beta + lag - 1) / lag.

    On the exact backend, beta = p/q takes the step in integers,
    (p + q*(lag-1)) / (q*lag), and each weight is guarded.  On the floating
    one the step multiplies before it divides, so an integer beta gives
    exact binomials, and once a factor is zero every later weight is +0.0
    (``or`` turns -0.0 into +0.0).
    """
    if count < 0:
        raise DomainError("kernel count must be nonnegative")
    bf = as_fraction(beta)
    if backend.exact:
        p, q = bf.numerator, bf.denominator

        def step(w, lag):
            return backend.guard(Fraction(w.numerator * (p + q * (lag - 1)),
                                          w.denominator * q * lag))
    else:
        b = float(bf)

        def step(w, lag):
            return (w * (b + (lag - 1))) / lag or 0.0
    out = [backend.one][:count]
    for lag in range(1, count):
        out.append(step(out[-1], lag))
    return out


def cleared(values):
    """``(nums, d)``, nums a tuple, with ``values[i] == nums[i] / d`` for d
    the LCM of the denominators, or None unless every value is a Fraction or
    an int."""
    if not {*map(type, values)} <= {Fraction, int}:
        return None
    # two passes, so no list of (numerator, denominator) pairs is held
    d = math.lcm(*[v.denominator for v in values])
    return tuple([v.numerator * (d // v.denominator) for v in values]), d


def _build(beta, count: int, backend) -> tuple:
    """``kernel_vector`` in ``(nums, den)`` form, with the lag-1 weight scaled
    by the backend's fault, if it carries one (``with_fault``)."""
    weights = kernel_vector(backend.scalar(beta), count, backend)
    if backend.fault is not None and count > 1:
        weights[1] = backend.guard(weights[1] * backend.scalar(backend.fault))
    return cleared(weights) if backend.exact else (weights, 1)


def kernel(beta, count: int, backend) -> tuple:
    """``kernel_vector(beta, count, backend)`` in its ``(nums, den)`` form:
    exact weights ``cleared``, floats as they are over 1, for ``beta`` a
    Fraction or an int.  It may hold more than ``count`` weights.  On a
    backend from ``with_fault`` the lag-1 weight carries the fault.

    A backend from ``run_scoped(length)`` keeps each kernel in its table,
    built at ``length`` weights (more if a call asks for more), and serves
    every later call a prefix.  A build that overflows the bit cap at
    ``length`` is retried at ``count``, so ``BackendOverflow`` fires on the
    same calls as without a table.
    """
    table = backend.kernels
    if table is None:
        return _build(beta, count, backend)
    # a Fraction hashes slowly; an int k keys (k, 1), as Fraction(k) does
    key = (beta.numerator, beta.denominator)
    entry = table.get(key)
    if entry is None or len(entry[0]) < count:
        try:
            entry = _build(beta, max(count, backend.kernel_length), backend)
        except BackendOverflow:
            entry = _build(beta, count, backend)
        table[key] = entry
    return entry

