"""Monotonicity theorem registry, evaluation engine, counterexample search.

Each registered theorem is a finite list of *linear* inequality rows in
the function values: hypothesis rows (operator positivity on the stated
index set, starting conditions), optional "for all k" starting
conditions, and conclusion rows.  A verdict is consistent when the
hypothesis fails or the conclusion holds; a consistent=False case is a
counterexample candidate and is always re-verified with
``evaluate_theorem`` before being reported.  Theorem cases are always
exact: ``make_case`` puts the grid on the rational backend, converting
floats to their exact binary values, and ``evaluate_theorem`` refuses
any other grid, so no margin or ray coefficient is ever rounded.

"For all k" starting conditions (value bounded below by a rational
function of k on an integer ray) are decided completely: after clearing
the positive denominator they become "polynomial R(k) >= 0 for every
integer k >= j", which is settled exactly by locating where the integer
sequence R(k) turns (sign changes of R(k+1) - R(k), found recursively)
and testing R at those integers plus the leading coefficient for the
tail, all in exact arithmetic.  The literal inequalities for k up to
k_cap are checked as well and feed the reported margins.

Searches run an exact integer prefilter: every row is linear in f with
rational coefficients, read once per search from one run of the
theorem's builder on coefficient vectors, with the k-family rays
expanded in integers.  Each row is kept as integer numerators over a
positive denominator, and the values as integer numerators over theirs,
so the dot product of a row's numerators with a value vector's has the
row's sign and decides the explicit rows exactly (in float64 BLAS while
the partial sums stay below 2**53, in Python integers otherwise).  A
hypothesis row reads the values up to its last nonzero coefficient, its
level, so the search grows value-index prefixes one coordinate at a time
and drops a prefix as soon as a row of its level is negative: no
completion of it can pass.  The length-d rows are the rows of level < d,
so one exhaustive tree holds the survivors of every length the nonvacuity
fallback may visit; conclusion rows, margins and witness candidates are
computed on survivors only.  Explicit rows are a subset of the true
hypothesis, so each counterexample candidate is re-verified with
``evaluate_theorem``, which also settles the ray conditions.  Nonvacuity
witness tries are decided from the exact rows themselves: a survivor's
exact margin is its smallest row value, and each ray is settled on its
exact coefficients as ``evaluate_theorem`` settles it; only the witness a
result reports is confirmed with ``evaluate_theorem``.  Witness order and
the conclusion margin are exact row values, each rounded once.
Enumeration and candidate ordering are canonical, so results are
deterministic for a fixed seed.  Within one exhaustive ``search_theorems``
run, theorems whose exact rows are equal share one search; each still
confirms its own counterexamples and witness.

``transport`` derives the rows of the 16 nabla and right-hand mirrors from
their delta twins, as the paper proves them: the Q images by ``Q_TWINS``, the
dual images each ``_NablaRiemann`` row read as its ``dual``; no search runs it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from functools import cache
from fractions import Fraction
from typing import Callable

import numpy as np

from .backends import FLOATING, RATIONAL, as_fraction
from .errors import BudgetExceeded, DomainError, GridTooShort
from .grids import CoefficientVector, Direction, GridFunction, make_grid_function
from .kernels import cleared
from .operators import (
    Family,
    Formulation,
    Kind,
    OperatorSpec,
    _correction,
    _correction_terms,
    cached_spec,
    caputo_difference,
    riemann_difference,
)

# ---------------------------------------------------------------------------
# polynomial nonnegativity on an integer ray


def _poly_eval(coeffs, x):
    acc = None
    for c in coeffs:
        acc = c if acc is None else acc * x + c
    return acc


def _poly_step(coeffs):
    """p(x+1) - p(x) by the binomial theorem, coefficients highest first."""
    d = len(coeffs) - 1
    return [sum(c * math.comb(d - i, e) for i, c in enumerate(coeffs[:d - e]))
            for e in range(d - 1, -1, -1)]


def _strip(coeffs):
    out = list(coeffs)
    while out and out[0] == 0:
        out.pop(0)
    return out


def _sign(x):
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def _bisect_bracket(coeffs, lo, hi, sign_lo):
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _sign(_poly_eval(coeffs, mid)) == sign_lo:
            lo = mid
        else:
            hi = mid
    return lo


def _root_brackets(coeffs, lo: int) -> list[int]:
    """Integers u >= lo, one in [k1, k2) wherever p(k1) p(k2) < 0 and
    lo <= k1 < k2: p(k) is monotone between its forward difference's."""
    coeffs = _strip(coeffs)
    if len(coeffs) <= 1:
        return []
    if len(coeffs) == 2:
        r = -coeffs[1] / coeffs[0]
        if r < lo:
            return []
        return [math.floor(r)]
    crit = _root_brackets(_poly_step(coeffs), lo)
    pts = sorted({lo} | set(crit) | {u + 1 for u in crit})
    out = set()
    for s, e in zip(pts, pts[1:]):
        ps, pe = _poly_eval(coeffs, s), _poly_eval(coeffs, e)
        if ps == 0:
            out.add(s)
        elif _sign(ps) * _sign(pe) <= 0:
            out.add(_bisect_bracket(coeffs, s, e, _sign(ps)))
    # unbounded tail: monotone toward the sign of the leading coefficient
    s = pts[-1]
    ps = _poly_eval(coeffs, s)
    tail_sign = _sign(coeffs[0])
    if ps == 0:
        out.add(s)
    elif _sign(ps) != tail_sign:
        e, step = s + 1, 1
        while _sign(_poly_eval(coeffs, e)) == _sign(ps):
            step *= 2
            e += step
        out.add(_bisect_bracket(coeffs, s, e, _sign(ps)))
    return sorted(out)


def poly_nonneg_on_integer_ray(coeffs, start: int):
    """Decide ``R(k) >= 0`` for every integer ``k >= start``.

    Returns (ok, witness) where witness is a violating integer if any.
    """
    c = _strip(coeffs)
    if not c:
        return True, None
    if len(c) == 1:
        return (True, None) if c[0] >= 0 else (False, start)
    if c[0] < 0:
        k, step = start, 1
        while _poly_eval(c, k) >= 0:
            step *= 2
            k += step
        return False, k
    # R is monotone between its turns, so its minimum is at one of them
    for k in sorted({start} | {k for u in _root_brackets(_poly_step(c), start)
                               for k in (u, u + 1)}):
        if _poly_eval(c, k) < 0:
            return False, k
    return True, None


# ---------------------------------------------------------------------------
# theorem cases and verdicts


@dataclass(frozen=True)
class RayCondition:
    """``bound >= P(k)/Q(k)`` for all integers k >= start, cleared to R >= 0;
    its rows are labelled ``start k=...``."""

    r_coeffs: tuple
    q_coeffs: tuple
    start: int
    bound: object  # the left-hand value, also the k -> infinity slack


def _partial_sum_ray(values, nu, first: int, start: int) -> RayCondition:
    """The k-family start f_j >= sum_{i<j} c_i(M) f_i for every integer
    k >= start, M = k + first - start, on ``values`` = (f_0, ..., f_j), with
    c_i(M) = nu/(M-i) prod_{r=M-j+1}^{M-i-1} (r-nu)/r read off the partial
    sums of the order-nu kernel (README, "The k-family starts").  Over
    Q = prod_{r=M-j+1}^{M} r each c_i(M) Q is nu times a product of linear
    factors in k, so R = f_j Q - sum_i c_i(M) Q f_i is a polynomial in k."""
    *lower, bound = values
    high = first - start + 1  # M + 1 = k + high, M - j + 1 = k + low
    low = high - len(lower)

    def product(roots):  # coefficients in k of prod (k + a), highest first
        poly = [1]
        for a in roots:
            poly = [x + a * y for x, y in zip(poly + [0], [0] + poly)]
        return poly

    q = product(range(low, high))
    coeffs = [bound * c for c in q]
    for i, f in enumerate(lower):
        c_q = product([a - nu for a in range(low, high - 1 - i)] + list(range(high - i, high)))
        for d, x in enumerate(c_q, 1):
            coeffs[d] -= nu * x * f
    return RayCondition(tuple(coeffs), tuple(q), start, bound)


@dataclass(frozen=True)
class TheoremCase:
    theorem_id: str
    order: Fraction
    f: GridFunction
    k_cap: int = 64

    @property
    def anchor(self) -> Fraction:  # fixed by the grid's origin
        return self.f.origin - THEOREMS[self.theorem_id].origin_offset


@dataclass
class TheoremVerdict:
    hypothesis_holds: bool
    conclusion_holds: bool
    hypothesis_margins: list
    conclusion_margins: list

    @property
    def consistent(self) -> bool:
        return (not self.hypothesis_holds) or self.conclusion_holds


@dataclass(frozen=True)
class TheoremStatement:
    theorem_id: str
    description: str
    order_range: tuple
    direction: Direction
    origin_offset: int  # grid origin = anchor + offset
    min_length: int  # minimum stored grid length
    builder: Callable  # case -> (hyp_rows, ray_conditions, concl_rows)
    note: str = ""  # statement quirks kept literal, surfaced in reports
    has_ray: bool = False  # a k-family start, expanded into a row per k up to k_cap

    @property
    def leading_inert(self) -> bool:  # first stored value is never read
        return self.origin_offset != 0


# ---------------------------------------------------------------------------
# row kinds
#
# A theorem is declared by the row kinds of its hypothesis and its
# conclusion, plus at most one k-family start.  A row kind maps a case to
# labelled rows, each linear in the stored values and required to be >= 0:
#
#   _start                      f at the first point
#   _start_pair                 _start, then f(second) - f(first)
#   _pair(offset, at)           nondecreasing pairs from storage index offset on
#   _nu_step                    f(t+1) - nu*f(t) at every step
#   _delta_riemann              delta Riemann difference on its domain
#   _NablaRiemann(prepend, drop)  extended direct nabla Riemann difference
#   _caputo_bound               delta Caputo difference plus its anchor correction
#   _ray(terms, base)           k-family start from the kernel's partial sums


def _label(label) -> str:
    """A row kind's label (template, grid, storage indices...) with the grid's
    points filled in, formatted only where ``evaluate_theorem`` reports it."""
    return label if isinstance(label, str) else label[0].format(*map(label[1].point, label[2:]))


def _op_rows(grid: GridFunction) -> list:
    return [(("frac t={}", grid, m), v) for m, v in enumerate(grid.values)]


def _start(case: TheoremCase) -> list:
    return [(("start f({})>=0", case.f, 0), case.f.values[0])]


def _start_pair(case: TheoremCase) -> list:
    f, v = case.f, case.f.values
    return _start(case) + [(("start f({})>=f({})", f, 1, 0), v[1] - v[0])]


def _pair(offset: int, at: int = 1) -> Callable:
    """Nondecreasing pairs from storage index ``offset`` on; ``at`` picks which
    pair element names the row (0 for statements quantified at the earlier
    storage point, 1 for the later one, matching each statement's index set)."""

    def rows(case):
        f, v = case.f, case.f.values
        return [(("pair t={}", f, j + at), v[j + 1] - v[j]) for j in range(offset, f.length - 1)]

    return rows


def _nu_step(case: TheoremCase) -> list:
    f, v, nu = case.f, case.f.values, case.f.backend.scalar(case.order)
    return [(("step t={}", f, j + 1), v[j + 1] - nu * v[j]) for j in range(f.length - 1)]


def _spec(case: TheoremCase, kind: Kind, family: Family,
          formulation: Formulation = Formulation.COMPOSED) -> OperatorSpec:
    """The case's (kind, family) operator at its order; its grid's direction
    is the side it acts on."""
    order = case.order
    return cached_spec(kind, family, order.numerator, order.denominator, formulation)


def _delta_riemann(case: TheoremCase) -> list:
    spec = _spec(case, Kind.DELTA, Family.RIEMANN)
    return _op_rows(riemann_difference(spec, case.f))


@dataclass(frozen=True)
class _NablaRiemann:
    """Direct nabla Riemann difference on its extended domain; ``prepend``
    anchors the operator one step before the data, ``drop`` skips leading
    output points.  ``dual`` reads the same rows, nu steps behind, off the
    dual identity: the composed delta difference, same side, of the operand
    with its first value (never read) zeroed and n - 1 zeros before it."""

    prepend: bool = False
    drop: int = 0
    dual: bool = False

    def __call__(self, case):
        f = case.f.prepend_zero() if self.prepend else case.f
        if self.dual:
            spec = _spec(case, Kind.DELTA, Family.RIEMANN)
            nums, den = f.parts
            f = f.with_parts((nums[0] * 0,) * spec.n + nums[1:], den, f.shift_origin(1 - spec.n))
        else:
            spec = _spec(case, Kind.NABLA, Family.RIEMANN, Formulation.EXTENDED)
        return _op_rows(riemann_difference(spec, f).drop_leading(self.drop))


def _caputo_bound(case: TheoremCase) -> list:
    """Delta Caputo difference plus its anchor-correction sum, the bound the
    Caputo theorems state (by the Riemann-Caputo relation, the delta Riemann
    difference)."""
    spec = _spec(case, Kind.DELTA, Family.CAPUTO)
    cap = caputo_difference(spec, case.f)
    anchors, e, rows = _correction_terms(spec, case.f, cap.length)
    return _op_rows(cap.with_parts(*_correction(cap.parts, [-c for c in anchors], e, rows)))


def _ray(terms: int, base: int) -> Callable:
    """k-family start bounding v[base + terms] by the ``terms`` values before
    it (``_partial_sum_ray``).  Each family keeps its first M and its window
    of k: the one-term family from M = base + 1, the others from M = terms + 1,
    the three-term one counting k from 2."""
    first, start = {1: (base + 1, 0), 2: (3, 0), 3: (4, 2)}[terms]

    def ray(case):
        return _partial_sum_ray(case.f.values[base:base + terms + 1],
                                case.f.backend.scalar(case.order), first, start)

    return ray


@dataclass(frozen=True)
class Declared:
    """Builder of a theorem declared by its row kinds: case ->
    (hypothesis rows, k-family start rays, conclusion rows)."""

    hyp: list
    concl: list
    start: Callable | None = None

    def __call__(self, case):
        return ([row for kind in self.hyp for row in kind(case)],
                [] if self.start is None else [self.start(case)],
                [row for kind in self.concl for row in kind(case)])


# ---------------------------------------------------------------------------
# theorem registry (registration order is report order)

_FWD, _BWD = Direction.FORWARD, Direction.BACKWARD

THEOREMS: dict[str, TheoremStatement] = {}


def _register(theorem_id, description, order_range, direction, origin_offset,
              min_length, hyp, concl, start=None, note=""):
    THEOREMS[theorem_id] = TheoremStatement(
        theorem_id, description, order_range, direction, origin_offset,
        min_length, Declared(hyp, concl, start), note, start is not None,
    )


_register("T_JEP1", "forward Riemann positivity with nonnegative nondecreasing start "
          "forces nondecreasing", (1, 2), _FWD, 0, 3,
          [_start_pair, _delta_riemann], [_pair(0, at=0)])
_register("T_JEP", "nabla Riemann positivity from the anchor forces nondecreasing "
          "one step in", (1, 2), _FWD, 0, 3, [_NablaRiemann()], [_pair(1)])
_register("T_JEPP", "nabla Riemann positivity anchored one step before the data "
          "forces nondecreasing", (1, 2), _FWD, -1, 3, [_NablaRiemann()], [_pair(1)])
_register("T_SLOV1", "Riemann positivity with the one-term k-family start",
          (1, 2), _FWD, 0, 3, [_delta_riemann], [_pair(1, at=0)], _ray(1, 0))
_register("T_SLOV11", "nabla mirror of the one-term k-family start",
          (1, 2), _FWD, -1, 4, [_NablaRiemann(drop=2)], [_pair(2)], _ray(1, 1),
          note="hypothesis index set starts two steps past the anchor, one "
               "later than the plain nabla statement; kept literal")
_register("T_SLOV2", "Riemann positivity with the two-term k-family start",
          (1, 2), _FWD, 0, 4, [_delta_riemann], [_pair(2, at=0)], _ray(2, 0))
_register("T_SLOV22", "nabla mirror of the two-term k-family start",
          (1, 2), _FWD, -1, 5, [_NablaRiemann(drop=3)], [_pair(3)], _ray(2, 1))
_register("T_SLOV3", "Riemann positivity with the three-term k-family start",
          (1, 2), _FWD, 0, 5, [_delta_riemann], [_pair(3, at=0)], _ray(3, 0))
_register("T_SLOV33", "nabla mirror of the three-term k-family start",
          (1, 2), _FWD, -1, 6, [_NablaRiemann(drop=4)], [_pair(4)], _ray(3, 1))
_register("T_U1", "low-order Riemann positivity forces nu-increasing",
          (0, 1), _FWD, 0, 2, [_start, _delta_riemann], [_start, _nu_step])
_register("T_UU1", "low-order nabla positivity anchored one step back forces "
          "nu-increasing", (0, 1), _FWD, 0, 2,
          [_NablaRiemann(prepend=True)], [_start, _nu_step],
          note="no separate nonnegative-start hypothesis; the first operator "
               "row already equals the starting value")
_register("T_U3", "nondecreasing with nonnegative start forces Riemann positivity",
          (0, 1), _FWD, 0, 2, [_start, _pair(0, at=0)], [_delta_riemann])
_register("T_UU2", "nondecreasing with nonnegative start forces anchored nabla "
          "positivity", (0, 1), _FWD, 0, 2,
          [_start, _pair(0, at=0)], [_NablaRiemann(prepend=True)])
_register("T_C1", "Caputo lower bound with nonnegative nondecreasing start",
          (1, 2), _FWD, 0, 3, [_start_pair, _caputo_bound], [_pair(0, at=0)])
_register("T_C2", "Caputo lower bound with the one-term k-family start",
          (1, 2), _FWD, 0, 3, [_caputo_bound], [_pair(1, at=0)], _ray(1, 0))
_register("T_C3", "Caputo lower bound with the two-term k-family start",
          (1, 2), _FWD, 0, 4, [_caputo_bound], [_pair(2, at=0)], _ray(2, 0))
_register("T_C4", "Caputo lower bound with the three-term k-family start",
          (1, 2), _FWD, 0, 5, [_caputo_bound], [_pair(3, at=0)], _ray(3, 0))
_register("T_C5", "low-order Caputo lower bound forces nu-increasing",
          (0, 1), _FWD, 0, 2, [_start, _caputo_bound], [_start, _nu_step])
_register("T_C6", "nondecreasing with nonnegative start forces the Caputo lower "
          "bound", (0, 1), _FWD, 0, 2, [_start, _pair(0, at=0)], [_caputo_bound])
_register("T_D1", "backward Riemann positivity with nonnegative start pair forces "
          "nonincreasing", (1, 2), _BWD, 0, 3,
          [_start_pair, _delta_riemann], [_pair(0, at=0)])
_register("T_N1", "backward nabla positivity anchored one step out forces "
          "nonincreasing", (1, 2), _BWD, 1, 3, [_NablaRiemann()], [_pair(1)])
_register("T_D2", "backward mirror of the one-term k-family start",
          (1, 2), _BWD, 0, 3, [_start, _delta_riemann], [_pair(1, at=0)], _ray(1, 0),
          note="conclusion index set starts one step inward of the plain "
               "backward statement; kept literal")
_register("T_D3", "backward mirror of the two-term k-family start",
          (1, 2), _BWD, 0, 4, [_delta_riemann], [_pair(2, at=0)], _ray(2, 0))
_register("T_D4", "backward mirror of the three-term k-family start",
          (1, 2), _BWD, 0, 5, [_delta_riemann], [_pair(3, at=0)], _ray(3, 0))
_register("T_D5", "low-order backward Riemann positivity forces alpha-decreasing",
          (0, 1), _BWD, 0, 2, [_start, _delta_riemann], [_nu_step])
_register("T_D6", "decreasing with nonnegative end forces backward Riemann "
          "positivity", (0, 1), _BWD, 0, 2, [_start, _pair(0)], [_delta_riemann])
_register("T_CD1", "backward Caputo lower bound with nonnegative start pair",
          (1, 2), _BWD, 0, 3, [_start_pair, _caputo_bound], [_pair(0, at=0)])
_register("T_CD5", "low-order backward Caputo lower bound forces alpha-decreasing",
          (0, 1), _BWD, 0, 2, [_start, _caputo_bound], [_nu_step])


# ---------------------------------------------------------------------------
# evaluation


def make_case(theorem_id: str, live_values, order, anchor=0, k_cap: int = 64) -> TheoremCase:
    """Build a case from the live (enumerated) values, on the exact backend;
    floats convert to their exact binary values.

    Statements whose stated data starts one step before the operator
    anchor carry an inert leading slot; it is filled with zero and never
    read by the operator or any predicate.
    """
    stmt = THEOREMS[theorem_id]
    stored = ([0] + list(live_values)) if stmt.leading_inert else list(live_values)
    origin = as_fraction(anchor) + stmt.origin_offset
    f = make_grid_function(origin, stmt.direction, stored, RATIONAL)
    return TheoremCase(theorem_id, as_fraction(order), f, k_cap)


def _ray_rows(ray: RayCondition, k_cap: int) -> list:
    """Rows ``R(k)/Q(k)`` for k = start..k_cap, the integer Horner rows of
    ``_integer_horner``, then the k -> infinity bound."""
    ks = range(ray.start, k_cap + 1)
    coeffs = [([c.numerator], c.denominator) for c in ray.r_coeffs]
    values = [Fraction(num, den) for (num,), den in _integer_horner(coeffs, ray.q_coeffs, ks)]
    rows = [(f"start k={k}", v) for k, v in zip(ks, values)]
    rows.append(("start k->inf", ray.bound))
    return rows


def expanded_hypothesis_rows(case: TheoremCase, hyp_rows, rays) -> list:
    rows = list(hyp_rows)
    for ray in rays:
        rows.extend(_ray_rows(ray, case.k_cap))
    return rows


def _check_order(theorem_id: str, order) -> None:
    lo, hi = THEOREMS[theorem_id].order_range
    if not (lo < order < hi):
        raise DomainError(f"{theorem_id} needs an order strictly between {lo} and {hi}")


def evaluate_theorem(case: TheoremCase, builder: Callable | None = None) -> TheoremVerdict:
    """Evaluate hypothesis and conclusion predicates on the case's grid,
    which must be on the exact backend (``make_case`` puts it there), from
    the rows of ``builder``, the statement's own by default."""
    stmt = THEOREMS[case.theorem_id]
    _check_order(case.theorem_id, case.order)
    if not case.f.backend.exact:
        raise DomainError(f"{case.theorem_id} is evaluated on exact grids only")
    if case.f.direction is not stmt.direction:
        raise DomainError(f"{case.theorem_id} expects a {stmt.direction.value} grid")
    if case.f.length < stmt.min_length:
        raise GridTooShort(
            f"{case.theorem_id} needs at least {stmt.min_length} stored values"
        )
    hyp_rows, rays, concl_rows = (builder or stmt.builder)(case)
    margins = [(_label(label), v) for label, v in expanded_hypothesis_rows(case, hyp_rows, rays)]
    hyp_ok = all(v >= 0 for _, v in margins)
    for ray in rays:
        ok, witness = poly_nonneg_on_integer_ray(list(ray.r_coeffs), ray.start)
        if not ok:
            hyp_ok = False
            if witness > case.k_cap:
                q = _poly_eval(ray.q_coeffs, witness)
                margins.append(
                    (f"start k={witness}", _poly_eval(list(ray.r_coeffs), witness) / q)
                )
    concl_ok = all(v >= 0 for _, v in concl_rows)
    return TheoremVerdict(
        hypothesis_holds=hyp_ok,
        conclusion_holds=concl_ok,
        hypothesis_margins=margins,
        conclusion_margins=[(_label(label), v) for label, v in concl_rows],
    )


# ---------------------------------------------------------------------------
# proof routes: each nabla and right-hand theorem through its delta twin

# Q images: backward storage is reflection-ordered, so a backward theorem is its
# forward twin on the same stored values read forward.  mirror -> (twin, extra
# leading hypothesis kinds, how many leading twin conclusion rows to drop)
Q_TWINS = {"T_D1": ("T_JEP1", [], 0), "T_D2": ("T_SLOV1", [_start], 0),
           "T_D3": ("T_SLOV2", [], 0), "T_D4": ("T_SLOV3", [], 0),
           "T_D5": ("T_U1", [], 1), "T_D6": ("T_U3", [], 0),
           "T_CD1": ("T_C1", [], 0), "T_CD5": ("T_C5", [], 1)}


def transport(case: TheoremCase):
    """A mirror theorem's rows, as its builder returns them, derived from its
    delta twin: a Q image's from its ``Q_TWINS`` twin, a dual image's from
    its own row kinds with each ``_NablaRiemann`` read as its ``dual``.
    ``evaluate_theorem(case, transport)`` gives the route's verdict."""
    if case.theorem_id in Q_TWINS:
        twin, extra, dropped = Q_TWINS[case.theorem_id]
        g = case.f.with_parts(*case.f.parts, case.f.far_point, Direction.FORWARD)
        twin_case = TheoremCase(twin, case.order, g, case.k_cap)
        hyp, rays, concl = THEOREMS[twin].builder(twin_case)
        return [row for kind in extra for row in kind(case)] + hyp, rays, concl[dropped:]
    own = THEOREMS[case.theorem_id].builder
    hyp, concl = ([replace(k, dual=True) if isinstance(k, _NablaRiemann) else k for k in kinds]
                  for kinds in (own.hyp, own.concl))
    if (hyp, concl) == (own.hyp, own.concl):
        raise DomainError(f"{case.theorem_id} is not the mirror of a delta theorem")
    return Declared(hyp, concl, own.start)(case)


# ---------------------------------------------------------------------------
# counterexample search


@dataclass
class SearchResult:
    theorem_id: str
    order: Fraction
    live_length: int
    instances: int
    hypothesis_count: int
    min_conclusion_margin: float | None
    counterexamples: list = field(default_factory=list)
    witness: tuple | None = None
    witness_margin: object = None

    def as_record(self) -> dict:
        return {
            "id": self.theorem_id,
            "order": str(self.order),
            "length": self.live_length,
            "instances": self.instances,
            "hypothesis_count": self.hypothesis_count,
            "min_conclusion_margin": (
                None if self.min_conclusion_margin is None
                else repr(self.min_conclusion_margin)
            ),
            "counterexamples": [
                [str(x) for x in c.f.values] for c in self.counterexamples
            ],
            "witness": None if self.witness is None else [str(x) for x in self.witness],
            "witness_margin": None if self.witness_margin is None else str(self.witness_margin),
        }


# Vectors per candidate array: bounds the (chunk x rows) products at any budget.
CHUNK = 1 << 16
# Witness candidates, in float-margin order, that the nonvacuity search considers.
WITNESS_WINDOW = 400
# Integers up to this magnitude are exact in float64, so an integer matmul
# whose ||row||_1 * max|value| stays below it is exact in BLAS.
EXACT_FLOAT_LIMIT = 2 ** 53


def _exact_row(value) -> tuple:
    """(integer numerators, positive denominator) of a coefficient vector's
    coordinates but the last, constant one, in lowest terms by one gcd.  A
    scalar row has no coefficients to read."""
    if not isinstance(value, CoefficientVector):
        raise TypeError(f"row value {value!r} is not a coefficient vector")
    g = math.gcd(*value.nums[:-1], value.den)
    return [x // g for x in value.nums[:-1]], value.den // g


def _integer_horner(coeffs: list, q_coeffs, ks) -> list:
    """``(D*R(k), D*Q(k))`` for each k of ``ks``: R's coefficients are given as
    (integer numerator vector, positive denominator) and D is the LCM of the
    denominators, so D*R(k) is an integer Horner evaluation.  Q(k) > 0 on a
    ray, so each pair has the sign of R(k)/Q(k)."""
    scale = math.lcm(*(den for _, den in coeffs))
    ks = np.array(ks, dtype=object)
    nums = 0
    for row, den in coeffs:
        nums = nums * ks[:, None] + np.array(row, dtype=object) * (scale // den)
    return list(zip(nums.tolist(), (scale * _poly_eval(q_coeffs, k) for k in ks)))


def _row_matrices(theorem_id: str, live_length: int, order, k_cap: int, anchor):
    """Exact hypothesis and conclusion rows, each (integer numerators,
    positive denominator), from one symbolic builder run, and each ray as
    (exact coefficient rows of R, start, level), its level being the last
    value any of those rows reads (``_last_read``).

    The builder runs once, on the identity basis plus a coordinate that no
    stored value reads: stored value i is the ``CoefficientVector`` e_i, so
    each row it returns is its own coefficient vector.  A scalar added
    anywhere lands in the extra coordinate, so it must be zero in every
    row, ray coefficient and ray bound; ``_exact_row`` leaves it out.
    """
    stmt = THEOREMS[theorem_id]
    inert = int(stmt.leading_inert)  # an inert leading slot is the zero row 0
    basis = np.eye(live_length + inert, live_length + 1, -inert, dtype=int).astype(object)
    case = make_case(theorem_id, [0] * live_length, order, anchor, k_cap)
    hyp, rays, concl = stmt.builder(replace(case, f=case.f.with_values(
        map(CoefficientVector, basis))))
    hyp_rows, concl_rows = [_exact_row(v) for _, v in hyp], [_exact_row(v) for _, v in concl]
    ray_rows = []
    for ray in rays:  # the rows of ``_ray_rows``, from coefficient-vector values
        coeffs = [_exact_row(c) for c in ray.r_coeffs]
        hyp_rows += _integer_horner(coeffs, ray.q_coeffs, range(ray.start, k_cap + 1))
        hyp_rows.append(_exact_row(ray.bound))
        level = _last_read(np.array([row for row, _ in coeffs], dtype=object)).max()
        ray_rows.append((coeffs, ray.start, level))
    values = [v for _, v in hyp + concl] + [x for ray in rays for x in (*ray.r_coeffs, ray.bound)]
    if any(v.nums[-1] for v in values):
        raise AssertionError(f"{theorem_id}: rows are not linear in the data")
    return hyp_rows, concl_rows, ray_rows


class _Arange:
    """``np.array(values, dtype)`` for a ``range`` of integers, read by
    index arrays and never built: a ``lo..hi`` range costs nothing per value
    that no search draws.  Values are computed as Python integers, so no
    range overflows."""

    def __init__(self, values: range, dtype=object):
        self.values, self.dtype = values, dtype

    def __getitem__(self, idx):
        offsets = np.multiply(idx, self.values.step, dtype=object)
        return np.add(offsets, self.values.start, dtype=object).astype(self.dtype)

    def astype(self, dtype):
        return _Arange(self.values, dtype)


def _value_tables(values):
    """(integer numerators as an object table read by index, their positive
    common denominator, largest numerator magnitude) of exact values in the
    double range.  A ``range`` is its own numerators over 1 (``_Arange``);
    only its two ends are checked, and they bound every value between."""
    checked = [*values[:1], *values[-1:]] if isinstance(values, range) else values
    for v in checked:
        FLOATING.scalar(v)
    if isinstance(values, range):
        return _Arange(values), 1, max(map(abs, checked), default=0)
    nums, scale = cleared(values)
    return np.array(nums, dtype=object), scale, max(map(abs, nums), default=0)


def _integer_operands(row_sets, length: int, value_ints, largest: int):
    """Matrices of the exact rows' numerators, each row set's ``length``
    columns wide, and the value table for an exact sign test, from the
    object table ``value_ints`` whose magnitudes are at most ``largest``.
    A row's denominator is positive, so its numerators give it its sign.

    float64 when every partial sum is an integer below 2**53 in magnitude,
    so BLAS computes it exactly; Python integers otherwise.
    """
    l1 = max((sum(map(abs, nums)) for rows in row_sets for nums, _ in rows), default=0)
    dtype = np.float64 if l1 * largest < EXACT_FLOAT_LIMIT else object
    mats = [np.array([nums for nums, _ in rows], dtype=dtype).reshape(len(rows), length)
            for rows in row_sets]
    return mats, value_ints.astype(dtype)


def _quotient(num, den: int) -> float:
    """Integer ``num / den`` (den > 0) rounded once, or an infinity of num's sign."""
    try:
        return int(num) / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _margins(dots, divisors) -> np.ndarray:
    """Row values ``dots / divisors`` (Python integers) by column, each exact
    quotient rounded once: by IEEE division of float64 integers below 2**53,
    else by ``_quotient``."""
    if dots.dtype == np.float64 and divisors.max(initial=0) < EXACT_FLOAT_LIMIT:
        return dots / divisors.astype(np.float64)
    return np.frompyfunc(_quotient, 2, 1)(dots, divisors).astype(float)


def _last_read(mat) -> np.ndarray:
    """Level of each row of an integer row matrix, the index of the last
    coefficient it reads; -1 for an all-zero row."""
    nonzero = mat != 0
    return np.where(nonzero.any(axis=1),
                    mat.shape[1] - 1 - np.argmax(nonzero[:, ::-1], axis=1), -1)


def _row_levels(mat, length: int) -> list:
    """``levels[d]``: the rows of level d (``_last_read``), cut to their first
    d+1 coefficients.  An all-zero row never fails and is left out."""
    last = _last_read(mat)
    return [mat[last == d, :d + 1] for d in range(length)]


def _passes(ints, idx, rows):
    """Mask of the index vectors on which every row is >= 0 (exact)."""
    return ((ints[idx] @ rows.T) >= 0).all(axis=1)


def _prefix_search(k: int, levels: list, ints, shallowest: int | None = None):
    """Value-index vectors on which every row of ``levels`` is >= 0, and the
    surviving prefixes of each length from ``shallowest`` on, each length in
    ``itertools.product`` order, at most ``CHUNK`` at a time.

    A prefix grows one coordinate at a time, and the rows of level d are
    applied as soon as coordinate d is set, so a prefix that breaks a row
    is never completed.  Prefixes are grown depth-first, ``CHUNK``
    candidates per step: flat position p of a step is surviving prefix
    p // k extended by digit p % k, so no candidate array holds more than
    ``CHUNK`` vectors at any length.
    """
    length = len(levels)
    stack = [(np.zeros((1, 0), np.intp), iter(range(0, k, CHUNK)))]
    while stack:
        prefixes, starts = stack[-1]
        start = next(starts, None)
        if start is None:
            stack.pop()
            continue
        flat = np.arange(start, min(start + CHUNK, len(prefixes) * k))
        cand = np.column_stack((prefixes[flat // k], flat % k))
        depth = cand.shape[1]
        if len(levels[depth - 1]):
            cand = cand[_passes(ints, cand, levels[depth - 1])]
        if not len(cand):
            continue
        if depth >= (shallowest or length):
            yield cand
        if depth < length:
            stack.append((cand, iter(range(0, len(cand) * k, CHUNK))))


def _index_chunks(k: int, length: int, samples: int, rng_key: str):
    """Random value-index vectors, ``CHUNK`` at a time, drawn from the same
    stream as ``rng.choice(values)`` would draw them, sample by sample."""
    rng = random.Random(rng_key)
    for start in range(0, samples, CHUNK):
        n = min(CHUNK, samples - start)
        draws = [rng.randrange(k) for _ in range(n * length)]
        yield np.array(draws, dtype=np.intp).reshape(n, length)


def _survivors(k: int, levels: list, ints, samples: int | None, rng_key: str | None,
               shallowest: int | None = None):
    """Index vectors that pass every row of ``levels``, in enumeration order:
    all of them when ``samples`` is None, with the surviving prefixes of
    each length from ``shallowest`` on; else those of ``samples`` draws."""
    if samples is None:
        yield from _prefix_search(k, levels, ints, shallowest)
        return
    for idx in _index_chunks(k, len(levels), samples, rng_key):
        for depth, rows in enumerate(levels, 1):
            if len(rows) and len(idx):
                idx = idx[_passes(ints, idx[:, :depth], rows)]
        if len(idx):
            yield idx


def _min_quotient(dots, dens, scale: int) -> Fraction:
    """``min(dots[r] / (dens[r] * scale))`` for positive denominators, compared
    by integer cross-multiplication; one Fraction, for the minimum."""
    best = 0
    for r in range(1, len(dots)):
        if dots[r] * dens[best] < dots[best] * dens[r]:
            best = r
    return Fraction(dots[best], dens[best] * scale)


def _row_verdict(hyp: list, levels, rays: list, d: int, value_scale: int) -> Callable:
    """Values of a length-d pool candidate, as integers over ``value_scale``
    -> its smallest hypothesis margin, or None when a ray fails it.

    This is ``evaluate_theorem``'s verdict on the candidate's case, read
    from the exact hypothesis rows of level < d (``levels``) and the rays'
    exact coefficient rows.  A pool candidate passes every explicit row, so
    only the rays can fail it, each settled on its exact coefficients as
    ``evaluate_theorem`` settles it.  Every ray reads only values below d
    (``_search_instance`` checks its level), so its rows cut to d are whole.
    """
    keep = np.nonzero(levels < d)[0]
    nums = np.array([hyp[r][0][:d] for r in keep], dtype=object).reshape(len(keep), d)
    dens = [hyp[r][1] for r in keep]
    polys = [([(np.array(row[:d], dtype=object), den * value_scale) for row, den in coeffs],
              start) for coeffs, start, _ in rays]

    def margin(v):
        for coeffs, start in polys:
            if not poly_nonneg_on_integer_ray([Fraction(row @ v, den) for row, den in coeffs],
                                              start)[0]:
                return None
        return _min_quotient(nums @ v, dens, value_scale)

    return margin


def _row_key(rows: list) -> tuple:
    """Exact rows, each (integer numerators, denominator), as a dict key."""
    return tuple((tuple(nums), den) for nums, den in rows)


def _row_search(hyp: list, concl: list, rays: list, values, live_length: int,
                shallowest: int, samples: int | None,
                rng_key: str | None) -> Callable[[int], tuple]:
    """The search of one exact row set: d -> (survivor count, smallest float
    conclusion margin or None, survivors with a negative conclusion row,
    witness, witness margin) at length d, for every d from ``shallowest``
    on, each computed once.

    The length-d rows are, as a set, the length-``live_length`` rows of
    level < d cut to d coefficients (``test_rows_nest_across_lengths``),
    that is ``levels[:d]``.  ``scan`` keeps each length's survivor count,
    smallest float conclusion margin, survivors with a negative conclusion
    row and witness pool (float margin, exact positivity, indices): the
    ``WITNESS_WINDOW`` best margins, ties in the order survivors arrive,
    which a stable sort keeps, all read off two integer products per chunk
    (``_margins``).  An exhaustive search (``samples`` None)
    scans the one prefix tree up front, its depth-d survivors being the
    length-d survivors in enumeration order; a random one scans length d's
    own sample stream the first time its result is asked for.  The witness
    tries are decided from the exact rows."""
    exact_ints, value_scale, largest = _value_tables(values)
    k = len(values)
    (hyp_int, concl_int), ints = _integer_operands((hyp, concl), live_length, exact_ints, largest)
    hyp_div, concl_div = (np.array([den * value_scale for _, den in rows], dtype=object)
                          for rows in (hyp, concl))
    h, c = _last_read(hyp_int), _last_read(concl_int)
    rows = {d: (hyp_int[h < d, :d], hyp_div[h < d], concl_int[c < d, :d], concl_div[c < d])
            for d in range(shallowest, live_length + 1)}
    counts, suspects = dict.fromkeys(rows, 0), {d: [] for d in rows}
    min_concl = dict.fromkeys(rows, math.inf)
    pools = {d: (np.empty(0), np.empty(0, bool), np.empty((0, d), np.intp)) for d in rows}
    levels = _row_levels(hyp_int, live_length)

    def scan(survivors):
        for idx in survivors:
            d = idx.shape[1]
            hyp_d, hyp_dv, concl_d, concl_dv = rows[d]
            F = ints[idx]
            hyp_dots, concl_dots = F @ hyp_d.T, F @ concl_d.T
            suspects[d].extend(idx[(concl_dots < 0).any(axis=1)])
            min_concl[d] = min(min_concl[d], _margins(concl_dots, concl_dv).min(initial=np.inf))
            pool = tuple(np.concatenate(pair) for pair in zip(pools[d], (
                _margins(hyp_dots, hyp_dv).min(axis=1, initial=np.inf),
                (hyp_dots > 0).all(axis=1), idx,
            )))
            top = np.argsort(-pool[0], kind="stable")[:WITNESS_WINDOW]
            pools[d] = tuple(a[top] for a in pool)
            counts[d] += len(idx)

    if samples is None:
        scan(_survivors(k, levels, ints, samples, rng_key, shallowest))

    @cache
    def found(d: int) -> tuple:
        if samples is not None:
            scan(_survivors(k, levels[:d], ints, samples, rng_key))
        # nonvacuity witness: the hypothesis-true nonzero function with the best
        # margin, strictly positive when the value set admits one at all.  Once
        # a witness (margin >= 0) is found, only exactly positive rows beat it.
        witness = witness_margin = None
        _, positive, pool_idx = pools[d]
        margin_of = _row_verdict(hyp, h, rays, d, value_scale)
        for j in np.nonzero((ints[pool_idx] != 0).any(axis=1))[0]:
            if witness is not None and not positive[j]:
                continue
            margin = margin_of(exact_ints[pool_idx[j]])
            if margin is None:
                continue
            witness, witness_margin = tuple(as_fraction(values[i]) for i in pool_idx[j]), margin
            if margin > 0:
                break
        return (counts[d], float(min_concl[d]) if counts[d] else None, suspects[d],
                witness, witness_margin)

    return found


def _search_instance(theorem_id: str, live_length: int, value_set, order,
                     samples: int | None, seed: int, k_cap: int,
                     anchor, searches: dict | None = None) -> Callable[[int], SearchResult]:
    """Build the rows at ``live_length`` once; return d -> the length-d
    result, for every d from ``min_live_length`` on.  The search is exhaustive
    when ``samples`` is None, else ``samples`` random draws per length.

    An exhaustive search (``_row_search``) is kept in ``searches`` under all
    it reads: the exact hypothesis, conclusion and ray rows with their
    starts, the two lengths and the value set.  A theorem whose key an
    earlier search holds reads that search's survivors and witnesses, and
    builds no row matrix.  A random search draws from this
    theorem's own stream, so none repeats and none is kept.
    ``evaluate_theorem`` confirms the counterexample suspects on this
    theorem's own cases, and every result is a new ``SearchResult``
    (``search_campaign`` confirms the witness it reports)."""
    hyp, concl, rays = _row_matrices(theorem_id, live_length, order, k_cap, anchor)
    shallowest = min_live_length(theorem_id)
    if any(level >= shallowest for *_, level in rays):
        raise AssertionError(f"{theorem_id}: a start ray reads past length {shallowest}")
    values = value_set if isinstance(value_set, range) else tuple(map(as_fraction, value_set))
    rng_key = None if samples is None else repr((seed, theorem_id, str(order)))
    key = (_row_key(hyp), _row_key(concl),
           tuple((_row_key(coeffs), start) for coeffs, start, _ in rays), live_length,
           shallowest, values)
    searches = {} if searches is None or samples is not None else searches
    if key not in searches:
        searches[key] = _row_search(hyp, concl, rays, values, live_length, shallowest,
                                    samples, rng_key)
    search = searches[key]

    def exact_case(idx_row):
        combo = tuple(as_fraction(values[i]) for i in idx_row)
        return make_case(theorem_id, combo, order, anchor, k_cap)

    def result(d: int) -> SearchResult:
        count, min_concl, suspects, witness, witness_margin = search(d)
        counterexamples = [case for case in map(exact_case, suspects)
                           if not evaluate_theorem(case).consistent]
        instances = len(values) ** d if samples is None else samples
        return SearchResult(theorem_id, as_fraction(order), d, instances, count, min_concl,
                            counterexamples, witness, witness_margin)

    return result


def default_orders(theorem_id: str) -> list[Fraction]:
    lo, _ = THEOREMS[theorem_id].order_range
    if lo == 0:
        return [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
    return [Fraction(5, 4), Fraction(3, 2), Fraction(7, 4)]


def min_live_length(theorem_id: str) -> int:
    stmt = THEOREMS[theorem_id]
    return stmt.min_length - (1 if stmt.leading_inert else 0)


def search_campaign(theorem_id: str, grid_length: int, value_set,
                    nu_samples=None, mode: str = "exhaustive",
                    budget: int = 500_000, seed: int = 0, k_cap: int = 64,
                    anchor=0, searches: dict | None = None) -> list[SearchResult]:
    """Per-order search results, including witness and statistics.
    ``searches`` holds the searches to share with other theorems of one run
    (``search_theorems``); by default each order searches on its own."""
    if theorem_id not in THEOREMS:
        raise DomainError(f"unknown theorem id {theorem_id!r}")
    shortest = min_live_length(theorem_id)
    if grid_length < shortest:
        raise GridTooShort(f"{theorem_id} needs at least {shortest} live values")
    orders = [as_fraction(x) for x in (nu_samples or default_orders(theorem_id))]
    for order in orders:
        _check_order(theorem_id, order)
    if THEOREMS[theorem_id].has_ray and k_cap + 1 > budget:
        raise BudgetExceeded(f"k_cap {k_cap} expands the {theorem_id} start ray into up to "
                             f"{k_cap + 1} rows, more than the budget of {budget}")
    if mode == "exhaustive":
        k, n = len(value_set), len(orders)
        # k**L * n, with L cut where k**L (k >= 2) already passes the budget,
        # so a long grid builds no huge number
        if k ** min(grid_length, budget.bit_length() + 1) * n > budget:
            raise BudgetExceeded(f"exhaustive search needs {k}^{grid_length} x {n} evaluations "
                                 f"({k} values, length {grid_length}, {n} orders), "
                                 f"more than the budget of {budget}")
        samples = None
    elif mode == "random":
        samples = max(1, budget // len(orders))
    else:
        raise DomainError(f"unknown search mode {mode!r}")
    results = []
    for order in orders:
        result = _search_instance(theorem_id, grid_length, value_set, order, samples, seed,
                                  k_cap, anchor, searches)
        res = result(grid_length)
        # nonvacuity fallback: shorter grids often admit a strictly positive
        # margin that the capped value set rules out at full length.  The
        # rows built at full length hold every shorter length's rows; random
        # mode draws each length from its own stream.  Each length visited
        # also reports its own counterexamples.
        length = grid_length
        while (res.witness is None or res.witness_margin <= 0) and length > shortest:
            length -= 1
            shorter = result(length)
            res.counterexamples += shorter.counterexamples
            if shorter.witness is not None and (res.witness is None or
                                                shorter.witness_margin > res.witness_margin):
                res.witness, res.witness_margin = shorter.witness, shorter.witness_margin
        if res.witness is not None:
            # the witness was decided from the exact rows; confirm it on its case
            verdict = evaluate_theorem(make_case(theorem_id, res.witness, order, anchor, k_cap))
            if not (verdict.hypothesis_holds and res.witness_margin == min(
                    v for _, v in verdict.hypothesis_margins)):
                raise AssertionError(f"{theorem_id}: the rows and evaluate_theorem disagree "
                                     f"on the witness {[str(x) for x in res.witness]}")
        results.append(res)
    return results


def search_theorems(theorem_ids, grid_length: int, value_set, nu_samples=None,
                    mode: str = "exhaustive", budget: int = 500_000, seed: int = 0,
                    k_cap: int = 64) -> list[tuple[str, list[SearchResult]]]:
    """(theorem id, ``search_campaign`` results) for each theorem, in order,
    each at ``grid_length`` or its own minimum length if longer.  Theorems
    whose rows are equal once built share one search (``_search_instance``);
    the searches are dropped when the call returns."""
    searches = {}
    return [(tid, search_campaign(tid, max(grid_length, min_live_length(tid)), value_set,
                                  nu_samples, mode, budget, seed, k_cap, searches=searches))
            for tid in theorem_ids]
