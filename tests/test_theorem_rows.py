"""Theorem hypothesis/conclusion rows against the literal-definition oracles.

The exhaustive searches cannot catch a builder that evaluates the right
operator at the wrong index set (a shifted hypothesis usually still
yields a true implication), so every operator-bearing row is re-derived
here point by point from the oracle sums.  The rows must also nest across
lengths, which the one-tree search reads every shorter length from.
"""

import hashlib
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discfrac import monotone, operators
from discfrac.grids import Direction
from discfrac.monotone import (
    THEOREMS,
    Declared,
    TheoremStatement,
    _row_matrices,
    default_orders,
    evaluate_theorem,
    make_case,
)

from conftest import examples
import oracles


def build_case(tid, rng, order, length=6, anchor=3):
    live = [Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(length)]
    return make_case(tid, live, order, anchor=anchor)


def frac_rows(verdict):
    return [(label, val) for label, val in verdict.hypothesis_margins
            if label.startswith("frac")]


def point_of(label):
    return Fraction(label.split("t=")[1])


HIGH = Fraction(7, 5)
LOW = Fraction(2, 5)


def case_data(case):
    return case.f.mapping()


@pytest.mark.parametrize("seed", range(4))
class TestForwardRows:
    def test_jep1_rows_are_riemann_values_on_stated_set(self, seed):
        rng = random.Random(seed)
        case = build_case("T_JEP1", rng, HIGH)
        fmap = case_data(case)
        rows = frac_rows(evaluate_theorem(case))
        a = case.f.origin
        expected_points = [a + 2 - HIGH + m for m in range(case.f.length - 2)]
        assert [point_of(l) for l, _ in rows] == expected_points
        for label, val in rows:
            assert val == oracles.delta_left_riemann(fmap, a, HIGH, point_of(label))

    def test_jep_rows_anchor_at_origin(self, seed):
        rng = random.Random(10 + seed)
        case = build_case("T_JEP", rng, HIGH)
        fmap = case_data(case)
        rows = frac_rows(evaluate_theorem(case))
        a = case.f.origin
        assert [point_of(l) for l, _ in rows] == [a + 1 + m for m in range(case.f.length - 1)]
        for label, val in rows:
            assert val == oracles.nabla_left_riemann(fmap, a, HIGH, point_of(label))

    def test_jepp_rows_anchor_one_step_back(self, seed):
        rng = random.Random(20 + seed)
        case = build_case("T_JEPP", rng, HIGH)
        fmap = case_data(case)
        rows = frac_rows(evaluate_theorem(case))
        a = case.f.origin  # the operator is anchored at a - 1
        assert [point_of(l) for l, _ in rows] == [a + m for m in range(case.f.length)]
        for label, val in rows:
            assert val == oracles.nabla_left_riemann(fmap, a - 1, HIGH, point_of(label))

    @pytest.mark.parametrize("tid,start_offset", [("T_SLOV11", 2), ("T_SLOV22", 3), ("T_SLOV33", 4)])
    def test_slov_nabla_rows_start_at_stated_offset(self, seed, tid, start_offset):
        rng = random.Random(30 + seed)
        case = build_case(tid, rng, HIGH, length=max(6, THEOREMS[tid].min_length))
        fmap = case_data(case)
        rows = frac_rows(evaluate_theorem(case))
        a = case.f.origin
        assert [point_of(l) for l, _ in rows] == [
            a + start_offset + m for m in range(case.f.length - start_offset)
        ]
        for label, val in rows:
            assert val == oracles.nabla_left_riemann(fmap, a - 1, HIGH, point_of(label))

    @pytest.mark.parametrize("tid", ["T_SLOV1", "T_SLOV2", "T_SLOV3"])
    def test_slov_delta_rows_match_riemann(self, seed, tid):
        rng = random.Random(40 + seed)
        case = build_case(tid, rng, HIGH, length=max(6, THEOREMS[tid].min_length))
        fmap = case_data(case)
        rows = frac_rows(evaluate_theorem(case))
        for label, val in rows:
            assert val == oracles.delta_left_riemann(fmap, case.f.origin, HIGH, point_of(label))

    def test_u1_and_u3_rows(self, seed):
        rng = random.Random(50 + seed)
        for tid, where in (("T_U1", "hyp"), ("T_U3", "concl")):
            case = build_case(tid, rng, LOW)
            fmap = case_data(case)
            verdict = evaluate_theorem(case)
            rows = (frac_rows(verdict) if where == "hyp"
                    else [(l, v) for l, v in verdict.conclusion_margins])
            a = case.f.origin
            assert [point_of(l) for l, _ in rows] == [
                a + 1 - LOW + m for m in range(case.f.length - 1)
            ]
            for label, val in rows:
                assert val == oracles.delta_left_riemann(fmap, a, LOW, point_of(label))

    def test_uu1_and_uu2_rows(self, seed):
        rng = random.Random(60 + seed)
        for tid, where in (("T_UU1", "hyp"), ("T_UU2", "concl")):
            case = build_case(tid, rng, LOW)
            fmap = dict(case_data(case))
            fmap[case.f.origin - 1] = Fraction(0)  # zero history at the operator's anchor
            verdict = evaluate_theorem(case)
            rows = (frac_rows(verdict) if where == "hyp"
                    else [(l, v) for l, v in verdict.conclusion_margins])
            a = case.f.origin
            assert [point_of(l) for l, _ in rows] == [a + m for m in range(case.f.length)]
            for label, val in rows:
                assert val == oracles.nabla_left_riemann(fmap, a - 1, LOW, point_of(label))

    @pytest.mark.parametrize("tid,n", [("T_C1", 2), ("T_C2", 2), ("T_C5", 1), ("T_C6", 1)])
    def test_caputo_bound_rows_match_literal_relation(self, seed, tid, n):
        rng = random.Random(70 + seed)
        order = HIGH if n == 2 else LOW
        case = build_case(tid, rng, order)
        fmap = case_data(case)
        verdict = evaluate_theorem(case)
        rows = (frac_rows(verdict) if tid != "T_C6"
                else [(l, v) for l, v in verdict.conclusion_margins])
        a = case.f.origin
        for label, val in rows:
            t = point_of(label)
            cap = oracles.delta_left_caputo(fmap, a, order, t)
            # literal bound: -falling(t-a, -order)/Gamma(1-order) f(a) and,
            # for n = 2, -falling(t-a, 1-order)/Gamma(2-order) * delta f(a)
            lag = int(t - a + order)
            w1 = oracles.gr(1 - order, lag) / math.factorial(lag)
            bound = w1 * fmap[a]
            if n == 2:
                w2 = oracles.gr(2 - order, lag - 1) / math.factorial(lag - 1)
                bound += w2 * (fmap[a + 1] - fmap[a])
            assert val == cap + bound


CAPUTO_THEOREMS = ["T_C1", "T_C2", "T_C3", "T_C4", "T_C5", "T_C6", "T_CD1", "T_CD5"]


@pytest.mark.parametrize("tid", CAPUTO_THEOREMS)
def test_caputo_bound_rows_are_the_riemann_rows(tid):
    # the Riemann-Caputo relation: the delta Caputo difference plus its
    # anchor correction is the delta Riemann difference, so each Caputo-bound
    # row of a verdict (T_C6 states it as its conclusion) is the Riemann row
    # at the same point, in label and value
    rng = random.Random(tid)
    lo, _ = THEOREMS[tid].order_range
    drawn = [lo + Fraction(rng.randint(1, den - 1), den)
             for den in (rng.randint(2, 12) for _ in range(2))]
    for order in default_orders(tid) + drawn:
        for length in range(THEOREMS[tid].min_length, 9):
            for anchor in (Fraction(rng.randint(-20, 20), rng.randint(1, 4)) for _ in range(2)):
                case = build_case(tid, rng, order, length, anchor)
                verdict = evaluate_theorem(case)
                rows = (verdict.conclusion_margins if tid == "T_C6"
                        else frac_rows(verdict))
                riem = operators.riemann_difference(operators.OperatorSpec(
                    operators.Kind.DELTA, operators.Family.RIEMANN, order), case.f)
                assert rows == [(f"frac t={t}", v) for t, v in zip(riem.points(), riem.values)]


@pytest.mark.parametrize("seed", range(4))
class TestBackwardRows:
    def test_d1_rows_match_right_riemann(self, seed):
        rng = random.Random(seed)
        case = build_case("T_D1", rng, HIGH, anchor=9)
        fmap = case_data(case)
        rows = frac_rows(evaluate_theorem(case))
        b = case.f.origin
        assert [point_of(l) for l, _ in rows] == [
            b - (2 - HIGH) - m for m in range(case.f.length - 2)
        ]
        for label, val in rows:
            assert val == oracles.delta_right_riemann(fmap, b, HIGH, point_of(label))

    def test_d5_d6_rows(self, seed):
        rng = random.Random(10 + seed)
        for tid, where in (("T_D5", "hyp"), ("T_D6", "concl")):
            case = build_case(tid, rng, LOW, anchor=9)
            fmap = case_data(case)
            verdict = evaluate_theorem(case)
            rows = (frac_rows(verdict) if where == "hyp"
                    else [(l, v) for l, v in verdict.conclusion_margins])
            b = case.f.origin
            assert [point_of(l) for l, _ in rows] == [
                b - (1 - LOW) - m for m in range(case.f.length - 1)
            ]
            for label, val in rows:
                assert val == oracles.delta_right_riemann(fmap, b, LOW, point_of(label))

    def test_n1_rows_anchor_one_step_out(self, seed):
        rng = random.Random(20 + seed)
        case = build_case("T_N1", rng, HIGH, anchor=9)
        fmap = case_data(case)
        rows = frac_rows(evaluate_theorem(case))
        b = case.f.origin  # the operator is anchored at b + 1
        assert [point_of(l) for l, _ in rows] == [b - m for m in range(case.f.length)]
        for label, val in rows:
            assert val == oracles.nabla_right_riemann(fmap, b + 1, HIGH, point_of(label))

    @pytest.mark.parametrize("tid,n", [("T_CD1", 2), ("T_CD5", 1)])
    def test_backward_caputo_bounds(self, seed, tid, n):
        rng = random.Random(30 + seed)
        order = HIGH if n == 2 else LOW
        case = build_case(tid, rng, order, anchor=9)
        fmap = case_data(case)
        rows = frac_rows(evaluate_theorem(case))
        b = case.f.origin
        for label, val in rows:
            u = point_of(label)
            cap = oracles.delta_right_caputo(fmap, b, order, u)
            lag = int(b - u + order)
            w1 = oracles.gr(1 - order, lag) / math.factorial(lag)
            bound = w1 * fmap[b]
            if n == 2:
                w2 = oracles.gr(2 - order, lag - 1) / math.factorial(lag - 1)
                bound -= w2 * (fmap[b] - fmap[b - 1])
            assert val == cap + bound


# ---------------------------------------------------------------------------
# rows nest across lengths

NEST_LENGTH = 8
ANCHORS = [0, 3, Fraction(1, 2)]


def _row_set(rows):
    """Exact rows as a set of (numerators, denominator) pairs."""
    return {(tuple(nums), den) for nums, den in rows}


def nesting_mismatches(tid, order, anchor):
    """(length, block) pairs whose length-d rows differ, as a set of exact
    rows, from the length-8 rows of level < d (no nonzero numerator at d or
    past it) cut to their first d coefficients."""
    full = _row_matrices(tid, NEST_LENGTH, order, 64, anchor)
    bad = []
    for d in range(THEOREMS[tid].min_length, NEST_LENGTH):
        short = _row_matrices(tid, d, order, 64, anchor)
        for name, big, small in zip(("hypothesis", "conclusion"), full, short):
            cut = [(nums[:d], den) for nums, den in big if not any(nums[d:])]
            if _row_set(cut) != _row_set(small):
                bad.append((d, name))
    return bad


@pytest.mark.parametrize("tid", list(THEOREMS))
class TestRowsNest:
    def test_rows_nest_across_lengths(self, tid):
        # each default order at one of the anchors
        for order, anchor in zip(default_orders(tid), ANCHORS):
            assert nesting_mismatches(tid, order, anchor) == []

    @given(data=st.data())
    @settings(max_examples=examples(2), deadline=None)
    def test_rows_nest_at_drawn_orders(self, tid, data):
        lo, hi = THEOREMS[tid].order_range
        order = data.draw(st.fractions(min_value=lo, max_value=hi, max_denominator=12)
                          .filter(lambda x: lo < x < hi))
        assert nesting_mismatches(tid, order, data.draw(st.sampled_from(ANCHORS))) == []


def test_has_ray_names_the_theorems_with_a_start_ray():
    # search_campaign bounds k_cap by the budget for exactly these theorems
    for tid, stmt in THEOREMS.items():
        case = make_case(tid, [1] * THEOREMS[tid].min_length, default_orders(tid)[0])
        assert bool(stmt.builder(case)[1]) == stmt.has_ray, tid
    assert sum(stmt.has_ray for stmt in THEOREMS.values()) == 12


def test_row_pass_runs_in_integers(monkeypatch):
    """Every row build of every theorem, default order and length up to 7,
    the two ``_NablaRiemann(prepend=...)`` kinds included, hands the one
    convolution loop int weights and integer arrays, the cleared
    coefficient vectors, and nothing else."""
    loop, calls = operators._convolve, []

    def integers_only(weights, values, skip_first):
        if not all(isinstance(v, np.ndarray) for v in values) or any(
                type(x) is not int for x in [*weights, *(x for v in values for x in v)]):
            raise AssertionError("a value other than an int or an integer array reached "
                                 "_convolve")
        calls.append(len(values))
        return loop(weights, values, skip_first)

    monkeypatch.setattr(operators, "_convolve", integers_only)
    for tid in THEOREMS:
        for order in default_orders(tid):
            for length in range(THEOREMS[tid].min_length, 8):
                _row_matrices(tid, length, order, 64, 0)
    assert calls


# sha256 of every row build: each theorem x default order x anchor
# {0, 7/2, -3} x length min..7, in that order, 1,251 builds
ROW_BLOCK_DIGEST = "919eee6ce54fb5869ae844c77695c1cf4178e3eb1ffa8dc5305f4f07f459655f"


def _canonical(x):
    """Nested lists of ints, with floats as their hex strings."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (list, tuple, np.ndarray)):
        return [_canonical(y) for y in x]
    return int(x)


def _pinned_fields(rows):
    """[primitive integer rows, float rows, largest primitive ||row||_1,
    exact rows] of a block: the first three derived from the exact rows,
    each primitive row being its numerators divided by their gcd and each
    float coefficient its exact value rounded once."""
    primitive = [[x // g for x in nums] for nums, _ in rows for g in [math.gcd(*nums) or 1]]
    l1 = max((sum(map(abs, row)) for row in primitive), default=0)
    return [primitive, [[x / den for x in nums] for nums, den in rows], l1, rows]


def test_row_blocks_are_pinned():
    """The exact rows of both blocks, with the fields of ``_pinned_fields``,
    and the exact ray rows, starts and levels of every default row build."""
    digest = hashlib.sha256()
    for tid in THEOREMS:
        for order in default_orders(tid):
            for anchor in (0, Fraction(7, 2), -3):
                for length in range(THEOREMS[tid].min_length, 8):
                    hyp, concl, rays = _row_matrices(tid, length, order, 64, anchor)
                    blocks = [_pinned_fields(rows) for rows in (hyp, concl)]
                    digest.update(json.dumps(_canonical([blocks, rays])).encode())
    assert digest.hexdigest() == ROW_BLOCK_DIGEST


def _last_value(case):
    # reads the last value, whatever the length
    return [("last", case.f.values[-1])]


def _running_mean(case):
    # every coefficient depends on the length
    v = case.f.values
    return [("mean", Fraction(1, len(v)) * sum(v[1:], v[0]))]


@pytest.mark.parametrize("hyp,concl", [
    ([monotone._start], [_last_value]),
    ([monotone._start, _running_mean], [monotone._pair(0)]),
])
def test_a_row_kind_that_does_not_nest_is_caught(monkeypatch, hyp, concl):
    stmt = TheoremStatement("T_LOOSE", "test statement", (0, 1), Direction.FORWARD, 2,
                            Declared(hyp, concl))
    monkeypatch.setitem(THEOREMS, "T_LOOSE", stmt)
    assert nesting_mismatches("T_LOOSE", Fraction(1, 2), 0)
