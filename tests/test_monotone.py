import itertools
import json
import math
import os
import random
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from discfrac import monotone
from discfrac.backends import FLOATING, RATIONAL
from discfrac.cli import main
from discfrac.errors import BudgetExceeded, DomainError, GridTooShort
from discfrac.grids import CoefficientVector, Direction, make_grid_function
from discfrac.kernels import kernel_vector
from discfrac.monotone import (
    Q_TWINS,
    THEOREMS,
    Declared,
    TheoremStatement,
    _index_chunks,
    _integer_operands,
    _partial_sum_ray,
    _poly_eval,
    _prefix_search,
    _ray_rows,
    _row_matrices,
    _sign,
    default_orders,
    evaluate_theorem,
    expanded_hypothesis_rows,
    make_case,
    poly_nonneg_on_integer_ray,
    search_campaign,
    search_theorems,
    transport,
)
from discfrac.operators import (
    Family,
    Kind,
    OperatorSpec,
    riemann_difference,
)

from conftest import examples

small_frac = st.fractions(min_value=-4, max_value=4, max_denominator=2)


class TestNuMonotone:
    """T_U1's conclusion rows, ``_start`` and ``_nu_step``: f at the first
    point and f(t+1) - nu f(t) at every step, each required >= 0."""

    @staticmethod
    def rows(values, nu) -> list:
        case = make_case("T_U1", values, nu)
        return [(monotone._label(label), margin)
                for label, margin in monotone._start(case) + monotone._nu_step(case)]

    def test_zero_function_margins_are_zero(self):
        assert [m for _, m in self.rows([0, 0, 0], Fraction(1, 3))] == [0, 0, 0]

    def test_direct_inequality_holds(self):
        rows = self.rows(["1", "0.6"], Fraction(1, 2))
        assert min(rows, key=lambda r: r[1]) == ("step t=1", Fraction(1, 10))

    def test_direct_inequality_fails_with_margin(self):
        rows = self.rows(["1", "0.4"], Fraction(1, 2))
        assert min(rows, key=lambda r: r[1]) == ("step t=1", Fraction(-1, 10))


class TestRayDecision:
    def test_linear_cases(self):
        # F*(k+1) - nu*f0 >= 0 for k >= 0
        ok, _ = poly_nonneg_on_integer_ray([Fraction(1), Fraction(1, 2)], 0)
        assert ok
        ok, witness = poly_nonneg_on_integer_ray([Fraction(-1), Fraction(100)], 0)
        assert not ok and witness is not None

    def test_interior_dip_is_found(self):
        # (k-3)^2 - 1 is negative exactly at k = 3
        ok, witness = poly_nonneg_on_integer_ray([Fraction(1), Fraction(-6), Fraction(8)], 0)
        assert not ok and witness in (2, 3, 4)

    def test_a_tiny_leading_coefficient_still_decides_the_tail(self):
        # -k/10^15 + 1 turns negative past k = 10^15; no tolerance drops its
        # leading coefficient
        ok, witness = poly_nonneg_on_integer_ray([Fraction(-1, 10**15), Fraction(1)], 0)
        assert not ok and witness > 10**15
        assert poly_nonneg_on_integer_ray([Fraction(0), Fraction(0), Fraction(1)], 0) == (
            True, None)

    def test_tangent_double_root_passes(self):
        ok, _ = poly_nonneg_on_integer_ray([Fraction(1), Fraction(-5), Fraction(25, 4)], 0)
        assert ok

    @given(
        coeffs=st.lists(small_frac, min_size=1, max_size=4),
        start=st.integers(min_value=0, max_value=3),
    )
    # R' has both roots, 1/10 and 9/10, inside [0, 1], and R(1) = -13/100
    # between them; a test at the integers beside R''s roots misses it
    @example(coeffs=[Fraction(1), Fraction(-3, 2), Fraction(27, 100), Fraction(1, 10)],
             start=0)
    @settings(max_examples=examples(120), deadline=None)
    def test_agrees_with_literal_scan(self, coeffs, start):
        ok, witness = poly_nonneg_on_integer_ray(list(coeffs), start)
        if witness is not None:
            value = sum(c * witness ** (len(coeffs) - 1 - i) for i, c in enumerate(coeffs))
            assert witness >= start and value < 0
        if ok:
            for k in range(start, start + 500):
                value = sum(c * k ** (len(coeffs) - 1 - i) for i, c in enumerate(coeffs))
                assert value >= 0

    @given(
        factors=st.lists(st.tuples(st.integers(-3, 8), st.integers(1, 3)), min_size=1,
                         max_size=3),
        shift=st.sampled_from([-1, 0, 1]),
        start=st.integers(min_value=0, max_value=6),
    )
    @example(factors=[(3, 3)], shift=0, start=0)
    @example(factors=[(3, 3)], shift=1, start=0)
    @example(factors=[(3, 4)], shift=0, start=0)
    @example(factors=[(3, 4)], shift=1, start=0)
    # R(4) = -1, at a dip the derivative's root brackets do not reach
    @example(factors=[(1, 3), (2, 3), (4, 2)], shift=-1, start=3)
    @settings(max_examples=examples(150), deadline=None)
    def test_integer_critical_points_agree_with_brute_force(self, factors, shift, start):
        # prod (k - r)^m + shift, expanded: its forward differences change
        # sign next to the integer roots r, where the root brackets lie
        coeffs = [1]
        for r, m in factors:
            for _ in range(m):
                coeffs = [a - r * b for a, b in zip(coeffs + [0], [0] + coeffs)]
        coeffs[-1] += shift

        def value(k):
            return math.prod((k - r) ** m for r, m in factors) + shift

        # every factor is at least 1 past k = 9, so k <= 100 decides the ray
        ok, witness = poly_nonneg_on_integer_ray([Fraction(c) for c in coeffs], start)
        assert ok == all(value(k) >= 0 for k in range(start, 101))
        assert ok or (witness >= start and value(witness) < 0)

    # the registry's families (one-term from M = 1 and M = 2, the others from
    # M = j + 1, the three-term one counting k from 2), then four terms and a
    # later first M; the ratios |S_r| / |S_{r-1}| equal (r - nu)/r from r = 2
    # on, so below M = j + 1 the oracle's magnitudes would not fit
    @pytest.mark.parametrize("terms,first,start", [
        (1, 1, 0), (1, 2, 0), (2, 3, 0), (3, 4, 2), (4, 5, 0), (4, 7, 3)])
    def test_ray_matches_kernel_partial_sums(self, terms, first, start):
        # c_i(M) = nu |S_{M-i-1}| / ((M - i) |S_{M-j}|), read off the partial
        # sums S_r of the order-nu difference kernel, against R(k)/Q(k)
        rng = random.Random(terms * first)
        for nu in (Fraction(5, 4), Fraction(3, 2), Fraction(7, 4)):
            weights = kernel_vector(-nu, 70, RATIONAL)
            sums = [abs(sum(weights[:r + 1])) for r in range(len(weights))]
            f = [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(terms + 1)]
            ray = _partial_sum_ray(f, nu, first, start)
            assert (ray.start, ray.bound) == (start, f[-1])
            for k in range(start, 61):
                m = k + first - start
                c = [nu * sums[m - i - 1] / ((m - i) * sums[m - terms]) for i in range(terms)]
                slack = f[-1] - sum(ci * fi for ci, fi in zip(c, f))
                assert _poly_eval(ray.r_coeffs, k) / _poly_eval(ray.q_coeffs, k) == slack

    def test_ray_rows_match_fraction_quotients(self):
        rng = random.Random(2)
        for _ in range(30):
            nu = Fraction(rng.randint(1, 7), rng.choice([4, 8, 3]))
            f0, f1, f2, bound = (
                Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(4)
            )
            for ray in (_partial_sum_ray([f0, bound], nu, 3, 1),
                        _partial_sum_ray([f0, f1, bound], nu, 3, 0),
                        _partial_sum_ray([f0, f1, f2, bound], nu, 4, 2)):
                for k_cap in (ray.start, 17):
                    literal = [(f"start k={k}", _poly_eval(ray.r_coeffs, k)
                                / _poly_eval(ray.q_coeffs, k))
                               for k in range(ray.start, k_cap + 1)]
                    rows = _ray_rows(ray, k_cap)
                    assert rows == literal + [("start k->inf", bound)]
                    assert all(type(v) is Fraction for _, v in rows)

    def test_one_term_reduction_matches_supremum(self):
        # F >= nu*f0/(k+1) for all k >= 0 reduces to F >= nu*f0 when f0 >= 0
        # and to F >= 0 when f0 < 0
        nu = Fraction(3, 2)
        for f0 in [Fraction(-2), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(2)]:
            for F in [Fraction(-1), Fraction(0), Fraction(1, 4), Fraction(1), Fraction(4)]:
                coeffs = [F, F - nu * f0]
                ok, _ = poly_nonneg_on_integer_ray(coeffs, 0)
                expected = (F >= nu * f0) if f0 >= 0 else (F >= 0)
                assert ok == expected


@given(values=st.lists(small_frac, min_size=3, max_size=10),
       nu=st.sampled_from([Fraction(5, 4), Fraction(3, 2), Fraction(7, 4)]))
@settings(max_examples=examples(80), deadline=None)
def test_delta_difference_sums_by_parts(values, nu):
    """Output m of the delta-left difference is S_M f(0) plus the sum of
    S_{M-i} (f(i) - f(i-1)), M = m + 2, with S_r the partial sums of the
    order-nu kernel: the step every k-family start ray encodes."""
    f = make_grid_function(0, Direction.FORWARD, values, RATIONAL)
    out = riemann_difference(OperatorSpec(Kind.DELTA, Family.RIEMANN, nu), f)
    weights = kernel_vector(-nu, len(values), RATIONAL)
    sums = [sum(weights[:r + 1]) for r in range(len(values))]
    v = f.values
    assert len(out.values) == len(values) - 2
    for m, value in enumerate(out.values):
        big_m = m + 2
        assert value == sums[big_m] * v[0] + sum(
            sums[big_m - i] * (v[i] - v[i - 1]) for i in range(1, big_m + 1))


class TestCaputoBoundWeights:
    def test_weights_match_literal_gamma_quotients(self):
        import math

        from discfrac.kernels import binomial_weight

        for num in (5, 6, 7):
            nu = Fraction(num, 4)
            for m in range(8):
                lit1 = math.gamma(float(3 - nu + m)) / math.gamma(3 + m) / math.gamma(float(1 - nu))
                w1 = float(binomial_weight(Fraction(1) - nu, m + 2, RATIONAL))
                assert abs(w1 - lit1) < 1e-12 * max(1.0, abs(lit1))
                lit2 = math.gamma(float(3 - nu + m)) / math.gamma(2 + m) / math.gamma(float(2 - nu))
                w2 = float(binomial_weight(Fraction(2) - nu, m + 1, RATIONAL))
                assert abs(w2 - lit2) < 1e-12 * max(1.0, abs(lit2))
        for num in (1, 2, 3):
            nu = Fraction(num, 4)
            for m in range(8):
                lit = math.gamma(float(2 - nu + m)) / math.gamma(2 + m) / math.gamma(float(1 - nu))
                w = float(binomial_weight(Fraction(1) - nu, m + 1, RATIONAL))
                assert abs(w - lit) < 1e-12 * max(1.0, abs(lit))


class TestEvaluate:
    def test_cases_are_exact(self):
        # floats convert to their exact binary values; a floating grid is refused
        case = make_case("T_U1", [0.1, 0.5, 1], Fraction(1, 2))
        assert case.f.backend is RATIONAL
        assert case.f.values == (Fraction(0.1), Fraction(1, 2), Fraction(1))
        floating = replace(case, f=make_grid_function(0, Direction.FORWARD, [0.1, 0.5, 1],
                                                      FLOATING))
        with pytest.raises(DomainError, match="exact grids only"):
            evaluate_theorem(floating)

    def test_registry_size_and_ranges(self):
        assert len(THEOREMS) == 28
        for stmt in THEOREMS.values():
            assert stmt.order_range in ((0, 1), (1, 2))

    def test_registration_order_fixes_report_order(self):
        assert list(THEOREMS) == [
            "T_JEP1", "T_JEP", "T_JEPP", "T_SLOV1", "T_SLOV11", "T_SLOV2", "T_SLOV22",
            "T_SLOV3", "T_SLOV33", "T_U1", "T_UU1", "T_U3", "T_UU2", "T_C1", "T_C2",
            "T_C3", "T_C4", "T_C5", "T_C6", "T_D1", "T_N1", "T_D2", "T_D3", "T_D4",
            "T_D5", "T_D6", "T_CD1", "T_CD5",
        ]

    def test_zero_function_consistent_everywhere(self):
        for tid, stmt in THEOREMS.items():
            order = Fraction(1, 2) if stmt.order_range == (0, 1) else Fraction(3, 2)
            case = make_case(tid, [0] * max(5, THEOREMS[tid].min_length), order)
            v = evaluate_theorem(case)
            assert v.hypothesis_holds and v.conclusion_holds and v.consistent

    def test_constant_one_fails_high_order_hypothesis(self):
        case = make_case("T_JEP1", [1] * 6, Fraction(3, 2))
        v = evaluate_theorem(case)
        assert not v.hypothesis_holds
        assert v.consistent
        frac0 = [m for label, m in v.hypothesis_margins if label == "frac t=1/2"]
        assert frac0 == [Fraction(-1, 8)]

    def test_ramp_satisfies_low_order_hypothesis(self):
        case = make_case("T_U1", list(range(6)), Fraction(1, 2))
        v = evaluate_theorem(case)
        assert v.hypothesis_holds and v.conclusion_holds

    def test_wrong_direction_and_origin_are_refused(self):
        case = make_case("T_JEPP", [0, 1, 2], Fraction(3, 2), anchor=2)
        assert case.f.origin == 2 and case.f.values == (0, 1, 2)
        backward = replace(case, f=make_grid_function(2, Direction.BACKWARD, [0, 1, 2],
                                                      RATIONAL))
        with pytest.raises(DomainError, match="^T_JEPP expects a forward grid$"):
            evaluate_theorem(backward)
        # the anchor is the grid's origin, so no case disagrees with it: a
        # grid one step on moves every row one step on
        moved = replace(case, f=make_grid_function(3, Direction.FORWARD, [0, 1, 2], RATIONAL))
        verdict, shifted = evaluate_theorem(case), evaluate_theorem(moved)
        assert verdict.hypothesis_holds
        assert _operator_points(shifted) == [t + 1 for t in _operator_points(verdict)]

    def test_order_out_of_range_rejected(self):
        case = make_case("T_JEP1", [0] * 5, Fraction(1, 2))
        with pytest.raises(DomainError):
            evaluate_theorem(case)

    def test_short_grid_rejected(self):
        stmt_min = THEOREMS["T_SLOV3"].min_length
        case = make_case("T_SLOV3", [0] * (stmt_min - 1), Fraction(3, 2))
        with pytest.raises(GridTooShort):
            evaluate_theorem(case)

    @pytest.mark.parametrize("tid", list(THEOREMS))
    def test_min_length_is_the_shortest_every_row_kind_needs(self, tid):
        """At ``min_length`` values the builder runs and every
        hypothesis and conclusion row kind yields a row, at each default
        order; one value fewer and some kind yields none or raises
        ``GridTooShort``."""
        stmt = THEOREMS[tid]
        kinds = stmt.builder.hyp + stmt.builder.concl

        def case_and_counts(length, order):
            case = make_case(tid, range(1, length + 1), order)
            counts = []
            for kind in kinds:
                try:
                    counts.append(len(kind(case)))
                except GridTooShort:
                    counts.append(0)
            return case, counts

        for order in default_orders(tid):
            case, counts = case_and_counts(stmt.min_length, order)
            stmt.builder(case)
            assert all(counts), (order, counts)
            assert not all(case_and_counts(stmt.min_length - 1, order)[1]), order

    def test_anchor_is_translation_invariant(self):
        vals = [Fraction(1, 2), 1, 1, 0, 1]
        a = evaluate_theorem(make_case("T_JEP1", vals, Fraction(5, 4), anchor=0))
        b = evaluate_theorem(make_case("T_JEP1", vals, Fraction(5, 4), anchor=-3))
        assert [m for _, m in a.hypothesis_margins] == [m for _, m in b.hypothesis_margins]
        assert a.consistent == b.consistent

    def test_k_family_literal_guard_rows_present(self):
        case = make_case("T_SLOV1", [1, "3/2", 2, 2, 2], Fraction(3, 2), k_cap=10)
        v = evaluate_theorem(case)
        k_rows = [label for label, _ in v.hypothesis_margins if label.startswith("start k=")]
        assert len(k_rows) == 11
        assert any(label == "start k->inf" for label, _ in v.hypothesis_margins)


# the nabla and right-hand theorems the paper derives from delta ones: Q
# images of forward theorems, then images under the dual identity
MIRRORS = ["T_D1", "T_D2", "T_D3", "T_D4", "T_D5", "T_D6", "T_CD1", "T_CD5",
           "T_JEP", "T_JEPP", "T_SLOV11", "T_SLOV22", "T_SLOV33", "T_UU1", "T_UU2", "T_N1"]


def _basis_case(tid, length, order):
    """A case whose value i is the coefficient vector e_i, with one more
    coordinate for constants, as ``_row_matrices`` builds it."""
    basis = np.eye(length, length + 1, dtype=int).astype(object)
    case = make_case(tid, [0] * length, order)
    return replace(case, f=case.f.with_values(map(CoefficientVector, basis)))


def _linear_forms(builder, case):
    """Hypothesis rows, conclusion rows and rays of one builder run on a
    ``_basis_case``, each row, ray coefficient and bound as its linear form
    in lowest terms (the constant coordinate included)."""

    def form(v):
        g = math.gcd(*v.nums, v.den)
        return [x // g for x in v.nums], v.den // g

    hyp, rays, concl = builder(case)
    return ([form(v) for _, v in hyp], [form(v) for _, v in concl],
            [([form(c) for c in r.r_coeffs], r.q_coeffs, r.start, form(r.bound)) for r in rays])


def _operator_points(verdict):
    return [Fraction(label.split("t=")[1]) for label, _ in verdict.hypothesis_margins
            if label.startswith("frac")]


class TestTransports:
    def test_transport_gives_each_mirror_its_registered_rows(self):
        # every mirror x default order x length up to 8, as linear forms
        cases = 0
        for tid in MIRRORS:
            for order in default_orders(tid):
                for length in range(THEOREMS[tid].min_length, 9):
                    case = _basis_case(tid, length, order)
                    transported = _linear_forms(transport, case)
                    assert transported == _linear_forms(THEOREMS[tid].builder, case), (
                        tid, order, length)
                    cases += 1
        assert cases == 291

    def test_the_q_table_names_the_backward_delta_mirrors(self):
        assert sorted(Q_TWINS) == sorted(MIRRORS[:8])
        assert all(THEOREMS[twin].direction is Direction.FORWARD for twin, *_ in Q_TWINS.values())

    @pytest.mark.parametrize("tid", [t for t in THEOREMS if t not in MIRRORS])
    def test_a_theorem_that_is_no_mirror_has_no_route(self, tid):
        case = make_case(tid, [1] * THEOREMS[tid].min_length, default_orders(tid)[0])
        with pytest.raises(DomainError, match="not the mirror"):
            transport(case)

    @pytest.mark.parametrize("seed", range(6))
    def test_jepp_dual_route_matches(self, seed):
        rng = random.Random(seed)
        vals = [Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(rng.randint(4, 9))]
        order = Fraction(rng.randint(5, 7), 4)
        case = make_case("T_JEPP", vals, order)
        direct = evaluate_theorem(case)
        routed = evaluate_theorem(case, transport)
        assert [m for _, m in direct.hypothesis_margins] == [m for _, m in routed.hypothesis_margins]
        assert [m for _, m in direct.conclusion_margins] == [m for _, m in routed.conclusion_margins]
        assert direct.consistent == routed.consistent
        # the route reads the delta difference, nu steps behind the nabla one
        assert _operator_points(routed) == [t - order for t in _operator_points(direct)]

    @pytest.mark.parametrize("seed", range(6))
    def test_d1_reflection_route_matches(self, seed):
        rng = random.Random(100 + seed)
        vals = [Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(rng.randint(4, 9))]
        order = Fraction(rng.randint(5, 7), 4)
        case = make_case("T_D1", vals, order, anchor=5)
        direct = evaluate_theorem(case)
        routed = evaluate_theorem(case, transport)
        assert [m for _, m in direct.hypothesis_margins] == [m for _, m in routed.hypothesis_margins]
        assert [m for _, m in direct.conclusion_margins] == [m for _, m in routed.conclusion_margins]
        assert direct.consistent == routed.consistent
        # the route reads the forward twin, at the points reflected about a + b
        a, b = case.f.far_point, case.f.origin
        assert _operator_points(routed) == [a + b - t for t in _operator_points(direct)]


class TestSearch:
    def test_exhaustive_examples_find_nothing(self):
        for args in (("T_JEP1", 5, [-1, 0, 1], [Fraction(5, 4), Fraction(3, 2), Fraction(7, 4)]),
                     ("T_U1", 4, [-1, 0, 1], [Fraction(1, 2)]),
                     ("T_D5", 4, [0, 1, 2], [Fraction(1, 2)])):
            assert [case for res in search_campaign(*args) for case in res.counterexamples] == []

    def test_budget_enforced(self):
        with pytest.raises(BudgetExceeded):
            search_campaign("T_U1", 20, [-2, -1, 0, 1, 2], [Fraction(1, 2)], budget=500_000)

    @pytest.mark.parametrize("length,values,budget,fits", [
        (2, [-1, 0, 1], 9, True), (2, [-1, 0, 1], 8, False),
        (30, [0], 1, True),  # 1**30: past the budget's bit length, still exact
        (7000, [-2, -1, 0, 1, 2], 500_000, False),
    ])
    def test_budget_is_exact_at_its_edge(self, length, values, budget, fits):
        args = ("T_U1", length, values, [Fraction(1, 2)])
        if fits:
            assert search_campaign(*args, budget=budget)[0].instances == len(values) ** length
        else:
            with pytest.raises(BudgetExceeded, match=f"{len(values)}\\^{length} x 1 "):
                search_campaign(*args, budget=budget)

    def test_short_grid_and_unknown_mode_are_refused(self):
        shortest = THEOREMS["T_SLOV33"].min_length
        with pytest.raises(GridTooShort, match=f"^T_SLOV33 needs at least {shortest} values$"):
            search_campaign("T_SLOV33", shortest - 1, [0, 1])
        with pytest.raises(DomainError, match="^unknown search mode 'sampled'$"):
            search_campaign("T_U1", 3, [0, 1], mode="sampled")

    def test_random_mode_runs(self):
        results = search_campaign("T_UU1", 5, [Fraction(k, 2) for k in range(-2, 3)],
                                  [Fraction(1, 2)], mode="random", budget=500, seed=4)
        assert results[0].instances == 500
        assert not results[0].counterexamples

    def test_search_is_deterministic(self):
        kwargs = dict(nu_samples=[Fraction(3, 2)], mode="random", budget=300, seed=7)
        a = search_campaign("T_JEP", 5, [-1, 0, 1], **kwargs)
        b = search_campaign("T_JEP", 5, [-1, 0, 1], **kwargs)
        assert a[0].as_record() == b[0].as_record()

    def test_witness_reported(self):
        results = search_campaign("T_U3", 4, [Fraction(k, 2) for k in range(-2, 3)],
                                  [Fraction(1, 2)])
        assert results[0].witness is not None
        assert results[0].witness_margin > 0

    def test_report_aggregation(self):
        report = search_theorems(["T_U1", "T_UU1"], 4, [-1, 0, 1])
        assert [tid for tid, _ in report] == ["T_U1", "T_UU1"]
        for _, per_order in report:
            assert sum(len(r.counterexamples) for r in per_order) == 0
            assert all(r.witness is not None for r in per_order)


_QUARTERS = [1, Fraction(7, 16), Fraction(5, 16), Fraction(1, 4)]


class TestTwoTermStartBound:
    """Four vectors at order 3/2, on values finer than the campaign's, whose
    first pair row is negative.  The two-term start bound, summed by parts
    from M = 3 on (f2 >= nu f1/2 + nu (2 - nu) f0/6 at k = 0), fails on each,
    so none is a counterexample.  A bound that read (k + 1 - nu) for
    (k + 2 - nu) and started at k = 1 let their hypothesis hold."""

    @pytest.mark.parametrize("tid,live,values,pair,start", [
        ("T_SLOV2", _QUARTERS, "1,7/16,5/16,1/4", ("pair t=2", Fraction(-1, 16)),
         Fraction(-9, 64)),
        ("T_C3", _QUARTERS, "1,7/16,5/16,1/4", ("pair t=2", Fraction(-1, 16)),
         Fraction(-9, 64)),
        ("T_D3", _QUARTERS, "1,7/16,5/16,1/4", ("pair t=-2", Fraction(-1, 16)),
         Fraction(-9, 64)),
        ("T_SLOV22", [1, 1, Fraction(9, 16), Fraction(7, 16)], "1,9/16,7/16",
         ("pair t=3", Fraction(-1, 8)), Fraction(-5, 16)),
    ])
    def test_hypothesis_fails_and_no_counterexample_is_reported(self, tmp_path, tid, live,
                                                                 values, pair, start):
        verdict = evaluate_theorem(make_case(tid, live, Fraction(3, 2)))
        assert not verdict.hypothesis_holds and not verdict.conclusion_holds
        assert verdict.conclusion_margins == [pair]
        assert ("start k=0", start) in verdict.hypothesis_margins
        report = tmp_path / "t.jsonl"
        code = main(["theorems", "--id", tid, "--nu", "3/2", "--length", "4",
                     "--values", values, "--report", str(report)])
        assert code == 0
        (rec,) = [json.loads(line) for line in report.read_text().splitlines()]
        assert rec["counterexamples"] == []

    def test_eighths_campaign_has_no_counterexample(self, tmp_path):
        # T_SLOV22 gave 66 counterexamples at 3/2 and 291 at 7/4 on these values
        # under the old two-term bound
        report = tmp_path / "t.jsonl"
        code = main(["theorems", "--id", "T_SLOV2", "--id", "T_SLOV22", "--id", "T_C3",
                     "--id", "T_D3", "--length", "6",
                     "--values", "0,1/8,1/4,3/8,1/2,5/8,3/4,7/8,1",
                     "--budget", "2000000", "--report", str(report)])
        assert code == 0
        records = [json.loads(line) for line in report.read_text().splitlines()]
        assert [(rec["id"], rec["order"]) for rec in records] == [
            (tid, order) for tid in ("T_SLOV2", "T_SLOV22", "T_C3", "T_D3")
            for order in ("5/4", "3/2", "7/4")]
        assert all(rec["counterexamples"] == [] and rec["witness"] for rec in records)


def _statement(theorem_id, builder, min_length=2):
    return TheoremStatement(theorem_id, "test statement", (0, 1), Direction.FORWARD,
                            min_length, builder)


def _false_builder(case):
    # "a nonnegative start forces nondecreasing": false
    v = case.f.values
    return [("start", v[0])], [], [("pair", v[1] - v[0])]


def _tenths_builder(case):
    # the conclusion row is exactly 0 on constant functions, but
    # 0.3 - 0.1 - 0.2 rounds to -2.8e-17 in floating point
    v = case.f.values
    concl = Fraction(3, 10) * v[0] - Fraction(1, 10) * v[1] - Fraction(2, 10) * v[2]
    return [("start", v[0])], [], [("tenths", concl)]


def _short_false_builder(case):
    # "a nonnegative start forces nondecreasing", false at length 2; from
    # length 3 on the rows v2 >= 0, -v2 >= 0 and v1 - v0 - v2 >= 0 make it
    # true, and leave no vector whose hypothesis rows are all positive
    v = case.f.values
    hyp = [("start", v[0])]
    if len(v) > 2:
        hyp += [("up", v[2]), ("down", -v[2]), ("pair", v[1] - v[0] - v[2])]
    return hyp, [], [("pair", v[1] - v[0])]


def _nonincreasing(case):
    # "anchored nabla positivity forces nonincreasing": false on 0, 0, 1
    v = case.f.values
    return [("drop", v[j] - v[j + 1]) for j in range(len(v) - 1)]


class TestEnumeration:
    def _vectors(self, mode, k, length, samples=None, key="key"):
        if mode == "exhaustive":
            # the prefix search with no rows enumerates the whole product
            no_rows = [np.zeros((0, d + 1), dtype=int) for d in range(length)]
            chunks = list(_prefix_search(k, no_rows, np.arange(k)))
        else:
            chunks = list(_index_chunks(k, length, samples, key))
        assert all(len(chunk) <= monotone.CHUNK for chunk in chunks)
        return [tuple(int(i) for i in row) for chunk in chunks for row in chunk]

    def test_exhaustive_order_is_product_order(self, monkeypatch):
        monkeypatch.setattr(monotone, "CHUNK", 7)
        assert self._vectors("exhaustive", 3, 4) == list(itertools.product(range(3), repeat=4))

    def test_random_draws_match_choice_loop(self, monkeypatch):
        monkeypatch.setattr(monotone, "CHUNK", 7)
        values = [Fraction(k, 2) for k in range(-2, 3)]
        key = (4, "T_UU1", "1/2").__repr__()
        rng = random.Random(key)
        expected = [tuple(rng.choice(values) for _ in range(5)) for _ in range(50)]
        drawn = self._vectors("random", len(values), 5, samples=50, key=key)
        assert [tuple(values[i] for i in row) for row in drawn] == expected

    @pytest.mark.parametrize("tid,length,values,mode", [
        ("T_U3", 5, [-1, 0, 1, 2], "exhaustive"),
        ("T_SLOV1", 4, [Fraction(k, 2) for k in range(-2, 3)], "exhaustive"),
        ("T_C5", 5, [-1, 0, 1, 2], "random"),
        ("T_FALSE", 3, [-1, 0, 1], "exhaustive"),
    ])
    @pytest.mark.parametrize("window", [400, 3])
    def test_chunked_search_matches_single_chunk(self, monkeypatch, tid, length, values,
                                                 mode, window):
        monkeypatch.setitem(THEOREMS, "T_FALSE", _statement("T_FALSE", _false_builder))
        monkeypatch.setattr(monotone, "WITNESS_WINDOW", window)
        kwargs = dict(mode=mode, budget=5000, seed=5)

        def records():
            results = search_campaign(tid, length, values, **kwargs)
            return [r.as_record() for r in results]

        single = records()
        monkeypatch.setattr(monotone, "CHUNK", 13)
        assert records() == single
        assert all(r["instances"] > 13 for r in single)


class TestExactPrefilter:
    def test_false_theorem_yields_confirmed_counterexamples(self, monkeypatch):
        monkeypatch.setitem(THEOREMS, "T_FALSE", _statement("T_FALSE", _false_builder))
        values = [-1, Fraction(-1, 2), 0, 1]
        results = search_campaign("T_FALSE", 3, values, [Fraction(1, 2)])
        found = [tuple(c.f.values) for c in results[0].counterexamples]
        expected = [v for v in itertools.product(values, repeat=3) if v[0] >= 0 > v[1] - v[0]]
        assert found == expected
        for case in results[0].counterexamples:
            assert case.f.backend is RATIONAL
            assert not evaluate_theorem(case).consistent
        assert main(["theorems", "--id", "T_FALSE", "--length", "3", "--values", "0,1",
                     "--nu", "1/2", "--report", os.devnull]) == 1

    def test_shorter_length_counterexamples_are_reported(self, monkeypatch):
        monkeypatch.setitem(THEOREMS, "T_SHORT", _statement("T_SHORT", _short_false_builder))
        values = [-1, 0, 1]
        (result,) = search_campaign("T_SHORT", 4, values, [Fraction(1, 2)])
        # lengths 4 and 3 have witnesses of margin 0 only, so the fallback
        # visits length 2, where the statement is false
        assert result.live_length == 4
        assert (result.witness, result.witness_margin) == ((1, -1), 1)
        found = [tuple(c.f.values) for c in result.counterexamples]
        assert found == [v for v in itertools.product(values, repeat=2) if v[0] >= 0 > v[1] - v[0]]
        for case in result.counterexamples:
            assert case.f.length == 2 and case.f.backend is RATIONAL
            assert not evaluate_theorem(case).consistent
        assert main(["theorems", "--id", "T_SHORT", "--length", "4", "--values", "-1,0,1",
                     "--nu", "1/2", "--report", os.devnull]) == 1

    def test_anchored_counterexamples_hold_only_their_values(self, monkeypatch):
        """A false statement anchored one step before its data reports each
        counterexample as the values searched: at most the record's length of
        them, each from the value set, with no slot for the anchor."""
        builder = Declared([monotone._NablaRiemann(prepend=True)], [_nonincreasing])
        monkeypatch.setitem(THEOREMS, "T_ANCHORED", _statement("T_ANCHORED", builder))
        values = [-1, 0, 1]
        (result,) = search_campaign("T_ANCHORED", 3, values, [Fraction(1, 2)])
        record = result.as_record()
        assert record["length"] == 3 and record["counterexamples"]
        for counterexample in record["counterexamples"]:
            assert len(counterexample) <= record["length"]
            assert set(counterexample) <= set(map(str, values))
        # the fallback visits no shorter length: [1, 1, 1] has margin 3/8
        assert record["counterexamples"] == [["0", "0", "1"], ["0", "1", "1"]] == [
            list(map(str, v)) for v in itertools.product(values, repeat=3)
            if not evaluate_theorem(make_case("T_ANCHORED", v, Fraction(1, 2))).consistent]

    def test_exact_zero_conclusion_is_not_flagged(self, monkeypatch):
        assert 0.3 - 0.1 - 0.2 < 0
        monkeypatch.setitem(THEOREMS, "T_TENTHS", _statement("T_TENTHS", _tenths_builder, 3))
        evaluated = []

        def counting(case):
            evaluated.append(case)
            return evaluate_theorem(case)

        monkeypatch.setattr(monotone, "evaluate_theorem", counting)
        results = search_campaign("T_TENTHS", 3, [1, 2], [Fraction(1, 2)])
        assert results[0].hypothesis_count == 8
        assert results[0].counterexamples and all(
            min(v for _, v in evaluate_theorem(c).conclusion_margins) < 0
            for c in results[0].counterexamples
        )
        # the exactly-zero constants (1,1,1) and (2,2,2) are never re-verified
        flagged = {tuple(c.f.values) for c in evaluated}
        assert not flagged & {(1, 1, 1), (2, 2, 2)}
        assert len(evaluated) == len(results[0].counterexamples) + 1  # plus the witness

    @pytest.mark.parametrize("tid,order", [("T_U1", Fraction(1, 4)), ("T_C6", Fraction(3, 4))])
    def test_huge_values_use_exact_integers(self, tid, order):
        values = [-2 ** 40, 0, 2 ** 40]
        hyp, concl, _ = _row_matrices(tid, 6, order, 64, 0)
        (h_int, c_int), ints = _operands((hyp, concl), 6, values)
        assert h_int.dtype == c_int.dtype == ints.dtype == object
        hyp_count = 0
        for combo in itertools.product(range(3), repeat=6):
            live = [values[i] for i in combo]
            verdict = evaluate_theorem(make_case(tid, live, order))
            row = ints[list(combo)]
            assert [_sign(x) for x in row @ h_int.T] == [
                _sign(m) for _, m in verdict.hypothesis_margins]
            assert [_sign(x) for x in row @ c_int.T] == [
                _sign(m) for _, m in verdict.conclusion_margins]
            hyp_count += verdict.hypothesis_holds
        (result,) = search_campaign(tid, 6, values, [order])
        assert result.hypothesis_count == hyp_count
        assert result.counterexamples == []

    def test_campaign_rows_multiply_in_float64(self):
        # every (theorem, default order) row set of the length-6 campaign on
        # the halves, ray rows up to k_cap 64 included, stays exact in BLAS
        # and so do the margins: every divisor is below 2**53
        exact_ints, scale, largest = monotone._value_tables(tuple(map(Fraction, CAMPAIGN_VALUES)))
        for tid in THEOREMS:
            for order in default_orders(tid):
                hyp, concl, _ = _row_matrices(tid, 6, order, 64, 0)
                mats, ints = _integer_operands((hyp, concl), 6, exact_ints, largest)
                assert [a.dtype for a in (*mats, ints)] == [np.float64] * 3, (tid, order)
                assert max(den * scale for rows in (hyp, concl) for _, den in rows) < (
                    monotone.EXACT_FLOAT_LIMIT), (tid, order)

    @pytest.mark.parametrize("rows,largest,dtype", [
        # ||numerators||_1 = 8: the bound lands just below 2**53, then on it
        ([([3, -5, 0], 7), ([1, 1, 1], 1)], 2 ** 50 - 1, np.float64),
        ([([3, -5, 0], 7), ([1, 1, 1], 1)], 2 ** 50, object),
        # the bound reads the numerators the matrix holds, not their gcd-reduced
        # row: 16 * 2**49 lands on 2**53 although 8 * 2**49 would not
        ([([6, -10, 0], 7)], 2 ** 49, object),
    ])
    def test_float64_needs_the_bound_below_2_53(self, rows, largest, dtype):
        values = np.array([largest, -largest, 0], dtype=object)
        (mat,), ints = _integer_operands([rows], 3, values, largest)
        assert mat.dtype == ints.dtype == dtype
        assert mat.tolist() == [nums for nums, _ in rows]


    @pytest.mark.parametrize("dtype", [np.float64, object])
    def test_margins_are_exact_quotients_rounded_once(self, dtype):
        # 5/96 and 1/12 are the margins a float row product got a bit low
        dots = [[5, -1, 0, 2 ** 52 - 1], [-7, 1, 3, -(2 ** 52) + 3]]
        divisors = (96, 12, 3 ** 30, 7)
        got = monotone._margins(np.array(dots, dtype=dtype), np.array(divisors, dtype=object))
        assert got.dtype == np.float64
        assert got.tolist() == [[float(Fraction(n, d)) for n, d in zip(row, divisors)]
                                for row in dots]
        assert got[0, 0] == 0.052083333333333336 and got[0, 1] == -0.08333333333333333

    def test_margins_past_the_double_range_are_signed_infinities(self):
        divisors = np.array([3, 2 ** 53 + 1], dtype=object)
        got = monotone._margins(np.array([[10 ** 400, 3], [-(10 ** 400), -1]], dtype=object),
                                divisors)
        assert got.tolist() == [[math.inf, 3 / (2 ** 53 + 1)], [-math.inf, -1 / (2 ** 53 + 1)]]
        # float64 dots over a divisor past 2**53 divide as Python integers: a
        # float divisor would round to 2**53 first
        exact = float(Fraction(2 ** 52 + 1, 2 ** 53 + 1))
        assert exact != (2 ** 52 + 1) / float(2 ** 53 + 1)
        assert monotone._margins(np.array([[6.0, 2.0 ** 52 + 1]]), divisors).tolist() == [
            [2.0, exact]]

    def test_values_near_the_double_limit_search_without_overflow(self):
        # T_SLOV1's rows of +-1.7e308 pass the double range: their margins
        # are infinities read off the exact integer products, with no float
        # product to overflow
        values = [-1.7e308, -1, 0, 1, 1.7e308]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (result,) = search_campaign("T_SLOV1", 4, values, [Fraction(3, 2)])
        assert (result.hypothesis_count, result.counterexamples) == (5, [])
        assert result.min_conclusion_margin == 0.0
        assert result.witness == (Fraction(-1.7e308), 1, Fraction(1.7e308))
        assert result.witness_margin == 1


def _operands(row_sets, length, nums):
    """``_integer_operands`` on exact rows of ``length`` coefficients and a
    list of integer numerators."""
    return _integer_operands(row_sets, length, np.array(nums, dtype=object),
                             max(map(abs, nums)))


def _reference_vectors(theorem_id, length, values, order, mode, samples, seed):
    """Brute force: every value-index vector of the product, or every sample
    drawn with ``rng.choice``, in enumeration order."""
    k = len(values)
    if mode == "exhaustive":
        vectors = list(itertools.product(range(k), repeat=length))
    else:
        rng = random.Random((seed, theorem_id, str(order)).__repr__())
        vectors = [tuple(values.index(rng.choice(values)) for _ in range(length))
                   for _ in range(samples)]
    return np.array(vectors, dtype=np.intp).reshape(-1, length)


def _reference_instance(theorem_id, live_length, value_set, order, mode, samples, seed,
                        k_cap, anchor):
    """``_search_instance`` without pruning or chunks, as one batch."""
    values = [Fraction(v) for v in value_set]
    scale = math.lcm(*(v.denominator for v in values))
    hyp, concl, _ = _row_matrices(theorem_id, live_length, order, k_cap, anchor)
    (h_int, c_int), ints = _operands((hyp, concl), live_length,
                                     [int(v * scale) for v in values])
    idx = _reference_vectors(theorem_id, live_length, values, order, mode, samples, seed)
    F = ints[idx]
    hyp_min = (F @ h_int.T).min(axis=1)
    passing = np.nonzero(hyp_min >= 0)[0]

    def case(j):
        combo = tuple(values[i] for i in idx[j])
        return combo, make_case(theorem_id, combo, order, anchor, k_cap)

    counterexamples = []
    for j in passing:
        if (F[j] @ c_int.T).min() < 0:
            _, c = case(j)
            if not evaluate_theorem(c).consistent:
                counterexamples.append(c)
    # float margins: the exact smallest row values, each rounded once
    exact = np.array(values, dtype=object)[idx[passing]]
    hyp_exact, concl_exact = (
        exact @ np.array([[Fraction(x, den) for x in nums] for nums, den in rows],
                         dtype=object).reshape(len(rows), live_length).T
        for rows in (hyp, concl))
    min_concl = float(concl_exact.min()) if len(passing) else None
    margins = np.array([float(m) for m in hyp_exact.min(axis=1)])
    witness = witness_margin = None
    for j in passing[np.lexsort((passing, -margins))[:monotone.WITNESS_WINDOW]]:
        if not F[j].any() or (witness is not None and not hyp_min[j] > 0):
            continue
        combo, c = case(j)
        verdict = evaluate_theorem(c)
        if verdict.hypothesis_holds:
            witness, witness_margin = combo, min(m for _, m in verdict.hypothesis_margins)
            if witness_margin > 0:
                break
    return monotone.SearchResult(theorem_id, Fraction(order), live_length, len(idx),
                                 len(passing), min_concl, counterexamples, witness,
                                 witness_margin)


def _reference_campaign(theorem_id, grid_length, value_set, orders=None, mode="exhaustive",
                        budget=10 ** 5, seed=0):
    """``search_campaign`` by full re-searches: one unpruned
    ``_reference_instance`` per order and per length the nonvacuity fallback
    visits, each length reporting its own counterexamples."""
    orders = orders or default_orders(theorem_id)
    samples = max(1, budget // len(orders)) if mode == "random" else None
    shortest, results = THEOREMS[theorem_id].min_length, []
    for order in orders:
        args = (value_set, order, mode, samples, seed, 64, 0)
        res = _reference_instance(theorem_id, grid_length, *args)
        length = grid_length
        while (res.witness is None or res.witness_margin <= 0) and length > shortest:
            length -= 1
            shorter = _reference_instance(theorem_id, length, *args)
            res.counterexamples += shorter.counterexamples
            if shorter.witness is not None and (
                res.witness is None or shorter.witness_margin > res.witness_margin
            ):
                res.witness, res.witness_margin = shorter.witness, shorter.witness_margin
        results.append(res)
    return results


def _pair_builder(case):
    # hypothesis rows of levels 0 and 1 whose trailing coefficients are zero
    v = case.f.values
    return [("start", v[0]), ("pair", v[1] - v[0])], [], [("last", v[-1])]


_HUGE = [-2 ** 40, 0, 2 ** 40]


class TestPrefixSearch:
    @pytest.mark.parametrize("tid,length,values", [
        ("T_U3", 5, [-1, Fraction(-1, 2), 0, 1]),
        ("T_SLOV1", 4, [-1, 0, Fraction(1, 2), 1]),
        ("T_C4", 5, [-1, 0, 1, 2]),
        ("T_D2", 4, [-1, 0, Fraction(1, 2), 1]),
        ("T_FALSE", 4, [-1, 0, 1]),
        ("T_TENTHS", 4, [1, 2, 3]),
        ("T_C4", 5, _HUGE),
        ("T_U1", 6, _HUGE),
        ("T_SHORT", 4, [-1, 0, 1]),
    ])
    @pytest.mark.parametrize("mode", ["exhaustive", "random"])
    @pytest.mark.parametrize("chunk", [7, 13])
    def test_matches_brute_force(self, monkeypatch, tid, length, values, mode, chunk):
        monkeypatch.setitem(THEOREMS, "T_FALSE", _statement("T_FALSE", _false_builder))
        monkeypatch.setitem(THEOREMS, "T_TENTHS", _statement("T_TENTHS", _tenths_builder, 3))
        monkeypatch.setitem(THEOREMS, "T_SHORT", _statement("T_SHORT", _short_false_builder))
        # random mode draws 200 samples per order
        kwargs = dict(mode=mode, budget=600 if mode == "random" else 10 ** 5, seed=5)
        order = default_orders(tid)[0]
        hyp, concl, _ = _row_matrices(tid, length, order, 64, 0)
        scale = math.lcm(*(Fraction(v).denominator for v in values))
        (h_int, _), ints = _operands((hyp, concl), length, [int(v * scale) for v in values])
        if values is _HUGE:
            assert h_int.dtype == object

        # survivors, in enumeration order
        idx = _reference_vectors(tid, length, [Fraction(v) for v in values], order,
                                   mode, 200, 5)
        expected = np.nonzero((ints[idx] @ h_int.T).min(axis=1) >= 0)[0]
        monkeypatch.setattr(monotone, "CHUNK", chunk)
        samples = 200 if mode == "random" else None
        got = list(monotone._survivors(len(values), monotone._row_levels(h_int, length),
                                       ints, samples, (5, tid, str(order)).__repr__()))
        assert all(len(s) <= chunk for s in got)
        assert np.concatenate(got).tolist() == idx[expected].tolist()

        # every record field, fallback lengths included
        prefix = [r.as_record() for r in search_campaign(tid, length, values, **kwargs)]
        reference = [r.as_record() for r in _reference_campaign(tid, length, values, **kwargs)]
        assert prefix == reference
        if tid in ("T_FALSE", "T_TENTHS", "T_SHORT"):
            assert all(r["counterexamples"] for r in prefix)

    def test_row_level_is_last_nonzero_coefficient(self):
        mat = np.array([[1, -1, 0, 0], [0, 0, 0, 0], [0, 0, 2, 0], [3, 0, 0, 0],
                        [0, 1, 0, -1]], dtype=float)
        levels = monotone._row_levels(mat, 4)
        assert [lv.tolist() for lv in levels] == [
            [[3]], [[1, -1]], [[0, 0, 2]], [[0, 1, 0, -1]]]

    def test_trailing_zero_row_applies_at_its_last_coordinate(self, monkeypatch):
        monkeypatch.setitem(THEOREMS, "T_PAIR", _statement("T_PAIR", _pair_builder))
        seen = []
        passes = monotone._passes

        def recording(ints, idx, rows):
            seen.append((idx.shape[1], len(rows), idx.copy()))
            return passes(ints, idx, rows)

        monkeypatch.setattr(monotone, "_passes", recording)
        values = [-1, 0, 1, 2]
        (result,) = search_campaign("T_PAIR", 5, values, [Fraction(1, 2)])
        assert result.hypothesis_count == sum(
            1 for v in itertools.product(values, repeat=5) if 0 <= v[0] <= v[1])
        # the start row at coordinate 0 and the pair row at coordinate 1; no
        # candidate past them breaks either
        assert [(width, n) for width, n, _ in seen] == [(1, 1), (2, 1)]
        assert seen[1][2].tolist() == [[i, j] for i in (1, 2, 3) for j in range(4)]

    @pytest.mark.parametrize("chunk,values", [(3, [-1, 0, 1, 2, 3]), (7, [-1, 0, 1]),
                                              (1, [0, 1])])
    def test_candidate_arrays_stay_within_chunk(self, monkeypatch, chunk, values):
        monkeypatch.setattr(monotone, "CHUNK", chunk)
        sizes = []
        passes = monotone._passes

        def recording(ints, idx, rows):
            sizes.append(len(idx))
            return passes(ints, idx, rows)

        monkeypatch.setattr(monotone, "_passes", recording)
        results = search_campaign("T_U3", 5, values, [Fraction(1, 2)])
        assert sizes and max(sizes) <= chunk
        assert [r.as_record() for r in results] == [
            r.as_record() for r in _reference_campaign("T_U3", 5, values, [Fraction(1, 2)])]

    @pytest.mark.parametrize("mode", ["exhaustive", "random"])
    def test_one_row_build_per_order_in_both_modes(self, monkeypatch, mode):
        monkeypatch.setitem(THEOREMS, "T_SHORT", _statement("T_SHORT", _short_false_builder))
        built = []
        row_matrices = monotone._row_matrices

        def counting(theorem_id, live_length, *args):
            built.append(live_length)
            return row_matrices(theorem_id, live_length, *args)

        monkeypatch.setattr(monotone, "_row_matrices", counting)
        results = search_campaign("T_SHORT", 4, [-1, 0, 1], [Fraction(1, 4), Fraction(1, 2)],
                                  mode=mode, budget=400, seed=2)
        # both modes visit lengths 3 and 2 and read their rows off the length-4 build
        assert built == [4, 4]
        assert all(len(c.f.values) == 2 for r in results for c in r.counterexamples)
        assert all(r.counterexamples for r in results)


def _unit_vector_rows(tid, length, order, k_cap=64, anchor=0):
    """Reference rows read off unit vectors, one rational builder run per
    live value, with the rays expanded by ``expanded_hypothesis_rows`` (see
    ``test_ray_rows_match_fraction_quotients``): per block, the exact rows
    as Fractions."""

    def rows_at(live):
        case = make_case(tid, live, order, anchor, k_cap)
        hyp, rays, concl = THEOREMS[tid].builder(case)
        return ([v for _, v in expanded_hypothesis_rows(case, hyp, rays)],
                [v for _, v in concl])

    columns = [rows_at([int(i == j) for j in range(length)]) for i in range(length)]
    return [[[Fraction(x) for x in row] for row in zip(*(col[part] for col in columns))]
            for part in (0, 1)]


def _sign_dtype(row_sets, length, largest):
    """The dtype ``_integer_operands`` picks for values up to ``largest``."""
    _, ints = _integer_operands(row_sets, length, np.array([largest], dtype=object), largest)
    return ints.dtype


def _shifted_start(case):
    return [("shifted start", case.f.values[0] + Fraction(1, 3))]


def _shifted_ray(case):
    v = case.f.values
    return monotone._partial_sum_ray([v[0] - 1, v[1]], case.f.backend.scalar(case.order), 1, 0)


class TestOnePassRows:
    @pytest.mark.parametrize("tid", list(THEOREMS))
    def test_rows_match_unit_vector_oracle(self, tid):
        for order in default_orders(tid):
            for length in range(THEOREMS[tid].min_length, 7):
                *blocks, _ = _row_matrices(tid, length, order, 64, 0)
                for rows, exact in zip(blocks, _unit_vector_rows(tid, length, order)):
                    assert all(den > 0 for _, den in rows)
                    assert [[Fraction(x, den) for x in nums] for nums, den in rows] == exact
                    # the float64 bound is read from these numerators
                    l1 = max(sum(map(abs, nums)) for nums, _ in rows)
                    largest = (monotone.EXACT_FLOAT_LIMIT - 1) // l1
                    assert _sign_dtype([rows], length, largest) == np.float64
                    assert _sign_dtype([rows], length, largest + 1) == object

    @pytest.mark.parametrize("tid", list(THEOREMS))
    def test_prefilter_signs_match_explicit_rows(self, tid):
        values = [-1, 0, Fraction(1, 2), 1]
        length, order, k_cap = THEOREMS[tid].min_length, default_orders(tid)[1], 12
        hyp, concl, _ = _row_matrices(tid, length, order, k_cap, 0)
        (h_int, c_int), ints = _operands((hyp, concl), length, [int(2 * v) for v in values])
        for combo in itertools.product(range(len(values)), repeat=length):
            live = [values[i] for i in combo]
            verdict = evaluate_theorem(make_case(tid, live, order, 0, k_cap))
            explicit = verdict.hypothesis_margins[:len(hyp)]
            # a ray decided false past k_cap appends its witness row
            for label, _ in verdict.hypothesis_margins[len(hyp):]:
                assert int(label.rsplit("k=", 1)[1]) > k_cap
            row = ints[list(combo)]
            assert [_sign(x) for x in row @ h_int.T] == [_sign(m) for _, m in explicit]
            assert [_sign(x) for x in row @ c_int.T] == [
                _sign(m) for _, m in verdict.conclusion_margins]

    @pytest.mark.parametrize("hyp,start", [
        ([monotone._start, _shifted_start], None),
        ([monotone._start], _shifted_ray),
    ])
    def test_constant_term_is_rejected(self, monkeypatch, hyp, start):
        builder = Declared(hyp, [monotone._pair(0)], start)
        monkeypatch.setitem(THEOREMS, "T_AFFINE", _statement("T_AFFINE", builder))
        with pytest.raises(AssertionError, match="T_AFFINE: rows are not linear"):
            _row_matrices("T_AFFINE", 3, Fraction(1, 2), 64, 0)
        with pytest.raises(AssertionError, match="not linear"):
            search_campaign("T_AFFINE", 3, [0, 1], [Fraction(1, 2)])

    def test_a_scalar_row_is_rejected(self, monkeypatch):
        # every row kind returns coefficient vectors in the symbolic pass; a
        # constant row (here an exact zero, which would pass the constant-
        # coordinate check) has no coefficients to read
        def builder(case):
            v = case.f.values
            return [("start", v[0]), ("constant", Fraction(0))], [], [("start", v[0])]

        monkeypatch.setitem(THEOREMS, "T_CONST", _statement("T_CONST", builder))
        with pytest.raises(TypeError):
            _row_matrices("T_CONST", 3, Fraction(1, 2), 64, 0)
        with pytest.raises(TypeError):
            monotone._exact_row(Fraction(0))

    @pytest.mark.parametrize("tid", list(THEOREMS))
    def test_the_builder_runs_once(self, monkeypatch, tid):
        cases = []
        stmt = THEOREMS[tid]

        def recording(case):
            cases.append(case)
            return stmt.builder(case)

        monkeypatch.setitem(THEOREMS, tid, replace(stmt, builder=recording))
        _row_matrices(tid, THEOREMS[tid].min_length + 1, default_orders(tid)[0], 64, 0)
        assert len(cases) == 1
        assert all(isinstance(v, CoefficientVector) for v in cases[0].f.values)

    @pytest.mark.parametrize("kind", [monotone._delta_riemann,
                                      monotone._NablaRiemann(prepend=True),
                                      monotone._caputo_bound])
    def test_a_constant_after_an_operator_is_rejected(self, monkeypatch, kind):
        def shifted(case):
            return [(label, v + Fraction(1, 3)) for label, v in kind(case)]

        builder = Declared([monotone._start, shifted], [monotone._pair(0)])
        monkeypatch.setitem(THEOREMS, "T_AFFINE", _statement("T_AFFINE", builder))
        with pytest.raises(AssertionError, match="T_AFFINE: rows are not linear"):
            _row_matrices("T_AFFINE", 3, Fraction(1, 2), 64, 0)
        with pytest.raises(AssertionError, match="not linear"):
            search_campaign("T_AFFINE", 3, [0, 1], [Fraction(1, 2)])

    def test_a_product_of_stored_values_is_rejected(self, monkeypatch):
        def builder(case):
            v = case.f.values
            return [("start", v[0]), ("square", v[0] * v[1])], [], [("start", v[0])]

        monkeypatch.setitem(THEOREMS, "T_SQUARE", _statement("T_SQUARE", builder))
        assert evaluate_theorem(make_case("T_SQUARE", [2, 3], Fraction(1, 2))).hypothesis_holds
        with pytest.raises(TypeError, match="not linear"):
            _row_matrices("T_SQUARE", 3, Fraction(1, 2), 64, 0)


CAMPAIGN_VALUES = [-1, Fraction(-1, 2), 0, Fraction(1, 2), 1]


def _tried_verdicts(monkeypatch, tid, values, order, k_cap, length):
    """(live values, row-derived margin or None) of every witness try that
    ``result(d)`` makes, for d from the minimum length to ``length``, in one
    exhaustive search at ``length``."""
    tried = []
    row_verdict = monotone._row_verdict

    def recording(hyp, levels, rays, d, value_scale):
        margin_of = row_verdict(hyp, levels, rays, d, value_scale)

        def margin(v):
            tried.append(([Fraction(x, value_scale) for x in v], margin_of(v)))
            return tried[-1][1]

        return margin

    with monkeypatch.context() as patch:
        patch.setattr(monotone, "_row_verdict", recording)
        result = monotone._search_instance(tid, length, values, order, None, 0, k_cap)
        for d in range(THEOREMS[tid].min_length, length + 1):
            result(d)
    return tried


def _assert_verdicts_match(tid, order, anchor, k_cap, tried):
    for live, margin in tried:
        verdict = evaluate_theorem(make_case(tid, live, order, anchor, k_cap))
        assert verdict.hypothesis_holds == (margin is not None), live
        if margin is not None:
            assert margin == min(m for _, m in verdict.hypothesis_margins), live


class TestRowVerdict:
    @pytest.mark.parametrize("tid", list(THEOREMS))
    def test_row_verdicts_match_evaluate_theorem(self, monkeypatch, tid):
        # every default order and lengths min..7; the rows hold no anchor, so
        # their verdicts are evaluate_theorem's at anchors 0, 7/2 and -3
        for order in default_orders(tid):
            tried = _tried_verdicts(monkeypatch, tid, CAMPAIGN_VALUES, order, 64, 7)
            assert tried
            for anchor in (0, Fraction(7, 2), -3):
                _assert_verdicts_match(tid, order, anchor, 64, tried)

    def test_a_ray_failing_past_k_cap_skips_the_try(self, monkeypatch):
        # with k_cap 1 the three-term start rays leave some pool candidates
        # whose explicit rows all pass and whose ray fails further out
        tid, order, values = "T_SLOV33", Fraction(7, 4), [-1, 0, Fraction(1, 2), 1]
        tried = _tried_verdicts(monkeypatch, tid, values, order, 1, 6)
        assert any(margin is None for _, margin in tried)
        assert any(margin is not None for _, margin in tried)
        _assert_verdicts_match(tid, order, 0, 1, tried)

    def test_a_ray_reading_past_the_shortest_length_raises(self, monkeypatch):
        # the ray bounds the last stored value, so it reads v[1] at length 2
        # and v[2] at length 3, where the length-2 rows cannot hold it
        def last_value_ray(case):
            v = case.f.values
            nu = case.f.backend.scalar(case.order)
            return monotone._partial_sum_ray(v[-2:], nu, 1, 0)

        builder = Declared([monotone._start], [monotone._pair(0)], last_value_ray)
        monkeypatch.setitem(THEOREMS, "T_LAST_RAY", _statement("T_LAST_RAY", builder))
        values, order = [-1, 0, Fraction(1, 2), 1], Fraction(1, 2)
        tried = _tried_verdicts(monkeypatch, "T_LAST_RAY", values, order, 64, 2)
        assert tried
        _assert_verdicts_match("T_LAST_RAY", order, 0, 64, tried)
        with pytest.raises(AssertionError, match="T_LAST_RAY: a start ray reads past length 2"):
            search_campaign("T_LAST_RAY", 3, values, [order])

    @pytest.mark.parametrize("factor,holds", [(2, True), (-1, False)])
    def test_a_witness_evaluate_theorem_rejects_raises(self, monkeypatch, factor, holds):
        # the start row reads v[0] in the symbolic pass and factor * v[0] on a
        # case's scalars, so the rows and evaluate_theorem disagree on the witness
        def builder(case):
            v = case.f.values
            start = v[0] if isinstance(v[0], CoefficientVector) else factor * v[0]
            return [("start", start)], [], [("start", v[0])]

        monkeypatch.setitem(THEOREMS, "T_TWO_FACED", _statement("T_TWO_FACED", builder))
        witness = make_case("T_TWO_FACED", [1, 0], Fraction(1, 2))
        assert evaluate_theorem(witness).hypothesis_holds is holds
        with pytest.raises(AssertionError, match="T_TWO_FACED: the rows and "
                                                 "evaluate_theorem disagree"):
            search_campaign("T_TWO_FACED", 2, [0, 1], [Fraction(1, 2)])


def _records(pairs) -> dict:
    return {tid: [r.as_record() for r in results] for tid, results in pairs}


def _alone(ids, length, values, **kwargs) -> dict:
    """Each theorem's records from a ``search_campaign`` of its own."""
    return {tid: [r.as_record() for r in search_campaign(
        tid, max(length, THEOREMS[tid].min_length), values, **kwargs)] for tid in ids}


def _count_scans(monkeypatch) -> list:
    scans = []
    survivors = monotone._survivors

    def counting(*args):
        scans.append(args)
        return survivors(*args)

    monkeypatch.setattr(monotone, "_survivors", counting)
    return scans


class TestSharedSearches:
    """A ``search_theorems`` run searches each distinct row set once; every
    (theorem, order) still gets the record it gets searched on its own."""

    @pytest.mark.parametrize("length", [4, 5, 6])
    @pytest.mark.parametrize("values", [CAMPAIGN_VALUES, [-2, -1, 0, Fraction(1, 3), 1, 2]],
                             ids=["halves", "thirds"])
    def test_one_run_equals_each_theorem_alone(self, monkeypatch, values, length):
        scans = _count_scans(monkeypatch)
        shared = _records(search_theorems(list(THEOREMS), length, values))
        searched = len(scans)
        assert shared == _alone(THEOREMS, length, values)
        # exhaustive mode scans once per search: 84 alone, fewer shared
        assert len(scans) - searched == 84
        assert searched < 84
        if values is CAMPAIGN_VALUES and length == 6:
            assert searched == 42

    def test_random_mode_shares_nothing(self, monkeypatch):
        scans = _count_scans(monkeypatch)
        kwargs = dict(mode="random", budget=900, seed=5)
        shared = _records(search_theorems(list(THEOREMS), 6, CAMPAIGN_VALUES, **kwargs))
        searched = len(scans)
        assert shared == _alone(THEOREMS, 6, CAMPAIGN_VALUES, **kwargs)
        # each (theorem, order) draws from its own stream, so each length it
        # visits is scanned in the run as on its own
        assert searched == len(scans) - searched >= 84

    def test_a_row_set_one_row_short_is_searched_on_its_own(self, monkeypatch):
        # T_C1 builds T_JEP1's rows, so T_D1 and T_CD1 do too; without its
        # second start row, f(1) >= f(0), T_C1 is false
        ids = ["T_JEP1", "T_C1", "T_D1", "T_CD1"]
        scans = _count_scans(monkeypatch)
        before = _records(search_theorems(ids, 5, CAMPAIGN_VALUES))
        assert len(scans) == 3  # one search per order
        stmt = THEOREMS["T_C1"]
        monkeypatch.setitem(THEOREMS, "T_C1", replace(stmt, builder=Declared(
            [monotone._start, monotone._caputo_bound], stmt.builder.concl)))
        pairs = search_theorems(ids, 5, CAMPAIGN_VALUES)
        assert len(scans) == 3 + 6  # and one more per order for T_C1
        after = _records(pairs)
        assert after["T_C1"] == _alone(["T_C1"], 5, CAMPAIGN_VALUES)["T_C1"]
        for tid in ("T_JEP1", "T_D1", "T_CD1"):
            assert after[tid] == before[tid]
        results = dict(pairs)["T_C1"]
        assert all(r.counterexamples for r in results)
        for case in (case for r in results for case in r.counterexamples):
            assert case.theorem_id == "T_C1"
            assert not evaluate_theorem(case).consistent

    def test_a_search_is_keyed_by_its_value_set(self):
        searches = {}
        for values, length in (([-1, 0, 1], 4), ([0, 1, 2], 4), ([0, 1, 2], 3)):
            got = search_campaign("T_UU1", length, values, searches=searches)
            assert [r.as_record() for r in got] == _alone(["T_UU1"], length, values)["T_UU1"]
        assert len(searches) == 9

    def test_results_are_never_shared_objects(self):
        # the nonvacuity fallback appends to a result's counterexamples
        pairs = search_theorems(["T_U1", "T_UU1", "T_C5"], 4, [-1, 0, 1])
        results = [r for _, per_order in pairs for r in per_order]
        assert len({id(r) for r in results}) == len({id(r.counterexamples) for r in results}) == 9


class TestValueRanges:
    @pytest.mark.parametrize("mode", ["exhaustive", "random"])
    @pytest.mark.parametrize("start", [-2, 2 ** 40, 10 ** 20])
    def test_a_range_searches_as_its_list(self, mode, start):
        # int64 values in a float64 table, in an object table, and past int64
        values = range(start, start + 4)
        for tid in ("T_U1", "T_SLOV1"):
            kwargs = dict(mode=mode, budget=1000, seed=3)
            assert _alone([tid], 4, values, **kwargs) == _alone([tid], 4, list(values), **kwargs)

    def test_a_long_range_is_never_built(self):
        # 10**15 values: built, they would not fit in memory
        result, = search_campaign("T_U1", 2, range(10 ** 15), [Fraction(1, 2)], mode="random",
                                  budget=10)
        assert result.instances == 10
        assert all(0 <= x < 10 ** 15 and isinstance(x, Fraction) for x in result.witness)

    def test_a_range_past_the_double_range_is_refused(self):
        with pytest.raises(DomainError, match="outside the double range"):
            search_campaign("T_U1", 2, range(10 ** 400), [Fraction(1, 2)], mode="random",
                            budget=10)
