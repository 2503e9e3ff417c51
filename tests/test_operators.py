import functools
import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from discfrac import operators
from discfrac.backends import FLOATING, RATIONAL, RationalBackend
from discfrac.errors import BackendOverflow, DirectFormIntegerOrder, DomainError, GridTooShort
from discfrac.dualities import run_identity_suite
from discfrac.grids import CoefficientVector, Direction, integer_difference, make_grid_function
from discfrac.kernels import kernel_vector
from discfrac.operators import (
    Family,
    Formulation,
    Kind,
    OperatorSpec,
    apply_operator,
    caputo_difference,
    caputo_from_riemann,
    caputo_inversion_residual,
    fractional_sum,
    order_ceiling,
    riemann_difference,
    riemann_from_caputo,
)

from conftest import examples
import oracles

ORDERS = [Fraction(1, 2), Fraction(1, 3), Fraction(6, 5), Fraction(3, 2), Fraction(7, 4)]


def random_values(rng, length):
    return [Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(length)]


def forward(values, origin=0):
    return make_grid_function(origin, Direction.FORWARD, values, RATIONAL)


def backward(values, origin):
    return make_grid_function(origin, Direction.BACKWARD, values, RATIONAL)


def spec(kind, family, order, form=Formulation.COMPOSED):
    return OperatorSpec(kind, family, order, form)


class TestOrderCeiling:
    @pytest.mark.parametrize(
        "order,n", [("1/2", 1), (1, 1), ("3/2", 2), (2, 2), ("9/4", 3)]
    )
    def test_values(self, order, n):
        assert order_ceiling(Fraction(order)) == n


class TestAgainstOracles:
    """Every operator pipeline against the literal definition sums."""

    def _instances(self, seed=11, count=6):
        rng = random.Random(seed)
        for _ in range(count):
            length = rng.randint(4, 9)
            a = Fraction(rng.randint(-3, 3))
            yield rng, a, random_values(rng, length)

    def test_sums(self):
        for rng, a, vals in self._instances():
            f = forward(vals, a)
            b = a + len(vals) - 1
            g = backward(list(reversed(vals)), b)
            fmap = f.mapping()
            for alpha in ORDERS:
                out = fractional_sum(spec(Kind.DELTA, Family.SUM, alpha), f)
                for p, v in zip(out.points(), out.values):
                    assert v == oracles.delta_left_sum(fmap, a, alpha, p)
                out = fractional_sum(spec(Kind.NABLA, Family.SUM, alpha), f)
                for p, v in zip(out.points(), out.values):
                    assert v == oracles.nabla_left_sum(fmap, a, alpha, p)
                out = fractional_sum(spec(Kind.DELTA, Family.SUM, alpha), g)
                for p, v in zip(out.points(), out.values):
                    assert v == oracles.delta_right_sum(fmap, b, alpha, p)
                out = fractional_sum(spec(Kind.NABLA, Family.SUM, alpha), g)
                for p, v in zip(out.points(), out.values):
                    assert v == oracles.nabla_right_sum(fmap, b, alpha, p)

    def test_riemann_composed(self):
        for rng, a, vals in self._instances(seed=12):
            f = forward(vals, a)
            b = a + len(vals) - 1
            g = backward(list(reversed(vals)), b)
            fmap = f.mapping()
            for alpha in ORDERS:
                out = riemann_difference(spec(Kind.DELTA, Family.RIEMANN, alpha), f)
                for p, v in zip(out.points(), out.values):
                    assert v == oracles.delta_left_riemann(fmap, a, alpha, p)
                out = riemann_difference(spec(Kind.NABLA, Family.RIEMANN, alpha), f)
                for p, v in zip(out.points(), out.values):
                    assert v == oracles.nabla_left_riemann(fmap, a, alpha, p)
                out = riemann_difference(spec(Kind.DELTA, Family.RIEMANN, alpha), g)
                for p, v in zip(out.points(), out.values):
                    assert v == oracles.delta_right_riemann(fmap, b, alpha, p)
                out = riemann_difference(spec(Kind.NABLA, Family.RIEMANN, alpha), g)
                for p, v in zip(out.points(), out.values):
                    assert v == oracles.nabla_right_riemann(fmap, b, alpha, p)

    @pytest.mark.parametrize("alpha", ["3/10", "1/2", "6/5", "17/10"])
    def test_direct_equals_composed_at_reference_orders(self, alpha):
        rng = random.Random(int(Fraction(alpha) * 100))
        for _ in range(8):
            vals = random_values(rng, rng.randint(4, 10))
            f = forward(vals)
            g = backward(list(reversed(vals)), len(vals) - 1)
            for kind in (Kind.DELTA, Kind.NABLA):
                for grid in (f, g):
                    comp = riemann_difference(spec(kind, Family.RIEMANN, Fraction(alpha)), grid)
                    direct = riemann_difference(
                        spec(kind, Family.RIEMANN, Fraction(alpha), Formulation.DIRECT), grid
                    )
                    assert comp.origin == direct.origin
                    assert comp.values == direct.values

    def test_riemann_direct_forms(self):
        for rng, a, vals in self._instances(seed=13):
            f = forward(vals, a)
            b = a + len(vals) - 1
            g = backward(list(reversed(vals)), b)
            fmap = f.mapping()
            for alpha in ORDERS:
                d = spec(Kind.DELTA, Family.RIEMANN, alpha, Formulation.DIRECT)
                out = riemann_difference(d, f)
                for p, v in zip(out.points(), out.values):
                    assert v == oracles.delta_left_riemann_direct(fmap, a, alpha, p)
                d = spec(Kind.DELTA, Family.RIEMANN, alpha, Formulation.DIRECT)
                out = riemann_difference(d, g)
                for p, v in zip(out.points(), out.values):
                    assert v == oracles.delta_right_riemann_direct(fmap, b, alpha, p)
                d = spec(Kind.NABLA, Family.RIEMANN, alpha, Formulation.EXTENDED)
                out = riemann_difference(d, f)
                for p, v in zip(out.points(), out.values):
                    assert v == oracles.nabla_left_riemann(fmap, a, alpha, p)
                d = spec(Kind.NABLA, Family.RIEMANN, alpha, Formulation.EXTENDED)
                out = riemann_difference(d, g)
                for p, v in zip(out.points(), out.values):
                    assert v == oracles.nabla_right_riemann(fmap, b, alpha, p)

    def test_caputo(self):
        for rng, a, vals in self._instances(seed=14):
            f = forward(vals, a)
            b = a + len(vals) - 1
            g = backward(list(reversed(vals)), b)
            fmap = f.mapping()
            for alpha in ORDERS:
                out = caputo_difference(spec(Kind.DELTA, Family.CAPUTO, alpha), f)
                for p, v in zip(out.points(), out.values):
                    assert v == oracles.delta_left_caputo(fmap, a, alpha, p)
                out = caputo_difference(spec(Kind.NABLA, Family.CAPUTO, alpha), f)
                for p, v in zip(out.points(), out.values):
                    assert v == oracles.nabla_left_caputo(fmap, a, alpha, p)
                out = caputo_difference(spec(Kind.DELTA, Family.CAPUTO, alpha), g)
                for p, v in zip(out.points(), out.values):
                    assert v == oracles.delta_right_caputo(fmap, b, alpha, p)
                out = caputo_difference(spec(Kind.NABLA, Family.CAPUTO, alpha), g)
                for p, v in zip(out.points(), out.values):
                    assert v == oracles.nabla_right_caputo(fmap, b, alpha, p)


class TestSpotValues:
    def test_order_one_sum_is_running_sum(self):
        f = forward([1] * 5)
        out = fractional_sum(spec(Kind.DELTA, Family.SUM, 1), f)
        assert out.origin == 1
        assert list(out.values) == [1, 2, 3, 4, 5]  # t -> t on N_1

    def test_half_order_values(self):
        f = forward([1] * 6)
        s = fractional_sum(spec(Kind.DELTA, Family.SUM, "1/2"), f)
        assert s.value_at("3/2") == Fraction(3, 2)
        ns = fractional_sum(spec(Kind.NABLA, Family.SUM, "1/2"), f)
        assert ns.value_at(2) == Fraction(3, 2)
        r = riemann_difference(spec(Kind.DELTA, Family.RIEMANN, "1/2"), f)
        assert r.value_at("1/2") == Fraction(1, 2)
        rd = riemann_difference(
            spec(Kind.DELTA, Family.RIEMANN, "1/2", Formulation.DIRECT), f
        )
        assert rd.value_at("1/2") == Fraction(1, 2)

    def test_caputo_of_constant_vanishes(self):
        f = forward([7] * 6)
        out = caputo_difference(spec(Kind.DELTA, Family.CAPUTO, "1/2"), f)
        assert all(v == 0 for v in out.values)

    def test_riemann_minus_caputo_correction(self):
        # constant data: the Riemann value at the first output point equals
        # the anchor correction, so the Caputo value is zero
        f = forward([1] * 6)
        r = riemann_difference(spec(Kind.DELTA, Family.RIEMANN, "1/2"), f)
        assert r.value_at("1/2") == Fraction(1, 2)
        c = caputo_from_riemann(spec(Kind.DELTA, Family.CAPUTO, "1/2"), f)
        assert c.value_at("1/2") == 0

    @pytest.mark.parametrize("alpha", ["1/3", "1", "3/2", "2", "9/4"])
    def test_riemann_from_caputo_is_the_riemann_side(self, alpha):
        # the Caputo difference plus the correction sum is the Riemann
        # difference caputo_from_riemann subtracts it from: the composed delta
        # one, and the extended nabla row n - 1 steps inward, at every order
        rng = random.Random(alpha)
        alpha = Fraction(alpha)
        n = order_ceiling(alpha)
        for _ in range(4):
            vals = random_values(rng, rng.randint(n + 1, 9))
            for grid in (forward(vals, 2), backward(vals, 9)):
                delta = riemann_from_caputo(spec(Kind.DELTA, Family.CAPUTO, alpha), grid)
                assert delta == riemann_difference(spec(Kind.DELTA, Family.RIEMANN, alpha), grid)
                nabla = riemann_from_caputo(spec(Kind.NABLA, Family.CAPUTO, alpha), grid)
                extended = spec(Kind.NABLA, Family.RIEMANN, alpha, Formulation.EXTENDED)
                assert nabla == operators._apply(extended, grid.drop_leading(n - 1))

    def test_integer_order_reduces_to_plain_differences(self):
        f = forward([Fraction(t * t) for t in range(6)])
        out = riemann_difference(spec(Kind.NABLA, Family.RIEMANN, 2), f)
        assert all(v == 2 for v in out.values)
        assert out.origin == 2
        cap = caputo_difference(spec(Kind.DELTA, Family.CAPUTO, 2), f)
        assert all(v == 2 for v in cap.values)
        assert cap.origin == 0

    def test_higher_caputo_of_linear_vanishes(self):
        f = forward([Fraction(t) for t in range(7)])
        out = caputo_difference(spec(Kind.NABLA, Family.CAPUTO, "3/2"), f)
        assert all(v == 0 for v in out.values)


class TestDomains:
    def test_stated_output_origins(self):
        vals = [Fraction(k) for k in range(8)]
        f = forward(vals, origin=2)
        g = backward(vals, origin=9)
        alpha = Fraction(7, 4)
        n = 2
        assert fractional_sum(spec(Kind.DELTA, Family.SUM, alpha), f).origin == 2 + alpha
        assert fractional_sum(spec(Kind.NABLA, Family.SUM, alpha), f).origin == 2
        assert fractional_sum(spec(Kind.DELTA, Family.SUM, alpha), g).origin == 9 - alpha
        assert fractional_sum(spec(Kind.NABLA, Family.SUM, alpha), g).origin == 9
        assert riemann_difference(spec(Kind.DELTA, Family.RIEMANN, alpha), f).origin == 2 + n - alpha
        assert riemann_difference(spec(Kind.NABLA, Family.RIEMANN, alpha), f).origin == 2 + n
        assert riemann_difference(spec(Kind.DELTA, Family.RIEMANN, alpha), g).origin == 9 - (n - alpha)
        assert riemann_difference(spec(Kind.NABLA, Family.RIEMANN, alpha), g).origin == 9 - n
        assert caputo_difference(spec(Kind.NABLA, Family.CAPUTO, alpha), f).origin == 2 + n
        assert caputo_difference(spec(Kind.NABLA, Family.CAPUTO, alpha), g).origin == 9 - n

    def test_direct_extension_adds_near_anchor_points(self):
        vals = [Fraction(k * k) for k in range(8)]
        f = forward(vals)
        alpha = Fraction(3, 2)
        d = spec(Kind.DELTA, Family.RIEMANN, alpha, Formulation.DIRECT)
        core = riemann_difference(d, f)
        ext = riemann_difference(
            spec(Kind.DELTA, Family.RIEMANN, alpha, Formulation.EXTENDED), f)
        assert core.origin == 2 - alpha
        assert ext.origin == 1 - alpha
        assert ext.length == core.length + 1
        assert ext.values[1:] == core.values
        nd = spec(Kind.NABLA, Family.RIEMANN, alpha, Formulation.DIRECT)
        ncore = riemann_difference(nd, f)
        next_ = riemann_difference(
            spec(Kind.NABLA, Family.RIEMANN, alpha, Formulation.EXTENDED), f)
        assert ncore.origin == 2 and next_.origin == 1
        assert next_.values[1:] == ncore.values

    def test_direct_integer_order_rejected(self):
        # the spec builds, since caputo_from_riemann runs the extended nabla
        # row at every order; riemann_difference refuses it
        for form in (Formulation.DIRECT, Formulation.EXTENDED):
            for kind in Kind:
                with pytest.raises(DirectFormIntegerOrder,
                                   match="the single-sum difference form needs a non-integer"):
                    riemann_difference(spec(kind, Family.RIEMANN, 2, form), forward(range(6)))
            for family in (Family.SUM, Family.CAPUTO):
                with pytest.raises(DomainError, match="Riemann differences only"):
                    spec(Kind.NABLA, family, "1/2", form)

    def test_too_short(self):
        with pytest.raises(GridTooShort):
            riemann_difference(spec(Kind.DELTA, Family.RIEMANN, "3/2"), forward([1, 2]))

    def test_nonpositive_order_rejected(self):
        with pytest.raises(DomainError):
            spec(Kind.DELTA, Family.SUM, 0)


class TestInitialValueProblems:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_delta_left_inverse(self, n):
        rng = random.Random(20 + n)
        vals = random_values(rng, 9)
        f = forward(vals, origin=1)
        u = fractional_sum(spec(Kind.DELTA, Family.SUM, n), f)
        u_ext = u
        for _ in range(n):
            u_ext = u_ext.prepend_zero()
        assert u_ext.origin == 1
        back = integer_difference(u_ext, "delta", n)
        assert back.values == f.values and back.origin == f.origin
        # the stated zero initial values come from empty sums
        for j in range(1, n + 1):
            assert oracles.delta_left_sum(f.mapping(), 1, Fraction(n), Fraction(n + 1 - j)) == 0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_delta_right_inverse(self, n):
        rng = random.Random(30 + n)
        vals = random_values(rng, 9)
        g = backward(vals, origin=8)
        u = fractional_sum(spec(Kind.DELTA, Family.SUM, n), g)
        u_ext = u
        for _ in range(n):
            u_ext = u_ext.prepend_zero()
        assert u_ext.origin == 8
        back = integer_difference(u_ext, "nabla", n, signed=True)
        assert back.values == g.values and back.origin == g.origin

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_nabla_left_inverse(self, n):
        rng = random.Random(40 + n)
        vals = random_values(rng, 9)
        f = forward(vals, origin=0)
        y = fractional_sum(spec(Kind.NABLA, Family.SUM, n), f)
        y_ext = y
        for _ in range(n):
            y_ext = y_ext.prepend_zero()  # zero history below the anchor
        back = integer_difference(y_ext, "nabla", n)
        # matches f from one step past the anchor on
        assert back.origin == f.origin
        assert back.values[1:] == f.values[1:]
        for i in range(n):
            di = integer_difference(y_ext, "nabla", i)
            assert di.value_at(0) == 0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_nabla_right_inverse(self, n):
        rng = random.Random(50 + n)
        vals = random_values(rng, 9)
        g = backward(vals, origin=8)
        y = fractional_sum(spec(Kind.NABLA, Family.SUM, n), g)
        y_ext = y
        for _ in range(n):
            y_ext = y_ext.prepend_zero()
        back = integer_difference(y_ext, "delta", n, signed=True)
        assert back.origin == g.origin
        assert back.values[1:] == g.values[1:]
        for i in range(n):
            di = integer_difference(y_ext, "delta", i, signed=True)
            assert di.value_at(8) == 0


class TestInversionResidual:
    @pytest.mark.parametrize("alpha", ["1/2", "9/10", "3/2", "7/4"])
    def test_left_residual_vanishes(self, alpha):
        rng = random.Random(42)
        f = forward(random_values(rng, 8))
        res = caputo_inversion_residual(f, Fraction(alpha))
        assert all(v == 0 for v in res.values)

    @pytest.mark.parametrize("alpha", ["1/2", "3/2"])
    def test_right_residual_vanishes(self, alpha):
        rng = random.Random(43)
        g = backward(random_values(rng, 8), origin=5)
        res = caputo_inversion_residual(g, Fraction(alpha))
        assert all(v == 0 for v in res.values)

    @pytest.mark.parametrize("alpha", [0, -1])
    @pytest.mark.parametrize("direction", list(Direction))
    def test_nonpositive_order_is_a_domain_error(self, alpha, direction):
        f = make_grid_function(2, direction, [1, 2, 3], RATIONAL)
        with pytest.raises(DomainError, match="order must be positive"):
            caputo_inversion_residual(f, alpha)

    def test_low_order_matches_f_minus_start(self):
        # for order in (0, 1] the inverted pipeline returns f(t) - f(a)
        rng = random.Random(44)
        vals = random_values(rng, 7)
        f = forward(vals)
        alpha = Fraction(2, 3)
        cap = caputo_difference(spec(Kind.NABLA, Family.CAPUTO, alpha), f)
        w = [oracles.ratio_coeff(k, alpha) for k in range(cap.length)]
        for m in range(cap.length):
            summed = sum(w[m - j] * cap.values[j] for j in range(m + 1))
            assert summed == f.values[m + 1] - f.values[0]


class TestFloatAssociation:
    """Floats run the exact operators' code over denominator 1, so their
    rounding follows the order in which that code adds: correction terms
    are summed first, from the first, and then subtracted."""

    def test_correction_sums_its_terms_before_subtracting(self):
        r, c = 1.0, 4e-17
        assert (r - c) - c != r - (c + c)
        rows = [([1.0], 1), ([1.0], 1)]
        assert operators._correction(([r], 1), [c, c], 1, rows) == ([r - (c + c)], 1)

    @pytest.mark.parametrize("alpha", ["3/10", "3/2", "7/4"])
    @pytest.mark.parametrize("direction", list(Direction))
    def test_float_inversion_residual_is_s_minus_f_minus_taylor(self, alpha, direction):
        alpha = Fraction(alpha)
        n = order_ceiling(alpha)
        rng = random.Random(45)
        f = make_grid_function(3, direction, [rng.uniform(-9, 9) for _ in range(9)], FLOATING)
        cap = caputo_difference(spec(Kind.NABLA, Family.CAPUTO, alpha), f).values
        w = kernel_vector(alpha, len(cap), FLOATING)
        s = [0.0] + [functools.reduce(operator.add, [w[m - j] * cap[j] for j in range(m + 1)])
                     for m in range(len(cap))]
        v = f.values
        coeffs = [v[n - 1], v[n - 1] - v[n - 2]][:n]  # the k-th difference at the anchor
        taylor = [[1.0, *kernel_vector(1, len(s) - 1, FLOATING)],
                  [0.0, *kernel_vector(2, len(s) - 1, FLOATING)]][:n]
        t = [functools.reduce(operator.add, [row[m] * c for row, c in zip(taylor, coeffs)])
             for m in range(len(s))]
        expected = [sm - (fm - tm) for sm, fm, tm in zip(s, v[n - 1:], t)]
        res = caputo_inversion_residual(f, alpha)
        assert res.origin == f.shift_origin(n - 1)
        assert list(map(repr, res.values)) == list(map(repr, expected))


class TestAlgebraicProperties:
    @given(
        values=st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=3),
                        min_size=4, max_size=8),
        scale=st.fractions(min_value=-3, max_value=3, max_denominator=2),
    )
    @settings(max_examples=examples(25), deadline=None)
    def test_linearity(self, values, scale):
        f = forward(values)
        g = forward(list(reversed(values)))
        combo = forward([scale * x + y for x, y in zip(values, reversed(values))])
        for family in (Family.SUM, Family.RIEMANN, Family.CAPUTO):
            op = spec(Kind.DELTA, family, Fraction(4, 3))
            left = apply_operator(op, combo)
            fa = apply_operator(op, f)
            ga = apply_operator(op, g)
            mixed = [scale * x + y for x, y in zip(fa.values, ga.values)]
            assert list(left.values) == mixed

    def test_backend_agreement_on_outputs(self):
        rng = random.Random(9)
        vals = random_values(rng, 10)
        fr = forward(vals)
        ff = make_grid_function(0, Direction.FORWARD, [float(v) for v in vals], FLOATING)
        for family in (Family.SUM, Family.RIEMANN, Family.CAPUTO):
            op_exact = spec(Kind.DELTA, family, Fraction(5, 12))
            out_e = apply_operator(op_exact, fr)
            out_f = apply_operator(op_exact, ff)
            for e, x in zip(out_e.values, out_f.values):
                assert abs(float(e) - x) <= 1e-9 * max(1.0, abs(float(e)))


# the 16 operators of `apply`: 12 composed pipelines and 4 direct Riemann forms
# (left on a forward grid, right on a backward one)
APPLY_OPERATORS = [(kind, direction, family, Formulation.COMPOSED)
                   for family in Family for kind in Kind for direction in Direction] + \
                  [(kind, direction, Family.RIEMANN, Formulation.DIRECT)
                   for kind in Kind for direction in Direction]
# |floating - rational| <= AGREEMENT_BOUND * max(1, max |rational|) over each
# output at L = 256.  The worst case today is 1.26e-12 (the delta sums at
# order 3/2); the composed differences reach 4.3e-13 and the direct forms
# 5.1e-16.  The bound leaves room for a reordered summation or another
# floating kernel, not for a wrong weight (a lag-1 fault of 1e-6 reads ~1e-6).
AGREEMENT_BOUND = 1e-11


@pytest.mark.parametrize("kind, direction, family, form", APPLY_OPERATORS)
def test_floating_agrees_with_rational_at_length_256(kind, direction, family, form):
    rng = random.Random(256)
    vals = [Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(256)]
    exact = make_grid_function(3, direction, vals, RATIONAL)
    floating = make_grid_function(3, direction, [float(v) for v in vals], FLOATING)
    for order in (Fraction(k, 4) for k in range(1, 8)):
        if form is Formulation.DIRECT and order == 1:
            continue  # the direct form needs a non-integer order
        op = spec(kind, family, order, form)
        want, got = apply_operator(op, exact), apply_operator(op, floating)
        assert got.origin == want.origin and len(got.values) == len(want.values)
        scale = max(1.0, max(abs(float(r)) for r in want.values))
        worst = max(abs(x - float(r)) for x, r in zip(got.values, want.values))
        assert worst <= AGREEMENT_BOUND * scale, (order, worst / scale)


# every (kind, direction, family, form) pipeline with its oracle, left on a
# forward grid and right on a backward one; the direct
# and extended nabla forms and the nabla composed differences share the
# single-sum oracle, which is valid from one step past the anchor on
_FWD, _BWD = Direction.FORWARD, Direction.BACKWARD
PIPELINES = [
    (Kind.DELTA, _FWD, Family.SUM, Formulation.COMPOSED, oracles.delta_left_sum),
    (Kind.DELTA, _BWD, Family.SUM, Formulation.COMPOSED, oracles.delta_right_sum),
    (Kind.NABLA, _FWD, Family.SUM, Formulation.COMPOSED, oracles.nabla_left_sum),
    (Kind.NABLA, _BWD, Family.SUM, Formulation.COMPOSED, oracles.nabla_right_sum),
    (Kind.DELTA, _FWD, Family.RIEMANN, Formulation.COMPOSED, oracles.delta_left_riemann),
    (Kind.DELTA, _BWD, Family.RIEMANN, Formulation.COMPOSED, oracles.delta_right_riemann),
    (Kind.NABLA, _FWD, Family.RIEMANN, Formulation.COMPOSED, oracles.nabla_left_riemann),
    (Kind.NABLA, _BWD, Family.RIEMANN, Formulation.COMPOSED, oracles.nabla_right_riemann),
    (Kind.DELTA, _FWD, Family.RIEMANN, Formulation.DIRECT, oracles.delta_left_riemann_direct),
    (Kind.DELTA, _FWD, Family.RIEMANN, Formulation.EXTENDED, oracles.delta_left_riemann_direct),
    (Kind.DELTA, _BWD, Family.RIEMANN, Formulation.DIRECT, oracles.delta_right_riemann_direct),
    (Kind.DELTA, _BWD, Family.RIEMANN, Formulation.EXTENDED, oracles.delta_right_riemann_direct),
    (Kind.NABLA, _FWD, Family.RIEMANN, Formulation.DIRECT, oracles.nabla_left_riemann),
    (Kind.NABLA, _FWD, Family.RIEMANN, Formulation.EXTENDED, oracles.nabla_left_riemann),
    (Kind.NABLA, _BWD, Family.RIEMANN, Formulation.DIRECT, oracles.nabla_right_riemann),
    (Kind.NABLA, _BWD, Family.RIEMANN, Formulation.EXTENDED, oracles.nabla_right_riemann),
    (Kind.DELTA, _FWD, Family.CAPUTO, Formulation.COMPOSED, oracles.delta_left_caputo),
    (Kind.DELTA, _BWD, Family.CAPUTO, Formulation.COMPOSED, oracles.delta_right_caputo),
    (Kind.NABLA, _FWD, Family.CAPUTO, Formulation.COMPOSED, oracles.nabla_left_caputo),
    (Kind.NABLA, _BWD, Family.CAPUTO, Formulation.COMPOSED, oracles.nabla_right_caputo),
]

# orders p/q with q <= 12 in (0, 3], integers included
exact_orders = st.integers(1, 12).flatmap(
    lambda q: st.integers(1, 3 * q).map(lambda p: Fraction(p, q)))
mixed_values = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))
LARGE_PRIME = 2**61 - 1  # a Mersenne prime
# denominators 1 to 12 with one large prime among them
prime_mixed_values = mixed_values | st.builds(Fraction, st.integers(-20, 20),
                                              st.just(LARGE_PRIME))


def both_grids(values, a, backend=RATIONAL):
    """The same function stored forward from ``a`` and backward from ``b``."""
    b = a + len(values) - 1
    f = make_grid_function(a, Direction.FORWARD, values, backend)
    g = make_grid_function(b, Direction.BACKWARD, list(reversed(values)), backend)
    return f, g, b


def expected_length(family, form, length, n):
    if family is Family.SUM:
        return length
    if form is Formulation.EXTENDED:
        return length - 1
    return length - n


@pytest.fixture
def memo_oracles(monkeypatch):
    """The oracles' literal weight products, computed once per (lag, beta)."""
    monkeypatch.setattr(oracles, "ratio_coeff", functools.lru_cache(oracles.ratio_coeff))


def evaluate(op, grid, relation=False):
    """Output of one pipeline, or None when the grid is too short for it:
    ``GridTooShort`` is raised exactly when ``expected_length`` is not
    positive, and otherwise the output has that many points."""
    expected = expected_length(op.family, op.formulation, grid.length, op.n)
    try:
        if relation:
            out = caputo_from_riemann(op, grid)
        else:
            out = apply_operator(op, grid)
    except GridTooShort:
        assert expected <= 0, (op, grid.length, relation)
        return None
    assert out.length == expected > 0, (op, grid.length, relation)
    return out


class TestIntegerPath:
    """The exact backend's fraction-free pipelines against the literal sums
    of ``oracles``, on grids of 1 to 40 points."""

    @given(values=st.lists(prime_mixed_values, min_size=1, max_size=40),
           alpha=exact_orders, a=st.integers(-3, 3))
    @example(values=[Fraction(3, 7)], alpha=Fraction(1, 2), a=0)
    @example(values=[Fraction(k - 20, k % 12 + 1) for k in range(40)],
             alpha=Fraction(31, 12), a=1)
    @example(values=[Fraction(k - 6, k + 1) for k in range(12)] + [Fraction(-5, LARGE_PRIME)],
             alpha=Fraction(7, 5), a=-2)
    @example(values=[Fraction(3, LARGE_PRIME)] + [Fraction(k + 1, 12 - k) for k in range(12)],
             alpha=Fraction(9, 4), a=3)
    @settings(max_examples=examples(40), deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_every_pipeline_matches_oracles(self, memo_oracles, values, alpha, a):
        """Every pipeline, and one chained pair, against the oracles; each
        output equals, and hashes like, the grid ``make_grid_function``
        builds from its values."""
        f, g, b = both_grids(values, Fraction(a))
        fmap = f.mapping()
        for kind, direction, family, form, oracle in PIPELINES:
            if form is not Formulation.COMPOSED and alpha.denominator == 1:
                continue
            grid, anchor = (f, f.origin) if direction is _FWD else (g, b)
            op = spec(kind, family, alpha, form)
            runs = [False, True] if family is Family.CAPUTO else [False]
            for relation in runs:
                out = evaluate(op, grid, relation)
                if out is None:
                    continue
                assert out.values == tuple(oracle(fmap, anchor, alpha, p) for p in out.points())
                assert all(type(v) is Fraction for v in out.values)
                rebuilt = make_grid_function(out.origin, out.direction, out.values, RATIONAL)
                assert out == rebuilt and hash(out) == hash(rebuilt)
        # chained: the delta-left difference's output feeds the nabla-left sum
        first = evaluate(spec(Kind.DELTA, Family.RIEMANN, alpha), f)
        if first is not None:
            second = fractional_sum(spec(Kind.NABLA, Family.SUM, alpha), first)
            inner = {p: oracles.delta_left_riemann(fmap, f.origin, alpha, p)
                     for p in first.points()}
            assert second.values == tuple(oracles.nabla_left_sum(inner, first.origin, alpha, p)
                                          for p in second.points())

    def test_no_fraction_or_vector_reaches_the_loop(self, monkeypatch):
        """Every convolution runs through ``_convolve`` on a grid's cleared
        parts: ints on the rational backend and floats on the floating one,
        never a ``Fraction`` or a ``CoefficientVector``.  Both identity suites
        still pass through it."""
        loop, seen = operators._convolve, set()

        def parts_only(weights, values, skip_first):
            kinds = {*map(type, weights), *map(type, values)}
            if kinds & {Fraction, CoefficientVector}:
                raise AssertionError(f"{kinds} reached _convolve")
            seen.update(kinds)
            return loop(weights, values, skip_first)

        monkeypatch.setattr(operators, "_convolve", parts_only)
        for backend, kind in ((RATIONAL, int), (FLOATING, float)):
            seen.clear()
            results = run_identity_suite(instances=3, seed=4, backend=backend)
            assert all(r.passed for r in results) and seen == {kind}

    @given(kind=st.sampled_from(Kind), family=st.sampled_from(Family),
           form=st.sampled_from(Formulation),
           order=st.integers(1, 36).map(lambda k: Fraction(k, 12)), extra=st.integers(0, 7),
           zero_slot=st.booleans(), data=st.data())
    @settings(max_examples=examples(80), deadline=None)
    def test_coefficient_vectors_run_each_column(self, kind, family, form, order, extra,
                                                 zero_slot, data):
        """The symbolic row pass's values are coefficient vectors, here the
        basis e_j scaled by c_j.  Column j of an operator row (``_apply``, at
        integer orders too) on them is the row on the scalar data c_j e_j,
        and the exact zero stored by ``prepend_zero`` acts as the zero
        vector."""
        op = spec(kind, family if form is Formulation.COMPOSED else Family.RIEMANN, order, form)
        lead = [RATIONAL.zero] if zero_slot else []
        # from the shortest grid the row accepts on
        length = max(1, op.pre + op.post + op.drop + 1 - len(lead)) + extra
        scales = data.draw(st.lists(mixed_values, min_size=length, max_size=length))
        basis = [c * CoefficientVector(np.eye(length, dtype=int)[j].astype(object))
                 for j, c in enumerate(scales)]
        zero = CoefficientVector(np.zeros(length, dtype=object))
        grid = forward([0] * (len(lead) + length))

        def run(values):
            return list(operators._apply(op, grid.with_values(values)).values)

        def coefficients(row):
            return [Fraction(x, row.den) for x in row.nums]

        out = run(lead + basis)
        assert all(isinstance(row, CoefficientVector) and len(row.nums) == length
                   for row in out)
        assert all(type(x) is int for row in out for x in (*row.nums, row.den))
        for j, c in enumerate(scales):
            e_j = [Fraction(0)] * (len(lead) + length)
            e_j[len(lead) + j] = c
            assert [coefficients(row)[j] for row in out] == run(e_j)
        if zero_slot:
            assert list(map(coefficients, run([zero] + basis))) == list(map(coefficients, out))
        with pytest.raises(TypeError, match="constant"):
            run([RATIONAL.one] + basis)

    @given(a=st.lists(mixed_values, min_size=3, max_size=3),
           b=st.lists(mixed_values, min_size=3, max_size=3), c=mixed_values)
    @settings(max_examples=examples(60), deadline=None)
    def test_coefficient_vector_arithmetic_is_coordinatewise(self, a, b, c):
        """Sums, differences and scalar multiples of coefficient vectors are
        those of their coordinates; a scalar lands in the last, constant
        coordinate, and a product of two vectors is refused."""

        def vector(coords):
            den = math.lcm(*(x.denominator for x in coords))
            return CoefficientVector(np.array([int(x * den) for x in coords], dtype=object),
                                     den)

        u, w = vector(a), vector(b)
        expected = [
            (u + w, [x + y for x, y in zip(a, b)]), (u - w, [x - y for x, y in zip(a, b)]),
            (-u, [-x for x in a]), (c * u, [c * x for x in a]), (u * 3, [3 * x for x in a]),
            (u + c, a[:2] + [a[2] + c]), (c + u, a[:2] + [a[2] + c]),
            (u - c, a[:2] + [a[2] - c]), (c - u, [-a[0], -a[1], c - a[2]]),
        ]
        for got, want in expected:
            assert got.den > 0 and all(type(x) is int for x in got.nums)
            assert [Fraction(x, got.den) for x in got.nums] == want
        with pytest.raises(TypeError, match="not linear"):
            u * w

    @pytest.mark.parametrize("order", [Fraction(3, 2), Fraction(2)])
    def test_a_row_needs_one_value_past_those_it_takes_away(self, order):
        """Every operator row refuses a grid of its ``pre + post + drop``
        values and gives one output on a grid of one more, on floats, ints
        and coefficient vectors alike."""
        rows = [spec(kind, family, order) for kind in Kind for family in Family]
        rows += [spec(kind, Family.RIEMANN, order, form)
                 for kind in Kind for form in (Formulation.DIRECT, Formulation.EXTENDED)]

        def grids(size):
            exact = forward([1] * size)
            return [make_grid_function(0, Direction.FORWARD, [1] * size, FLOATING), exact,
                    exact.with_values([CoefficientVector(np.ones(1, dtype=object))] * size)]

        for op in rows:
            taken = op.pre + op.post + op.drop
            assert all(operators._apply(op, grid).length == 1 for grid in grids(taken + 1))
            for grid in grids(taken) if taken else ():
                with pytest.raises(GridTooShort):
                    operators._apply(op, grid)

    @given(values=st.lists(mixed_values, min_size=1, max_size=40),
           alpha=exact_orders, a=st.integers(-3, 3))
    @settings(max_examples=examples(25), deadline=None)
    def test_inversion_residual_vanishes(self, values, alpha, a):
        f, g, _ = both_grids(values, Fraction(a))
        for grid in (f, g):
            if len(values) < order_ceiling(alpha) + 1:
                with pytest.raises(GridTooShort):
                    caputo_inversion_residual(grid, alpha)
                continue
            res = caputo_inversion_residual(grid, alpha)
            assert res.values == (0,) * res.length

    @given(values=st.lists(st.builds(Fraction, st.integers(-3, 3), st.integers(1, 12)),
                           min_size=1, max_size=40),
           alpha=exact_orders.filter(lambda x: x.denominator > 1))
    @settings(max_examples=examples(40), deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_overflow_iff_an_oracle_weight_exceeds_the_cap(self, memo_oracles, values, alpha):
        """At a 64-bit cap an operator raises BackendOverflow exactly when a
        kernel weight w(beta, lag) it reads, lag below its kernel length,
        has a numerator or denominator past 64 bits."""
        tight = RationalBackend(bit_cap=64)
        f, g, _ = both_grids(values, Fraction(0), tight)
        length, n = len(values), order_ceiling(alpha)

        def kernels(family, form):
            if family is Family.SUM:
                return [(alpha, length)]
            if form is not Formulation.COMPOSED:
                return [(-alpha, length)]
            if family is Family.RIEMANN:
                return [(n - alpha, length)]
            return [(n - alpha, length - n)]

        def relation_kernels(kind):
            riemann = (n - alpha, length) if kind is Kind.DELTA else (-alpha, length - n + 1)
            corrections = [(k + 1 - alpha, length - k if kind is Kind.DELTA else length - n)
                           for k in range(n)]
            return [riemann] + corrections

        def exceeds(kernel_list):
            return any(max(w.numerator.bit_length(), w.denominator.bit_length()) > 64
                       for beta, count in kernel_list for w in
                       (oracles.ratio_coeff(lag, beta) for lag in range(count)))

        cases = [(kind, direction, family, form, kernels(family, form), False)
                 for kind, direction, family, form, _ in PIPELINES]
        cases += [(kind, direction, Family.CAPUTO, Formulation.COMPOSED, relation_kernels(kind),
                   True) for kind in Kind for direction in Direction]
        for kind, direction, family, form, kernel_list, relation in cases:
            grid = f if direction is _FWD else g
            op = spec(kind, family, alpha, form)
            try:
                out = evaluate(op, grid, relation)
            except BackendOverflow:
                assert exceeds(kernel_list), (kind, direction, family, form)
                continue
            if out is not None:
                assert not exceeds(kernel_list), (kind, direction, family, form)
