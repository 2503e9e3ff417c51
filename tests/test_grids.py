import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discfrac.backends import FLOATING, RATIONAL, RationalBackend
from discfrac.errors import DomainError, EmptyValues, GridTooShort
from discfrac.grids import (
    CoefficientVector,
    Direction,
    GridFunction,
    integer_difference,
    make_grid_function,
    q_reflect,
    storage_difference,
)

import oracles

values_strategy = st.lists(
    st.fractions(min_value=-8, max_value=8, max_denominator=3), min_size=2, max_size=12
)


def fwd(values, origin=0, backend=RATIONAL):
    return make_grid_function(origin, Direction.FORWARD, values, backend)


def bwd(values, origin=0, backend=RATIONAL):
    return make_grid_function(origin, Direction.BACKWARD, values, backend)


class TestConstruction:
    def test_constant(self):
        g = fwd([3, 3, 3])
        assert g.points() == [0, 1, 2]
        assert g.value_at(1) == 3

    def test_ramp_and_backward(self):
        g = bwd([5, 4, 3], origin=9)
        assert g.points() == [9, 8, 7]
        assert g.value_at(8) == 4

    def test_fractional_origin_preserved(self):
        g = fwd([1, 2], origin="1/3")
        assert g.point(1) == Fraction(4, 3)

    def test_empty_rejected(self):
        with pytest.raises(EmptyValues):
            make_grid_function(0, Direction.FORWARD, [], RATIONAL)

    def test_point_lookup_off_grid(self):
        with pytest.raises(DomainError):
            fwd([1, 2, 3]).value_at("1/2")


def _difference_by_index(values, n):
    """The per-index definition: ``s[k] = v[k+1] - v[k]``, n times, as a tuple."""
    for _ in range(n):
        values = tuple(values[k + 1] - values[k] for k in range(len(values) - 1))
    return values


def _same(xs, ys) -> bool:
    """Equal element by element and of one type: floats by repr, so -0.0 is
    not 0.0 and nan is nan, and arrays by dtype and entries."""
    if type(xs) is not type(ys) or len(xs) != len(ys):
        return False
    for x, y in zip(xs, ys):
        if type(x) is not type(y):
            return False
        if isinstance(x, np.ndarray):
            if x.dtype != y.dtype or not np.array_equal(x, y):
                return False
        elif (repr(x) != repr(y)) if isinstance(x, float) else x != y:
            return False
    return True


storage_values = st.one_of(
    st.lists(st.integers(), max_size=8),
    st.lists(st.one_of(st.floats(), st.sampled_from([0.0, -0.0, math.inf, -math.inf])),
             max_size=8),
    st.lists(st.fractions(), max_size=8),
    st.lists(st.lists(st.integers(), min_size=3, max_size=3)
             .map(lambda row: np.array(row, dtype=object)), max_size=8),
)


@given(values=storage_values, n=st.integers(0, 4), form=st.sampled_from([tuple, list]))
def test_storage_difference_is_the_per_index_difference(values, n, form):
    """Ints, floats (-0.0 and the infinities too), Fractions and the integer
    object arrays of the symbolic row pass, at every order up to 4, past
    the length too; at n = 0 the input itself comes back."""
    values = form(values)
    out = storage_difference(values, n)
    if n == 0:
        assert out is values
    else:
        assert _same(out, _difference_by_index(values, n))


class TestIntegerDifference:
    def test_forward_delta(self):
        g = fwd([1, 3, 6])
        d = integer_difference(g, "delta", 1)
        assert d.values == (2, 3)
        assert d.origin == 0

    def test_forward_nabla_of_ramp(self):
        g = fwd([1, 2, 3, 4], origin=1)
        d = integer_difference(g, "nabla", 1)
        assert d.values == (1, 1, 1)
        assert d.origin == 2

    def test_signed_second_difference(self):
        g = fwd([0, 1, 4])
        d = integer_difference(g, "delta", 2, signed=True)
        assert d.values == (2,)

    def test_backward_origins(self):
        g = bwd([10, 6, 3, 1], origin=7)
        dn = integer_difference(g, "nabla", 1)
        assert dn.origin == 7 and dn.values == (4, 3, 2)
        dd = integer_difference(g, "delta", 1)
        assert dd.origin == 6 and dd.values == (4, 3, 2)

    def test_too_short(self):
        with pytest.raises(GridTooShort):
            integer_difference(fwd([1, 2]), "delta", 2)

    @given(values=values_strategy, n=st.integers(min_value=1, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_iterated_equals_binomial_expansion(self, values, n):
        if len(values) <= n:
            return
        g = fwd(values)
        d = integer_difference(g, "delta", n)
        fmap = g.mapping()
        for i, point in enumerate(d.points()):
            assert d.values[i] == oracles.delta_forward_diff(fmap, point, n)
        dn = integer_difference(g, "nabla", n)
        for i, point in enumerate(dn.points()):
            assert dn.values[i] == oracles.nabla_backward_diff(fmap, point, n)


class TestQReflect:
    def test_simple_reversal(self):
        g = fwd([1, 2, 3])
        r = q_reflect(g, 0, 2)
        assert r.origin == 0 and r.values == (3, 2, 1)

    def test_constant_fixed(self):
        g = fwd([7, 7, 7, 7])
        r = q_reflect(g, 0, 3)
        assert r.values == g.values and r.origin == g.origin

    def test_ramp_reflects_to_descent(self):
        g = fwd([0, 1, 2, 3])
        r = q_reflect(g, 0, 3)
        assert [r.value_at(s) for s in (0, 1, 2, 3)] == [3, 2, 1, 0]

    def test_incongruent_anchors_rejected(self):
        with pytest.raises(DomainError):
            q_reflect(fwd([1, 2]), 0, Fraction(5, 2))

    def test_points_outside_window_rejected(self):
        with pytest.raises(DomainError):
            q_reflect(fwd([1, 2, 3, 4]), 0, 2)

    @given(values=values_strategy)
    @settings(max_examples=30, deadline=None)
    def test_involution(self, values):
        g = fwd(values)
        b = len(values) - 1
        assert q_reflect(q_reflect(g, 0, b), 0, b) == g

    @given(values=values_strategy)
    @settings(max_examples=30, deadline=None)
    def test_reflection_swaps_difference_kinds(self, values):
        # -Q(nabla f) = delta(Q f) and -Q(delta f) = nabla(Q f)
        g = fwd(values)
        b = len(values) - 1
        qf = q_reflect(g, 0, b)
        lhs = q_reflect(integer_difference(g, "nabla", 1), 0, b)
        rhs = integer_difference(qf, "delta", 1)
        assert [-v for v in lhs.values] == list(rhs.values)
        assert lhs.points() == rhs.points()
        lhs2 = q_reflect(integer_difference(g, "delta", 1), 0, b)
        rhs2 = integer_difference(qf, "nabla", 1)
        assert [-v for v in lhs2.values] == list(rhs2.values)

    def test_reversed_view_keeps_function(self):
        g = fwd([1, 5, 7], origin=2)
        r = g.reversed_view()
        assert r.direction is Direction.BACKWARD
        assert r.origin == 4
        assert all(r.value_at(p) == g.value_at(p) for p in g.points())


class TestBackendEquality:
    @pytest.mark.parametrize("backend", [FLOATING, RATIONAL])
    def test_pickle_round_trip(self, backend):
        g = fwd(["1/2", -3, "7/4"], origin="1/3", backend=backend)
        back = pickle.loads(pickle.dumps(g))
        assert back.backend is not backend
        assert back == g and hash(back) == hash(g)

    @pytest.mark.parametrize("backend", [FLOATING, RATIONAL])
    def test_run_scoped_twin_is_equal(self, backend):
        run = backend.run_scoped(8)
        g, twin = fwd([1, "1/3", 2], backend=run), fwd([1, "1/3", 2], backend=backend)
        assert run.kernels == {} and run == backend
        assert g == twin and hash(g) == hash(twin)

    @pytest.mark.parametrize("backend", [FLOATING, RATIONAL, RATIONAL.run_scoped(8)])
    def test_faulty_twin_differs(self, backend):
        values = [1, "1/3", 2]
        assert fwd(values, backend=backend.with_fault()) != fwd(values, backend=backend)

    def test_bit_cap_and_class_count(self):
        values = [1, 2]
        assert fwd(values, backend=RationalBackend(bit_cap=64)) != fwd(values)
        assert fwd(values, backend=RationalBackend()) == fwd(values)
        assert fwd(values, backend=FLOATING) != fwd(values)


class TestParts:
    def test_cleared_grid_round_trips(self):
        g = bwd(["1/2", "-2/3", 0, 5], origin=4)
        nums, den = g.parts
        assert den == 6 and nums == (3, -4, 0, 30)
        assert g.with_parts(nums, den) == g
        assert g.with_parts([2 * x for x in nums], 2 * den) == g
        moved = g.with_parts(nums, den, origin=1, direction=Direction.FORWARD)
        assert moved.values == g.values and moved.points() == [1, 2, 3, 4]

    def test_an_int_grid_is_held_cleared(self):
        """Ints on the exact backend are held as Fractions are, so parts over
        a denominator read back as those values."""
        g = GridFunction(Fraction(2), Direction.FORWARD, [1, -2, 3], RATIONAL)
        assert g.parts == fwd([1, -2, 3], origin=2).parts == ((1, -2, 3), 1)
        assert g.with_parts(*g.parts) == g
        assert g.with_parts((1, -2, 3), 2).values == (Fraction(1, 2), -1, Fraction(3, 2))

    def test_float_grid_round_trips_over_one(self):
        g = fwd([0.5, -0.0, 3.25], backend=FLOATING)
        nums, den = g.parts
        assert den == 1 and nums is g.values
        back = g.with_parts(nums, den)
        assert back == g and list(map(repr, back.values)) == ["0.5", "-0.0", "3.25"]
        assert list(map(repr, g.prepend_zero().values)) == ["0.0", "0.5", "-0.0", "3.25"]

    def test_coefficient_vectors_clear_over_their_lcm(self):
        """A grid of coefficient vectors is held as a grid of Fractions is:
        integer arrays over the LCM of the vectors' denominators.  Its values
        are the same linear forms, and ``prepend_zero`` stores the zero
        array."""
        vectors = [CoefficientVector(np.array([1, j, 0], dtype=object), j + 1)
                   for j in range(3)]

        def forms(values):
            return [[Fraction(x, v.den) for x in v.nums] for v in values]

        g = fwd([0, 0, 0]).with_values(vectors)
        nums, den = g.parts
        assert den == 6 and [list(x) for x in nums] == [[6, 0, 0], [3, 3, 0], [2, 4, 0]]
        assert all(type(x) is int for x in np.concatenate(nums))
        assert all(isinstance(v, CoefficientVector) for v in g.values)
        assert forms(g.values) == forms(vectors)
        for back in g.with_parts(nums, den), g.with_parts([2 * x for x in nums], 2 * den):
            assert back.points() == g.points() and forms(back.values) == forms(vectors)
        zero, *rest = g.prepend_zero().parts[0]
        assert list(zero) == [0, 0, 0] and all(type(x) is int for x in zero)
        assert [list(x) for x in rest] == [list(x) for x in nums]

    @pytest.mark.parametrize("constant", [RATIONAL.one, 2, Fraction(-1, 2)])
    def test_a_nonzero_constant_among_coefficient_vectors_is_refused(self, constant):
        """Only the exact zero may stand beside coefficient vectors, as the
        zero array; any other constant has no linear form and fails when the
        grid is built."""
        vector = CoefficientVector(np.array([1, 2], dtype=object), 3)
        held = fwd([0, 0]).with_values([RATIONAL.zero, vector]).parts
        assert [list(x) for x in held[0]] == [[0, 0], [1, 2]] and held[1] == 3
        with pytest.raises(TypeError, match="nonzero constant among coefficient vectors"):
            fwd([0, 0]).with_values([constant, vector])

    @pytest.mark.parametrize("backend", [RATIONAL, FLOATING])
    @given(values=values_strategy, origin=st.fractions(-12, 12, max_denominator=3),
           direction=st.sampled_from(Direction), den=st.sampled_from([6, 12, 60]))
    @settings(max_examples=40, deadline=None)
    def test_grids_from_parts_equal_constructed_grids(self, backend, values, origin,
                                                      direction, den):
        """A grid built from its parts, numerators over a multiple of the
        denominators or floats as held, is the grid the constructor builds."""
        if backend.exact:
            g = GridFunction.from_parts(origin, direction, tuple(int(v * den) for v in values),
                                        den, backend)
        else:
            g = GridFunction.from_parts(origin, direction, tuple(map(float, values)), None,
                                        backend)
        ref = GridFunction(origin, direction, [backend.scalar(v) for v in values], backend)
        assert g == ref and hash(g) == hash(ref)
        assert [type(v) for v in g.values] == [type(v) for v in ref.values]
        nums, got = g.parts
        assert got == (den if backend.exact else 1)
        over = Fraction if backend.exact else float.__truediv__
        assert [over(x, got) for x in nums] == list(g.values) == list(ref.values)
        assert (g.origin, g.direction, g.length) == (origin, direction, len(values))

    @given(origin=st.fractions(-50, 50, max_denominator=12),
           inward=st.one_of(st.integers(-30, 30), st.fractions(-30, 30, max_denominator=12)),
           direction=st.sampled_from(Direction))
    @settings(max_examples=80, deadline=None)
    def test_shift_origin_moves_into_the_grid_direction(self, origin, inward, direction):
        moved = make_grid_function(origin, direction, [1], RATIONAL).shift_origin(inward)
        expected = origin + inward if direction is Direction.FORWARD else origin - inward
        assert type(moved) is Fraction and moved == expected
        assert moved.denominator > 0 and math.gcd(moved.numerator, moved.denominator) == 1

    @given(values_strategy, st.integers(0, 3))
    def test_transforms_keep_the_values(self, values, n):
        g = fwd(values, origin=2)
        n = min(n, g.length - 1)
        assert g.drop_leading(n).values == tuple(values[n:])
        assert g.prepend_zero().values == (0,) + tuple(values)
        assert g.reflected(5).values == tuple(values[::-1])
        assert g.reversed_view().mapping() == g.mapping()
