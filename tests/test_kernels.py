import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discfrac.backends import FLOATING, RATIONAL, GammaValue, RationalBackend, as_fraction
from discfrac import kernels
from discfrac.errors import BackendOverflow, DomainError, PoleAmbiguous, UnitMismatch
from discfrac.kernels import (
    binomial_weight,
    falling,
    gamma_ratio,
    kernel,
    kernel_vector,
    rising,
)

import oracles

small_fracs = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def relerr(x, y):
    return abs(x - y) / max(1.0, abs(x), abs(y))


def weights(parts):
    """The weights of a kernel's ``(nums, den)`` form: exact numerators over
    den, floats as they are."""
    nums, den = parts
    return [Fraction(x, den) if isinstance(x, int) else x for x in nums]


class TestFalling:
    def test_natural_exponent_product(self):
        assert falling(5, 2, RATIONAL) == 20
        assert falling(5, 2, FLOATING) == pytest.approx(20.0)

    def test_gamma_value_at_own_order(self):
        # t^(t) at t = 2.5 equals Gamma(3.5)
        assert falling("5/2", "5/2", FLOATING) == pytest.approx(math.gamma(3.5))

    def test_own_order_equals_gamma_sampled(self):
        for num in range(1, 25):
            for den in (2, 3, 4):
                mu = num / den
                assert falling(mu, mu, FLOATING) == pytest.approx(
                    math.gamma(mu + 1), rel=1e-12
                )

    def test_denominator_pole_gives_zero(self):
        assert falling(2, 3, RATIONAL) == 0
        assert falling(2, 3, FLOATING) == 0.0

    def test_both_poles_natural_order_uses_product(self):
        assert falling(-3, 2, RATIONAL) == 12  # (-3)(-4)

    def test_integer_exponents_take_the_finite_product(self):
        # an integer gap between the gamma arguments makes the quotient a
        # product of floats, exact here; log-gamma gave 20.000000000000007,
        # 657720.0000000009, 1.8749999999999987 and 0.04999999999999998
        assert repr(falling(5, 2, FLOATING)) == "20.0"
        assert repr(falling(30, 4, FLOATING)) == "657720.0"
        assert repr(rising("1/2", 3, FLOATING)) == "1.875"
        assert repr(falling(3, -2, FLOATING)) == "0.05"
        assert repr(falling(-3, 2, FLOATING)) == "12.0"  # both poles, the same product
        assert falling(3, -2, RATIONAL) == Fraction(1, 20)
        assert rising("1/2", 3, RATIONAL) == Fraction(15, 8)

    def test_both_poles_other_order_raises(self):
        with pytest.raises(PoleAmbiguous):
            falling(-3, -1, RATIONAL)

    def test_numerator_pole_raises(self):
        with pytest.raises(DomainError):
            falling(-3, "1/2", RATIONAL)

    def test_matches_plain_gamma_oracle(self):
        for t, alpha in [(3.25, 0.5), (2.5, 1.5), (6.0, 2.25), (0.75, 0.25)]:
            assert falling(t, alpha, FLOATING) == pytest.approx(
                oracles.float_falling(t, alpha), rel=1e-12
            )

    def test_exact_value_matches_float(self):
        v = falling(Fraction(5, 2), Fraction(3, 4), RATIONAL)
        assert isinstance(v, GammaValue)
        assert float(v) == pytest.approx(falling(2.5, 0.75, FLOATING), rel=1e-12)


class TestRising:
    def test_natural_exponent(self):
        assert rising(3, 2, RATIONAL) == 12

    def test_zero_base_convention(self):
        assert rising(0, "7/10", RATIONAL) == 0
        assert rising(0, "7/10", FLOATING) == 0.0

    def test_zero_exponent(self):
        assert rising(0, 0, RATIONAL) == 1
        assert rising("5/2", 0, RATIONAL) == 1

    def test_negative_integer_base_raises(self):
        with pytest.raises(DomainError):
            rising(-2, "1/2", RATIONAL)

    def test_rising_equals_shifted_falling(self):
        # t^^alpha = (t + alpha - 1)^(alpha)
        assert rising(2, 1.5, FLOATING) == pytest.approx(
            oracles.float_falling(2.5, 1.5), rel=1e-12
        )
        lhs = rising(Fraction(2), Fraction(3, 2), RATIONAL)
        rhs = falling(Fraction(5, 2), Fraction(3, 2), RATIONAL)
        assert lhs - rhs == 0


class TestGammaRatio:
    @pytest.mark.parametrize(
        "x,k,expected",
        [("1/2", 2, Fraction(3, 4)), (1, 3, 6), ("-1/2", 1, Fraction(-1, 2))],
    )
    def test_examples(self, x, k, expected):
        assert gamma_ratio(x, k, RATIONAL) == expected
        assert gamma_ratio(x, k, FLOATING) == pytest.approx(float(expected))

    def test_zero_factor_is_valid(self):
        assert gamma_ratio(-2, 5, RATIONAL) == 0
        assert gamma_ratio(-2, 5, FLOATING) == 0.0
        # (-1)(0)(1) is a positive zero, not -0.0
        assert repr(gamma_ratio(-1, 3, FLOATING)) == "0.0"

    @pytest.mark.parametrize("x,k", [(-171, 172), (-200, 300)])
    def test_zero_factor_after_an_overflowing_head(self, x, k):
        # the float product of the negative head overflows before it reaches
        # the zero factor: still exactly zero, never inf * 0 = nan
        assert gamma_ratio(x, k, RATIONAL) == 0
        assert repr(gamma_ratio(x, k, FLOATING)) == "0.0"

    @pytest.mark.parametrize("x,k,expected", [
        (Fraction(-601, 2), 400, -math.inf),  # 301 negative factors
        (Fraction(-7, 2), 400, math.inf),  # 4 negative factors
        (Fraction(3, 2), 10 ** 5, math.inf),
    ])
    def test_overflow_is_signed_by_every_factor(self, x, k, expected):
        assert gamma_ratio(x, k, FLOATING) == expected
        if k < 1000:
            assert (gamma_ratio(x, k, RATIONAL) > 0) == (expected > 0)

    def test_negative_noninteger_start(self):
        want = Fraction(-5, 2) * Fraction(-3, 2) * Fraction(-1, 2) * Fraction(1, 2)
        assert gamma_ratio("-5/2", 4, RATIONAL) == want
        assert gamma_ratio(-2.5, 4, FLOATING) == pytest.approx(float(want), rel=1e-12)

    @pytest.mark.parametrize("x,expected", [(-5, -60), ("-11/2", Fraction(-693, 8))])
    def test_negative_head_covering_every_factor(self, x, expected):
        # every factor x, x+1, x+2 is negative
        assert gamma_ratio(x, 3, RATIONAL) == expected
        assert gamma_ratio(x, 3, FLOATING) == float(expected)

    def test_large_lag_stays_finite(self):
        w = binomial_weight(0.5, 800, FLOATING)
        assert math.isfinite(w) and w > 0


class TestSumKernel:
    """Every fractional sum of order alpha weighs f(s) by ``w(alpha, lag)``,
    whatever its kind and side."""

    def test_order_one_is_unit(self):
        for lag in range(6):
            assert binomial_weight(1, lag, RATIONAL) == 1

    def test_half_order_lag_zero(self):
        # delta-left at t = 1.5, s = 1 has lag 0
        assert binomial_weight("1/2", 0, RATIONAL) == 1

    def test_half_order_lag_one(self):
        # nabla-left at t = 2, s = 1 has lag 1
        assert binomial_weight("1/2", 1, RATIONAL) == Fraction(1, 2)

    @pytest.mark.parametrize("backend", [FLOATING, RATIONAL])
    def test_negative_lag_rejected(self, backend):
        with pytest.raises(DomainError, match="lag must be nonnegative"):
            binomial_weight("1/2", -1, backend)

    def test_kernel_vector_matches_oracle(self):
        beta = Fraction(3, 4)
        vec = kernel_vector(beta, 10, RATIONAL)
        for lag, w in enumerate(vec):
            assert w == oracles.ratio_coeff(lag, beta)

    @pytest.mark.parametrize("backend", [FLOATING, RATIONAL])
    @pytest.mark.parametrize("count", [0, 1, 2, 7])
    def test_kernel_vector_has_count_weights(self, backend, count):
        assert len(kernel_vector(Fraction(1, 3), count, backend)) == count

    @pytest.mark.parametrize("backend", [FLOATING, RATIONAL])
    @pytest.mark.parametrize("count", [-1, -5])
    def test_kernel_vector_rejects_negative_count(self, backend, count):
        with pytest.raises(DomainError):
            kernel_vector(Fraction(1, 3), count, backend)

    @given(beta=st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12)),
           count=st.integers(0, 40))
    @settings(max_examples=40, deadline=None)
    def test_integer_recurrence_matches_oracle(self, beta, count):
        # negative, integer and above-one orders, poles included
        vec = kernel_vector(beta, count, RATIONAL)
        assert vec == [oracles.ratio_coeff(lag, beta) for lag in range(count)]
        assert all(type(w) is Fraction for w in vec)

    @pytest.mark.parametrize("beta", [-2, -1, 1, 2, 3])
    def test_integer_orders_give_exact_binomials(self, beta):
        # compared by repr, so 1.9999999999999993 for 2 or a -0.0 past a
        # zero factor fails
        want = [repr(float(w)) for w in kernel_vector(beta, 9, RATIONAL)]
        assert [repr(w) for w in kernel_vector(beta, 9, FLOATING)] == want
        assert [repr(binomial_weight(beta, lag, FLOATING)) for lag in range(9)] == want
        assert [repr(float(binomial_weight(beta, lag, RATIONAL))) for lag in range(9)] == want

    def test_a_string_order_reads_alike_on_both_backends(self):
        want = [1, -0.5, -0.125, -0.0625, -0.0390625]
        assert [float(w) for w in kernel_vector("-1/2", 5, RATIONAL)] == want
        assert kernel_vector("-1/2", 5, FLOATING) == want
        assert binomial_weight("-1/2", 4, FLOATING) == want[4]

    @pytest.mark.parametrize("beta", [Fraction(1, 3), Fraction(-7, 12), Fraction(13, 12),
                                      Fraction(1, 2)])
    def test_float_weights_stay_within_three_roundings_a_step(self, beta):
        # each step rounds beta + lag - 1, the product and the quotient, so
        # weight lag is within 3 * lag * 2**-53 of the exact recurrence on
        # the same double beta.  At the apply benchmark's floating length
        # 2048 the worst measured is 0.91 * lag * 2**-53 (beta = 13/12) and
        # 3.9e-14 overall
        b = as_fraction(float(beta))
        got = kernel_vector(float(beta), 2048, FLOATING)
        want = Fraction(1)
        for lag in range(1, 2048):
            want = want * (b + lag - 1) / lag
            # cross-multiplied, since subtracting Fractions this wide is slow
            num, den = got[lag].as_integer_ratio()
            err = abs(num * want.denominator - want.numerator * den) / abs(want.numerator * den)
            assert err <= 3 * lag * 2.0**-53, lag

    def test_backend_agreement(self):
        for den in range(2, 13):
            beta = Fraction(den + 1, den)
            exact = kernel_vector(beta, 31, RATIONAL)
            approx = kernel_vector(float(beta), 31, FLOATING)
            for e, a in zip(exact, approx):
                assert relerr(float(e), a) < 1e-9


class TestFactorialIdentities:
    # difference and product rules at sampled admissible points

    @given(t=small_fracs, alpha=small_fracs)
    @settings(max_examples=60, deadline=None)
    def test_forward_difference_rule_exact(self, t, alpha):
        try:
            lhs = falling(t + 1, alpha, RATIONAL) - falling(t, alpha, RATIONAL)
            rhs = alpha * falling(t, alpha - 1, RATIONAL)
        except (DomainError, PoleAmbiguous, UnitMismatch):
            return
        assert lhs - rhs == 0

    @given(t=small_fracs, mu=small_fracs)
    @settings(max_examples=60, deadline=None)
    def test_shift_rule_exact(self, t, mu):
        try:
            lhs = (t - mu) * falling(t, mu, RATIONAL)
            rhs = falling(t, mu + 1, RATIONAL)
        except (DomainError, PoleAmbiguous, UnitMismatch):
            return
        assert lhs - rhs == 0

    @given(t=small_fracs, alpha=small_fracs, beta=small_fracs)
    @settings(max_examples=60, deadline=None)
    def test_split_rule_exact(self, t, alpha, beta):
        try:
            lhs = falling(t, alpha + beta, RATIONAL)
            rhs = falling(t - beta, alpha, RATIONAL) * falling(t, beta, RATIONAL)
        except (DomainError, PoleAmbiguous, UnitMismatch):
            return
        assert lhs - rhs == 0

    def test_monotone_in_base_for_positive_order(self):
        # t <= r implies t^(alpha) <= r^(alpha) once both sit past alpha - 1
        for alpha in (0.5, 1.25, 2.0):
            pts = [alpha - 0.5 + k / 2 for k in range(1, 8)]
            vals = [falling(t, alpha, FLOATING) for t in pts]
            assert all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))

    def test_power_inequality_spot_checks(self):
        # 0 < alpha < 1: t^(alpha*nu) >= (t^(nu))^alpha at admissible points
        for t, nu, alpha in [(4.0, 1.5, 0.5), (6.0, 2.0, 0.25), (5.0, 1.0, 0.75)]:
            lhs = falling(t, alpha * nu, FLOATING)
            rhs = falling(t, nu, FLOATING) ** alpha
            assert lhs >= rhs - 1e-12


class TestBackends:
    def test_bit_cap_overflow(self):
        tight = RationalBackend(bit_cap=16)
        with pytest.raises(BackendOverflow):
            gamma_ratio(Fraction(1, 97), 30, tight)

    def test_unit_mismatch_on_add(self):
        a = falling(Fraction(1, 2), Fraction(1, 3), RATIONAL)
        b = falling(Fraction(1, 2), Fraction(1, 5), RATIONAL)
        with pytest.raises(UnitMismatch):
            _ = a + b

    def test_gamma_value_ordering(self):
        a = falling(Fraction(7, 2), Fraction(1, 2), RATIONAL)
        assert a > 0
        assert (-a) < 0
        assert float(abs(-a)) == pytest.approx(float(a))

    def test_exact_gamma_quotient_caps_only_its_final_coefficient(self):
        """At a non-integer gap ``falling`` guards the reduced quotient once,
        not the products that reduce each gamma: at t = 901/2, alpha = 1/3
        the coefficient of Gamma(t + 1 - alpha) passes the 4,096-bit cap,
        and the quotient, far inside it, is returned."""
        t, alpha = Fraction(901, 2), Fraction(1, 3)
        capped, seen = RationalBackend(), []
        guard = capped.guard
        capped.guard = lambda value: guard(seen.append(value) or value)
        value = falling(t, alpha, capped)
        assert isinstance(value, GammaValue) and seen == [value]
        assert max(value.coef.numerator.bit_length(), value.coef.denominator.bit_length()) < 1500
        assert kernels._reduce_gamma(t + 1 - alpha)[0].numerator.bit_length() > capped.bit_cap
        assert float(value) == pytest.approx(falling(t, alpha, FLOATING), rel=1e-9)

    def test_gamma_ratio_guard_fires_at_the_first_factor_past_the_cap(self):
        tight = RationalBackend(bit_cap=64)
        seen, guard = [], tight.guard
        tight.guard = lambda value: guard(seen.append(value) or value)
        with pytest.raises(BackendOverflow):
            gamma_ratio(Fraction(1, 2), 10 ** 4, tight)
        # every partial product is guarded, and the first past the cap raises
        assert len(seen) > 1 and seen == [math.prod(Fraction(1, 2) + j for j in range(n))
                        for n in range(1, len(seen) + 1)]
        assert [max(x.numerator.bit_length(), x.denominator.bit_length()) > 64
                for x in seen[-2:]] == [False, True]

    def test_kernel_guard_fires_at_the_first_weight_past_the_cap(self):
        beta = Fraction(1, 7)
        tight = RationalBackend(bit_cap=64)
        first = next(lag for lag in range(60)
                     if oracles.ratio_coeff(lag, beta).denominator.bit_length() > 64)
        assert len(kernel_vector(beta, first, tight)) == first
        with pytest.raises(BackendOverflow):
            kernel_vector(beta, first + 1, tight)

    def test_run_table_overflows_where_a_cold_build_does(self):
        beta = Fraction(1, 7)
        first = next(lag for lag in range(60)
                     if oracles.ratio_coeff(lag, beta).denominator.bit_length() > 64)
        run = RationalBackend(bit_cap=64).run_scoped(first + 8)
        # the build at first + 8 weights overflows; the table falls back to
        # the requested count, which a cold build also serves
        assert weights(kernel(beta, first, run)) == kernel_vector(beta, first, RATIONAL)
        with pytest.raises(BackendOverflow):
            kernel(beta, first + 1, run)

    def test_run_table_serves_prefixes_of_one_build(self):
        run = RATIONAL.run_scoped(12)
        beta = Fraction(-5, 12)
        key = (beta.numerator, beta.denominator)
        nums, d = kernel(beta, 3, run)
        assert len(nums) == 12 and weights(run.kernels[key]) == kernel_vector(beta, 12, RATIONAL)
        assert [Fraction(x, d) for x in nums] == kernel_vector(beta, 12, RATIONAL)
        assert kernel(beta, 7, run) is run.kernels[key]
        dirty = weights(kernel(beta, 4, run.with_fault()))
        assert dirty[1] == beta * Fraction(1 + 1e-6) and dirty[2:] == weights(run.kernels[key])[2:]
        assert weights(kernel(beta, 13, run)) == kernel_vector(beta, 13, RATIONAL)
        assert RATIONAL.kernels is None and weights(kernel(beta, 2, RATIONAL)) == [1, beta]

    def test_faulty_backend_owns_its_table(self):
        run = RATIONAL.run_scoped(12)
        beta = Fraction(-5, 12)
        clean = kernel(beta, 12, run)
        bad = run.with_fault()
        assert bad.kernels == {} and bad.kernel_length == 12
        assert weights(kernel(beta, 12, bad)) != weights(clean)
        assert kernel(beta, 12, run) is clean
        assert weights(clean) == kernel_vector(beta, 12, RATIONAL)
        assert run.fault is None and RATIONAL.fault is None and RATIONAL.kernels is None

    @pytest.mark.parametrize("backend", [RATIONAL, FLOATING, RATIONAL.run_scoped(9),
                                         FLOATING.run_scoped(9)])
    def test_fault_changes_the_lag_one_weight_only(self, backend):
        for beta in (Fraction(1, 2), Fraction(-7, 12), Fraction(2)):
            clean = weights(kernel(beta, 9, backend))
            dirty = weights(kernel(beta, 9, backend.with_fault()))
            assert [lag for lag in range(9) if dirty[lag] != clean[lag]] == [1]
            assert dirty[1] == clean[1] * backend.scalar(1 + 1e-6)
            nums, den = kernel(beta, 9, backend.with_fault())
            if backend.exact:
                assert all(isinstance(x, int) for x in nums)
            else:
                assert den == 1 and list(nums[:9]) == dirty[:9]
            assert weights(kernel(beta, 9, backend)) == clean


class TestGammaValue:
    """Field arithmetic and ordering of ``coef * prod Gamma(r)**e`` values."""

    g = GammaValue.make(Fraction(3, 2), {Fraction(1, 2): 1})
    h = GammaValue.make(Fraction(-1, 4), {Fraction(1, 2): 1})
    u = GammaValue.make(Fraction(1), {Fraction(1, 3): 2})

    def test_division_subtracts_monomials(self):
        g, h, u = self.g, self.h, self.u
        assert type(g / h) is Fraction and g / h == -6
        assert g / g == 1
        quotient = g / u
        assert (quotient.coef, quotient.units) == (
            Fraction(3, 2), ((Fraction(1, 3), -2), (Fraction(1, 2), 1)))
        assert (g / 3).coef == Fraction(1, 2) and (g / 3).units == g.units
        inverse = 3 / g
        assert (inverse.coef, inverse.units) == (2, ((Fraction(1, 2), -1),))
        assert float(inverse) == pytest.approx(3 / float(g))

    def test_ordering_within_one_monomial_and_against_zero(self):
        g, h = self.g, self.h
        assert h < g and h <= g and g <= g and g >= g and g > h and g >= h
        assert not (g < h or g <= h or h >= g or h > g or g < g or g > g)
        assert g > 0 and g >= 0 and h < 0 and h <= 0 and 0 < g and 0 >= h
        assert not (g <= 0 or h >= 0 or g < 0 or h > 0)

    @pytest.mark.parametrize("compare", [
        lambda a, b: a < b, lambda a, b: a <= b, lambda a, b: a > b, lambda a, b: a >= b])
    def test_ordering_across_monomials_is_refused(self, compare):
        with pytest.raises(UnitMismatch, match=r"cannot order .* against 1\*G"):
            compare(self.g, self.u)
        with pytest.raises(UnitMismatch, match="cannot order .* against rational 1$"):
            compare(self.g, 1)

    def test_equality_and_hash(self):
        g, h, u = self.g, self.h, self.u
        twin = GammaValue.make(Fraction(3, 2), {Fraction(1, 2): 1})
        assert g == twin and hash(g) == hash(twin) and len({g, twin, h}) == 2
        assert g != h and g != u
        # a nonempty monomial is irrational: no rational equals it
        assert not (g == 0 or g == Fraction(3, 2) or g == 1.5)
        assert GammaValue(Fraction(0), g.units) == 0
        assert (g == object()) is False

    def test_equality_with_a_string_is_left_to_the_string(self):
        """A string is neither a number nor a ``GammaValue``: it compares
        unequal, and is never parsed, however it reads."""
        a = falling(Fraction(1, 2), Fraction(1, 3), RATIONAL)
        assert isinstance(a, GammaValue)
        for text in ("abc", "inf", "1/0", "0", ""):
            assert a.__eq__(text) is NotImplemented
            assert not (a == text or text == a) and a != text
        assert a == a and a != 0 and a != 0.0 and a != float("nan") and a != Fraction(1, 2)
