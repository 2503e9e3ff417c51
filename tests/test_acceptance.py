"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import random
import time
from fractions import Fraction

from discfrac.backends import FLOATING, RATIONAL
from discfrac.dualities import Q_IDS, RELATION_IDS, run_identity_suite
from discfrac.errors import DomainError, PoleAmbiguous
from discfrac.grids import Direction, integer_difference, make_grid_function, q_reflect
from discfrac.kernels import falling, rising
from discfrac.monotone import (
    THEOREMS,
    evaluate_theorem,
    make_case,
    min_live_length,
    search_campaign,
    transport,
)
from discfrac.operators import (
    Family,
    Formulation,
    Kind,
    OperatorSpec,
    apply_operator,
    caputo_difference,
    caputo_from_riemann,
    fractional_sum,
    riemann_difference,
)

import oracles


def verdict(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, f"criterion {number} ({name}) failed"


def rand_fraction(rng, lo=-10, hi=10, max_den=4):
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def rand_order(rng, max_den=12):
    den = rng.randint(2, max_den)
    num = rng.randrange(1, 2 * den)
    if num == den:
        num += 1
    return Fraction(num, den)


def rand_values(rng, length, max_den=4):
    return [Fraction(rng.randint(-8, 8), rng.randint(1, max_den)) for _ in range(length)]


# ---------------------------------------------------------------------------


def _kernel_identity_residuals(backend):
    """Residual generator per factorial-function identity; yields
    (identity_name, residual, scale) triples from seeded samples."""
    rng = random.Random(2024)

    def sample():
        return rand_fraction(rng, -12, 12, 4), rand_fraction(rng, -3, 3, 4)

    def guarded(fn):
        try:
            return fn()
        except (DomainError, PoleAmbiguous):
            return None

    def scale_of(*vals):
        floats = [abs(float(v)) for v in vals]
        return max(1.0, *floats)

    identities = {}

    def diff_rule():
        t, a = sample()
        vals = guarded(lambda: (
            falling(t + 1, a, backend), falling(t, a, backend),
            falling(t, a - 1, backend)))
        if vals is None:
            return None
        x, y, z = vals
        return (x - y) - backend.scalar(a) * z, scale_of(x, y, z)

    def shift_rule():
        t, mu = sample()
        vals = guarded(lambda: (falling(t, mu, backend), falling(t, mu + 1, backend)))
        if vals is None:
            return None
        x, y = vals
        return backend.scalar(t - mu) * x - y, scale_of(x, y)

    def split_rule():
        t, a = sample()
        b = rand_fraction(rng, -3, 3, 4)
        vals = guarded(lambda: (
            falling(t, a + b, backend), falling(t - b, a, backend),
            falling(t, b, backend)))
        if vals is None:
            return None
        x, y, z = vals
        return x - y * z, scale_of(x, y, z)

    def kernel_shift_in_s():
        x, a = sample()  # x plays s - t
        vals = guarded(lambda: (
            falling(x, a - 1, backend), falling(x - 1, a - 1, backend),
            falling(x - 1, a - 2, backend)))
        if vals is None:
            return None
        u, v, w = vals
        return (u - v) - backend.scalar(a - 1) * w, scale_of(u, v, w)

    def kernel_shift_in_t():
        x, a = sample()
        vals = guarded(lambda: (
            falling(x - 1, a - 1, backend), falling(x, a - 1, backend),
            falling(x - 1, a - 2, backend)))
        if vals is None:
            return None
        u, v, w = vals
        return (u - v) + backend.scalar(a - 1) * w, scale_of(u, v, w)

    def rising_diff_rule():
        t, a = sample()
        vals = guarded(lambda: (
            rising(t, a, backend), rising(t - 1, a, backend),
            rising(t, a - 1, backend)))
        if vals is None:
            return None
        x, y, z = vals
        return (x - y) - backend.scalar(a) * z, scale_of(x, y, z)

    def rising_equals_falling():
        t, a = sample()
        vals = guarded(lambda: (rising(t, a, backend), falling(t + a - 1, a, backend)))
        if vals is None:
            return None
        x, y = vals
        return x - y, scale_of(x, y)

    def rising_shift_in_t():
        x, a = sample()  # x plays s - t + 1
        vals = guarded(lambda: (
            rising(x - 1, a, backend), rising(x, a, backend),
            rising(x, a - 1, backend)))
        if vals is None:
            return None
        u, v, w = vals
        return (u - v) + backend.scalar(a) * w, scale_of(u, v, w)

    identities["falling difference rule"] = diff_rule
    identities["falling shift rule"] = shift_rule
    identities["falling split rule"] = split_rule
    identities["kernel shift in s"] = kernel_shift_in_s
    identities["kernel shift in t"] = kernel_shift_in_t
    identities["rising difference rule"] = rising_diff_rule
    identities["rising equals shifted falling"] = rising_equals_falling
    identities["rising shift in t"] = rising_shift_in_t
    return identities


def test_criterion_1_kernel_identity_suite():
    t0 = time.perf_counter()
    for backend in (RATIONAL, FLOATING):
        for name, gen in _kernel_identity_residuals(backend).items():
            checked = 0
            while checked < 500:
                out = gen()
                if out is None:
                    continue
                res, scale = out
                if backend.exact:
                    assert res == 0, f"{name}: exact residual {res}"
                else:
                    assert abs(res) <= 1e-10 * scale, f"{name}: residual {res}"
                checked += 1
    elapsed = time.perf_counter() - t0
    verdict(1, f"kernel identity suite ({elapsed:.1f}s)", elapsed < 5.0)


def test_criterion_2_dual_identity_suite():
    t0 = time.perf_counter()
    ok = True
    for backend in (RATIONAL, FLOATING):
        results = run_identity_suite(instances=200, seed=17, backend=backend)
        assert len(results) == 17
        for r in results:
            ok &= r.passed
            if backend.exact:
                ok &= r.max_abs_residual == 0
            else:
                ok &= float(abs(r.max_abs_residual)) <= 1e-10
    elapsed = time.perf_counter() - t0
    verdict(2, f"dual identity suite 17x200x2 ({elapsed:.1f}s)", ok and elapsed < 60.0)


def test_criterion_3_direct_vs_composed():
    rng = random.Random(33)
    ok = True
    for _ in range(100):
        length = rng.randint(4, 10)
        alpha = rand_order(rng)
        vals = rand_values(rng, length)
        for backend in (RATIONAL, FLOATING):
            scal = [backend.scalar(v) for v in vals]
            f = make_grid_function(rng.randint(-3, 3), Direction.FORWARD, scal, backend)
            g = make_grid_function(rng.randint(-3, 3), Direction.BACKWARD, scal, backend)
            for kind in (Kind.DELTA, Kind.NABLA):
                for grid in (f, g):
                    comp = riemann_difference(OperatorSpec(kind, Family.RIEMANN, alpha), grid)
                    direct = riemann_difference(
                        OperatorSpec(kind, Family.RIEMANN, alpha, Formulation.DIRECT), grid
                    )
                    assert comp.origin == direct.origin
                    for x, y in zip(comp.values, direct.values):
                        if backend.exact:
                            ok &= (x - y) == 0
                        else:
                            ok &= abs(x - y) <= 1e-10 * max(1.0, abs(x), abs(y))
    verdict(3, "direct vs composed Riemann forms", ok)


def test_criterion_4_riemann_caputo_relations():
    ok = True
    results = run_identity_suite(
        ids=list(RELATION_IDS), instances=100, seed=4, backend=RATIONAL
    )
    for r in results:
        ok &= r.passed and r.max_abs_residual == 0
    # low-order special case: the inverted pipeline returns f(t) - f(start)
    rng = random.Random(444)
    for _ in range(100):
        vals = rand_values(rng, rng.randint(3, 10))
        f = make_grid_function(rng.randint(-3, 3), Direction.FORWARD, vals, RATIONAL)
        alpha = Fraction(rng.randint(1, 11), 12)
        cap = caputo_difference(OperatorSpec(Kind.NABLA, Family.CAPUTO, alpha), f)
        w = [oracles.ratio_coeff(k, alpha) for k in range(cap.length)]
        for m in range(cap.length):
            inverted = sum(w[m - j] * cap.values[j] for j in range(m + 1))
            ok &= inverted == f.values[m + 1] - f.values[0]
    verdict(4, "Riemann-Caputo relations and inversion", ok)


def test_criterion_5_inverse_operator_initial_values():
    rng = random.Random(55)
    ok = True
    for n in (1, 2, 3):
        for _ in range(10):
            length = rng.randint(n + 2, 12)
            vals = rand_values(rng, length)
            a = Fraction(rng.randint(-3, 3))
            f = make_grid_function(a, Direction.FORWARD, vals, RATIONAL)
            u = fractional_sum(OperatorSpec(Kind.DELTA, Family.SUM, n), f)
            u_ext = u
            for _ in range(n):
                u_ext = u_ext.prepend_zero()
            back = integer_difference(u_ext, "delta", n)
            ok &= back.values == f.values and back.origin == f.origin
            ok &= all(
                oracles.delta_left_sum(f.mapping(), a, Fraction(n), a + n - j) == 0
                for j in range(1, n + 1)
            )

            b = a + length - 1
            g = make_grid_function(b, Direction.BACKWARD, vals, RATIONAL)
            u = fractional_sum(OperatorSpec(Kind.DELTA, Family.SUM, n), g)
            u_ext = u
            for _ in range(n):
                u_ext = u_ext.prepend_zero()
            back = integer_difference(u_ext, "nabla", n, signed=True)
            ok &= back.values == g.values and back.origin == g.origin

            y = fractional_sum(OperatorSpec(Kind.NABLA, Family.SUM, n), f)
            y_ext = y
            for _ in range(n):
                y_ext = y_ext.prepend_zero()
            back = integer_difference(y_ext, "nabla", n)
            ok &= back.values[1:] == f.values[1:]
            ok &= all(
                integer_difference(y_ext, "nabla", i).value_at(a) == 0 for i in range(n)
            )

            z = fractional_sum(OperatorSpec(Kind.NABLA, Family.SUM, n), g)
            z_ext = z
            for _ in range(n):
                z_ext = z_ext.prepend_zero()
            back = integer_difference(z_ext, "delta", n, signed=True)
            ok &= back.values[1:] == g.values[1:]
            ok &= all(
                integer_difference(z_ext, "delta", i, signed=True).value_at(b) == 0
                for i in range(n)
            )
    verdict(5, "inverse-operator initial value identities", ok)


def test_criterion_6_reflection_suite():
    ok = True
    results = run_identity_suite(ids=list(Q_IDS), instances=100, seed=6, backend=RATIONAL)
    for r in results:
        ok &= r.passed and r.max_abs_residual == 0
    rng = random.Random(66)
    for _ in range(100):
        length = rng.randint(3, 10)
        vals = rand_values(rng, length)
        f = make_grid_function(0, Direction.FORWARD, vals, RATIONAL)
        b = length - 1
        ok &= q_reflect(q_reflect(f, 0, b), 0, b) == f
        qf = q_reflect(f, 0, b)
        lhs = q_reflect(integer_difference(f, "nabla", 1), 0, b)
        rhs = integer_difference(qf, "delta", 1)
        ok &= all(-x == y for x, y in zip(lhs.values, rhs.values))
        ok &= lhs.points() == rhs.points()
    verdict(6, "reflection identity suite", ok)


def test_criterion_7_monotone_exhaustive_campaigns():
    t0 = time.perf_counter()
    values = [Fraction(k, 2) for k in range(-2, 3)]
    total_counterexamples = 0
    missing_witness = []
    for tid in THEOREMS:
        length = max(6, min_live_length(tid))
        results = search_campaign(tid, length, values, None, "exhaustive",
                                  budget=500_000, seed=0, k_cap=64)
        total_counterexamples += sum(len(r.counterexamples) for r in results)
        if not all(r.witness is not None for r in results):
            missing_witness.append(tid)
    elapsed = time.perf_counter() - t0
    ok = total_counterexamples == 0 and not missing_witness and elapsed < 600.0
    verdict(
        7,
        f"exhaustive campaigns, {len(THEOREMS)} theorems, 0 counterexamples "
        f"({elapsed:.1f}s)",
        ok,
    )


def test_criterion_8_proof_route_coherence():
    ok = True
    rng = random.Random(88)
    for _ in range(200):
        vals = rand_values(rng, rng.randint(4, 10), max_den=3)
        order = Fraction(rng.randint(13, 23), 12)
        if order == 1:
            order += Fraction(1, 24)
        case = make_case("T_JEPP", vals, order)
        direct = evaluate_theorem(case)
        routed = evaluate_theorem(case, transport)
        ok &= [m for _, m in direct.hypothesis_margins] == [m for _, m in routed.hypothesis_margins]
        ok &= [m for _, m in direct.conclusion_margins] == [m for _, m in routed.conclusion_margins]
        ok &= direct.consistent == routed.consistent
    for _ in range(200):
        vals = rand_values(rng, rng.randint(4, 10), max_den=3)
        order = Fraction(rng.randint(13, 23), 12)
        if order == 1:
            order += Fraction(1, 24)
        case = make_case("T_D1", vals, order, anchor=rng.randint(4, 12))
        direct = evaluate_theorem(case)
        routed = evaluate_theorem(case, transport)
        ok &= [m for _, m in direct.hypothesis_margins] == [m for _, m in routed.hypothesis_margins]
        ok &= [m for _, m in direct.conclusion_margins] == [m for _, m in routed.conclusion_margins]
        ok &= direct.consistent == routed.consistent
    verdict(8, "proof-route coherence, 200 instances per route", ok)


def test_criterion_9_backend_agreement():
    rng = random.Random(99)
    ok = True
    for _ in range(1000):
        length = rng.randint(4, 10)
        alpha = rand_order(rng, max_den=12)
        family = rng.choice([Family.SUM, Family.RIEMANN, Family.CAPUTO])
        kind = rng.choice([Kind.DELTA, Kind.NABLA])
        direction = rng.choice([Direction.FORWARD, Direction.BACKWARD])
        form = Formulation.COMPOSED
        if family is Family.RIEMANN and rng.random() < 0.3:
            form = Formulation.DIRECT
        vals = rand_values(rng, length)
        origin = Fraction(rng.randint(-3, 8))
        exact_grid = make_grid_function(origin, direction, vals, RATIONAL)
        float_grid = make_grid_function(origin, direction, [float(v) for v in vals], FLOATING)
        spec = OperatorSpec(kind, family, alpha, form)
        out_e = apply_operator(spec, exact_grid)
        out_f = apply_operator(spec, float_grid)
        assert out_e.origin == out_f.origin
        for e, x in zip(out_e.values, out_f.values):
            ok &= abs(float(e) - x) <= 1e-9 * max(1.0, abs(float(e)))
    verdict(9, "backend agreement over 1000 applications", ok)


def test_criterion_10_spot_values():
    ones = make_grid_function(0, Direction.FORWARD, [1] * 6, RATIONAL)
    fmap = ones.mapping()
    ok = True

    s = fractional_sum(OperatorSpec(Kind.DELTA, Family.SUM, "1/2"), ones)
    ok &= s.value_at("3/2") == Fraction(3, 2)
    ok &= oracles.delta_left_sum(fmap, Fraction(0), Fraction(1, 2), Fraction(3, 2)) == Fraction(3, 2)

    ns = fractional_sum(OperatorSpec(Kind.NABLA, Family.SUM, "1/2"), ones)
    ok &= ns.value_at(2) == Fraction(3, 2)
    ok &= oracles.nabla_left_sum(fmap, Fraction(0), Fraction(1, 2), Fraction(2)) == Fraction(3, 2)

    r = riemann_difference(OperatorSpec(Kind.DELTA, Family.RIEMANN, "1/2"), ones)
    ok &= r.value_at("1/2") == Fraction(1, 2)
    ok &= oracles.delta_left_riemann(fmap, Fraction(0), Fraction(1, 2), Fraction(1, 2)) == Fraction(1, 2)

    c = caputo_difference(OperatorSpec(Kind.DELTA, Family.CAPUTO, "1/2"), ones)
    ok &= all(v == 0 for v in c.values)
    ok &= all(
        oracles.delta_left_caputo(fmap, Fraction(0), Fraction(1, 2), p) == 0
        for p in c.points()
    )

    # low-order relation at the first output point: Riemann 1/2, correction 1/2
    rel = caputo_from_riemann(OperatorSpec(Kind.DELTA, Family.CAPUTO, "1/2"), ones)
    ok &= rel.value_at("1/2") == 0
    ok &= r.value_at("1/2") - oracles.ratio_coeff(1, Fraction(1, 2)) * 1 == 0

    verdict(10, "spot values against summation oracles", ok)
