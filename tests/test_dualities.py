import random
from fractions import Fraction

import pytest

from discfrac.backends import FLOATING, RATIONAL
from discfrac.dualities import (
    DUAL_IDS,
    IDENTITIES,
    Q_IDS,
    RELATION_IDS,
    IdentityId,
    check_delta_nabla_dual,
    check_identity,
    check_q_identity,
    check_relation,
    random_instance,
    run_identity_suite,
)
from discfrac.errors import DomainError
from discfrac.grids import Direction, make_grid_function
from discfrac.kernels import fault_injection


def test_identity_id_is_complete():
    assert len(list(IdentityId)) == 17
    assert set(DUAL_IDS) | set(Q_IDS) | set(RELATION_IDS) == set(IdentityId)


def test_identity_table_has_one_row_per_id():
    assert list(IDENTITIES) == list(IdentityId)


def test_table_direction_matches_random_instances():
    for which, row in IDENTITIES.items():
        rng = random.Random(which.value)
        built = {random_instance(which, rng, RATIONAL)[0].direction for _ in range(40)}
        expected = set(Direction) if row.direction is None else {row.direction}
        assert built == expected, which


def test_zero_function_passes_every_identity():
    for which in IdentityId:
        f, _ = random_instance(which, random.Random(0), RATIONAL)
        zero = f.with_values([Fraction(0)] * f.length)
        report = check_identity(zero, Fraction(1, 2), which)
        assert report.passed and report.max_abs_residual == 0


def test_left_dual_sum_on_ramp():
    f = make_grid_function(0, Direction.FORWARD, list(range(8)), RATIONAL)
    report = check_delta_nabla_dual(f, Fraction(1, 2), IdentityId.LEFT_DUAL_SUM)
    assert report.passed and report.max_abs_residual == 0
    assert len(report.residuals) == 8


def test_right_dual_diff_random():
    rng = random.Random(7)
    vals = [Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(8)]
    f = make_grid_function(10, Direction.BACKWARD, vals, RATIONAL)
    report = check_delta_nabla_dual(f, Fraction(3, 2), IdentityId.RIGHT_DUAL_DIFF)
    assert report.passed and report.max_abs_residual == 0


def test_q_identity_on_ramp():
    f = make_grid_function(0, Direction.FORWARD, list(range(8)), RATIONAL)
    report = check_q_identity(f, Fraction(1, 2), IdentityId.Q_SUM_DELTA)
    assert report.passed and report.max_abs_residual == 0


def test_q_identity_constant_fixed_point():
    f = make_grid_function(0, Direction.FORWARD, [3] * 7, RATIONAL)
    for which in Q_IDS:
        report = check_q_identity(f, Fraction(5, 4), which)
        assert report.passed and report.max_abs_residual == 0


def test_relation_constant_low_order():
    f = make_grid_function(0, Direction.FORWARD, [5] * 6, RATIONAL)
    report = check_relation(f, Fraction(1, 2), IdentityId.RELATE_DELTA_LEFT)
    assert report.passed and report.max_abs_residual == 0


def test_relation_integer_order_compared_on_intersection():
    rng = random.Random(12)
    vals = [Fraction(rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(9)]
    f = make_grid_function(0, Direction.FORWARD, vals, RATIONAL)
    g = make_grid_function(8, Direction.BACKWARD, vals, RATIONAL)
    for grid, which in ((f, IdentityId.RELATE_NABLA_LEFT), (g, IdentityId.RELATE_NABLA_RIGHT)):
        for order in (1, 2):
            report = check_relation(grid, order, which)
            assert report.passed and report.max_abs_residual == 0
    for order in (1, 2):
        report = check_relation(f, order, IdentityId.RELATE_DELTA_LEFT)
        assert report.passed and report.max_abs_residual == 0


def test_caputo_inversion_both_directions():
    rng = random.Random(3)
    vals = [Fraction(rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(8)]
    fwd = make_grid_function(0, Direction.FORWARD, vals, RATIONAL)
    bwd = make_grid_function(7, Direction.BACKWARD, vals, RATIONAL)
    for grid in (fwd, bwd):
        report = check_relation(grid, Fraction(3, 2), IdentityId.CAPUTO_INVERSION)
        assert report.passed and report.max_abs_residual == 0


def test_wrong_category_rejected():
    f = make_grid_function(0, Direction.FORWARD, [1, 2, 3, 4], RATIONAL)
    with pytest.raises(DomainError):
        check_delta_nabla_dual(f, Fraction(1, 2), IdentityId.Q_SUM_DELTA)
    with pytest.raises(DomainError):
        check_q_identity(f, Fraction(1, 2), IdentityId.LEFT_DUAL_SUM)
    with pytest.raises(DomainError):
        check_relation(f, Fraction(1, 2), IdentityId.LEFT_DUAL_SUM)


def test_q_identity_needs_forward_grid():
    g = make_grid_function(5, Direction.BACKWARD, [1, 2, 3], RATIONAL)
    with pytest.raises(DomainError):
        check_q_identity(g, Fraction(1, 2), IdentityId.Q_SUM_DELTA)


def test_domain_contract_rejects_off_by_one():
    from discfrac.dualities import _expect_origin, _paired

    f = make_grid_function(0, Direction.FORWARD, [1, 2, 3], RATIONAL)
    with pytest.raises(DomainError):
        _expect_origin(f, 1, "shifted output")
    with pytest.raises(DomainError):
        _paired([0, 1, 2], [1, 2, 3], [1, 2])


@pytest.mark.parametrize("backend", [RATIONAL, FLOATING])
def test_suite_small_run_all_pass(backend):
    results = run_identity_suite(instances=6, seed=1, backend=backend)
    assert len(results) == 17
    for r in results:
        assert r.passed, f"{r.identity} failed with residual {r.max_abs_residual}"
        if backend.exact:
            assert r.max_abs_residual == 0
        else:
            assert float(abs(r.max_abs_residual)) <= 1e-10


def test_corrupted_kernel_is_detected():
    with fault_injection(1 + 1e-6):
        results = run_identity_suite(
            ids=[IdentityId.Q_SUM_DELTA, IdentityId.LEFT_DUAL_SUM],
            instances=5,
            seed=2,
            backend=FLOATING,
        )
    # a uniformly scaled kernel leaves sum-vs-sum identities balanced, so
    # corrupt runs are caught by the relation checks instead
    with fault_injection(1 + 1e-6):
        rel = run_identity_suite(
            ids=[IdentityId.RELATE_DELTA_LEFT, IdentityId.CAPUTO_INVERSION],
            instances=5,
            seed=2,
            backend=FLOATING,
        )
    assert any(not r.passed for r in rel)


def test_report_record_shape():
    results = run_identity_suite(ids=[IdentityId.LEFT_DUAL_SUM], instances=3,
                                 seed=0, backend=RATIONAL)
    rec = results[0].as_record()
    assert rec["id"] == "LEFT_DUAL_SUM"
    assert rec["pass"] is True
    assert rec["instances"] == 3


def test_seeded_suite_is_deterministic():
    a = run_identity_suite(ids=[IdentityId.Q_DIFF_NABLA], instances=4, seed=9,
                           backend=FLOATING)
    b = run_identity_suite(ids=[IdentityId.Q_DIFF_NABLA], instances=4, seed=9,
                           backend=FLOATING)
    assert a[0].max_abs_residual == b[0].max_abs_residual
