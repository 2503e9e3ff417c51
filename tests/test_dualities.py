import hashlib
import json
import random
from fractions import Fraction

import pytest

from discfrac import dualities, grids, kernels, operators
from discfrac.backends import FLOATING, RATIONAL, RationalBackend
from discfrac.cli import main
from discfrac.dualities import (
    DUAL_IDS,
    IDENTITIES,
    Q_IDS,
    RELATION_IDS,
    IdentityId,
    check_identity,
    random_instance,
    run_identity_suite,
)
from discfrac.errors import BackendOverflow, DomainError
from discfrac.grids import Direction, make_grid_function
from discfrac.operators import (
    Family,
    Formulation,
    Kind,
    OperatorSpec,
    cached_spec,
    order_ceiling,
)

COMPOSED = Formulation.COMPOSED


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
    report = check_identity(f, Fraction(1, 2), IdentityId.LEFT_DUAL_SUM)
    assert report.passed and report.max_abs_residual == 0
    assert len(report.residuals) == 8


@pytest.mark.parametrize("which,data,order,points", [
    (IdentityId.LEFT_DUAL_SUM, (0, "forward"), "1/2", [0, 1, 2, 3, 4, 5, 6, 7]),
    (IdentityId.Q_SUM_DELTA, (0, "forward"), "1/2", [Fraction(2 * k + 1, 2) for k in range(8)]),
    (IdentityId.Q_SUM_NABLA, (0, "forward"), "1/2", [1, 2, 3, 4, 5, 6, 7]),
    (IdentityId.RIGHT_DUAL_DIFF, (10, "backward"), "3/2", [7, 6, 5, 4, 3]),
    (IdentityId.CAPUTO_INVERSION, (10, "backward"), "3/2", [9, 8, 7, 6, 5, 4, 3]),
])
def test_residuals_carry_the_stated_points(which, data, order, points):
    f = make_grid_function(*data, list(range(8)), RATIONAL)
    report = check_identity(f, Fraction(order), which)
    assert report.passed
    assert report.residuals == [(Fraction(p), 0) for p in points]
    assert report.as_record()["points"] == len(points)


def test_right_dual_diff_random():
    rng = random.Random(7)
    vals = [Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(8)]
    f = make_grid_function(10, Direction.BACKWARD, vals, RATIONAL)
    report = check_identity(f, Fraction(3, 2), IdentityId.RIGHT_DUAL_DIFF)
    assert report.passed and report.max_abs_residual == 0


def test_q_identity_on_ramp():
    f = make_grid_function(0, Direction.FORWARD, list(range(8)), RATIONAL)
    report = check_identity(f, Fraction(1, 2), IdentityId.Q_SUM_DELTA)
    assert report.passed and report.max_abs_residual == 0


def test_q_identity_constant_fixed_point():
    f = make_grid_function(0, Direction.FORWARD, [3] * 7, RATIONAL)
    for which in Q_IDS:
        report = check_identity(f, Fraction(5, 4), which)
        assert report.passed and report.max_abs_residual == 0


def test_q_sum_delta_at_integer_orders():
    # at an integer order the right-hand delta sum lands on the data lattice
    # past a; its reflection is paired by index like at any other order
    rng = random.Random(5)
    vals = [Fraction(rng.randint(-6, 6), 2) for _ in range(7)]
    for backend in (RATIONAL, FLOATING):
        f = make_grid_function(0, Direction.FORWARD, vals, backend)
        for order in (1, 2, 3):
            report = check_identity(f, order, IdentityId.Q_SUM_DELTA)
            assert report.passed and report.max_abs_residual == 0
            assert [p for p, _ in report.residuals] == [order + k for k in range(7)]


def test_relation_constant_low_order():
    f = make_grid_function(0, Direction.FORWARD, [5] * 6, RATIONAL)
    report = check_identity(f, Fraction(1, 2), IdentityId.RELATE_DELTA_LEFT)
    assert report.passed and report.max_abs_residual == 0


def test_relation_integer_order_compared_on_intersection():
    rng = random.Random(12)
    vals = [Fraction(rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(9)]
    f = make_grid_function(0, Direction.FORWARD, vals, RATIONAL)
    g = make_grid_function(8, Direction.BACKWARD, vals, RATIONAL)
    for grid, which in ((f, IdentityId.RELATE_NABLA_LEFT), (g, IdentityId.RELATE_NABLA_RIGHT)):
        for order in (1, 2):
            report = check_identity(grid, order, which)
            assert report.passed and report.max_abs_residual == 0
    for order in (1, 2):
        report = check_identity(f, order, IdentityId.RELATE_DELTA_LEFT)
        assert report.passed and report.max_abs_residual == 0


def test_caputo_inversion_both_directions():
    rng = random.Random(3)
    vals = [Fraction(rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(8)]
    fwd = make_grid_function(0, Direction.FORWARD, vals, RATIONAL)
    bwd = make_grid_function(7, Direction.BACKWARD, vals, RATIONAL)
    for grid in (fwd, bwd):
        report = check_identity(grid, Fraction(3, 2), IdentityId.CAPUTO_INVERSION)
        assert report.passed and report.max_abs_residual == 0


@pytest.mark.parametrize("which", ["LEFT_DUAL_SUM", None])
def test_an_id_outside_the_table_is_rejected(which):
    f = make_grid_function(0, Direction.FORWARD, [1, 2, 3, 4], RATIONAL)
    with pytest.raises(DomainError, match=f"{which} is not an identity"):
        check_identity(f, Fraction(1, 2), which)


def test_q_identity_needs_forward_grid():
    g = make_grid_function(5, Direction.BACKWARD, [1, 2, 3], RATIONAL)
    for which in Q_IDS:
        with pytest.raises(DomainError, match="Q identities take the data as a forward grid"):
            check_identity(g, Fraction(1, 2), which)


@pytest.mark.parametrize("which", [which for which in DUAL_IDS + RELATION_IDS
                                   if IDENTITIES[which].direction])
def test_a_row_refuses_data_on_the_other_side(which):
    # an operator acts on the side its grid's direction gives, so a left row
    # on backward data would run the right operators: the check refuses it
    want = IDENTITIES[which].direction
    other = Direction.BACKWARD if want is Direction.FORWARD else Direction.FORWARD
    f = make_grid_function(5, other, [1, 2, 3, 4, 5], RATIONAL)
    with pytest.raises(DomainError) as refused:
        check_identity(f, Fraction(1, 2), which)
    assert str(refused.value) == (f"{which.value} takes the data as a {want.value} grid, "
                                  f"got {other.value}")


def test_domain_contract_rejects_off_by_one():
    from discfrac.dualities import _expect_origin, _paired

    f = make_grid_function(0, Direction.FORWARD, [1, 2, 3], RATIONAL)
    with pytest.raises(DomainError, match="LEFT_DUAL_SUM left-hand side: produced origin 0, "
                                          "stated index set starts at 1$"):
        _expect_origin(f, f, 1, 1, IdentityId.LEFT_DUAL_SUM, "left")
    with pytest.raises(DomainError):
        _paired([0, 1, 2], [1, 2, 3], [1, 2])


@pytest.mark.parametrize("which", Q_IDS)
def test_a_q_right_hand_side_one_point_short_is_refused(monkeypatch, which):
    """A Q row states one offset for both sides and pairs its outputs index
    for index from there on: a right-hand output one point short, at its
    stated origin, is refused as a length mismatch."""
    assert IDENTITIES[which].origins[0] == IDENTITIES[which].origins[1]
    name = {Family.SUM: "fractional_sum", Family.RIEMANN: "riemann_difference",
            Family.CAPUTO: "caputo_difference"}[IDENTITIES[which].rhs[1]]
    real = getattr(operators, name)

    def short(spec, g):
        out = real(spec, g)
        if g.direction is Direction.FORWARD:  # the left-hand side
            return out
        nums, den = out.parts
        return out.with_parts(nums[:-1], den)

    _replace_operator(monkeypatch, name, short)
    rng = random.Random(which.value)
    for backend in (RATIONAL, FLOATING):
        f, alpha = random_instance(which, rng, backend)
        with pytest.raises(DomainError, match="^index sets differ: "):
            check_identity(f, alpha, which)


def _replace_operator(monkeypatch, name, replacement):
    """Route every call of operator function ``name`` that a check makes,
    through ``apply_operator`` or directly, to ``replacement``."""
    for module in (operators, dualities):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, replacement)


# one row of each family, a side of it, the operator function that computes
# that side, and which of that function's calls (spec, grid) in the row is
# that side's: a Q row's left operator runs on a forward grid, its right one
# on a backward grid
_SIDE_OPERATORS = [
    (IdentityId.LEFT_DUAL_DIFF, "left", "riemann_difference", lambda s, g: s.kind is Kind.DELTA),
    (IdentityId.LEFT_DUAL_DIFF, "right", "riemann_difference", lambda s, g: s.kind is Kind.NABLA),
    (IdentityId.Q_CAPUTO_NABLA, "left", "caputo_difference",
     lambda s, g: g.direction is Direction.FORWARD),
    (IdentityId.Q_CAPUTO_NABLA, "right", "caputo_difference",
     lambda s, g: g.direction is Direction.BACKWARD),
    (IdentityId.RELATE_DELTA_RIGHT, "left", "caputo_difference", lambda s, g: True),
    (IdentityId.RELATE_DELTA_RIGHT, "right", "caputo_from_riemann", lambda s, g: True),
]


@pytest.mark.parametrize("backend", [RATIONAL, FLOATING])
@pytest.mark.parametrize("which, side, name, picked", _SIDE_OPERATORS)
def test_an_origin_off_by_a_fraction_of_a_step_is_refused(monkeypatch, backend, which, side,
                                                          name, picked):
    """An output origin moved by 1/q, q the order's denominator, is refused
    with the same text on either side: the produced origin, then the stated
    one, which is where the unchanged operator puts its output."""
    real = getattr(operators, name)
    origins = []

    def shifted(spec, g, **kwargs):
        out = real(spec, g, **kwargs)
        if not picked(spec, g):
            return out
        origins.append(out.origin)
        return out.with_parts(*out.parts, origin=out.origin + Fraction(1, spec.order.denominator))

    _replace_operator(monkeypatch, name, shifted)
    rng = random.Random(which.value)
    for _ in range(4):
        f, alpha = random_instance(which, rng, backend)
        with pytest.raises(DomainError) as refused:
            check_identity(f, alpha, which)
        stated = origins[-1]
        assert str(refused.value) == (
            f"{which.value} {side}-hand side: produced origin "
            f"{stated + Fraction(1, alpha.denominator)}, stated index set starts at {stated}")


@pytest.mark.parametrize("which", [which for which in IdentityId if IDENTITIES[which].lhs])
def test_a_cached_spec_is_the_fresh_spec(which):
    """Every spec a check of the row reads: its two operators, for a Caputo
    row also the Riemann specs of ``caputo_from_riemann`` (the composed
    delta one, and the extended nabla one at every order) and the nabla
    Caputo and sum specs of ``caputo_inversion_residual``, and for a
    Riemann row the direct forms at non-integer orders."""
    row = IDENTITIES[which]
    kind, family = row.lhs
    ops = [(*row.lhs, COMPOSED), (*row.rhs, COMPOSED)]
    if family is Family.CAPUTO:
        ops += [(kind, Family.RIEMANN, COMPOSED), (Kind.NABLA, family, COMPOSED),
                (Kind.NABLA, Family.RIEMANN, Formulation.EXTENDED),
                (Kind.NABLA, Family.SUM, COMPOSED)]
    if family is Family.RIEMANN:
        ops += [(*row.lhs, Formulation.DIRECT), (*row.rhs, Formulation.DIRECT)]
    for order in (Fraction(1, 12), Fraction(1, 2), Fraction(1), Fraction(13, 12), Fraction(2),
                  Fraction(23, 12)):
        for *op, form in ops:
            if form is Formulation.DIRECT and order.denominator == 1:
                continue  # the direct form needs a non-integer order
            spec = cached_spec(*op, order.numerator, order.denominator, form)
            fresh = OperatorSpec(*op, order, form)
            assert spec == fresh and hash(spec) == hash(fresh) and repr(spec) == repr(fresh)
            assert spec is cached_spec(*op, order.numerator, order.denominator, form)
            assert spec.n == fresh.n == order_ceiling(order)
            assert (spec.beta, spec.pre, spec.post, spec.drop, spec.shift, spec.corrections) == (
                fresh.beta, fresh.pre, fresh.post, fresh.drop, fresh.shift, fresh.corrections)
    assert cached_spec.cache_info().maxsize is not None


def test_a_suite_builds_each_spec_once(monkeypatch):
    """Both 200-instance suites build at most one ``OperatorSpec`` per
    (operator, order, formulation) they read, the Caputo helpers' specs
    too: every path takes its spec from ``cached_spec``."""
    built = []
    post_init = OperatorSpec.__post_init__

    def counted(spec):
        post_init(spec)
        built.append((spec.kind, spec.family, spec.order, spec.formulation))

    monkeypatch.setattr(OperatorSpec, "__post_init__", counted)
    cached_spec.cache_clear()
    for backend in (RATIONAL, FLOATING):
        run_identity_suite(instances=200, seed=0, backend=backend)
    assert built and len(built) == len(set(built))


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


@pytest.mark.parametrize("backend", [RATIONAL, FLOATING])
def test_corrupted_kernel_is_detected(backend):
    # both sides of a dual or Q identity apply the same kernel, so only the
    # relation checks can see a corrupted lag-1 weight, and all five do
    results = run_identity_suite(instances=50, seed=0, backend=backend.with_fault())
    assert {r.identity for r in results if not r.passed} == set(RELATION_IDS)
    assert sum(r.passed for r in results) == 12
    assert backend.fault is None and backend.kernels is None


@pytest.mark.parametrize("backend", [RATIONAL, FLOATING])
@pytest.mark.parametrize("order", [0, -1])
def test_relation_checks_reject_a_nonpositive_order(backend, order):
    for which in RELATION_IDS:
        direction = IDENTITIES[which].direction or Direction.FORWARD
        f = make_grid_function(0, direction, [1, 2, 3, 4, 5], backend)
        with pytest.raises(DomainError, match="order must be positive"):
            check_identity(f, order, which)


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


# One operator of a Q row and one of a dual row, each made to move its
# output origin one step: the evaluator must refuse or fail, never pass.  A
# call is picked by its (spec, grid).
_SHIFTED = [
    (IdentityId.Q_SUM_DELTA, "fractional_sum", lambda spec, g: g.direction is Direction.BACKWARD),
    (IdentityId.Q_DIFF_NABLA, "riemann_difference",
     lambda spec, g: g.direction is Direction.BACKWARD),
    (IdentityId.Q_CAPUTO_DELTA, "caputo_difference",
     lambda spec, g: g.direction is Direction.FORWARD),
    (IdentityId.LEFT_DUAL_SUM, "fractional_sum", lambda spec, g: spec.kind is Kind.NABLA),
    (IdentityId.RIGHT_DUAL_DIFF, "riemann_difference", lambda spec, g: spec.kind is Kind.DELTA),
]


@pytest.mark.parametrize("backend", [RATIONAL, FLOATING])
@pytest.mark.parametrize("step", [1, -1])
@pytest.mark.parametrize("which,name,picked", _SHIFTED)
def test_an_operator_off_by_one_never_passes(monkeypatch, backend, step, which, name, picked):
    real = getattr(operators, name)

    def shifted(spec, g, *args, **kwargs):
        out = real(spec, g, *args, **kwargs)
        if not picked(spec, g):
            return out
        return out.with_values(out.values, origin=out.shift_origin(step))

    rng = random.Random(which.value)
    instances = [random_instance(which, rng, backend) for _ in range(12)]
    _replace_operator(monkeypatch, name, shifted)
    refused = 0
    for f, alpha in instances:
        try:
            report = check_identity(f, alpha, which)
        except DomainError:
            refused += 1
            continue
        assert not report.passed, (which, alpha, f)
    assert refused == len(instances)


@pytest.mark.parametrize("backend", [RATIONAL, FLOATING])
def test_warm_suite_matches_cold_checks(monkeypatch, backend):
    """Every suite instance, re-checked on a backend without a kernel table,
    reproduces its report and the suite's max_residual bit for bit."""
    seen = []

    def recording(f, alpha, which, tolerance):
        report = check_identity(f, alpha, which, tolerance)
        seen.append((f, alpha, which, report))
        return report

    monkeypatch.setattr(dualities, "check_identity", recording)
    results = run_identity_suite(instances=30, seed=11, backend=backend)
    monkeypatch.undo()
    assert len(seen) == 17 * 30
    worst = {}
    for f, alpha, which, warm in seen:
        assert f.backend.kernels is not None
        cold = check_identity(make_grid_function(f.origin, f.direction, f.values, backend),
                              alpha, which)
        assert repr(cold.residuals) == repr(warm.residuals)
        assert (repr(cold.max_abs_residual), cold.passed) == \
            (repr(warm.max_abs_residual), warm.passed)
        prev = worst.get(which, backend.zero)
        worst[which] = cold.max_abs_residual if abs(cold.max_abs_residual) > abs(prev) else prev
    for r in results:
        assert repr(r.max_abs_residual) == repr(worst[r.identity]), r.identity


@pytest.mark.parametrize("backend", ["rational", "floating"])
def test_kernel_table_lives_for_one_run(tmp_path, backend):
    plain = ["check", "--all", "--instances", "3", "--seed", "4", "--backend", backend]
    first, after = tmp_path / "first.jsonl", tmp_path / "after.jsonl"
    assert main(plain + ["--report", str(first)]) == 0
    assert main(plain + ["--inject-error", "--report", str(tmp_path / "bad.jsonl")]) == 1
    assert main(plain + ["--report", str(after)]) == 0
    assert after.read_bytes() == first.read_bytes()
    assert FLOATING.kernels is None and RATIONAL.kernels is None


@pytest.mark.parametrize("backend", [RATIONAL, FLOATING])
def test_each_run_builds_its_kernels_once(monkeypatch, backend):
    built = []
    real = kernels.kernel_vector

    def counting(beta, count, b):
        built.append((beta, b))
        return real(beta, count, b)

    monkeypatch.setattr(kernels, "kernel_vector", counting)
    run_identity_suite(instances=5, seed=3, backend=backend)
    first = len(built)
    run_identity_suite(instances=5, seed=3, backend=backend)
    assert first > 0 and len(built) == 2 * first
    # one build per beta and run, on the run's own backend copy (the copies
    # compare equal by value, so they are told apart by identity)
    assert len({(beta, id(b)) for beta, b in built}) == len(built)
    assert len({id(b) for _, b in built}) == 2


def _pinned_fields(backend) -> list:
    """``as_record()``, first point, step and residuals of four seeded
    instances of every identity, the fourth on ``backend.with_fault()``,
    which leaves nonzero relation residuals.  Floating residual values and
    ``max_abs_residual`` are left out: only the exact ones are
    machine-independent."""
    out = []
    for which in IdentityId:
        rng = random.Random(f"pin/{which.value}")
        for i in range(4):
            f, alpha = random_instance(which, rng, backend.with_fault() if i == 3 else backend)
            report = check_identity(f, alpha, which)
            rec = report.as_record()
            if backend.exact:
                residuals = [[str(p), str(r)] for p, r in report.residuals]
            else:
                del rec["max_abs_residual"]
                residuals = [str(p) for p, _ in report.residuals]
            out.append([rec, str(report.first), report.step, residuals])
    return out


# sha256 of json.dumps(_pinned_fields(backend)) per backend
PINNED_REPORTS = {
    "rational": "6dca50ce434064ec0860ff9ce2fa0e26aab53dc93f2484823bdc79ae3455d775",
    "floating": "10c684635c858f1a8a4a2c547f18a829b1a8edb10af42fdac1b9f5f099285093",
}


@pytest.mark.parametrize("backend", [RATIONAL, FLOATING])
def test_check_reports_are_pinned(backend):
    fields = _pinned_fields(backend)
    record = {"id": "LEFT_DUAL_SUM", "order": "5/8", "grid": "forward origin=0 length=11",
              "max_abs_residual": "0", "pass": True, "points": 11, "backend": backend.name}
    if not backend.exact:
        del record["max_abs_residual"]
    assert fields[0][:3] == [record, "0", 1]
    assert fields[0][3][-1] == (["10", "0"] if backend.exact else "10")
    # both data directions and both residual steps are covered, and exactly
    # the faulted relation instances fail
    assert {rec["grid"].split()[0] for rec, *_ in fields} == {"forward", "backward"}
    assert {step for _, _, step, _ in fields} == {1, -1}
    assert [i for i, (rec, *_) in enumerate(fields) if not rec["pass"]] == \
        [4 * list(IdentityId).index(which) + 3 for which in RELATION_IDS]
    digest = hashlib.sha256(json.dumps(fields).encode()).hexdigest()
    assert digest == PINNED_REPORTS[backend.name]


def _reference_instance(which, rng, backend):
    """random_instance as written with make_grid_function and one randint per draw."""
    length = rng.randint(4, 12)
    den = rng.randint(2, 12)
    num = rng.randrange(1, 2 * den)
    if num == den:
        num += 1
    anchor = Fraction(rng.randint(-12, 12), rng.randint(1, 3))
    values = [Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(length)]
    direction = IDENTITIES[which].direction
    if direction is None:
        direction = Direction.BACKWARD if rng.random() < 0.5 else Direction.FORWARD
    return make_grid_function(anchor, direction, values, backend), Fraction(num, den)


@pytest.mark.parametrize("backend", [RATIONAL, FLOATING])
def test_random_instance_matches_make_grid_function(backend):
    """The drawn stream is randint's, from ``Random(which.value)`` and from
    the generators ``run_identity_suite`` itself seeds, at seeds 0 and 1."""
    for which in IdentityId:
        keys = [(which.value, 25), *(((seed, which.value).__repr__(), 200) for seed in (0, 1))]
        for key, count in keys:
            rng, ref = random.Random(key), random.Random(key)
            for _ in range(count):
                f, alpha = random_instance(which, rng, backend)
                g, beta = _reference_instance(which, ref, backend)
                assert (f, alpha) == (g, beta)
                assert [type(v) for v in f.values] == [type(v) for v in g.values]
                assert type(f.origin) is Fraction and f.backend is backend
                assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("backend", [RATIONAL, FLOATING])
@pytest.mark.parametrize("which", [IdentityId.LEFT_DUAL_DIFF, IdentityId.Q_CAPUTO_NABLA,
                                   IdentityId.RELATE_DELTA_RIGHT, IdentityId.CAPUTO_INVERSION])
def test_a_passing_check_builds_no_origin_fraction(monkeypatch, backend, which):
    """A passing check moves every origin and compares it with the stated one
    in integers: neither ``grids`` nor ``dualities`` builds a ``Fraction``,
    for a dual, a Q and a relation row and for the inversion residual."""
    rng = random.Random(which.value)
    instances = [random_instance(which, rng, backend) for _ in range(20)]
    built = []

    def counted(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(grids, "Fraction", counted)
    monkeypatch.setattr(dualities, "Fraction", counted)
    for f, alpha in instances:
        assert check_identity(f, alpha, which).passed
    assert built == []


@pytest.mark.parametrize("n", [*range(1, 71), 2**40 + 1])
def test_below_draws_what_randrange_draws(n):
    rng, ref = random.Random(n), random.Random(n)
    for _ in range(40):
        assert dualities._below(rng.getrandbits, n) == ref.randrange(n)
    assert rng.getstate() == ref.getstate()


def test_drawn_values_go_through_the_backend():
    tight = RationalBackend(bit_cap=2)
    with pytest.raises(BackendOverflow):
        random_instance(IdentityId.LEFT_DUAL_SUM, random.Random(0), tight)
    with pytest.raises(BackendOverflow):
        run_identity_suite([IdentityId.LEFT_DUAL_SUM], instances=1, backend=tight)


def _scaled_by_7(out):
    """The same values, cleared over seven times the denominator."""
    nums, den = out.parts
    return out.with_parts([7 * x for x in nums], 7 * den)


def _nudged(index):
    def nudge(out):
        values = list(out.values)
        values[index] += Fraction(1, 10**30)
        return out.with_values(values)
    return nudge


@pytest.mark.parametrize("kind, change, index", [
    (Kind.NABLA, _scaled_by_7, None),  # equal sides over different denominators
    (Kind.DELTA, _nudged(0), 0),  # the first stated point
    (Kind.DELTA, _nudged(-1), -1),  # the last one
])
def test_an_exact_residual_below_the_tolerance_fails(monkeypatch, kind, change, index):
    """The exact backend passes only zero residuals, however small the
    tolerance would make a floating one, and compares sides cleared over
    different denominators exactly."""
    real = operators.fractional_sum
    dens = {}

    def changed(spec, g):
        out = real(spec, g)
        if spec.kind is kind:
            out = change(out)
        dens[spec.kind] = out.parts[1]
        return out

    f, alpha = random_instance(IdentityId.LEFT_DUAL_SUM, random.Random(1), RATIONAL)
    _replace_operator(monkeypatch, "fractional_sum", changed)
    report = check_identity(f, alpha, IdentityId.LEFT_DUAL_SUM)
    if index is None:
        assert dens[Kind.NABLA] != dens[Kind.DELTA]
        assert report.passed and report.max_abs_residual == 0
        assert set(report.values) == {0}
    else:
        assert not report.passed and report.max_abs_residual == Fraction(1, 10**30)
        nudged = index % len(report.values)
        assert [i for i, r in enumerate(report.values) if r] == [nudged]
        assert report.values[nudged] == Fraction(1, 10**30)
