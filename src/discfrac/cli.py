"""Command-line front end.

Subcommands:
    apply     apply one fractional operator to a sequence file
    check     run randomized identity suites
    theorems  run monotonicity theorem campaigns

Exit codes: 0 pass, 1 identity violation or counterexample, 2 usage or
parse error, 3 domain error, 4 budget exceeded.

Input format for ``apply``: a JSON object {"origin": str, "direction":
"forward"|"backward", "values": [str, ...]} whose numbers, decimal or "p/q"
strings or JSON numbers, are read exactly from their text.  A CSV file with
``t,value`` rows (consecutive integer t, ascending) is accepted for
forward integer-origin grids.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from fractions import Fraction

from .backends import DEFAULT_BIT_CAP, as_fraction, clipped, get_backend, numeral_parts
from .dualities import (
    DEFAULT_TOLERANCE,
    IdentityId,
    run_identity_suite,
)
from .errors import (
    BackendOverflow,
    BudgetExceeded,
    DiscfracError,
    DomainError,
    EmptyValues,
    GridTooShort,
    UsageError,
)
from .grids import Direction, GridFunction, make_grid_function
from .operators import Family, Formulation, Kind, OperatorSpec, apply_operator

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_BUDGET = 4


def _scalar_str(x) -> str:
    if isinstance(x, Fraction):
        return str(x)
    return repr(x)


def _parse_number(text: str) -> Fraction:
    try:
        return as_fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse number {clipped(text)!r}") from exc


def _parse_capped(text: str, what: str, kind: str = "number"):
    """An exact number given as ``what`` (a grid origin, an order or a
    searched value), refused past ``DEFAULT_BIT_CAP`` bits before any work,
    and for an integer ``kind`` unless written as one.  Its parts tell a
    numeral too long for Python's int conversion past the cap: with d
    significant digits and q = 1 it is N * 10**E, N an integer of d digits
    that 10 does not divide, and the larger of its reduced numerator and
    denominator has at least d bits, at least -E when E < 0 and more than
    3 * (d - 1 + E) when E >= 0 (10**k > 2**(3*k))."""
    parts = numeral_parts(text)
    if parts is None:
        raise ValueError(f"cannot parse {kind} {clipped(text)!r}")
    n, e, q = parts
    d, x = len(n.lstrip("-+0")), None
    if q != "1" or d <= DEFAULT_BIT_CAP and (-e if e < 0 else 3 * (d - 1 + e)) < DEFAULT_BIT_CAP:
        if kind == "integer" and any(c in text for c in "./eE"):
            raise ValueError(f"cannot parse integer {clipped(text)!r}")
        x = _parse_number(text)
    if x is None or max(x.numerator.bit_length(), x.denominator.bit_length()) > DEFAULT_BIT_CAP:
        raise DomainError(f"{what} {clipped(text.strip())} has more than {DEFAULT_BIT_CAP} bits")
    return x.numerator if kind == "integer" else x


def _read_grid(path: str, backend) -> GridFunction:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    is_json = text.lstrip().startswith(("{", "["))
    if not is_json and (path.endswith(".csv") or "," in text):
        rows = [line.split(",") for line in text.strip().splitlines() if line.strip()]
        if not rows or any(len(r) != 2 for r in rows):
            raise ValueError("CSV input needs one or more t,value rows")
        points = [_parse_capped(rows[0][0], "origin")] + [_parse_number(r[0]) for r in rows[1:]]
        values = [_parse_number(r[1]) for r in rows]
        if any(p.denominator != 1 for p in points):
            raise DomainError("CSV input requires integer grid points")
        for prev, nxt in zip(points, points[1:]):
            if nxt - prev != 1:
                raise DomainError("CSV input requires consecutive ascending points")
        return make_grid_function(points[0], Direction.FORWARD, values, backend)
    record = json.loads(text, parse_float=str, parse_int=str)
    if not isinstance(record, dict) or not isinstance(record.get("values"), list):
        raise ValueError('JSON input must be an object whose "values" is a list')
    return make_grid_function(
        _parse_capped(str(record["origin"]), "origin"),
        Direction(record["direction"]),
        [_parse_number(str(v)) for v in record["values"]],
        backend,
    )


def _grid_record(grid: GridFunction, extra: dict | None = None) -> dict:
    rec = {
        "origin": str(grid.origin),
        "direction": grid.direction.value,
        "values": [_scalar_str(v) for v in grid.values],
    }
    if extra:
        rec.update(extra)
    return rec


def _write_json(record: dict, path: str | None) -> None:
    _write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", path)


def _write_report(records: list[dict], path: str | None) -> None:
    _write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records), path)


def _write_text(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _domain_note(spec: OperatorSpec, grid: GridFunction) -> str:
    if grid.direction is Direction.FORWARD:
        note = f"points {grid.origin} + k for k = 0..{grid.length - 1}"
    else:
        note = f"points {grid.origin} - k for k = 0..{grid.length - 1}"
    if spec.family is Family.SUM and spec.kind is Kind.NABLA:
        note += " (value at the anchor is the empty-sum convention zero)"
    return note


def cmd_apply(args) -> int:
    if args.extended and args.form != "direct":
        raise UsageError("--extended needs --form direct")
    if args.form == "direct" and args.family != "riemann":
        raise UsageError("--form direct needs --family riemann")
    backend = get_backend(args.backend)
    spec = OperatorSpec(
        Kind(args.kind),
        Family(args.family),
        _parse_capped(args.order, "--order"),
        Formulation.EXTENDED if args.extended else Formulation(args.form),
    )
    grid = _read_grid(args.input, backend)
    # an operator acts on the side its grid's direction gives: --side only
    # names the one the input must be on
    want = Direction.FORWARD if args.side == "left" else Direction.BACKWARD
    if grid.direction is not want:
        raise DomainError(f"{args.side} operators require a {want.value} grid, "
                          f"got {grid.direction.value}")
    out = apply_operator(spec, grid)
    record = _grid_record(
        out,
        {
            "domain": _domain_note(spec, out),
            "operator": {
                "kind": spec.kind.value,
                "side": args.side,
                "family": spec.family.value,
                "order": str(spec.order),
                "formulation": spec.formulation.value,
            },
            "backend": backend.name,
        },
    )
    _write_json(record, args.output)
    return EXIT_OK


def cmd_check(args) -> int:
    backend = get_backend(args.backend)
    _reject_repeats("--id", args.id)
    if not args.id:
        ids = list(IdentityId)
    else:
        try:
            ids = [IdentityId(name) for name in args.id]
        except ValueError as exc:
            raise DomainError(str(exc)) from exc
    if args.instances < 1:
        raise UsageError("--instances must be at least 1")
    if not 0 < args.tolerance < float("inf"):
        raise DomainError("tolerance must be positive and finite")
    if args.inject_error:
        backend = backend.with_fault()
    results = run_identity_suite(ids, instances=args.instances, seed=args.seed,
                                 backend=backend, tolerance=args.tolerance)
    records = []
    for r in results:
        rec = r.as_record()
        rec["config"] = {
            "backend": backend.name,
            "tolerance": args.tolerance,
            "seed": args.seed,
            "instances": args.instances,
        }
        records.append(rec)
    _write_report(records, args.report)
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.identity.value:20s} {status}  max_residual={r.max_abs_residual}",
              file=sys.stderr)
    return EXIT_OK if all(r.passed for r in results) else EXIT_VIOLATION


def _reject_repeats(flag: str, items) -> None:
    repeated = sorted(x for x, n in Counter(items).items() if n > 1)
    if repeated:
        raise UsageError(f"{flag} repeats {', '.join(clipped(str(x)) for x in repeated)}")


def _parse_values(text: str, cap: int | None = None):
    """The ``--values`` set: a list of exact values, or for ``lo..hi`` a
    ``range``, which a search reads by index, never builds and cannot repeat
    a value.  A range of more than ``cap`` values, or a value past the bit
    cap, is refused."""
    text = text.strip()
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = (_parse_capped(x, "--values", "integer") for x in (lo_s, hi_s))
        if cap is not None and hi - lo + 1 > cap:
            raise BudgetExceeded(f"--values {clipped(text)} names more values than the budget "
                                 f"of {cap} evaluations")
        if hi - lo + 1 > sys.maxsize:  # past what a search can index
            raise DomainError(f"--values {clipped(text)} names more than {sys.maxsize} values")
        values = range(lo, hi + 1)
    else:
        values = [_parse_capped(part, "--values") for part in text.split(",") if part.strip()]
        _reject_repeats("--values", values)
    if not values:
        raise ValueError(f"--values {text!r} names no value")
    return values


def cmd_theorems(args) -> int:
    from .monotone import THEOREMS, search_theorems  # loads numpy

    _reject_repeats("--id", args.id)
    if not args.id:
        ids = list(THEOREMS)
    else:
        for name in args.id:
            if name not in THEOREMS:
                raise DomainError(f"unknown theorem id {name!r}")
        ids = list(args.id)
    if args.budget <= 0:
        raise DomainError("budget must be positive")
    if args.length < 1:
        raise UsageError("--length must be at least 1")
    if args.k_cap < 0:
        raise UsageError("--k-cap must be at least 0")
    mode = "random" if args.random else "exhaustive"
    values = _parse_values(args.values, None if args.random else args.budget)
    orders = None if args.nu is None else [_parse_capped(x, "--nu") for x in args.nu.split(",")]
    _reject_repeats("--nu", orders or [])
    # one config for every record, where a --values range is its lo..hi text
    shown = (f"{values.start}..{values.stop - 1}" if isinstance(values, range)
             else [str(v) for v in values])
    config = {"mode": mode, "seed": args.seed, "k_cap": args.k_cap, "budget": args.budget,
              "values": shown}
    records = []
    any_counterexample = False
    for tid, results in search_theorems(ids, args.length, values, orders, mode, args.budget,
                                        args.seed, args.k_cap):
        for r in results:
            rec = r.as_record()
            rec["config"] = config
            if THEOREMS[tid].note:
                rec["note"] = THEOREMS[tid].note
            records.append(rec)
            if r.counterexamples:
                any_counterexample = True
    _write_report(records, args.report)
    for rec in records:
        n_ces = len(rec["counterexamples"])
        if n_ces:
            status = "FAIL"
        else:
            status = "pass" if rec["witness"] is not None else "vacuous"
        print(f"{rec['id']:10s} order={rec['order']:5s} {status}  "
              f"counterexamples={n_ces} witness={rec['witness'] is not None}",
              file=sys.stderr)
    return EXIT_VIOLATION if any_counterexample else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="discfrac",
        description="Discrete fractional calculus operators and verification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_apply = sub.add_parser("apply", help="apply a fractional operator to a sequence")
    p_apply.add_argument("--input", required=True)
    p_apply.add_argument("--output", default=None)
    p_apply.add_argument("--kind", choices=["delta", "nabla"], required=True)
    p_apply.add_argument("--side", choices=["left", "right"], default="left")
    p_apply.add_argument("--family", choices=["sum", "riemann", "caputo"], required=True)
    p_apply.add_argument("--order", required=True)
    p_apply.add_argument("--form", choices=["composed", "direct"], default="composed")
    p_apply.add_argument("--extended", action="store_true",
                         help="expose the direct form's extra near-anchor points")
    p_apply.add_argument("--backend", choices=["floating", "rational"], default="floating")
    p_apply.set_defaults(func=cmd_apply)

    p_check = sub.add_parser("check", help="run identity suites")
    which = p_check.add_mutually_exclusive_group()
    which.add_argument("--id", action="append", default=[],
                       help="identity id (repeatable); default all")
    which.add_argument("--all", action="store_true")
    p_check.add_argument("--instances", type=int, default=50)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p_check.add_argument("--backend", choices=["floating", "rational"], default="floating")
    p_check.add_argument("--report", default=None)
    p_check.add_argument("--inject-error", action="store_true",
                         help="self-test: corrupt every kernel's lag-1 weight and "
                              "expect the relation checks to fail")
    p_check.set_defaults(func=cmd_check)

    p_theo = sub.add_parser("theorems", help="run theorem campaigns")
    which = p_theo.add_mutually_exclusive_group()
    which.add_argument("--id", action="append", default=[],
                       help="theorem id (repeatable); default all")
    which.add_argument("--all", action="store_true")
    mode = p_theo.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true", help="the default mode")
    mode.add_argument("--random", action="store_true")
    p_theo.add_argument("--length", type=int, default=5,
                        help="number of enumerated function values")
    p_theo.add_argument("--values", default="-1,0,1")
    p_theo.add_argument("--nu", default=None,
                        help="comma-separated orders; default three per range")
    p_theo.add_argument("--budget", type=int, default=500_000)
    p_theo.add_argument("--seed", type=int, default=0)
    p_theo.add_argument("--k-cap", type=int, default=64)
    p_theo.add_argument("--report", default=None)
    p_theo.set_defaults(func=cmd_theorems)
    return parser


def _join_dashed_values(argv: list[str]) -> list[str]:
    # let "--values -1,0,1", "--order -1/2" and "--tolerance -1e-3" through
    # argparse, which reads a negative value that is not a plain number as
    # an option string; a "--" token is the next flag, not a value
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        value = argv[i + 1] if i + 1 < len(argv) else ""
        if (tok in ("--values", "--nu", "--order", "--tolerance") and value.startswith("-")
                and not value.startswith("--")):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _join_dashed_values(list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceeded as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (DomainError, GridTooShort, EmptyValues, BackendOverflow) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (DiscfracError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
