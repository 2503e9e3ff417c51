"""Benchmark workloads: seeded inputs, the CLI calls of one pass, output gates.

A workload is the list of ``discfrac.cli.main`` argument vectors that make
one pass, plus a gate that checks every output of a pass.  One operation
is what the gate counts as attempted or failed:

    campaign    one (theorem, order) result of the exhaustive search
    identities  one randomized identity check
    apply       one ``apply`` call

This module imports only the standard library, so the set-up probe can
time a fresh ``import discfrac.cli`` plus ``make`` in a new interpreter.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path


@dataclass
class Call:
    argv: list
    output: str  # file the call writes its report or result to
    ops: int  # operations the gate counts for this call
    backend: str = ""  # "floating" or "rational" when the call has one


@dataclass
class Verdict:
    """Gate result: failed operations and work units per call."""

    failed: list
    items: list
    problems: list = field(default_factory=list)


def _fail_all(calls, index, problem) -> tuple:
    return calls[index].ops, f"{Path(calls[index].output).name}: {problem}"


def _jsonl(text) -> list:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


# ---------------------------------------------------------------------------
# campaign


class Campaign:
    """``theorems --all`` exhaustive search; the seed does not change it."""

    name = "campaign"
    item = "instances"
    VALUES = "-1,-1/2,0,1/2,1"
    LENGTH = 6
    RESULTS = 84  # 28 theorems x 3 default orders

    def __init__(self, seed: int, workdir: str):
        self.params = {
            "argv": ["theorems", "--all", "--length", str(self.LENGTH),
                     "--values", self.VALUES],
            "results": self.RESULTS,
            "instances_per_result": 5 ** self.LENGTH,
        }
        out = str(Path(workdir) / "campaign.jsonl")
        self.calls = [Call(self.params["argv"] + ["--report", out], out, self.RESULTS)]

    def check(self, rcs, texts) -> Verdict:
        v = Verdict([0], [0])
        if rcs[0] != 0 or texts[0] is None:
            n, p = _fail_all(self.calls, 0, f"exit code {rcs[0]}")
            return Verdict([n], [0], [p])
        try:
            records = _jsonl(texts[0])
            seen = set()
            for rec in records:
                key = (rec["id"], rec["order"])
                bad = []
                if rec["counterexamples"]:
                    bad.append(f"{len(rec['counterexamples'])} counterexamples")
                if rec["witness"] is None:
                    bad.append("no nonvacuity witness")
                if rec["length"] != self.LENGTH or rec["instances"] != 5 ** self.LENGTH:
                    bad.append(f"{rec['instances']} instances at length {rec['length']}")
                if key in seen:
                    bad.append("duplicate result")
                seen.add(key)
                if bad:
                    v.failed[0] += 1
                    v.problems.append(f"{key}: {', '.join(bad)}")
                else:
                    v.items[0] += rec["instances"]
        except (ValueError, KeyError, TypeError) as exc:
            n, p = _fail_all(self.calls, 0, f"malformed report ({exc!r})")
            return Verdict([n], [0], [p])
        missing = self.RESULTS - len(seen)
        if missing > 0:
            v.failed[0] += missing
            v.problems.append(f"{missing} (theorem, order) results missing")
        v.failed[0] = min(v.failed[0], self.RESULTS)
        return v

    def self_test(self, run_cli, texts, oracles) -> list:
        """A planted counterexample and a dropped result must be flagged."""
        records = _jsonl(texts[0])
        planted = [dict(r) for r in records]
        planted[0]["counterexamples"] = [["1"] * self.LENGTH]
        dropped = records[1:]
        out = []
        for label, recs in (("planted counterexample", planted), ("dropped result", dropped)):
            text = "".join(json.dumps(r, sort_keys=True) + "\n" for r in recs)
            out.append((label, sum(self.check([0], [text]).failed) > 0))
        return out


# ---------------------------------------------------------------------------
# identities


class Identities:
    """``check --all`` on the rational, then the floating backend."""

    name = "identities"
    item = "checks"
    IDENTITIES = 17

    def __init__(self, seed: int, workdir: str, instances: int = 200, extra=()):
        self.instances = instances
        self.params = {
            "argv": ["check", "--all", "--instances", str(instances), "--seed", str(seed)],
            "backends": ["rational", "floating"],
        }
        self.calls = []
        for backend in self.params["backends"]:
            out = str(Path(workdir) / f"identities-{backend}.jsonl")
            argv = self.params["argv"] + ["--backend", backend, "--report", out, *extra]
            self.calls.append(Call(argv, out, self.IDENTITIES * instances, backend))

    def _check_call(self, i, rc, text) -> tuple:
        call = self.calls[i]
        if rc != 0 or text is None:
            n, p = _fail_all(self.calls, i, f"exit code {rc}")
            return n, 0, [p]
        failed, items, problems, seen = 0, 0, [], set()
        try:
            for rec in _jsonl(text):
                name = rec["id"]
                seen.add(name)
                bad = rec["failures"]
                exact_miss = call.backend == "rational" and rec["max_residual"] != "0"
                if rec["instances"] != self.instances:
                    bad = self.instances
                elif not bad and (exact_miss or not rec["pass"]):
                    bad = 1
                if bad:
                    problems.append(f"{call.backend} {name}: {bad} failed, "
                                    f"max_residual={rec['max_residual']}")
                failed += bad
                items += rec["instances"]
        except (ValueError, KeyError, TypeError) as exc:
            n, p = _fail_all(self.calls, i, f"malformed report ({exc!r})")
            return n, 0, [p]
        missing = self.IDENTITIES - len(seen)
        if missing > 0:
            failed += missing * self.instances
            problems.append(f"{call.backend}: {missing} identities missing")
        return min(failed, call.ops), items, problems

    def check(self, rcs, texts) -> Verdict:
        v = Verdict([], [])
        for i, (rc, text) in enumerate(zip(rcs, texts)):
            n, items, problems = self._check_call(i, rc, text)
            v.failed.append(n)
            v.items.append(items)
            v.problems.extend(problems)
        return v

    def self_test(self, run_cli, texts, oracles) -> list:
        """``check --inject-error`` corrupts the kernels; the gate must see it."""
        workdir = Path(self.calls[0].output).parent / "self-test"
        workdir.mkdir(exist_ok=True)
        probe = Identities(0, str(workdir), instances=3, extra=("--inject-error",))
        rcs, texts = [], []
        for call in probe.calls:
            rcs.append(run_cli(call.argv))
            texts.append(_read(call.output))
        v = probe.check(rcs, texts)
        ratio = sum(v.failed) / sum(c.ops for c in probe.calls)
        return [(f"check --inject-error (fail_ratio={ratio:.3f})", ratio > 0)]


# ---------------------------------------------------------------------------
# apply


ORDERS = ("1/4", "1/2", "3/4", "5/4", "3/2", "7/4")
# (family, kind, side, formulation): the 12 composed pipelines and the 4
# direct Riemann forms.
OPERATORS = [
    (family, kind, side, "composed")
    for family in ("sum", "riemann", "caputo")
    for kind in ("delta", "nabla")
    for side in ("left", "right")
] + [("riemann", kind, side, "direct") for kind in ("delta", "nabla") for side in ("left", "right")]

# Floating and rational outputs agree to |f - r| <= FLOAT_REL_BOUND * max(1, max|r|)
# over the rational row.  The worst case measured on seeds 1-5 is 4.2e-13;
# the bound leaves room for a reordered summation, not for a wrong weight.
FLOAT_REL_BOUND = 1e-9
ORACLE_POINTS = 2  # seeded output points per operator, besides the first


def _read(path) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError:
        return None


def _oracle_name(family, kind, side, form) -> str:
    if family == "riemann" and form == "direct" and kind == "delta":
        return f"delta_{side}_riemann_direct"
    # the nabla direct form is the oracles' single-sum nabla difference
    return f"{kind}_{side}_{family}"


class Apply:
    """``apply`` of 16 operators: floating at L = 2048, rational at L = 256."""

    name = "apply"
    item = "points"
    FLOAT_LENGTH = 2048
    RATIONAL_LENGTH = 256

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(f"apply/{seed}")
        work = Path(workdir)
        self.grids = {}
        for direction in ("forward", "backward"):
            origin = rng.randint(-8, 8)
            values = [f"{rng.randint(-8, 8)}/{rng.randint(1, 4)}"
                      for _ in range(self.FLOAT_LENGTH)]
            self.grids[direction] = (origin, values)
            for backend, length in (("floating", self.FLOAT_LENGTH),
                                    ("rational", self.RATIONAL_LENGTH)):
                record = {"origin": str(origin), "direction": direction,
                          "values": values[:length]}
                (work / f"input-{direction}-{backend}.json").write_text(
                    json.dumps(record), encoding="utf-8")
        self.orders = [rng.choice(ORDERS) for _ in OPERATORS]
        self.oracle_rng_seed = f"apply-oracle/{seed}"
        self.params = {
            "operators": [list(op) + [order] for op, order in zip(OPERATORS, self.orders)],
            "lengths": {"floating": self.FLOAT_LENGTH, "rational": self.RATIONAL_LENGTH},
            "origins": {d: g[0] for d, g in self.grids.items()},
            "values": "p/q with |p| <= 8, 1 <= q <= 4",
            "float_rel_bound": FLOAT_REL_BOUND,
        }
        self.calls = []
        for backend in ("floating", "rational"):
            for j, ((family, kind, side, form), order) in enumerate(zip(OPERATORS, self.orders)):
                direction = "forward" if side == "left" else "backward"
                out = str(work / f"apply-{j:02d}-{backend}.json")
                argv = ["apply", "--input", str(work / f"input-{direction}-{backend}.json"),
                        "--output", out, "--kind", kind, "--side", side,
                        "--family", family, "--order", order, "--form", form,
                        "--backend", backend]
                self.calls.append(Call(argv, out, 1, backend))

    def _expected_length(self, j, length) -> int:
        family = OPERATORS[j][0]
        return length if family == "sum" else length - math.ceil(Fraction(self.orders[j]))

    def _parse(self, j, backend, rc, text):
        """The output record, or a problem string."""
        if rc != 0 or text is None:
            return f"exit code {rc}"
        try:
            rec = json.loads(text)
            direction = "forward" if OPERATORS[j][2] == "left" else "backward"
            length = self.FLOAT_LENGTH if backend == "floating" else self.RATIONAL_LENGTH
            if rec["direction"] != direction or rec["backend"] != backend:
                return f"wrong grid or backend ({rec['direction']}, {rec['backend']})"
            if len(rec["values"]) != self._expected_length(j, length):
                return f"{len(rec['values'])} values"
            Fraction(rec["origin"])
            parse = float if backend == "floating" else Fraction
            rec["values"] = [parse(x) for x in rec["values"]]
            return rec
        except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            return f"malformed output ({exc!r})"

    def check(self, rcs, texts) -> Verdict:
        n = len(OPERATORS)
        v = Verdict([0] * (2 * n), [0] * (2 * n))
        for j, op in enumerate(OPERATORS):
            fl = self._parse(j, "floating", rcs[j], texts[j])
            ra = self._parse(j, "rational", rcs[n + j], texts[n + j])
            label = f"{'/'.join(op)} order {self.orders[j]}"
            if isinstance(ra, str):
                v.failed[n + j] = 1
                v.problems.append(f"rational {label}: {ra}")
            else:
                v.items[n + j] = len(ra["values"])
            if isinstance(fl, str):
                v.failed[j] = 1
                v.problems.append(f"floating {label}: {fl}")
                continue
            if isinstance(ra, str):
                v.failed[j] = 1
                v.problems.append(f"floating {label}: no rational reference")
                continue
            problem = self._float_mismatch(fl, ra)
            if problem:
                v.failed[j] = 1
                v.problems.append(f"floating {label}: {problem}")
            else:
                v.items[j] = len(fl["values"])
        return v

    @staticmethod
    def _float_mismatch(fl, ra) -> str | None:
        if Fraction(fl["origin"]) != Fraction(ra["origin"]):
            return f"origin {fl['origin']} against rational {ra['origin']}"
        exact = ra["values"]
        scale = max(1.0, max(abs(float(r)) for r in exact))
        for m, (f, r) in enumerate(zip(fl["values"], exact)):
            if not abs(f - float(r)) <= FLOAT_REL_BOUND * scale:
                return f"point {m}: {f!r} against exact {float(r)!r} (scale {scale:.3g})"
        return None

    def oracle_points(self) -> list:
        """Seeded output indices per operator for the oracle comparison."""
        rng = random.Random(self.oracle_rng_seed)
        out = []
        for j in range(len(OPERATORS)):
            length = self._expected_length(j, self.RATIONAL_LENGTH)
            out.append(sorted({0, *(rng.randrange(length) for _ in range(ORACLE_POINTS))}))
        return out

    def oracle_mismatches(self, j, rec, points, oracles) -> list:
        """Rational output of operator j against the brute-force oracle."""
        family, kind, side, form = OPERATORS[j]
        direction = "forward" if side == "left" else "backward"
        origin, values = self.grids[direction]
        step = 1 if direction == "forward" else -1
        fmap = {Fraction(origin + step * k): Fraction(x)
                for k, x in enumerate(values[:self.RATIONAL_LENGTH])}
        oracle = getattr(oracles, _oracle_name(family, kind, side, form))
        alpha = Fraction(self.orders[j])
        out_origin = Fraction(rec["origin"])
        bad = []
        for m in points:
            t = out_origin + step * m
            want = oracle(fmap, Fraction(origin), alpha, t)
            if rec["values"][m] != want:
                bad.append(f"point {t}: {rec['values'][m]} against oracle {want}")
        return bad

    def deep_check(self, rcs, texts, oracles) -> Verdict:
        """Rational outputs against the oracles at seeded points."""
        n = len(OPERATORS)
        v = Verdict([0] * (2 * n), [0] * (2 * n))
        for j, points in enumerate(self.oracle_points()):
            rec = self._parse(j, "rational", rcs[n + j], texts[n + j])
            if isinstance(rec, str):
                continue  # already counted by check()
            bad = self.oracle_mismatches(j, rec, points, oracles)
            if bad:
                v.failed[n + j] = 1
                v.problems.append(f"rational {'/'.join(OPERATORS[j])}: {bad[0]}")
        return v

    def self_test(self, run_cli, texts, oracles) -> list:
        """A perturbed floating value and a perturbed exact value must be flagged."""
        n = len(OPERATORS)
        rcs = [0] * (2 * n)
        ra = self._parse(0, "rational", 0, texts[n])
        scale = max(1.0, max(abs(float(r)) for r in ra["values"]))
        fl = json.loads(texts[0])
        fl["values"][1] = repr(float(fl["values"][1]) + 1e-6 * scale)
        bumped = list(texts)
        bumped[0] = json.dumps(fl)
        float_flagged = self.check(rcs, bumped).failed[0] == 1
        ra["values"][0] += Fraction(1, 10**9)
        exact_flagged = bool(self.oracle_mismatches(0, ra, [0], oracles))
        return [("perturbed floating output", float_flagged),
                ("perturbed rational output", exact_flagged)]


WORKLOADS = {w.name: w for w in (Campaign, Identities, Apply)}


def make(name: str, seed: int, workdir: str):
    """Generate the workload's inputs under ``workdir`` and return it."""
    return WORKLOADS[name](seed, workdir)
