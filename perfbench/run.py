#!/usr/bin/env python3
"""discfrac benchmark: one workload per process, checked, end to end or traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload {campaign,identities,apply} \\
        --seed N --seconds S --trace {0,1}

Each pass makes the workload's ``discfrac.cli.main`` calls in this process,
one after another (a closed loop with one client).  Passes repeat while the
next one is predicted to end within ``--seconds``; every pass's outputs go
through the workload's gate, and later passes must reproduce the first
pass's output bytes.

``--trace 0`` prints the end-to-end metrics:

    setup_s      median over several fresh interpreters of the time to
                 import discfrac.cli and write the workload's inputs
    pass_s       median over passes of the time of one pass
    items_per_s  work units of one pass (campaign instances, identity
                 checks, apply output points) divided by pass_s
    peak_rss_mb  peak resident set size of this process after the passes

Times are wall seconds scaled to a fixed core speed: the wall time of
each CLI call and each set-up probe is multiplied by REFERENCE_S over the
mean time of ``reference_work`` measured just before and just after it.
On a shared host the speed of a core swings by tens of percent within
seconds; unscaled wall times and the reference times are printed and
recorded next to the scaled ones.  The program runs with one OpenBLAS
thread.

``--trace 1`` runs untraced passes for half the time, then two traced
passes, and prints per-layer calls, self times and counts (see
tracing.py), the per-backend split of the untraced passes, and
``trace_overhead_s``.  The deterministic counts must repeat exactly
between the two traced passes.

Lines before the last describe the run (metadata, pass samples, failures,
gate self-test).  The last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record,
and the spans of a traced run, are written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import importlib.util
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

import tracing  # this script's directory is first on sys.path
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
ORACLES = ROOT / "tests" / "oracles.py"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 7
# Seconds that reference_work takes on a quiet core of the 2-core Xeon this
# benchmark was sized on; pass times are reported at that speed.
REFERENCE_S = 0.015

SETUP_PROBE = """\
import sys
sys.path[:0] = sys.argv[1:3]
import discfrac.cli
import workloads
workloads.make(sys.argv[3], int(sys.argv[4]), sys.argv[5])
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=["campaign", "identities", "apply"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# run metadata


def git_revision():
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "discfrac").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def metadata(args, workload, numpy_version) -> dict:
    return {
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": workload.params,
    }


# ---------------------------------------------------------------------------
# passes


def call_cli(main, argv, tracer=None, request=0):
    """(exit code or None on an uncaught exception, seconds, captured output)."""
    log = io.StringIO()
    if tracer is not None:
        tracer.request = request
    start = time.perf_counter()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        try:
            rc = main(list(argv))
        except Exception:  # a traceback is a failed call, not a failed benchmark
            traceback.print_exc(file=log)
            rc = None
    return rc, time.perf_counter() - start, log.getvalue()


def reference_work():
    """Fixed allocation-heavy Python work that does not use discfrac, so its
    time tracks only the current speed of the core and its caches."""
    rng = random.Random(7)
    data = [rng.random() for _ in range(50_000)]
    data.sort()
    table = {i: str(i) for i in range(20_000)}
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(i % 7 - 3, i % 5 + 1) * Fraction(2, i % 3 + 1)
    return data[0], len(table), acc


def reference_seconds() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def scaled(wall, ref_before, ref_after) -> float:
    """``wall`` seconds at the speed where reference_work takes REFERENCE_S."""
    return wall * REFERENCE_S / ((ref_before + ref_after) / 2)


def run_pass(workload, main, ref, tracer=None) -> dict:
    """One pass; each call is timed between two reference measurements
    (``ref`` and one taken after each call)."""
    for call in workload.calls:
        Path(call.output).unlink(missing_ok=True)
    gc.collect()
    results, call_s = [], []
    for i, c in enumerate(workload.calls):
        results.append(call_cli(main, c.argv, tracer, i))
        ref_after = reference_seconds()
        call_s.append(scaled(results[-1][1], ref, ref_after))
        ref = ref_after
    texts = []
    for call in workload.calls:
        try:
            texts.append(Path(call.output).read_text(encoding="utf-8"))
        except OSError:
            texts.append(None)
    return {
        "wall": sum(r[1] for r in results),
        "ref_after": ref,
        "scaled": sum(call_s),
        "rcs": [r[0] for r in results],
        "call_s": call_s,
        "logs": [r[2] for r in results],
        "texts": texts,
    }


class Gate:
    """Accumulates attempted and failed operations over a run's passes."""

    def __init__(self, workload):
        self.workload = workload
        self.first = None
        self.items = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, p, label):
        calls = self.workload.calls
        v = self.workload.check(p["rcs"], p["texts"])
        failed = list(v.failed)
        if self.first is None:
            self.first = p
            self.items = v.items
        else:
            for i, call in enumerate(calls):
                if p["texts"][i] != self.first["texts"][i]:
                    failed[i] = call.ops
                    v.problems.append(f"{Path(call.output).name}: differs from the first pass")
        for i, call in enumerate(calls):
            if failed[i] and p["rcs"][i] not in (0, 1):
                v.problems.append(f"{Path(call.output).name} log: {p['logs'][i][-400:]}")
        self.attempted += sum(c.ops for c in calls)
        self.failed += sum(min(f, c.ops) for f, c in zip(failed, calls))
        self.problems.extend(f"{label}: {x}" for x in v.problems)

    def add_deep(self, oracles):
        deep = getattr(self.workload, "deep_check", None)
        if deep is None or self.first is None:
            return
        v = deep(self.first["rcs"], self.first["texts"], oracles)
        self.failed += sum(v.failed)
        self.problems.extend(f"oracle: {x}" for x in v.problems)


def timed_passes(workload, main, gate, budget) -> list:
    passes = []
    start = time.perf_counter()
    ref = reference_seconds()
    while True:
        p = run_pass(workload, main, ref)
        ref = p["ref_after"]
        gate.add(p, f"pass {len(passes)}")
        passes.append(p)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(q["wall"] for q in passes) > budget:
            return passes


def backend_split(workload, passes, gate) -> dict:
    """Work units per second of each backend's calls, over the untraced passes."""
    out = {}
    for backend in ("rational", "floating"):
        idx = [i for i, c in enumerate(workload.calls) if c.backend == backend]
        items = sum(gate.items[i] for i in idx)
        seconds = statistics.median(sum(p["call_s"][i] for i in idx) for p in passes)
        out[backend] = items / seconds if idx and seconds > 0 else 0.0
    return out


def describe(values) -> dict:
    values = sorted(values)
    n = len(values)
    out = {"n": n, "median": statistics.median(values), "min": values[0], "max": values[-1]}
    if n >= 2:
        q = statistics.quantiles(values, n=4)
        out["q1"], out["q3"] = q[0], q[2]
    # the highest percentile with at least ten samples beyond it
    for pct in (99, 95, 90, 75, 50):
        if n * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
            break
    return out


# ---------------------------------------------------------------------------
# set-up


def measure_setup(name, seed, workdir) -> list:
    """Seconds for a fresh interpreter to import discfrac.cli and make inputs,
    scaled like pass times by a reference measured around each probe."""
    samples = []
    ref = reference_seconds()
    for k in range(SETUP_REPEATS):
        probe_dir = Path(workdir) / f"setup-{k}"
        probe_dir.mkdir()
        argv = [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH_DIR),
                name, str(seed), str(probe_dir)]
        start = time.perf_counter()
        # no timeout: Popen.wait with one polls in steps of up to 50 ms
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        wall = time.perf_counter() - start
        ref_after = reference_seconds()
        samples.append(scaled(wall, ref, ref_after))
        ref = ref_after
        shutil.rmtree(probe_dir)
    return samples


def load_oracles():
    spec = importlib.util.spec_from_file_location("discfrac_bench_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# main


def traced_passes(workload, main, gate, package, ref, lines) -> list:
    """Two traced passes; their deterministic counts must agree exactly."""
    tracers = []
    for k in range(2):
        tracer = tracing.Tracer()
        undo, missing = tracing.install(tracer, package)
        try:
            p = run_pass(workload, tracer.wrap("cli.main", main), ref, tracer)
        finally:
            undo()
        ref = p["ref_after"]
        gate.add(p, f"traced pass {k}")
        tracers.append((tracer, p["scaled"]))
    if missing:
        lines.append(f"layer functions not found, reported as 0: {missing}")
    return tracers


def per_layer_metrics(tracers, untraced, split) -> dict:
    (t1, s1), (t2, s2) = tracers
    metrics = {}
    for name in tracing.SPAN_NAMES:
        metrics[f"{name}.calls"] = (t1.calls[name], "count")
        metrics[f"{name}.self_s"] = ((t1.self_s[name] + t2.self_s[name]) / 2, "s")
    for name in tracing.COUNT_NAMES:
        metrics[name] = (t1.counts[name], "count")
    evaluations = t1.calls["monotone.evaluate_theorem"]
    metrics["monotone.reverify_yield"] = (
        t1.counts["monotone.counterexamples"] / evaluations if evaluations else 0.0, "ratio")
    weights = t1.counts["kernels.kernel_vector.weights"]
    metrics["kernels.kernel_vector.ns_per_weight"] = (
        metrics["kernels.kernel_vector.self_s"][0] / weights * 1e9 if weights else 0.0, "ns")
    metrics["pass.rational.items_per_s"] = (split["rational"], "1/s")
    metrics["pass.floating.items_per_s"] = (split["floating"], "1/s")
    metrics["trace_overhead_s"] = ((s1 + s2) / 2 - untraced, "s")
    return metrics


def run(args, lines) -> dict:
    sys.path.insert(0, str(SRC))
    # The campaign's prefilter matmuls are too small to gain from a second
    # BLAS thread (same wall time, twice the CPU time), and a spinning BLAS
    # worker on a 2-core box makes pass times noisier.  Inherited by the
    # set-up probes; set before numpy loads.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    t_start = time.perf_counter()
    import numpy

    import discfrac
    import discfrac.cli

    oracles = load_oracles()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        setup = measure_setup(args.workload, args.seed, workdir)
        workload = workloads.make(args.workload, args.seed, workdir)
        meta = metadata(args, workload, numpy.__version__)
        main = discfrac.cli.main
        gate = Gate(workload)
        t_first = time.perf_counter()
        passes = timed_passes(workload, main, gate,
                              args.seconds / 2 if args.trace else args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        pass_s = statistics.median(p["scaled"] for p in passes)
        items = sum(gate.items)
        record = {"meta": meta, "setup_s": describe(setup),
                  "pass_s": describe([p["scaled"] for p in passes]),
                  "wall_pass_s": describe([p["wall"] for p in passes]),
                  "reference_s": describe([p["ref_after"] for p in passes]),
                  "main_setup_s": t_first - t_start}
        correct = True
        if args.trace:
            tracers = traced_passes(workload, main, gate, discfrac,
                                    passes[-1]["ref_after"], lines)
            counts = [t.exact_counts() for t, _ in tracers]
            if counts[0] != counts[1]:
                correct = False
                diff = {k: (v, counts[1][k]) for k, v in counts[0].items() if v != counts[1][k]}
                lines.append(f"FAIL deterministic counts differ between traced passes: {diff}")
            record["exact_counts"] = counts[0]
            record["spans"] = tracing.write_spans(
                str(OUT_DIR / f"spans-{args.workload}.jsonl"), [t for t, _ in tracers])
            metrics = per_layer_metrics(tracers, pass_s,
                                        backend_split(workload, passes, gate))
        else:
            metrics = {
                "setup_s": (statistics.median(setup), "s"),
                "pass_s": (pass_s, "s"),
                "items_per_s": (items / pass_s, "1/s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }

        gate.add_deep(oracles)
        checks = workload.self_test(lambda argv: call_cli(main, argv)[0],
                                    gate.first["texts"], oracles)
        for label, flagged in checks:
            lines.append(f"gate self-test: {label}: {'flagged' if flagged else 'NOT FLAGGED'}")
            correct = correct and flagged

        result = {
            "correct": correct and gate.failed == 0,
            "attempted": gate.attempted,
            "failed": gate.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        record.update(result)
        record["fail_ratio"] = gate.failed / gate.attempted
        record["problems"] = gate.problems[:50]
        lines.append("meta " + json.dumps(meta, sort_keys=True))
        lines.append(f"setup_s samples {json.dumps(record['setup_s'])}")
        lines.append(f"pass_s samples {json.dumps(record['pass_s'])}; "
                     f"{items} {workload.item} per pass")
        lines.append(f"unscaled wall seconds {json.dumps(record['wall_pass_s'])}")
        lines.append(f"reference_work seconds {json.dumps(record['reference_s'])}")
        lines.append(f"fail_ratio {gate.failed}/{gate.attempted} = {record['fail_ratio']}")
        lines.extend(f"problem: {x}" for x in gate.problems[:20])
        for name, metric in result["metrics"].items():
            lines.append(f"{name} = {metric['value']:.6g} {metric['unit']}")
        out = OUT_DIR / f"result-{args.workload}-trace{args.trace}.json"
        out.write_text(json.dumps(record, indent=1, sort_keys=True, default=str) + "\n",
                       encoding="utf-8")
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    missing = [p for p in (SRC / "discfrac" / "cli.py", ORACLES) if not p.is_file()]
    if missing:
        print(f"perfbench: program sources not found: {[str(p) for p in missing]}",
              file=sys.stderr)
        return 2
    lines = []
    result = run(args, lines)
    for line in lines:
        print(f"# {line}")
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
