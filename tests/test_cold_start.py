"""What a fresh interpreter loads: ``check`` and ``apply`` run without numpy
and without the theorem engine; ``theorems`` and the package's theorem names
load both on first use."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import discfrac
from discfrac import monotone

SRC = str(Path(discfrac.__file__).resolve().parents[1])
MONOTONE_NAMES = ("TheoremCase", "TheoremVerdict", "THEOREMS", "evaluate_theorem", "make_case")


def run_fresh(code: str, tmp_path) -> dict:
    """Run ``code`` in a new interpreter that imports discfrac from this
    tree; the code leaves its findings as JSON in ``result``."""
    script = f"import json, sys\nsys.path.insert(0, {SRC!r})\n{textwrap.dedent(code)}\n" \
             "print(json.dumps(result))\n"
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_check_and_apply_load_neither_numpy_nor_the_theorem_engine(tmp_path):
    (tmp_path / "f.json").write_text(json.dumps(
        {"origin": "0", "direction": "forward", "values": ["1", "1/2", "-1/3", "2", "5/4"]}))
    result = run_fresh("""
        from discfrac.cli import main
        codes = []
        for backend in ("floating", "rational"):
            codes.append(main(["check", "--all", "--instances", "1", "--backend", backend,
                               "--report", "checks.jsonl"]))
            for family, form in [("sum", "composed"), ("riemann", "composed"),
                                 ("riemann", "direct"), ("caputo", "composed")]:
                codes.append(main(["apply", "--input", "f.json", "--kind", "nabla",
                                   "--family", family, "--form", form, "--order", "3/2",
                                   "--backend", backend, "--output", "out.json"]))
        result = {"codes": codes,
                  "loaded": [m for m in ("numpy", "discfrac.monotone") if m in sys.modules]}
    """, tmp_path)
    assert result == {"codes": [0] * 10, "loaded": []}


def test_theorems_and_theorem_names_load_the_engine(tmp_path):
    result = run_fresh("""
        import discfrac
        from discfrac.cli import main
        before = "discfrac.monotone" in sys.modules
        code = main(["theorems", "--id", "T_U1", "--length", "3", "--report", "t.jsonl"])
        from discfrac import monotone
        result = {"before": before, "code": code, "numpy": "numpy" in sys.modules,
                  "same": discfrac.THEOREMS is monotone.THEOREMS}
    """, tmp_path)
    assert result == {"before": False, "code": 0, "numpy": True, "same": True}


def test_first_theorem_name_access_loads_the_engine(tmp_path):
    result = run_fresh("""
        import discfrac
        before = "discfrac.monotone" in sys.modules
        from discfrac import evaluate_theorem
        result = {"before": before, "same": evaluate_theorem is
                  sys.modules["discfrac.monotone"].evaluate_theorem}
    """, tmp_path)
    assert result == {"before": False, "same": True}


@pytest.mark.parametrize("name", MONOTONE_NAMES)
def test_package_serves_the_theorem_engines_objects(name):
    assert name in discfrac.__all__
    assert getattr(discfrac, name) is getattr(monotone, name)


def test_star_import_serves_every_public_name():
    namespace = {}
    exec("from discfrac import *", namespace)
    assert set(discfrac.__all__) <= namespace.keys()
    for name in MONOTONE_NAMES:
        assert namespace[name] is getattr(monotone, name)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        discfrac.no_such_name
    assert not hasattr(discfrac, "search_campaign")
