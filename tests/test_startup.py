"""Start-up cost: each command imports numpy and mpmath only if it needs them.

Every test runs a fresh interpreter on ``src/``, because the interpreter
running the suite has long since imported the whole package.
"""

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SUBMODULES = ("cli", "family", "intervals", "means", "thresholds", "verify", "witness")
# The names perfbench's tracer wraps in ``meanbounds.cli``.
CLI_HOOK_NAMES = ("verify_family_inequality", "falsify", "empirical_threshold",
                  "sharp_thresholds")


def python(*args: str, **environ: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), **environ}
    env.pop("MEANBOUNDS_GRID", None)
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)


# Runs the child's command and, at exit, writes the top-level names in its
# sys.modules to the file named in its environment.
_REPORT_LOADED = """
import atexit, os, runpy, sys

def _report(path=os.environ.pop("MEANBOUNDS_LOADED_OUT")):
    with open(path, "w") as out:
        out.write(" ".join(sorted({name.split(".")[0] for name in sys.modules})))

atexit.register(_report)
mode, target, *rest = sys.argv[1:]
if mode == "-m":
    sys.argv = [target, *rest]
    runpy.run_module(target, run_name="__main__", alter_sys=True)
else:
    sys.argv = ["-c", *rest]
    exec(compile(target, "<string>", "exec"), {"__name__": "__main__"})
"""


def imported_packages(*args: str) -> tuple[subprocess.CompletedProcess, set]:
    """Run ``python -m MODULE ...`` or ``python -c CODE ...``; the top-level
    packages in the child's ``sys.modules`` once it has run.

    ``sys.modules`` holds what ``importlib.import_module`` loaded too, as
    ``meanbounds.__getattr__`` and ``cli._load`` do, which ``-X importtime``
    does not report.
    """
    fd, path = tempfile.mkstemp(prefix="loaded-", suffix=".txt")
    os.close(fd)
    try:
        proc = python("-c", _REPORT_LOADED, *args, MEANBOUNDS_LOADED_OUT=path)
        names = set(Path(path).read_text().split())
    finally:
        os.unlink(path)
    return proc, names


def test_loaded_packages_are_read():
    _, names = imported_packages("-c", "import json")
    assert "json" in names
    # -X importtime lists the modules fractions imports, never fractions.
    _, names = imported_packages("-c", "import importlib; importlib.import_module('fractions')")
    assert "fractions" in names


def test_bare_import_loads_neither_numpy_nor_mpmath():
    proc, names = imported_packages("-c", "import meanbounds")
    assert proc.returncode == 0, proc.stderr
    assert "meanbounds" in names
    assert not names & {"numpy", "mpmath"}


def test_thresholds_loads_neither_numpy_nor_mpmath():
    # Nor fractions, which pulls in decimal: only membership needs it.
    proc, names = imported_packages("-m", "meanbounds", "thresholds", "2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("s = 2\n")
    assert not names & {"numpy", "mpmath", "fractions", "decimal"}


def test_certificate_loads_neither_numpy_nor_mpmath():
    # The proof path runs on thresholds and intervals alone.  perfbench
    # resolves the certificate names through meanbounds.verify, so that
    # module must bind the same objects.
    script = """
import sys
from meanbounds import FamilyParams, certificate_succeeded, certify_sign, sharp_thresholds
from meanbounds import intervals
from meanbounds.intervals import FamilyParams as Params
from meanbounds.intervals import certificate_succeeded as succeeded
from meanbounds.intervals import certify_sign as certify

assert (certify, succeeded, Params) == (certify_sign, certificate_succeeded, FamilyParams)
p = sharp_thresholds(2.0).p
assert certificate_succeeded(certify_sign(p - 0.01, 2.0, 0.0, 0.99, "negative"), "negative")
loaded = {"numpy", "mpmath", "fractions"} & set(sys.modules)
assert not loaded, loaded
import meanbounds.verify as verify
for name in ("certify_sign", "certificate_succeeded", "CertificateNode"):
    assert getattr(verify, name) is getattr(intervals, name), name
"""
    proc = python("-c", script)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", [
    ("eval", "1", "2"),
    ("eval", "1", "2", "--format", "structured"),
    ("eval", "1", "2", "--t", "0.3", "--s", "2"),
    ("eval", "3", "3"),
])
def test_eval_loads_neither_numpy_nor_mpmath(argv):
    # identric_mean evaluates ln(I/A) in math; fractions would pull in
    # decimal, and only membership needs it.
    proc, names = imported_packages("-m", "meanbounds", *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(("pair: a = ", "{"))
    assert not names & {"numpy", "mpmath", "fractions", "decimal"}


@pytest.mark.parametrize("argv", [
    ("verify", "--s", "2", "--t", "0.24", "--side", "lower"),
    ("sweep", "--s", "1:2:1"),
])
def test_holding_verify_and_sweep_load_no_mpmath(argv):
    proc, names = imported_packages("-m", "meanbounds", *argv)
    assert proc.returncode == 0, proc.stderr
    assert "numpy" in names
    assert "mpmath" not in names


@pytest.mark.parametrize("argv, code, start", [
    (("falsify", "--s", "1", "--t", "0.2", "--side", "upper"), 0, "witness: x = "),
    (("falsify", "--s", "2", "--t", "0.26", "--side", "lower", "--format", "structured"), 0, "{"),
    (("falsify", "--s", "2", "--t", "0.24297805655104301", "--side", "lower"), 2, ""),
    (("falsify", "--s", "1", "--t", "0.16137820985148149", "--side", "lower"), 1,
     "not found after 10 attempts: "),
])
def test_falsify_loads_no_numpy(argv, code, start):
    # A found witness (human and structured), a holding side and a search
    # that finds none: the ladder is evaluated in math and decided by the
    # interval enclosure.
    proc, names = imported_packages("-m", "meanbounds", *argv)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout.startswith(start)
    assert "numpy" not in names
    assert "meanbounds" in names


def test_library_falsify_loads_no_numpy():
    # meanbounds.verify binds the same objects, for perfbench's tracer.
    script = """
import sys
from meanbounds import FalsificationResult, Witness, falsify

result = falsify(0.2, 1.0, "upper")
assert result.found and type(result) is FalsificationResult and type(result.witness) is Witness
assert "numpy" not in sys.modules
import meanbounds.verify as verify
for name in ("falsify", "FalsificationResult", "Witness"):
    assert getattr(verify, name) is globals()[name], name
"""
    proc = python("-c", script)
    assert proc.returncode == 0, proc.stderr


def test_certify_rejects_bad_s_before_loading_numpy():
    proc, names = imported_packages("-m", "meanbounds", "certify", "--s", "2e5")
    assert proc.returncode == 2
    assert "meanbounds certify: error: s = 200000 is too large" in proc.stderr
    assert "numpy" not in names


def test_violated_verify_loads_mpmath_for_the_recheck():
    proc, names = imported_packages("-m", "meanbounds", "verify", "--s", "2",
                                    "--t", "0.25", "--side", "lower")
    assert proc.returncode == 1, proc.stderr
    assert "recheck" in proc.stdout
    assert "mpmath" in names


def test_version():
    proc = python("-m", "meanbounds", "--version")
    assert proc.returncode == 0
    assert proc.stdout == "meanbounds 0.1.0\n"


def test_package_names_resolve():
    script = f"""
import types
import meanbounds

for name in {SUBMODULES!r}:
    module = getattr(meanbounds, name)
    assert isinstance(module, types.ModuleType), name
    assert module.__name__ == "meanbounds." + name, name
for name in meanbounds.__all__:
    assert getattr(meanbounds, name) is not None, name
assert set(meanbounds.__all__) | set({SUBMODULES!r}) <= set(dir(meanbounds))
namespace = {{}}
exec("from meanbounds import *", namespace)
assert set(meanbounds.__all__) <= set(namespace)
assert namespace["certify_sign"] is meanbounds.verify.certify_sign
try:
    meanbounds.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("unknown name resolved")
"""
    proc = python("-c", script)
    assert proc.returncode == 0, proc.stderr


def test_submodule_all_matches_the_export_table():
    # The package resolves each name through _EXPORTS; each submodule's
    # __all__ must export the same names, bound to the same objects.
    script = f"""
import meanbounds

for module in {SUBMODULES!r}:
    namespace = {{}}
    exec(f"from meanbounds.{{module}} import *", namespace)
    for name, home in meanbounds._EXPORTS.items():
        if home == module:
            assert namespace.get(name) is getattr(meanbounds, name), name
"""
    proc = python("-c", script)
    assert proc.returncode == 0, proc.stderr


def test_star_import_before_any_attribute_access():
    script = """
from meanbounds import *
import meanbounds
assert set(meanbounds.__all__) <= set(globals())
"""
    proc = python("-c", script)
    assert proc.returncode == 0, proc.stderr


def test_cli_hook_names_bound_before_any_command():
    script = f"""
import sys
import meanbounds.cli as cli

for name in {CLI_HOOK_NAMES!r}:
    fn = getattr(cli, name)
    assert vars(cli)[name] is fn, name
verify = sys.modules["meanbounds.verify"]
for name in {CLI_HOOK_NAMES[:3]!r}:
    assert getattr(cli, name) is getattr(verify, name), name
try:
    cli.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("unknown name resolved")
"""
    proc = python("-c", script)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", [
    ("thresholds", "2"),
    ("eval", "1", "2"),
    ("verify", "--s", "2", "--t", "0.24", "--side", "lower"),
    ("falsify", "--s", "2", "--t", "0.25", "--side", "lower"),
    ("sweep", "--s", "1:2:1"),
    ("certify", "--s", "2"),
])
@pytest.mark.parametrize("fmt", ["human", "structured"])
def test_no_command_loads_dataclasses(argv, fmt):
    # The package's records are named tuples.
    proc, names = imported_packages("-m", "meanbounds", *argv, "--format", fmt)
    assert proc.returncode in (0, 1), proc.stderr
    assert proc.stdout
    assert "dataclasses" not in names


@pytest.mark.parametrize("argv", [("thresholds", "2"), ("eval", "1", "2")])
def test_human_output_loads_neither_inspect_nor_json(argv):
    # dataclasses would import inspect; only structured output needs json.
    proc, names = imported_packages("-m", "meanbounds", *argv)
    assert proc.returncode == 0, proc.stderr
    assert not names & {"dataclasses", "inspect", "json"}


def test_package_source_imports_no_dataclasses():
    imported = []
    for path in sorted((ROOT / "src" / "meanbounds").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            imported += [(path.name, m) for m in modules if m.split(".")[0] == "dataclasses"]
    assert imported == []
