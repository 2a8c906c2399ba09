"""Start-up cost: each command imports numpy and mpmath only if it needs them.

Every test runs a fresh interpreter on ``src/``, because the interpreter
running the suite has long since imported the whole package.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SUBMODULES = ("cli", "family", "intervals", "means", "thresholds", "verify")
# The names perfbench's tracer wraps in ``meanbounds.cli``.
CLI_HOOK_NAMES = ("verify_family_inequality", "falsify", "empirical_threshold",
                  "sharp_thresholds")


def python(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("MEANBOUNDS_GRID", None)
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)


def imported_packages(*args: str) -> tuple[subprocess.CompletedProcess, set]:
    """Run with ``-X importtime``; the top-level packages it imported."""
    proc = python("-X", "importtime", *args)
    names = {line.rsplit("|", 1)[1].strip().split(".")[0]
             for line in proc.stderr.splitlines()
             if line.startswith("import time:")}
    return proc, names


def test_import_time_report_is_parsed():
    _, names = imported_packages("-c", "import json")
    assert "json" in names


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


@pytest.mark.parametrize("argv", [
    ("eval", "1", "2"),
    ("verify", "--s", "2", "--t", "0.24", "--side", "lower"),
])
def test_eval_and_holding_verify_load_no_mpmath(argv):
    proc, names = imported_packages("-m", "meanbounds", *argv)
    assert proc.returncode == 0, proc.stderr
    assert "numpy" in names
    assert "mpmath" not in names


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
