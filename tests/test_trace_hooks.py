"""perfbench's tracer wraps package names from outside; they must stay bound.

The tracer replaces each name in the module's namespace, where the package
looks it up at call time.  A refactor that drops or renames one leaves its
layer unmeasured, and perfbench's own tests are not part of this suite.
"""

import ast

from test_startup import ROOT, python

# The names the tracer wraps in ``meanbounds.verify`` and
# ``meanbounds.family`` (``HOOKS`` in perfbench/tracer.py), as
# ``CLI_HOOK_NAMES`` in test_startup.py lists those in ``meanbounds.cli``.
TRACED_NAMES = {
    "verify": ("sharp_thresholds", "verify_family_inequality",
               "verify_exponential_bounds", "verify_convex_power_bound",
               "verify_two_thirds_power", "falsify", "empirical_threshold",
               "grid_points", "_log_ratio_with_scale", "_exp_bound_margin_with_scale",
               "_lr_with_error_scale", "_mp_family_margin", "_mp_exp_margin",
               "_mp_power_margin", "certify_sign"),
    "family": ("_lr_with_error_scale",),
}
# The tracer also wraps this name, which the package no longer binds; its
# metric reads 0.
STALE_NAMES = {("verify", "enclose_log_ratio")}


def test_names_match_the_tracer():
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    hooks = next(node.value for node in tree.body
                 if isinstance(node, ast.AnnAssign) and node.target.id == "HOOKS")
    traced = {}
    for entry in hooks.elts:
        module, name = (ast.literal_eval(e) for e in entry.elts[:2])
        package, _, submodule = module.partition(".")
        assert package == "meanbounds", module
        if submodule in TRACED_NAMES and (submodule, name) not in STALE_NAMES:
            traced.setdefault(submodule, []).append(name)
    assert {module: tuple(names) for module, names in traced.items()} == TRACED_NAMES


def test_names_stay_bound():
    script = f"""
import importlib

for module, names in {TRACED_NAMES!r}.items():
    namespace = vars(importlib.import_module("meanbounds." + module))
    for name in names:
        assert callable(namespace.get(name)), (module, name)
"""
    proc = python("-c", script)
    assert proc.returncode == 0, proc.stderr
