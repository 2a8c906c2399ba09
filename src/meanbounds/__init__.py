"""Bivariate means, sharp comparison thresholds, and inequality verification.

The library evaluates the classical arithmetic, geometric, harmonic, and
identric means plus a two-parameter interpolating family, computes the
closed-form sharp thresholds at which the family crosses the identric
mean, and verifies or falsifies the associated inequalities by grid
evaluation, counterexample search, empirical threshold recovery, and
interval-arithmetic sign certification on compact subintervals and from
the open end at 0.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it.  A name is imported
# on first access (PEP 562 module __getattr__), so ``import meanbounds``
# loads neither numpy nor mpmath until a caller needs a name that does.
_EXPORTS = {
    **dict.fromkeys((
        "PositivePair",
        "arithmetic_mean",
        "geometric_mean",
        "harmonic_mean",
        "identric_mean",
        "q_mean",
        "gap",
        "pair_from_gap",
        "log_identric_over_arithmetic",
    ), "means"),
    **dict.fromkeys((
        "FamilyParams",
        "log_ratio_q_over_i",
        "derivative_kernel",
        "derivative_kernel_near_one",
        "log_ratio_limit_at_one",
        "exp_bound_margin",
    ), "family"),
    **dict.fromkeys((
        "ThresholdSet",
        "ExponentialBoundConstants",
        "sharp_thresholds",
        "membership",
        "exponential_bound_constants",
        "threshold_consistency",
    ), "thresholds"),
    **dict.fromkeys((
        "GridSpec",
        "Witness",
        "VerificationReport",
        "FalsificationResult",
        "TwoThirdsPowerReport",
        "CertificateNode",
        "grid_points",
        "verify_family_inequality",
        "falsify",
        "empirical_threshold",
        "verify_exponential_bounds",
        "verify_convex_power_bound",
        "verify_two_thirds_power",
        "certify_sign",
        "certificate_leaves",
        "certificate_succeeded",
    ), "verify"),
}
_SUBMODULES = frozenset(("cli", "family", "intervals", "means", "thresholds",
                         "verify"))

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name in _SUBMODULES:
        # Importing a submodule binds it in this namespace.
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_EXPORTS[name]}")
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
