"""Chaos detection for scalar time series via diffusion of translation
variables, with reference signal generators, spectral helpers, file
ingestion, and batch tooling.

The public names live in the submodules and are imported on first use
(PEP 562), so ``import chaos01`` alone loads neither numpy nor any
submodule; the CLI relies on this to configure numpy before it loads."""

import importlib

__version__ = "0.1.0"

#: Each public name, under the submodule that defines it.
_EXPORTS = {
    "errors": (
        "AliasingError",
        "AllDegenerateError",
        "Chaos01Error",
        "DivergenceError",
        "InvalidParameterError",
        "MissingSampleRateError",
        "NonUniformSamplingError",
        "SeriesFormatError",
        "SeriesTooShortError",
    ),
    "core": (
        "DEFAULT_N0_FRACTION",
        "SHORT_SERIES_LIMIT",
        "TWO_PI",
        "Aggregator",
        "ClassificationBands",
        "GrowthRate",
        "Method",
        "MsdCurve",
        "MsdVariant",
        "Regime",
        "TestConfig",
        "TestResult",
        "TimeSeries",
        "TranslationTrajectory",
        "aggregate_k",
        "classify",
        "growth_rate_correlation",
        "growth_rate_regression",
        "lag_window",
        "msd",
        "oscillation_correction",
        "run_test",
        "translation_variables",
    ),
    "signals": (
        "GeneratorKind",
        "GeneratorSpec",
        "HenonState",
        "gen_chirp",
        "gen_henon",
        "gen_quasiperiodic",
        "gen_sawtooth",
        "gen_sine",
        "gen_uniform_random",
        "henon_step",
        "make_series",
    ),
    "spectral": (
        "PsdEstimate",
        "normalize_amplitude",
        "psd",
    ),
    "seriesio": (
        "SeriesFile",
        "SeriesFormat",
        "WindowPlan",
        "export_psd",
        "export_result",
        "export_scatter",
        "export_trajectory",
        "load_series",
        "recompute_k_m",
        "segment",
        "write_series",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
