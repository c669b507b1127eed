"""Spectral inspection helpers: a normalized periodogram and amplitude
normalization.

These support qualitative, side-by-side comparison of signals before the
regularity test runs, so the estimator is deliberately simple: a single
rectangular-window periodogram, rescaled to a unit maximum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TimeSeries, _in_range
from .errors import MissingSampleRateError, SeriesTooShortError

MIN_PSD_SAMPLES = 8

@dataclass(frozen=True, eq=False)
class PsdEstimate:
    """One-sided power spectrum, normalized so the peak equals 1.

    ``frequencies`` run from 0 to the Nyquist frequency; ``power`` is
    unitless.  An all-zero input keeps all-zero power, the one case where
    no normalization is possible.
    """

    frequencies: np.ndarray
    power: np.ndarray


def psd(series: TimeSeries) -> PsdEstimate:
    """Single-segment periodogram of a series.

    Raises
    ------
    MissingSampleRateError
        If the series does not carry a sample rate (the frequency axis
        would be meaningless).
    SeriesTooShortError
        If fewer than 8 samples are available.
    """
    if series.sample_rate is None:
        raise MissingSampleRateError("psd needs a series with a sample rate")
    n = len(series)
    if n < MIN_PSD_SAMPLES:
        raise SeriesTooShortError(f"psd needs at least {MIN_PSD_SAMPLES} samples, got {n}")
    # the normalized power is the same at any scale
    amplitudes = np.fft.rfft(_in_range(series.samples))
    power = np.abs(amplitudes) ** 2
    peak = power.max()
    if peak > 0.0:
        power /= peak
    frequencies = np.fft.rfftfreq(n, d=1.0 / series.sample_rate)
    return PsdEstimate(frequencies=frequencies, power=power)


def normalize_amplitude(series: TimeSeries) -> TimeSeries:
    """Affinely map samples onto [0, 1].

    A constant series has no range to stretch and maps to all 0.5 by
    convention.  Regularity labels are unaffected by this rescaling (the
    growth statistic is scale-invariant), so it is safe to apply before
    analysis for display purposes.
    """
    s = _in_range(series.samples)  # so that hi - lo cannot overflow
    lo = float(s.min())
    hi = float(s.max())
    scaled = np.full(s.size, 0.5) if hi == lo else (s - lo) / (hi - lo)
    return TimeSeries(scaled, sample_rate=series.sample_rate, label=series.label)
