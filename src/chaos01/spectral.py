"""Spectral inspection helpers: a normalized periodogram and amplitude
normalization.

These support qualitative, side-by-side comparison of signals before the
regularity test runs, so the estimator is deliberately simple: a single
rectangular-window periodogram, rescaled to a unit maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import TimeSeries
from .errors import MissingSampleRateError, SeriesTooShortError

MIN_PSD_SAMPLES = 8

#: The largest sample magnitudes that psd transforms as they are: their
#: squared amplitudes, at most (N * 2**64)**2, stay far inside the float
#: range.  Samples outside are first scaled by a power of two into [0.5, 1).
_UNSCALED = (2.0**-64, 2.0**64)


@dataclass(frozen=True)
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
    samples = series.samples
    top = max(float(samples.max()), -float(samples.min()))
    if top > 0.0 and not _UNSCALED[0] <= top <= _UNSCALED[1]:
        # a power of two scales exactly, and keeps the squares from overflowing
        # or underflowing; the normalized power is the same at any scale
        samples = np.ldexp(samples, -math.frexp(top)[1])
    amplitudes = np.fft.rfft(samples)
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
    s = series.samples
    lo = float(s.min())
    hi = float(s.max())
    if hi == lo:
        scaled = np.full(s.size, 0.5)
    elif math.isfinite(hi - lo):
        scaled = (s - lo) / (hi - lo)
    else:  # the range overflows; halving is exact there and keeps every step finite
        scaled = (s / 2 - lo / 2) / (hi / 2 - lo / 2)
    return TimeSeries(scaled, sample_rate=series.sample_rate, label=series.label)
