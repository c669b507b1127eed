"""Independent reference computations for the benchmark's output checks.

Nothing here imports ``chaos01``: each quantity the program reports is
recomputed from its definition (Gottwald & Melbourne 2009) with code of the
benchmark's own, so a check fails when the program drifts from the
definition, not when it drifts from a stored copy of an earlier output.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.fft

TWO_PI = 2.0 * math.pi
N0_FRACTION = 0.28
TRIM = 0.25
#: Upper band edges and their labels; K_m at or above the last edge is chaotic.
BANDS = ((0.2, "regular"), (0.5, "quasi_periodic"), (0.8, "aperiodic"))
CHAOTIC = "chaotic_or_stochastic"


def band_label(k_m: float) -> str:
    for edge, name in BANDS:
        if k_m < edge:
            return name
    return CHAOTIC


def draw_angles(seed: int, num_c: int = 100) -> np.ndarray:
    """The probe angles of a run: uniform draws on (0, 2*pi) from PCG64(seed)."""
    draws = np.random.Generator(np.random.PCG64(seed)).uniform(0.0, TWO_PI, num_c)
    if not np.all((draws > 0.0) & (draws < TWO_PI)):
        raise ValueError("an endpoint draw needs the redraw rule; pick another seed")
    return draws


def lag_count(n: int) -> int:
    return max(2, math.floor(N0_FRACTION * n))


def msd_curve(samples: np.ndarray, c: float, n0: int) -> np.ndarray:
    """Mean square displacement M(1..n0) of the complex path z = p + i q.

    |z(j+n) - z(j)|^2 summed over j is the two squared-norm tails minus twice
    the real part of the path's autocorrelation at lag n, which one complex
    FFT of length >= N + n0 gives for every lag without wrap-around.
    """
    n = samples.size
    j = np.arange(1, n + 1, dtype=float)
    z = np.cumsum(samples * np.exp(1j * (j * c)))
    energy = np.concatenate(([0.0], np.cumsum(np.abs(z) ** 2)))
    lags = np.arange(1, n0 + 1)
    size = scipy.fft.next_fast_len(n + n0)
    spectrum = scipy.fft.fft(z, size)
    acf = scipy.fft.ifft(np.abs(spectrum) ** 2)[1:n0 + 1].real
    return (energy[n] - energy[lags] + energy[n - lags] - 2.0 * acf) / n


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    dx = x - x.mean()
    dy = y - y.mean()
    return float(np.dot(dx, dy) / math.sqrt(np.dot(dx, dx) * np.dot(dy, dy)))


def k_c(samples: np.ndarray, c: float) -> float:
    n0 = lag_count(samples.size)
    return pearson(np.arange(1.0, n0 + 1.0), msd_curve(samples, c, n0))


def trimmed_mean(values, fraction: float = TRIM) -> float:
    ordered = sorted(abs(v) for v in values)
    cut = int(fraction * len(ordered))
    kept = ordered[cut:len(ordered) - cut]
    return math.fsum(kept) / len(kept)


def dft_power(samples: np.ndarray, k: int) -> float:
    """|X_k|^2 of one DFT bin, summed directly."""
    j = np.arange(samples.size, dtype=float)
    x = np.dot(samples, np.exp(-2j * math.pi * k * j / samples.size))
    return abs(x) ** 2
