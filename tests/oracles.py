"""Slow, obvious forms of what chaos01 computes fast, for the tests to compare
against.  Each is written from its definition rather than from the package's
kernel, and each lives only here."""

import math

import numpy as np

import chaos01 as c


def translation(samples, angle):
    """p(n) = sum_{j<=n} s(j) cos(jc) and q(n) = sum_{j<=n} s(j) sin(jc),
    each n summed afresh."""
    n = len(samples)
    p = [sum(samples[i] * math.cos((i + 1) * angle) for i in range(k + 1)) for k in range(n)]
    q = [sum(samples[i] * math.sin((i + 1) * angle) for i in range(k + 1)) for k in range(n)]
    return np.array(p), np.array(q)


def msd(p, q, lags):
    """M(n) = (1/N) sum_{j=1}^{N-n} [(p(j+n) - p(j))^2 + (q(j+n) - q(j))^2]
    at each lag n in ``lags``, each an O(N) sum of its own displacements."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    n_len = p.size
    out = np.empty(len(lags))
    for i, lag in enumerate(lags):
        dp = p[lag:] - p[:n_len - lag]
        dq = q[lag:] - q[:n_len - lag]
        out[i] = (dp @ dp + dq @ dq) / n_len
    return out


def worst_turn_error(mp, steps, samples, angles, js):
    """Largest |error| of a real or imaginary part of steps[a, j - 1] against
    s(j) e^{ijc} in 200-bit mpmath, in units of |s(j)|."""
    worst = 0.0
    with mp.workprec(200):
        for row, angle in zip(steps, angles):
            for j in js:
                phase = mp.mpf(int(j)) * mp.mpf(float(angle))
                s = mp.mpf(float(samples[j - 1]))
                z = row[j - 1]
                worst = max(worst, abs(float((mp.mpf(float(z.real)) - s * mp.cos(phase)) / s)),
                            abs(float((mp.mpf(float(z.imag)) - s * mp.sin(phase)) / s)))
    return worst


def per_angle_rates(series, config):
    """The growth rate at each angle ``run_test`` reports, computed one angle
    at a time through the public stages."""
    n0 = c.lag_window(len(series), config.n0_fraction)
    mean = float(np.mean(series.samples))
    growth = {c.Method.CORRELATION: c.growth_rate_correlation,
              c.Method.REGRESSION: c.growth_rate_regression}[config.method]
    rates = []
    for reported in c.run_test(series, config).per_c:
        values = c.msd(c.translation_variables(series, reported.c), n0).values
        if config.msd_variant is c.MsdVariant.CORRECTED:
            values = values - c.oscillation_correction(reported.c, n0, mean)
        rates.append(growth(c.MsdCurve(c=reported.c, values=values)))
    return rates


def draw_frequencies(config):
    """The probe angles, one PCG64 draw at a time, skipping any that is not
    strictly inside (c_low, c_high)."""
    rng = np.random.Generator(np.random.PCG64(config.seed))
    draws = []
    while len(draws) < config.num_c:
        angle = rng.uniform(config.c_low, config.c_high)
        if config.c_low < angle < config.c_high:
            draws.append(float(angle))
    return draws
