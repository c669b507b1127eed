"""Unit tests for translation variables, displacement curves, growth rates,
aggregation, classification, and the run_test driver."""

import json
import math
import os
import platform
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chaos01 as c
from chaos01 import core

# ---------------------------------------------------------------------------
# oracles: independent re-summation, written against the defining sums rather
# than the vectorized implementation


def naive_translation(samples, angle):
    n = len(samples)
    p = [sum(samples[i] * math.cos((i + 1) * angle) for i in range(k + 1)) for k in range(n)]
    q = [sum(samples[i] * math.sin((i + 1) * angle) for i in range(k + 1)) for k in range(n)]
    return np.array(p), np.array(q)


def naive_msd(p, q, n0):
    n = len(p)
    out = []
    for lag in range(1, n0 + 1):
        total = 0.0
        for j in range(n - lag):
            total += (p[j + lag] - p[j]) ** 2 + (q[j + lag] - q[j]) ** 2
        out.append(total / n)
    return np.array(out)


finite_samples = st.lists(
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False), min_size=1, max_size=60
)
angles = st.floats(min_value=0.01, max_value=6.27)


# ---------------------------------------------------------------------------
# translation variables


def test_translation_example_quarter_turn():
    traj = c.translation_variables(c.TimeSeries([1.0, 2.0, 3.0]), math.pi / 2)
    assert np.allclose(traj.p, [0.0, -2.0, -2.0], atol=1e-12)
    assert np.allclose(traj.q, [1.0, 1.0, -2.0], atol=1e-12)


def test_translation_zero_series_stays_at_origin():
    traj = c.translation_variables(c.TimeSeries(np.zeros(40)), 2.5)
    assert not traj.p.any() and not traj.q.any()


def test_translation_single_sample_uses_index_one():
    traj = c.translation_variables(c.TimeSeries([2.0]), 1.3)
    assert traj.p[0] == pytest.approx(2.0 * math.cos(1.3), rel=1e-15)
    assert traj.q[0] == pytest.approx(2.0 * math.sin(1.3), rel=1e-15)


@pytest.mark.parametrize("angle", [0.0, 2.0 * math.pi, -0.5, 7.0])
def test_translation_rejects_angle_outside_open_interval(angle):
    with pytest.raises(c.InvalidParameterError):
        c.translation_variables(c.TimeSeries([1.0, 2.0]), angle)


@given(samples=finite_samples, angle=angles)
@settings(max_examples=60, deadline=None)
def test_translation_matches_resummation(samples, angle):
    traj = c.translation_variables(c.TimeSeries(samples), angle)
    p, q = naive_translation(samples, angle)
    assert np.allclose(traj.p, p, rtol=1e-9, atol=1e-9)
    assert np.allclose(traj.q, q, rtol=1e-9, atol=1e-9)


@given(samples=finite_samples, angle=angles)
@settings(max_examples=40, deadline=None)
def test_translation_increments_follow_recurrence(samples, angle):
    traj = c.translation_variables(c.TimeSeries(samples), angle)
    n = len(samples)
    steps_p = np.diff(traj.p)
    steps_q = np.diff(traj.q)
    j = np.arange(2, n + 1)
    assert np.allclose(steps_p, np.asarray(samples)[1:] * np.cos(j * angle), atol=1e-9)
    assert np.allclose(steps_q, np.asarray(samples)[1:] * np.sin(j * angle), atol=1e-9)


def _worst_turn_error(mp, steps, samples, angles, js):
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


def test_steps_are_within_an_ulp_at_a_million_samples():
    # fl(j c) alone is off by up to j c 2^-53, about 5e-10 at j = 10^6
    mp = pytest.importorskip("mpmath")
    n_len = 10**6
    width = math.isqrt(n_len) + 1
    edges = {q * width + d for q in range(1, n_len // width + 1, 37) for d in (-1, 0, 1)}
    js = sorted(j for j in edges | {1, 2, width, n_len - 1, n_len} if 1 <= j <= n_len)
    angles = np.array([2.0 * math.pi / 50.0, 1e-7, c.TWO_PI - 1e-9])  # resonant, near 0 and 2 pi
    samples = np.ones(n_len)
    steps = core._steps(samples, angles)
    assert steps.shape == (3, n_len)
    assert _worst_turn_error(mp, steps, samples, angles, js) <= 4.5e-16
    # a row does not depend on the other angles of its call
    assert np.array_equal(core._steps(samples, angles[2:])[0], steps[2])


@pytest.mark.parametrize("n_len", [1, 2, 3, 4, 15, 16, 17, 99, 100, 101, 1000])
def test_steps_cover_every_index_at_square_and_other_lengths(n_len):
    mp = pytest.importorskip("mpmath")
    samples = np.random.default_rng(n_len).uniform(0.5, 2.0, n_len)
    angles = np.array([0.3, 2.0 * math.pi / 50.0, 5.9])
    steps = core._steps(samples, angles)
    assert steps.shape == (3, n_len)
    # within 4.5e-16 of the turn, then one rounding of the product by s(j)
    error = _worst_turn_error(mp, steps, samples, angles, range(1, n_len + 1))
    assert error <= 4.5e-16 + 2.0**-53


def test_steps_memory_stays_near_one_row():
    # one complex row at 100k samples is 1.53 MiB; phases as their own
    # array would add 0.76 MiB more
    samples = c.gen_quasiperiodic(5000.0, 100_000).samples
    tracemalloc.start()
    try:
        core._steps(samples, np.array([0.7]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_time_series_validation():
    with pytest.raises(c.InvalidParameterError):
        c.TimeSeries([])
    with pytest.raises(c.InvalidParameterError):
        c.TimeSeries([1.0, float("nan")])
    with pytest.raises(c.InvalidParameterError):
        c.TimeSeries([1.0, float("inf")])
    with pytest.raises(c.InvalidParameterError):
        c.TimeSeries([[1.0, 2.0]])
    for bad in (0.0, math.inf, math.nan):
        with pytest.raises(c.InvalidParameterError):
            c.TimeSeries([1.0], sample_rate=bad)


def test_time_series_samples_are_read_only():
    series = c.TimeSeries([1.0, 2.0])
    with pytest.raises(ValueError):
        series.samples[0] = 5.0


def test_time_series_leaves_the_callers_array_writable_and_uncopied():
    samples = np.zeros(5)
    series = c.TimeSeries(samples)
    samples[0] = 1.0
    assert np.shares_memory(series.samples, samples)
    assert not series.samples.flags.writeable
    assert series.samples[0] == 1.0


# ---------------------------------------------------------------------------
# mean square displacement


def _traj(p, q, angle=1.0):
    return c.TranslationTrajectory(c=angle, p=np.asarray(p, float), q=np.asarray(q, float))


def test_msd_worked_example():
    # displacements by hand: lag 1 gives (4 + 9)/3, lag 2 gives (4 + 9)/3
    curve = c.msd(_traj([0.0, -2.0, -2.0], [1.0, 1.0, -2.0]), 2)
    assert np.allclose(curve.values, [13.0 / 3.0, 13.0 / 3.0], rtol=1e-15)
    assert curve.n_max == 2


def test_msd_zero_trajectory_is_zero():
    curve = c.msd(_traj(np.zeros(10), np.zeros(10)), 4)
    assert not curve.values.any()


@pytest.mark.parametrize("n0", [0, 5, 6, -1])
def test_msd_rejects_bad_lag_window(n0):
    with pytest.raises(c.InvalidParameterError):
        c.msd(_traj(np.arange(5.0), np.arange(5.0)), n0)


@given(samples=finite_samples, angle=angles)
@settings(max_examples=40, deadline=None)
def test_msd_matches_resummation(samples, angle):
    if len(samples) < 2:
        samples = samples + [1.0]
    traj = c.translation_variables(c.TimeSeries(samples), angle)
    n0 = min(12, len(samples) - 1)
    curve = c.msd(traj, n0)
    oracle = naive_msd(traj.p, traj.q, n0)
    assert np.allclose(curve.values, oracle, rtol=1e-9, atol=1e-9)


@given(samples=finite_samples, angle=angles)
@settings(max_examples=30, deadline=None)
def test_msd_is_nonnegative(samples, angle):
    if len(samples) < 2:
        samples = samples + [0.5]
    traj = c.translation_variables(c.TimeSeries(samples), angle)
    curve = c.msd(traj, len(samples) - 1)
    assert (curve.values >= 0.0).all()


def _direct_msd(p, q, n0):
    n_len = p.size
    out = np.empty(n0)
    for n in range(1, n0 + 1):
        dp = p[n:] - p[:n_len - n]
        dq = q[n:] - q[:n_len - n]
        out[n - 1] = (dp @ dp + dq @ dq) / n_len
    return out


def test_msd_fast_path_matches_direct_evaluation_at_scale():
    """The FFT kernel must agree with the plain per-lag differences
    everywhere, including on resonantly drifting paths where the
    rearrangement cancels hardest."""
    cases = [
        (c.gen_sawtooth(), 2.0 * math.pi / 50.0),
        (c.gen_sawtooth(), 2.5),
        (c.gen_henon(), 2.5),
        (c.gen_uniform_random(5000, 0), 0.7),
    ]
    for series, angle in cases:
        traj = c.translation_variables(series, angle)
        got = c.msd(traj, 1400).values
        want = _direct_msd(traj.p, traj.q, 1400)
        assert np.allclose(got, want, rtol=1e-9, atol=1e-9 * want.max()), angle
        assert (got >= 0.0).all()


def test_msd_kernel_matches_direct_evaluation_on_short_windows():
    # 800 samples: the size of a short screening window
    series = c.gen_quasiperiodic(5000.0, 800)
    n0 = c.lag_window(800, c.DEFAULT_N0_FRACTION)
    for angle in (0.3, 2.0 * math.pi / 50.0, 2.5, 5.9):
        traj = c.translation_variables(series, angle)
        got = c.msd(traj, n0).values
        want = _direct_msd(traj.p, traj.q, n0)
        assert np.allclose(got, want, rtol=1e-9, atol=1e-12 * want.max()), angle


@pytest.mark.parametrize("n_len, n0, size", [
    (190, 53, 243), (290, 81, 375), (520, 145, 675),  # odd: no Nyquist bin
    (500, 140, 640), (800, 224, 1024),
])
def test_msd_kernel_matches_direct_evaluation_at_odd_and_even_fft_lengths(n_len, n0, size):
    # The real inverse FFT pairs bin k with bin (L - k) % L; odd and even L
    # index the middle of the spectrum differently.
    assert core._fast_len(n_len + n0) == size
    angles = np.array([0.3, 2.0 * math.pi / 50.0, 2.5, 5.9])  # the second is resonant
    for series in (c.gen_sawtooth(100.0, 5000.0, n_len), c.gen_quasiperiodic(5000.0, n_len)):
        got = core._msd_rows(core._steps(series.samples, angles), n0, size)
        for row, angle in zip(got, angles):
            traj = c.translation_variables(series, angle)
            want = _direct_msd(traj.p, traj.q, n0)
            assert np.allclose(row, want, rtol=1e-9, atol=1e-12 * want.max()), (size, angle)


@pytest.mark.parametrize("n_len, n0, size", [(190, 53, 243), (800, 224, 1024)])  # odd, even L
def test_msd_kernel_rows_do_not_depend_on_what_its_buffers_held(n_len, n0, size):
    # run_test's workers reuse one table and one spectrum for every chunk
    series = c.gen_quasiperiodic(5000.0, n_len)
    other = c.gen_sawtooth(100.0, 5000.0, n_len)
    angles = np.array([0.3, 2.0 * math.pi / 50.0, 2.5])
    fresh = core._msd_rows(core._steps(series.samples, angles), n0, size)
    table = np.full(3 * max(math.prod(core._grid(n_len)), size // 2 + 1), np.nan, dtype=complex)
    spectrum = np.full(3 * size, np.nan, dtype=complex)
    per_lag = np.full(3 * 3 * n0, np.nan, dtype=complex)

    def rows(samples, chunk):
        return core._msd_rows(core._steps(samples, chunk, table), n0, size, table, spectrum,
                              per_lag)

    first = rows(series.samples, angles)  # buffers full of NaN
    assert np.array_equal(first, fresh)
    rows(other.samples, np.array([5.9, 1.1, 4.0]))
    assert np.array_equal(rows(series.samples, angles), fresh)  # another chunk's data
    assert np.array_equal(rows(series.samples, angles[1:]), fresh[1:])  # a short last chunk
    assert np.array_equal(first, fresh)  # the rows it returned are its own memory


def test_msd_kernel_keeps_short_lags_at_a_million_samples():
    # At the resonant angle the path drifts linearly, so sums of |z|^2 grow
    # like N^3 while the short-lag displacement sums stay O(N).  Each checked
    # lag costs one O(N) direct sum.
    series = c.gen_sawtooth(100.0, 5000.0, 10**6)
    traj = c.translation_variables(series, 2.0 * math.pi / 50.0)
    n0 = c.lag_window(len(series), c.DEFAULT_N0_FRACTION)
    got = c.msd(traj, n0).values
    for lag in (1, 10, 1000, n0):
        dp = traj.p[lag:] - traj.p[:-lag]
        dq = traj.q[lag:] - traj.q[:-lag]
        want = (math.fsum(dp * dp) + math.fsum(dq * dq)) / len(series)
        assert got[lag - 1] == pytest.approx(want, rel=1e-9), lag


def test_msd_fast_path_keeps_flat_trajectory_flat():
    # impulse series: the path jumps once then stays put, so every lag in
    # the plateau region must come out exactly zero, not rounding dust
    samples = np.zeros(3000)
    samples[0] = 2.0
    traj = c.translation_variables(c.TimeSeries(samples), 1.1)
    curve = c.msd(traj, 1000)
    assert not curve.values.any()
    assert c.growth_rate_correlation(curve).degenerate


# ---------------------------------------------------------------------------
# growth rates


def test_regression_recovers_linear_growth():
    curve = c.MsdCurve(c=1.0, values=np.arange(1.0, 101.0))
    rate = c.growth_rate_regression(curve)
    assert rate.k == pytest.approx(1.0, abs=1e-12)
    assert not rate.degenerate


def test_regression_recovers_quadratic_growth():
    n = np.arange(1.0, 51.0)
    rate = c.growth_rate_regression(c.MsdCurve(c=1.0, values=n**2))
    assert rate.k == pytest.approx(2.0, abs=1e-12)


def test_regression_flat_curve_is_degenerate():
    rate = c.growth_rate_regression(c.MsdCurve(c=1.0, values=np.full(30, 7.0)))
    assert rate.k == 0.0
    assert rate.degenerate


def test_regression_skips_nonpositive_points():
    n = np.arange(1.0, 31.0)
    values = n**2
    values[0] = 0.0
    rate = c.growth_rate_regression(c.MsdCurve(c=1.0, values=values))
    assert rate.k == pytest.approx(2.0, abs=1e-12)
    assert not rate.degenerate


def test_regression_degenerate_when_too_few_usable_points():
    rate = c.growth_rate_regression(c.MsdCurve(c=1.0, values=np.array([0.0, 0.0, 3.0])))
    assert rate.degenerate and rate.k == 0.0


def test_correlation_perfect_linear_growth():
    values = 2.0 * np.arange(1.0, 41.0)
    rate = c.growth_rate_correlation(c.MsdCurve(c=1.0, values=values))
    assert rate.k == pytest.approx(1.0, abs=1e-12)
    assert rate.method is c.Method.CORRELATION


def test_correlation_perfect_decay():
    values = -3.0 * np.arange(1.0, 41.0) + 500.0
    rate = c.growth_rate_correlation(c.MsdCurve(c=1.0, values=values))
    assert rate.k == pytest.approx(-1.0, abs=1e-12)


def test_correlation_flat_curve_is_degenerate():
    rate = c.growth_rate_correlation(c.MsdCurve(c=1.0, values=np.full(25, 4.2)))
    assert rate.k == 0.0
    assert rate.degenerate


@given(values=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=2, max_size=200))
@settings(max_examples=80, deadline=None)
def test_correlation_is_bounded(values):
    rate = c.growth_rate_correlation(c.MsdCurve(c=1.0, values=np.array(values)))
    assert math.isfinite(rate.k)
    assert abs(rate.k) <= 1.0


@given(samples=finite_samples, angle=angles,
       alpha=st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=40, deadline=None)
# flat curves, and one whose variation is below the kernel's rounding floor
@example(samples=[0.0, 0.0, 0.0, 1.0], angle=1.0, alpha=15.0)
@example(samples=[0.0, 0.0, 1e-12, 1.0], angle=1.0, alpha=3.0)
def test_growth_rate_is_scale_invariant(samples, angle, alpha):
    if len(samples) < 4:
        samples = samples + [1.0, -2.0, 3.0, 4.0]
    n0 = max(2, len(samples) // 3)

    def k_of(scaled, method):
        traj = c.translation_variables(c.TimeSeries(scaled), angle)
        curve = c.msd(traj, n0)
        return method(curve)

    for method in (c.growth_rate_correlation, c.growth_rate_regression):
        base = k_of(samples, method)
        scaled = k_of([alpha * s for s in samples], method)
        assert base.degenerate == scaled.degenerate
        if not base.degenerate:
            assert scaled.k == pytest.approx(base.k, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# aggregation and classification


def _rates(ks, degenerate=()):
    out = []
    for i, k in enumerate(ks):
        out.append(c.GrowthRate(c=1.0 + i, k=k, method=c.Method.CORRELATION,
                                degenerate=i in degenerate))
    return out


def test_aggregate_mean_uses_absolute_values():
    assert c.aggregate_k(_rates([0.5, -0.5]), c.Aggregator.MEAN) == pytest.approx(0.5)


def test_aggregate_median():
    assert c.aggregate_k(_rates([0.1, 0.9, 0.3]), c.Aggregator.MEDIAN) == pytest.approx(0.3)


def test_aggregate_trimmed_mean_cuts_both_tails():
    # floor(8 * 0.25) = 2 cut from each end: mean of the middle four
    ks = [0.0, 0.1, 0.4, 0.5, 0.6, 0.7, 1.0, 1.0]
    expected = (0.4 + 0.5 + 0.6 + 0.7) / 4.0
    assert c.aggregate_k(_rates(ks), c.Aggregator.TRIMMED_MEAN, 0.25) == pytest.approx(expected)


def test_aggregate_excludes_degenerate_entries():
    rates = _rates([0.2, 0.0, 0.4], degenerate={1})
    assert c.aggregate_k(rates, c.Aggregator.MEAN) == pytest.approx(0.3)


def test_aggregate_unknown_name_raises():
    with pytest.raises(c.InvalidParameterError):
        c.aggregate_k(_rates([0.5]), "bogus")


def test_aggregate_all_degenerate_raises():
    with pytest.raises(c.AllDegenerateError):
        c.aggregate_k(_rates([0.0, 0.0], degenerate={0, 1}), c.Aggregator.MEAN)


@pytest.mark.parametrize("k_m,expected", [
    (0.0, c.Regime.REGULAR),
    (0.094, c.Regime.REGULAR),
    (0.177, c.Regime.REGULAR),
    (0.2, c.Regime.QUASI_PERIODIC),
    (0.357, c.Regime.QUASI_PERIODIC),
    (0.5, c.Regime.APERIODIC),
    (0.52, c.Regime.APERIODIC),
    (0.8, c.Regime.CHAOTIC_OR_STOCHASTIC),
    (0.98, c.Regime.CHAOTIC_OR_STOCHASTIC),
    (1.3, c.Regime.CHAOTIC_OR_STOCHASTIC),
])
def test_classify_band_edges(k_m, expected):
    assert c.classify(k_m) is expected


def test_classify_rejects_negative():
    with pytest.raises(c.InvalidParameterError):
        c.classify(-0.1)


def test_classify_with_custom_bands():
    bands = c.ClassificationBands(regular_max=0.3, quasi_periodic_max=0.6, aperiodic_max=0.9)
    assert c.classify(0.25, bands) is c.Regime.REGULAR
    assert c.classify(0.85, bands) is c.Regime.APERIODIC


def test_bands_must_be_ordered():
    with pytest.raises(c.InvalidParameterError):
        c.ClassificationBands(regular_max=0.5, quasi_periodic_max=0.5, aperiodic_max=0.8)
    with pytest.raises(c.InvalidParameterError):
        c.ClassificationBands(regular_max=-0.1, quasi_periodic_max=0.5, aperiodic_max=0.8)


# ---------------------------------------------------------------------------
# configuration


@pytest.mark.parametrize("kwargs", [
    {"num_c": 0},
    {"c_low": -0.1},
    {"c_high": 7.0},
    {"c_low": 3.0, "c_high": 3.0},
    {"c_low": 1.0, "c_high": math.nextafter(1.0, 2.0)},  # no float between: the draw never ends
    {"trim_fraction": 0.5},
    {"n0_fraction": 0.0},
    {"n0_fraction": 0.6},
    {"seed": -1},
    {"method": "centroid"},
    {"num_c": 2.5},
    {"num_c": True},
    {"seed": 1.5},
    {"seed": True},
    {"seed": "3"},
    {"aggregator": "trimmed"},
    {"aggregator": ["mean"]},
    {"msd_variant": "smoothed"},
    {"bands": {"regular_max": 0.1}},
    {"bands": 3},
])
def test_config_validation(kwargs):
    with pytest.raises(c.InvalidParameterError):
        c.TestConfig(**kwargs)


def test_config_coerces_enum_strings():
    config = c.TestConfig(method="regression", aggregator="median", msd_variant="corrected")
    assert config.method is c.Method.REGRESSION
    assert config.aggregator is c.Aggregator.MEDIAN
    assert config.msd_variant is c.MsdVariant.CORRECTED


def test_lag_window_floor_and_minimum():
    assert c.lag_window(5000, 0.28) == 1400
    assert c.lag_window(5000, 0.1) == 500
    assert c.lag_window(10, 0.28) == 2
    assert c.lag_window(3, 0.28) == 2


# ---------------------------------------------------------------------------
# run_test driver


def test_run_test_is_deterministic():
    # the second case spans several chunks of angles
    cases = [
        (c.gen_uniform_random(1200, seed=5), c.TestConfig(num_c=25, seed=11)),
        (c.gen_henon(), c.TestConfig(num_c=50, seed=2, method="regression",
                                     msd_variant="corrected")),
    ]
    for series, config in cases:
        first = c.run_test(series, config)
        second = c.run_test(series, config)
        assert first.k_m == second.k_m
        assert [r.c for r in first.per_c] == [r.c for r in second.per_c]
        assert [r.k for r in first.per_c] == [r.k for r in second.per_c]
        assert first.label is second.label


def test_run_test_draws_respect_frequency_range():
    series = c.gen_uniform_random(400, seed=2)
    config = c.TestConfig(num_c=40, c_low=1.0, c_high=2.0, seed=3)
    result = c.run_test(series, config)
    assert len(result.per_c) == 40
    assert all(1.0 < r.c < 2.0 for r in result.per_c)


def test_run_test_seed_changes_the_draw():
    series = c.gen_uniform_random(400, seed=2)
    a = c.run_test(series, c.TestConfig(num_c=10, seed=0))
    b = c.run_test(series, c.TestConfig(num_c=10, seed=1))
    assert [r.c for r in a.per_c] != [r.c for r in b.per_c]


def test_run_test_zero_series_all_degenerate():
    with pytest.raises(c.AllDegenerateError):
        c.run_test(c.TimeSeries(np.zeros(1200)), c.TestConfig(num_c=10))


def test_run_test_constant_series_is_finite():
    result = c.run_test(c.TimeSeries(np.full(1200, 3.7)), c.TestConfig(num_c=20))
    assert math.isfinite(result.k_m)
    assert all(math.isfinite(r.k) for r in result.per_c)


def test_run_test_single_sample_too_short():
    with pytest.raises(c.SeriesTooShortError):
        c.run_test(c.TimeSeries([1.0]))


def test_run_test_two_samples_too_short():
    with pytest.raises(c.SeriesTooShortError):
        c.run_test(c.TimeSeries([1.0, 2.0]))


def test_run_test_three_samples_run():
    result = c.run_test(c.TimeSeries([1.0, -1.0, 0.5]), c.TestConfig(num_c=5))
    assert math.isfinite(result.k_m)
    assert result.short_series


def test_run_test_short_series_flag_threshold():
    assert c.run_test(c.gen_uniform_random(999, 1), c.TestConfig(num_c=5)).short_series
    assert not c.run_test(c.gen_uniform_random(1000, 1), c.TestConfig(num_c=5)).short_series


def test_run_test_respects_method_choice():
    series = c.gen_uniform_random(800, seed=4)
    reg = c.run_test(series, c.TestConfig(num_c=10, method=c.Method.REGRESSION))
    assert all(r.method is c.Method.REGRESSION for r in reg.per_c)
    cor = c.run_test(series, c.TestConfig(num_c=10, method=c.Method.CORRELATION))
    assert all(abs(r.k) <= 1.0 for r in cor.per_c)
    assert reg.k_m != cor.k_m


def test_run_test_aggregator_choice_changes_pooling():
    series = c.gen_uniform_random(800, seed=4)
    k_m = {
        agg: c.run_test(series, c.TestConfig(num_c=15, aggregator=agg)).k_m
        for agg in c.Aggregator
    }
    rates = c.run_test(series, c.TestConfig(num_c=15)).per_c
    assert k_m[c.Aggregator.MEAN] == pytest.approx(np.mean([abs(r.k) for r in rates]))
    assert k_m[c.Aggregator.MEDIAN] == pytest.approx(np.median([abs(r.k) for r in rates]))


def test_run_test_corrected_variant_matches_plain_for_zero_mean():
    rng = np.random.Generator(np.random.PCG64(9))
    samples = rng.normal(size=900)
    samples -= samples.mean()
    series = c.TimeSeries(samples)
    plain = c.run_test(series, c.TestConfig(num_c=10))
    corrected = c.run_test(series, c.TestConfig(num_c=10, msd_variant=c.MsdVariant.CORRECTED))
    assert corrected.k_m == pytest.approx(plain.k_m, abs=1e-9)


def test_run_test_corrected_variant_shifts_offset_series():
    series = c.TimeSeries(c.gen_sine(100, 5000, 1500).samples + 5.0)
    plain = c.run_test(series, c.TestConfig(num_c=10))
    corrected = c.run_test(series, c.TestConfig(num_c=10, msd_variant=c.MsdVariant.CORRECTED))
    assert math.isfinite(corrected.k_m)
    assert corrected.k_m != plain.k_m


def test_oscillation_correction_closed_form():
    vals = c.oscillation_correction(1.2, 5, 2.0)
    n = np.arange(1, 6)
    expected = 4.0 * (1.0 - np.cos(n * 1.2)) / (1.0 - math.cos(1.2))
    assert np.allclose(vals, expected, rtol=1e-14)


def test_result_k_m_matches_recomputed_aggregate():
    series = c.gen_uniform_random(700, seed=8)
    result = c.run_test(series, c.TestConfig(num_c=20))
    assert c.recompute_k_m(result) == pytest.approx(result.k_m, abs=1e-12)


def _per_angle_rates(series, config):
    # run_test spelled out one angle at a time through the public stages
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


@pytest.mark.parametrize("method", list(c.Method))
@pytest.mark.parametrize("variant", list(c.MsdVariant))
def test_run_test_matches_per_angle_stages(method, variant):
    series = c.TimeSeries(c.gen_sine(100.0, 5000.0, 2000).samples + 0.3)
    config = c.TestConfig(num_c=30, seed=6, method=method, msd_variant=variant)
    result = c.run_test(series, config)
    reference = _per_angle_rates(series, config)
    assert [r.degenerate for r in result.per_c] == [r.degenerate for r in reference]
    assert np.allclose([r.k for r in result.per_c], [r.k for r in reference], rtol=0, atol=1e-12)


def test_run_test_chunking_does_not_move_results(monkeypatch):
    series = c.gen_henon()
    config = c.TestConfig(num_c=50, seed=3)
    # one row per chunk, the default (20 rows at N = 5000), all rows at once
    results = []
    for budget in (1, core._CHUNK_ELEMENTS, 1 << 30):
        monkeypatch.setattr(core, "_CHUNK_ELEMENTS", budget)
        results.append(c.run_test(series, config))
    reference = results[-1]
    assert len(reference.per_c) == 50
    for result in results[:-1]:
        assert [r.c for r in result.per_c] == [r.c for r in reference.per_c]
        assert np.allclose([r.k for r in result.per_c], [r.k for r in reference.per_c],
                           rtol=0, atol=1e-13)
        assert result.k_m == pytest.approx(reference.k_m, abs=1e-13)


@pytest.mark.parametrize("method", list(c.Method))
def test_run_test_is_identical_for_any_worker_count(monkeypatch, method):
    # henon at N = 5000 packs 20 angles per chunk, so 50 angles are 3 chunks
    series = c.gen_henon()
    config = c.TestConfig(num_c=50, seed=4, method=method, msd_variant="corrected")
    threads = set()
    msd_rows = core._msd_rows

    def spy(steps, n0, size, table, spectrum, per_lag):
        threads.add(threading.get_ident())
        return msd_rows(steps, n0, size, table, spectrum, per_lag)

    monkeypatch.setattr(core, "_msd_rows", spy)
    # let the CPU count, not the chunks-in-flight cap, set the workers
    monkeypatch.setattr(core, "_CHUNKS_IN_FLIGHT", 3)
    calling = threading.get_ident()
    results = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(core, "usable_cpus", lambda: workers)
        threads.clear()
        results.append(c.run_test(series, config))
        assert len(threads) <= workers
        assert (threads == {calling}) == (workers == 1)
        assert calling in threads
    first = results[0]
    for result in results[1:]:
        assert [r.c for r in result.per_c] == [r.c for r in first.per_c]
        assert [r.k for r in result.per_c] == [r.k for r in first.per_c]
        assert [r.degenerate for r in result.per_c] == [r.degenerate for r in first.per_c]
        assert result.k_m == first.k_m


def test_run_test_leaves_no_thread_behind(monkeypatch):
    monkeypatch.setattr(core, "usable_cpus", lambda: 2)
    before = set(threading.enumerate())
    c.run_test(c.gen_henon(), c.TestConfig(num_c=50))
    assert set(threading.enumerate()) == before


def test_run_test_inside_a_worker_thread_matches_the_calling_thread(monkeypatch):
    # batch calls run_test from its own pool's threads
    monkeypatch.setattr(core, "usable_cpus", lambda: 2)
    series = c.gen_henon()
    config = c.TestConfig(num_c=50, seed=9, method="regression")
    direct = c.run_test(series, config)
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(c.run_test, series, config) for _ in range(2)]
        nested = [future.result(timeout=120) for future in futures]
    for result in nested:
        assert [r.k for r in result.per_c] == [r.k for r in direct.per_c]
        assert result.k_m == direct.k_m


# ---------------------------------------------------------------------------
# workspaces that run_test keeps from one call to the next

_HELD_CONFIG = c.TestConfig(num_c=60, seed=5)  # two chunks at 2000 samples, 60 rows at 100k


def _outcome(result):
    return [(r.c, r.k, r.degenerate) for r in result.per_c], result.k_m


@pytest.fixture(scope="module")
def fresh_outcomes():
    """Each length's outcome from its own fresh process, which holds nothing."""
    code = ("import json, sys\n"
            "import chaos01 as c\n"
            "r = c.run_test(c.gen_quasiperiodic(5000.0, int(sys.argv[1])),\n"
            "               c.TestConfig(num_c=60, seed=5))\n"
            "print(json.dumps([[(g.c.hex(), g.k.hex(), g.degenerate) for g in r.per_c],\n"
            "                  r.k_m.hex()]))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(core.__file__)))
    outcomes = {}
    for n_len in (800, 2000, 100_000):
        proc = subprocess.run([sys.executable, "-c", code, str(n_len)], env=env, check=True,
                              capture_output=True, text=True, timeout=120)
        per_c, k_m = json.loads(proc.stdout)
        outcomes[n_len] = ([(float.fromhex(angle), float.fromhex(k), degenerate)
                            for angle, k, degenerate in per_c], float.fromhex(k_m))
    return outcomes


def _run_lengths(lengths):
    """Outcomes of one thread's calls at each length in turn, checking what it holds."""
    done = []
    for n_len in lengths:
        done.append(_outcome(c.run_test(c.gen_quasiperiodic(5000.0, n_len), _HELD_CONFIG)))
        assert 1 <= len(core._workspaces.held) <= core._CHUNKS_IN_FLIGHT
    return done


def test_run_test_values_do_not_depend_on_what_its_thread_held(monkeypatch, fresh_outcomes):
    # buffers kept from a 100k call are reused, full of its data, at 2000, then
    # those at 800, and so on
    monkeypatch.setattr(core, "usable_cpus", lambda: 2)
    lengths = (100_000, 2000, 800, 2000)
    for n_len, outcome in zip(lengths, _run_lengths(lengths)):
        assert outcome == fresh_outcomes[n_len], n_len


def test_run_test_values_do_not_depend_on_another_threads_workspaces(monkeypatch,
                                                                    fresh_outcomes):
    # batch --jobs 2: two file threads call run_test at once, each with its own
    monkeypatch.setattr(core, "usable_cpus", lambda: 2)
    orders = [(100_000, 2000, 800, 2000), (2000, 800, 2000, 800)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(_run_lengths, lengths) for lengths in orders]
        outcomes = [future.result(timeout=120) for future in futures]
    for lengths, done in zip(orders, outcomes):
        for n_len, outcome in zip(lengths, done):
            assert outcome == fresh_outcomes[n_len], n_len


def test_run_test_holds_nothing_after_a_chunk_over_the_budget(monkeypatch):
    monkeypatch.setattr(core, "usable_cpus", lambda: 2)
    c.run_test(c.gen_quasiperiodic(5000.0, 2000), _HELD_CONFIG)
    assert len(core._workspaces.held) == 2
    c.run_test(c.gen_quasiperiodic(5000.0, 150_000), c.TestConfig(num_c=2))
    assert core._workspaces.held == []


def test_a_warm_run_test_allocates_no_chunk_sized_buffer(monkeypatch):
    # at 2000 samples one chunk is a worker's whole slice, so without kept
    # workspaces every call allocates about 5 MiB per worker
    monkeypatch.setattr(core, "usable_cpus", lambda: 2)
    series = c.gen_quasiperiodic(5000.0, 2000)
    c.run_test(series)
    spectrum = core._workspaces.held[0][1]
    tracemalloc.start()
    try:
        c.run_test(series)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert core._workspaces.held[0][1] is spectrum
    assert peak < spectrum.nbytes


def test_msd_kernel_memory_stays_near_a_few_rows_of_arrays():
    # one row at 100k samples; two chunks in flight need the kernel this lean
    series = c.gen_quasiperiodic(5000.0, 100_000)
    n0 = c.lag_window(len(series), c.DEFAULT_N0_FRACTION)
    steps = core._steps(series.samples, np.array([0.7]))
    tracemalloc.start()
    try:
        core._msd_rows(steps, n0, core._fast_len(len(series) + n0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_run_test_memory_stays_near_one_row(monkeypatch):
    # 100k samples: one angle per chunk, so the peak is a few rows' arrays,
    # not one per angle, and a 16-CPU host keeps as few in flight as 2 CPUs
    monkeypatch.setattr(core, "usable_cpus", lambda: 16)
    series = c.gen_quasiperiodic(5000.0, 100_000)
    tracemalloc.start()
    try:
        c.run_test(series)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="counts glibc's page faults")
def test_run_test_rows_reuse_pages_instead_of_faulting_in_fresh_ones():
    # 100k samples, one angle per chunk.  Per-row arrays handed back to the
    # OS and faulted in again cost about 2900 faults a row; each worker's
    # reused buffers leave the FFT's own scratch, about 500 a row.
    import resource  # Unix only

    def faults(num_c):
        code = ("from chaos01 import TestConfig, gen_quasiperiodic, run_test\n"
                f"run_test(gen_quasiperiodic(5000.0, 100_000), TestConfig(num_c={num_c}))")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(core.__file__)))
        before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before

    assert faults(100) - faults(10) < 90_000
