"""Tests for the normalized periodogram and amplitude normalization."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chaos01 as c


def test_psd_sine_peak_at_tone(sine_series):
    estimate = c.psd(sine_series)
    peak_bin = int(np.argmax(estimate.power))
    assert estimate.frequencies[peak_bin] == pytest.approx(100.0, abs=1.0)
    assert estimate.power[peak_bin] == 1.0


def test_psd_off_bin_tone_peak_within_one_bin():
    # 103.4 Hz is not an FFT bin at fs/N = 1 Hz resolution
    series = c.gen_sine(103.4, 5000.0, 5000)
    estimate = c.psd(series)
    peak = estimate.frequencies[np.argmax(estimate.power)]
    assert abs(peak - 103.4) <= 5000.0 / 5000


def test_psd_quasi_periodic_has_two_dominant_peaks(quasi_series):
    estimate = c.psd(quasi_series)
    strong = np.nonzero(estimate.power > 0.5)[0]
    assert strong.size == 2
    freqs = estimate.frequencies[strong]
    assert freqs[0] == pytest.approx(100.0, abs=1.0)
    assert freqs[1] == pytest.approx(100.0 * math.sqrt(2.0), abs=1.0)


def test_psd_zero_series_stays_zero():
    estimate = c.psd(c.TimeSeries(np.zeros(64), sample_rate=100.0))
    assert not estimate.power.any()


def test_psd_axis_runs_to_nyquist():
    estimate = c.psd(c.TimeSeries(np.arange(16.0), sample_rate=32.0))
    assert estimate.frequencies[0] == 0.0
    assert estimate.frequencies[-1] == 16.0
    assert np.all(np.diff(estimate.frequencies) > 0)
    assert estimate.frequencies.size == estimate.power.size


def test_psd_power_normalized_to_unit_peak(henon_series):
    estimate = c.psd(c.TimeSeries(henon_series.samples, sample_rate=1.0))
    assert estimate.power.max() == 1.0
    assert (estimate.power >= 0.0).all()


NOISE = c.gen_uniform_random(2000, seed=3).samples


@given(k=st.integers(-1000, 1000))
@example(k=-1000)
@example(k=1000)
@example(k=-64)  # max|s| just below 2**-64, the first scaled magnitude
@example(k=-63)
@example(k=64)
@example(k=65)  # max|s| just above 2**64
@settings(max_examples=60, deadline=None)
def test_psd_power_is_the_same_under_any_power_of_two_scale(k):
    scaled = np.ldexp(NOISE, k)
    assert np.array_equal(np.ldexp(scaled, -k), NOISE)  # the scaled samples are exact
    expected = c.psd(c.TimeSeries(NOISE, sample_rate=500.0)).power
    assert np.array_equal(c.psd(c.TimeSeries(scaled, sample_rate=500.0)).power, expected)


@pytest.mark.parametrize("factor", [1e160, 1e-170, 1e300, 1e-300])
def test_psd_at_extreme_magnitudes_matches_the_unscaled_power(factor):
    # not a power of two, so only close; before the scaling 1e160 gave nan
    # power with an overflow warning and 1e-170 all zeros
    power = c.psd(c.TimeSeries(NOISE * factor, sample_rate=500.0)).power
    expected = c.psd(c.TimeSeries(NOISE, sample_rate=500.0)).power
    assert np.allclose(power, expected, rtol=1e-9, atol=1e-12)
    assert power.max() == 1.0


def test_psd_requires_sample_rate(henon_series):
    with pytest.raises(c.MissingSampleRateError):
        c.psd(henon_series)


def test_psd_requires_minimum_length():
    with pytest.raises(c.SeriesTooShortError):
        c.psd(c.TimeSeries(np.ones(7), sample_rate=10.0))


# ---------------------------------------------------------------------------
# amplitude normalization


def test_normalize_symmetric_range():
    out = c.normalize_amplitude(c.TimeSeries([-1.0, 0.0, 1.0]))
    assert np.array_equal(out.samples, [0.0, 0.5, 1.0])


@pytest.mark.parametrize("edge", [1e308, 1.5e308, 1.7976931348623157e308])
def test_normalize_a_range_that_overflows(edge):
    # hi - lo is inf here; a RuntimeWarning would fail the test (warnings are errors)
    out = c.normalize_amplitude(c.TimeSeries([-edge, 0.0, edge]))
    assert np.array_equal(out.samples, [0.0, 0.5, 1.0])


def test_normalize_constant_maps_to_half():
    out = c.normalize_amplitude(c.TimeSeries([5.0, 5.0, 5.0]))
    assert np.array_equal(out.samples, [0.5, 0.5, 0.5])


def test_normalize_two_points():
    out = c.normalize_amplitude(c.TimeSeries([2.0, 4.0]))
    assert np.array_equal(out.samples, [0.0, 1.0])


def test_normalize_keeps_metadata(sine_series):
    out = c.normalize_amplitude(sine_series)
    assert out.sample_rate == sine_series.sample_rate
    assert out.label == sine_series.label


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=80))
@settings(max_examples=80, deadline=None)
def test_normalize_is_idempotent(samples):
    once = c.normalize_amplitude(c.TimeSeries(samples))
    twice = c.normalize_amplitude(once)
    assert np.allclose(twice.samples, once.samples, atol=1e-12)
    assert once.samples.min() >= 0.0
    assert once.samples.max() <= 1.0


@pytest.mark.parametrize("fixture", ["sine_series", "henon_series"])
def test_normalize_preserves_regime_label(fixture, request):
    series = request.getfixturevalue(fixture)
    config = c.TestConfig(num_c=50, seed=3)
    raw = c.run_test(series, config)
    scaled = c.run_test(c.normalize_amplitude(series), config)
    assert raw.label is scaled.label
