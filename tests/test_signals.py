"""Tests for the reference signal generators."""

import math

import numpy as np
import pytest

import chaos01 as c

from conftest import REFERENCE_SIGNALS


# ---------------------------------------------------------------------------
# sine


def test_sine_starts_at_zero(sine_series):
    assert sine_series.samples[0] == 0.0


def test_sine_value_at_half_cycle_multiple(sine_series):
    # j-1 = 25 puts t at 5 ms, an integer number of half cycles of 100 Hz
    assert sine_series.samples[25] == pytest.approx(0.0, abs=1e-12)


def test_sine_matches_direct_evaluation(sine_series):
    t = np.arange(5000) / 5000.0
    assert np.allclose(sine_series.samples, np.sin(2.0 * math.pi * 100.0 * t), atol=1e-12)


def test_sine_range(sine_series):
    assert sine_series.samples.min() >= -1.0
    assert sine_series.samples.max() <= 1.0


def test_sine_metadata(sine_series):
    assert sine_series.sample_rate == 5000.0
    assert sine_series.label == "sine"
    assert len(sine_series) == 5000


def _aliasing_edge(generate, f_max):
    """``generate(fs)`` raises the one aliasing error at fs = 2 * f_max and
    returns a series at the next float above."""
    edge = 2.0 * f_max
    with pytest.raises(c.AliasingError, match=rf"^tone at {f_max} Hz needs a sample rate above "):
        generate(edge)
    assert generate(math.nextafter(edge, math.inf)).sample_rate > edge


def test_sine_rejects_aliasing():
    with pytest.raises(c.AliasingError):
        c.gen_sine(3000.0, 5000.0, 100)
    with pytest.raises(c.AliasingError):
        c.gen_sine(2500.0, 5000.0, 100)
    _aliasing_edge(lambda fs: c.gen_sine(100.0, fs, 100), 100.0)


def test_sine_rejects_nonpositive_frequency():
    with pytest.raises(c.InvalidParameterError):
        c.gen_sine(0.0, 5000.0, 100)


# ---------------------------------------------------------------------------
# sawtooth


def test_sawtooth_starts_at_zero(sawtooth_series):
    assert sawtooth_series.samples[0] == 0.0


def test_sawtooth_half_period_value(sawtooth_series):
    # t = 5 ms: 2*(0.5 - floor(1.0)) = -1
    assert sawtooth_series.samples[25] == -1.0


def test_sawtooth_quarter_period_value():
    # fs chosen so t = 2.5 ms lands on a sample: 2*(0.25 - floor(0.75)) = 0.5
    series = c.gen_sawtooth(100.0, 2000.0, 100)
    assert series.samples[5] == 0.5


def test_sawtooth_range(sawtooth_series):
    assert sawtooth_series.samples.min() >= -1.0
    assert sawtooth_series.samples.max() < 1.0


def test_sawtooth_repeats_exactly_every_period(sawtooth_series):
    s = sawtooth_series.samples
    assert np.array_equal(s[:-50], s[50:])


def test_sawtooth_matches_formula_for_irrational_period():
    # 5000/130 is not a whole number of samples, exercising the direct path
    series = c.gen_sawtooth(130.0, 5000.0, 400)
    t = np.arange(400) / 5000.0
    expected = 2.0 * (t * 130.0 - np.floor(0.5 + t * 130.0))
    assert np.array_equal(series.samples, expected)


def test_sawtooth_rejects_aliasing():
    with pytest.raises(c.AliasingError):
        c.gen_sawtooth(2500.0, 5000.0, 100)
    _aliasing_edge(lambda fs: c.gen_sawtooth(100.0, fs, 100), 100.0)


@pytest.mark.parametrize("f, fs", [(1e-300, 1e10), (1e-290, 1e8)], ids=["inf", "1e298"])
def test_sawtooth_huge_period_takes_the_direct_form(f, fs):
    # fs / f is a period that no integer array can hold
    series = c.gen_sawtooth(f, fs, 50)
    phase = (np.arange(50) / fs) * f
    assert np.array_equal(series.samples, 2.0 * (phase - np.floor(0.5 + phase)))


# ---------------------------------------------------------------------------
# quasi-periodic


def test_quasi_starts_at_two(quasi_series):
    assert quasi_series.samples[0] == 2.0


def test_quasi_value_at_five_ms(quasi_series):
    expected = math.cos(math.pi) + math.cos(math.pi * math.sqrt(2.0))
    assert quasi_series.samples[25] == pytest.approx(expected, abs=1e-12)
    assert quasi_series.samples[25] == pytest.approx(-1.26626, abs=5e-6)


def test_quasi_range(quasi_series):
    assert quasi_series.samples.min() >= -2.0
    assert quasi_series.samples.max() <= 2.0


def test_quasi_never_exactly_repeats(quasi_series):
    s = quasi_series.samples
    # sample the lag axis densely at short lags and coarsely beyond
    lags = list(range(1, 400)) + list(range(400, 5000, 7))
    for lag in lags:
        assert np.max(np.abs(s[lag:] - s[:-lag])) >= 1e-9, f"repeat at lag {lag}"


def test_quasi_rejects_aliasing():
    with pytest.raises(c.AliasingError):
        c.gen_quasiperiodic(280.0, 100)
    _aliasing_edge(lambda fs: c.gen_quasiperiodic(fs, 100), 100.0 * math.sqrt(2.0))


# ---------------------------------------------------------------------------
# chirp


def test_chirp_starts_at_zero(chirp_series):
    assert chirp_series.samples[0] == 0.0


def test_chirp_sample_count(chirp_series):
    assert len(chirp_series) == 5000


def test_chirp_matches_instantaneous_phase(chirp_series):
    t = np.arange(5000) / 5000.0
    expected = np.sin(2.0 * math.pi * (0.0 * t + 0.5 * 100.0 * t**2))
    assert np.allclose(chirp_series.samples, expected, atol=1e-12)


def test_chirp_accumulated_phase_at_sweep_end():
    # phase(T) = 2*pi*(f0*T + (f1-f0)*T/2): an exact half-turn count, so the
    # formula lands on (numerically) zero at t = T
    f0, f1, T = 0.0, 100.0, 1.0
    phase = 2.0 * math.pi * (f0 * T + 0.5 * (f1 - f0) / T * T**2)
    assert math.sin(phase) == pytest.approx(0.0, abs=1e-10)


def test_chirp_range(chirp_series):
    assert np.abs(chirp_series.samples).max() <= 1.0


def test_chirp_parameter_validation():
    with pytest.raises(c.InvalidParameterError):
        c.gen_chirp(100.0, 50.0, 1.0, 5000.0)
    with pytest.raises(c.InvalidParameterError):
        c.gen_chirp(-1.0, 100.0, 1.0, 5000.0)
    with pytest.raises(c.InvalidParameterError):
        c.gen_chirp(0.0, 100.0, 0.0, 5000.0)
    with pytest.raises(c.AliasingError):
        c.gen_chirp(0.0, 3000.0, 1.0, 5000.0)
    _aliasing_edge(lambda fs: c.gen_chirp(0.0, 100.0, 1.0, fs), 100.0)
    # a sample count no float can hold exactly, inf included
    for sweep_time in (math.inf, 1e300):
        with pytest.raises(c.InvalidParameterError, match=r"^sweep_time \* fs must be below"):
            c.gen_chirp(0.0, 100.0, sweep_time, 5000.0)
    with pytest.raises(c.InvalidParameterError, match="^sweep shorter than one sample$"):
        c.gen_chirp(0.0, 100.0, 1e-5, 5000.0)


# ---------------------------------------------------------------------------
# Henon map


def test_henon_first_iterate():
    series = c.gen_henon(total=1, keep=1)
    assert series.samples[0] == pytest.approx(1.02874, abs=1e-12)


def test_henon_step_matches_map():
    state = c.HenonState(x=0.03, y=0.03)
    nxt = c.henon_step(state)
    assert nxt.x == pytest.approx(1.02874, abs=1e-12)
    assert nxt.y == pytest.approx(0.009, abs=1e-15)


def test_henon_step_iterates_the_orbit_of_gen_henon():
    state, orbit = c.HenonState(x=0.03, y=0.03), []
    for _ in range(2000):
        state = c.henon_step(state)
        orbit.append(state.x)
    assert np.array_equal(orbit, c.gen_henon(total=2000, keep=2000).samples)


def test_henon_collapses_to_constant_when_coefficients_vanish():
    series = c.gen_henon(a=0.0, b=0.0, x0=0.5, y0=0.0, total=50, keep=50)
    assert np.array_equal(series.samples, np.ones(50))


def test_henon_default_run(henon_series):
    assert len(henon_series) == 5000
    assert henon_series.sample_rate is None
    assert henon_series.label == "henon"


def test_henon_stays_on_attractor(henon_series):
    assert np.abs(henon_series.samples).max() < 1.5


def test_henon_keep_slices_the_tail():
    full = c.gen_henon(total=200, keep=200)
    tail = c.gen_henon(total=200, keep=50)
    assert np.array_equal(tail.samples, full.samples[150:])


def test_henon_divergence_detected():
    with pytest.raises(c.DivergenceError):
        c.gen_henon(a=5.0, b=0.3, x0=1.0, y0=0.0, total=1000, keep=10)


def test_henon_validates_keep():
    with pytest.raises(c.InvalidParameterError):
        c.gen_henon(total=10, keep=11)
    for keep in (0, 2.5):
        with pytest.raises(c.InvalidParameterError):
            c.gen_henon(total=10, keep=keep)
    for name, counts in (("keep", {"keep": 2**53, "total": 2**53 + 1}),
                         ("total", {"total": 2**53})):
        with pytest.raises(c.InvalidParameterError, match=rf"^{name} must be below 2\*\*53, got "):
            c.gen_henon(**counts)


# ---------------------------------------------------------------------------
# uniform random


def test_uniform_random_range_and_size(random_series):
    assert len(random_series) == 5000
    assert random_series.samples.min() >= 0.0
    assert random_series.samples.max() <= 1.0


def test_uniform_random_validates_n():
    for generator in (c.gen_sine, c.gen_sawtooth, c.gen_quasiperiodic, c.gen_uniform_random):
        for bad in (0, 2.5, "5", True):
            with pytest.raises(c.InvalidParameterError, match="^n must be an integer"):
                generator(n=bad)
        with pytest.raises(c.InvalidParameterError, match=r"^n must be below 2\*\*53, got "):
            generator(n=2**53)
    for bad in (-1, 1.5, "3"):
        with pytest.raises(c.InvalidParameterError, match="^seed must be an integer"):
            c.gen_uniform_random(10, seed=bad)
    assert len(c.gen_uniform_random(3, seed=2**64)) == 3  # a seed is not a size


def test_uniform_random_mean_is_centered():
    for seed in (0, 1, 2, 3):
        mean = c.gen_uniform_random(5000, seed).samples.mean()
        assert 0.48 <= mean <= 0.52, f"seed {seed} gave mean {mean}"


def test_uniform_random_is_reproducible():
    a = c.gen_uniform_random(500, seed=42)
    b = c.gen_uniform_random(500, seed=42)
    assert np.array_equal(a.samples, b.samples)


def test_uniform_random_seed_changes_sequence():
    a = c.gen_uniform_random(500, seed=1)
    b = c.gen_uniform_random(500, seed=2)
    assert not np.array_equal(a.samples, b.samples)


# ---------------------------------------------------------------------------
# generator specs


@pytest.mark.parametrize("bad", ["5", None, True])
@pytest.mark.parametrize("generator, argument", [
    ("gen_sine", "f"), ("gen_sine", "fs"), ("gen_sawtooth", "f"), ("gen_sawtooth", "fs"),
    ("gen_quasiperiodic", "fs"), ("gen_chirp", "f0"), ("gen_chirp", "f1"),
    ("gen_chirp", "sweep_time"), ("gen_chirp", "fs"), ("gen_henon", "a"), ("gen_henon", "b"),
    ("gen_henon", "x0"), ("gen_henon", "y0"),
])
def test_generator_float_arguments_must_be_real_numbers(generator, argument, bad):
    with pytest.raises(c.InvalidParameterError, match=f"^{argument} must be a real number"):
        getattr(c, generator)(**{argument: bad})


def test_all_generators_satisfy_series_invariants(sine_series, sawtooth_series, quasi_series,
                                                  chirp_series, henon_series, random_series):
    for series in (sine_series, sawtooth_series, quasi_series,
                   chirp_series, henon_series, random_series):
        assert len(series) == 5000
        assert np.all(np.isfinite(series.samples))


@pytest.mark.parametrize("kind", list(c.GeneratorKind))
def test_make_series_dispatches_every_kind(kind):
    spec = c.GeneratorSpec(kind=kind, num_samples=64, sample_rate=5000.0)
    series = c.make_series(spec)
    assert len(series) == 64
    assert series.label == kind.value


def test_make_series_matches_direct_generator_calls():
    spec = c.GeneratorSpec(kind="sawtooth", num_samples=300, sample_rate=5000.0, freq=100.0)
    direct = c.gen_sawtooth(100.0, 5000.0, 300)
    assert np.array_equal(c.make_series(spec).samples, direct.samples)
    defaults = {"sine": c.gen_sine, "sawtooth": c.gen_sawtooth,
                "quasi_periodic": c.gen_quasiperiodic, "chirp": c.gen_chirp,
                "henon": c.gen_henon, "uniform_random": c.gen_uniform_random}
    for kind, build in REFERENCE_SIGNALS.items():  # the default spec of each kind
        made = c.make_series(c.GeneratorSpec(kind=kind))
        for direct in (build(), defaults[kind]()):  # the reference, and no arguments at all
            assert np.array_equal(made.samples, direct.samples), kind
            assert (made.sample_rate, made.label) == (direct.sample_rate, direct.label), kind


def test_spec_defaults_sample_rate_only_for_time_kinds():
    for kind in c.GeneratorKind:
        rate = c.GeneratorSpec(kind=kind).sample_rate
        if kind.value in ("henon", "uniform_random"):
            assert rate is None, kind
        else:
            assert rate == 5000.0, kind
        assert c.GeneratorSpec(kind=kind, sample_rate=250.0).sample_rate == 250.0, kind


def test_spec_validation():
    with pytest.raises(c.InvalidParameterError):
        c.GeneratorSpec(kind="sine", num_samples=0)
    for bad in (-5.0, math.inf, math.nan, "5", True):
        with pytest.raises(c.InvalidParameterError):
            c.GeneratorSpec(kind="sine", sample_rate=bad)
    for bad in (2.5, True):
        with pytest.raises(c.InvalidParameterError):
            c.GeneratorSpec(kind="sine", num_samples=bad)
    with pytest.raises(c.InvalidParameterError):
        c.GeneratorSpec(kind="square")
    for bad in (-1, 1.5, True):
        with pytest.raises(c.InvalidParameterError):
            c.GeneratorSpec(kind="uniform_random", seed=bad)
    for bad in (0, 2.5, False):
        with pytest.raises(c.InvalidParameterError):
            c.GeneratorSpec(kind="henon", num_samples=2, total=bad)
    for name in ("num_samples", "total"):
        with pytest.raises(c.InvalidParameterError, match=rf"^{name} must be below 2\*\*53, got "):
            c.GeneratorSpec(kind="henon", **{name: 2**53})
    # one below the ceiling is a valid spec, which allocates nothing
    assert c.GeneratorSpec(kind="henon", num_samples=2**53 - 1, total=2**53 - 1, seed=2**64)
    for name in ("freq", "f0", "f1", "a", "b", "x0", "y0"):
        for bad in ("5", None, True):
            with pytest.raises(c.InvalidParameterError, match=f"^{name} must be a real number"):
                c.GeneratorSpec(kind="sine", **{name: bad})


def test_spec_can_attach_rate_to_map_output():
    series = c.make_series(c.GeneratorSpec(kind="henon", num_samples=100, sample_rate=250.0))
    assert series.sample_rate == 250.0
