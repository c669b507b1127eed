"""Unit tests for translation variables, displacement curves, growth rates,
aggregation, classification, and the run_test driver."""

import json
import math
import os
import platform
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chaos01 as c
from chaos01 import core

import oracles
from conftest import source_tree_python

finite_samples = st.lists(
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False), min_size=1, max_size=60
)
angles = st.floats(min_value=0.01, max_value=6.27)


# ---------------------------------------------------------------------------
# translation variables


def test_translation_angle_must_lie_strictly_inside_the_circle(random_series):
    for c_value in (0.0, c.TWO_PI, -1.0, 7.0, math.nan):
        with pytest.raises(c.InvalidParameterError,
                           match=r"^c must lie strictly inside \(0, 2\*pi\)$"):
            c.translation_variables(random_series, c_value)
    for c_value in (5e-324, math.nextafter(c.TWO_PI, 0.0)):
        assert len(c.translation_variables(random_series, c_value)) == len(random_series)


def test_translation_path_past_the_largest_float_raises():
    # 50 samples of 1.7e308 at a slow angle: the path passes 1.8e308 after two
    with pytest.raises(c.PathOverflowError,
                       match=r"^the path at c=0.001 passes the largest float$"):
        c.translation_variables(c.TimeSeries(np.full(50, 1.7e308)), 0.001)
    traj = c.translation_variables(c.TimeSeries(np.full(50, 1.7e308 / 50)), 0.001)
    assert np.isfinite(traj.p).all() and np.isfinite(traj.q).all()


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
    p, q = oracles.translation(samples, angle)
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
    assert oracles.worst_turn_error(mp, steps, samples, angles, js) <= 4.5e-16
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
    error = oracles.worst_turn_error(mp, steps, samples, angles, range(1, n_len + 1))
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
    for bad in (0.0, math.inf, math.nan, "5", True):
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


@pytest.mark.parametrize("make", [
    pytest.param(lambda: c.TimeSeries(np.arange(3.0)), id="TimeSeries"),
    pytest.param(lambda: c.TimeSeries([1.0]), id="TimeSeries-one-sample"),
    pytest.param(lambda: c.TranslationTrajectory(1.0, np.arange(3.0), np.arange(3.0)),
                 id="TranslationTrajectory"),
    pytest.param(lambda: c.MsdCurve(1.0, np.arange(3.0)), id="MsdCurve"),
    pytest.param(lambda: c.PsdEstimate(np.arange(3.0), np.arange(3.0)), id="PsdEstimate"),
])
def test_array_holding_types_compare_by_identity_and_hash_by_id(make):
    one, same = make(), make()
    assert one == one and one != same
    assert hash(one) == object.__hash__(one) and len({one, same}) == 2


# ---------------------------------------------------------------------------
# mean square displacement


def _traj(p, q, angle=1.0):
    return c.TranslationTrajectory(c=angle, p=np.asarray(p, float), q=np.asarray(q, float))


@pytest.mark.parametrize("call, error", [
    # a broadcast ValueError, AttributeError, "too many values to unpack"
    pytest.param(lambda: c.msd(c.TranslationTrajectory(1.0, np.ones(5), np.ones(3)), 2),
                 "p and q must have one length, got 5 and 3", id="lengths"),
    pytest.param(lambda: c.TranslationTrajectory(1.0, np.ones((2, 3)), np.ones((2, 3))),
                 "p must be one-dimensional", id="p-2d"),
    pytest.param(lambda: c.TranslationTrajectory(1.0, np.ones(3), np.ones((1, 3))),
                 "q must be one-dimensional", id="q-2d"),
    pytest.param(lambda: c.TranslationTrajectory(1.0, [], []), "p must be non-empty",
                 id="empty-path"),
    # a NaN curve without a word
    pytest.param(lambda: c.TranslationTrajectory(1.0, [0.0, math.nan, 1.0], np.ones(3)),
                 "p must be finite", id="nan-p"),
    pytest.param(lambda: c.TranslationTrajectory(1.0, np.ones(3), [0.0, 1.0, math.inf]),
                 "q must be finite", id="inf-q"),
    pytest.param(lambda: c.TranslationTrajectory("1.0", np.ones(3), np.ones(3)),
                 "c must be a real number, got '1.0'", id="path-c-text"),
    pytest.param(lambda: c.TranslationTrajectory(True, np.ones(3), np.ones(3)),
                 "c must be a real number, got True", id="path-c-bool"),
    # "zero-size array to reduction operation maximum"
    pytest.param(lambda: c.growth_rate_correlation(c.MsdCurve(1.0, np.array([]))),
                 "values must be non-empty", id="empty-curve"),
    pytest.param(lambda: c.growth_rate_regression(c.MsdCurve(1.0, np.ones((2, 3)))),
                 "values must be one-dimensional", id="curve-2d"),
    pytest.param(lambda: c.MsdCurve(None, np.ones(3)), "c must be a real number, got None",
                 id="curve-c-none"),
    # a one-element power broadcast, and was written, beside every frequency
    pytest.param(lambda: c.PsdEstimate(np.array([1.0, 2.0]), np.array([1.0])),
                 "frequencies and power must have one length, got 2 and 1", id="psd-lengths"),
    # a raw IndexError inside the writer
    pytest.param(lambda: c.PsdEstimate(np.ones((2, 2)), np.ones((2, 2))),
                 "frequencies must be one-dimensional", id="psd-2d"),
    # written as nan
    pytest.param(lambda: c.PsdEstimate([math.nan, 1.0], [1.0, 0.5]),
                 "frequencies must be finite", id="psd-nan-frequency"),
    pytest.param(lambda: c.PsdEstimate([0.0, 1.0], [1.0, math.inf]), "power must be finite",
                 id="psd-inf-power"),
    pytest.param(lambda: c.PsdEstimate([], []), "frequencies must be non-empty", id="psd-empty"),
])
def test_trajectory_and_curve_refuse_what_they_cannot_hold(call, error):
    with pytest.raises(c.InvalidParameterError) as info:
        call()
    assert str(info.value) == error


def test_trajectory_and_curve_hold_float_arrays():
    traj = c.TranslationTrajectory(np.float64(1.0), [0.0, 1.0, 3.0], (0, 2, 2))
    assert traj.p.dtype == traj.q.dtype == np.float64 and len(traj) == 3
    p = np.arange(4.0)
    assert c.TranslationTrajectory(1.0, p, p).p is p  # a float64 array is stored as given
    assert np.array_equal(c.msd(traj, 2).values, c.msd(_traj(traj.p, traj.q), 2).values)
    curve = c.MsdCurve(1, [1, 2, 4])
    assert curve.values.dtype == np.float64 and curve.n_max == 3
    # a curve that is not finite is kept, for the estimators to judge: both
    # find no rate in it (the regression skipped a NaN or -inf and gave k = 1)
    for values in ([1.0, math.nan, 3.0], [1.0, math.inf, 3.0], [1.0, -math.inf, 3.0]):
        curve = c.MsdCurve(1.0, values)
        assert np.array_equal(curve.values, values, equal_nan=True)
        for estimate in (c.growth_rate_correlation, c.growth_rate_regression):
            rate = estimate(curve)
            assert (rate.degenerate, rate.k) == (True, 0.0)


def test_msd_worked_example():
    # displacements by hand: lag 1 gives (4 + 9)/3, lag 2 gives (4 + 9)/3
    curve = c.msd(_traj([0.0, -2.0, -2.0], [1.0, 1.0, -2.0]), 2)
    assert np.allclose(curve.values, [13.0 / 3.0, 13.0 / 3.0], rtol=1e-15)
    assert curve.n_max == 2


def test_msd_zero_trajectory_is_zero():
    curve = c.msd(_traj(np.zeros(10), np.zeros(10)), 4)
    assert not curve.values.any()


@pytest.mark.parametrize("n0", [0, 5, 6, -1, 2.5, 3.0, True, "3", None, np.float64(3.0)])
def test_msd_rejects_bad_lag_window(n0):
    with pytest.raises(c.InvalidParameterError):
        c.msd(_traj(np.arange(5.0), np.arange(5.0)), n0)


def test_msd_takes_a_numpy_integer_lag_window():
    traj = _traj(np.arange(5.0), np.arange(5.0) ** 2)
    assert np.array_equal(c.msd(traj, np.int64(3)).values, c.msd(traj, 3).values)


@given(samples=finite_samples, angle=angles)
@settings(max_examples=40, deadline=None)
def test_msd_matches_resummation(samples, angle):
    if len(samples) < 2:
        samples = samples + [1.0]
    traj = c.translation_variables(c.TimeSeries(samples), angle)
    n0 = min(12, len(samples) - 1)
    curve = c.msd(traj, n0)
    oracle = oracles.msd(traj.p, traj.q, range(1, n0 + 1))
    assert np.allclose(curve.values, oracle, rtol=1e-9, atol=1e-9)


@given(samples=finite_samples, angle=angles)
@settings(max_examples=30, deadline=None)
def test_msd_is_nonnegative(samples, angle):
    if len(samples) < 2:
        samples = samples + [0.5]
    traj = c.translation_variables(c.TimeSeries(samples), angle)
    curve = c.msd(traj, len(samples) - 1)
    assert (curve.values >= 0.0).all()


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
        want = oracles.msd(traj.p, traj.q, range(1, 1401))
        assert np.allclose(got, want, rtol=1e-9, atol=1e-9 * want.max()), angle
        assert (got >= 0.0).all()


def test_msd_kernel_matches_direct_evaluation_on_short_windows():
    # 800 samples: the size of a short screening window
    series = c.gen_quasiperiodic(5000.0, 800)
    n0 = c.lag_window(800, c.DEFAULT_N0_FRACTION)
    for angle in (0.3, 2.0 * math.pi / 50.0, 2.5, 5.9):
        traj = c.translation_variables(series, angle)
        got = c.msd(traj, n0).values
        want = oracles.msd(traj.p, traj.q, range(1, n0 + 1))
        assert np.allclose(got, want, rtol=1e-9, atol=1e-12 * want.max()), angle


@pytest.mark.parametrize("n_len, n0, size", [
    (190, 53, 243), (290, 81, 375), (520, 145, 675),  # odd: no Nyquist bin
    (500, 140, 640), (800, 224, 1024),
])
def test_msd_kernel_matches_direct_evaluation_at_odd_and_even_fft_lengths(n_len, n0, size):
    # The real inverse FFT pairs bin k with bin (L - k) % L; odd and even L
    # index the middle of the spectrum differently.
    angles = np.array([0.3, 2.0 * math.pi / 50.0, 2.5, 5.9])  # the second is resonant
    plan = core._Plan(n_len, n0, angles.size, 1)
    assert (plan.size, plan.rows) == (size, angles.size)
    for series in (c.gen_sawtooth(100.0, 5000.0, n_len), c.gen_quasiperiodic(5000.0, n_len)):
        got = core._msd_rows(core._steps(series.samples, angles), plan, *plan.workspaces())
        for row, angle in zip(got, angles):
            traj = c.translation_variables(series, angle)
            want = oracles.msd(traj.p, traj.q, range(1, n0 + 1))
            assert np.allclose(row, want, rtol=1e-9, atol=1e-12 * want.max()), (size, angle)


@pytest.mark.parametrize("n_len, n0, size", [(190, 53, 243), (800, 224, 1024)])  # odd, even L
def test_msd_kernel_rows_do_not_depend_on_what_its_buffers_held(n_len, n0, size):
    # run_test's workers reuse one table and one spectrum for every chunk
    series = c.gen_quasiperiodic(5000.0, n_len)
    other = c.gen_sawtooth(100.0, 5000.0, n_len)
    angles = np.array([0.3, 2.0 * math.pi / 50.0, 2.5])
    plan = core._Plan(n_len, n0, angles.size, 1)
    assert (plan.size, plan.rows) == (size, angles.size)
    fresh = core._msd_rows(core._steps(series.samples, angles), plan, *plan.workspaces())
    table, spectrum, per_lag = (np.full(count, np.nan, dtype=complex) for count in plan.need)

    def rows(samples, chunk):
        return core._msd_rows(core._steps(samples, chunk, table), plan, table, spectrum, per_lag)

    first = rows(series.samples, angles)  # buffers full of NaN
    assert np.array_equal(first, fresh)
    rows(other.samples, np.array([5.9, 1.1, 4.0]))
    assert np.array_equal(rows(series.samples, angles), fresh)  # another chunk's data
    assert np.array_equal(rows(series.samples, angles[1:]), fresh[1:])  # a short last chunk
    assert np.array_equal(first, fresh)  # the rows it returned are its own memory


def _inline_sizes(n_len, angles, cpus):
    """The kernel's sizes as ``run_test`` computed them inline before the plan
    owned them: the oracle for ``core._Plan``."""
    n0 = c.lag_window(n_len, c.DEFAULT_N0_FRACTION)
    size = core._fast_len(n_len + n0)
    rows = min(angles, max(1, core._CHUNK_ELEMENTS // size))
    workers = min(-(-angles // rows), cpus, core._CHUNKS_IN_FLIGHT)
    need = (rows * max(math.prod(core._grid(n_len)), size // 2 + 1), rows * size, 3 * rows * n0)
    return (n_len, n0, size, rows, workers), need


@pytest.mark.parametrize("n_len, angles, cpus, known", [
    (800, 100, 1, None),
    (2000, 100, 1, None),
    (2000, 100, 2, ((2000, 560, 2560, 51, 2), (103275, 130560, 85680))),
    (100_000, 100, 2, ((100_000, 28000, 128000, 1, 2), (100172, 128000, 84000))),
    (10**6, 100, 1, ((10**6, 280000, 1280000, 1, 1), (1001000, 1280000, 840000))),
    (10**6, 100, 2, ((10**6, 280000, 1280000, 1, 2), (1001000, 1280000, 840000))),
])
def test_plan_matches_the_inline_sizing_rules(monkeypatch, n_len, angles, cpus, known):
    def plan_and_oracle():
        sizes, need = _inline_sizes(n_len, angles, cpus)
        plan = core._Plan(n_len, sizes[1], angles, cpus)
        sizes_of_plan = (plan.n_len, plan.n0, plan.size, plan.rows, plan.workers)
        assert (sizes_of_plan, plan.need) == (sizes, need)
        return sizes, need

    if known is not None:
        assert plan_and_oracle() == known
    # the plan reads the chunk budget and the cap when it is made
    for budget, cap in ((1, 2), (1 << 30, 3), (1 << 15, 1)):
        monkeypatch.setattr(core, "_CHUNK_ELEMENTS", budget)
        monkeypatch.setattr(core, "_CHUNKS_IN_FLIGHT", cap)
        plan_and_oracle()


def test_plan_workspaces_are_its_need_in_complex_entries():
    plan = core._Plan(2000, 560, 100, 2)
    assert [(w.dtype, w.size) for w in plan.workspaces()] == [(np.complex128, n) for n in plan.need]
    assert 16 * sum(plan.need) == sum(w.nbytes for w in plan.workspaces())


def test_msd_kernel_keeps_short_lags_at_a_million_samples():
    # At the resonant angle the path drifts linearly, so sums of |z|^2 grow
    # like N^3 while the short-lag displacement sums stay O(N).  Each checked
    # lag costs one O(N) direct sum.
    series = c.gen_sawtooth(100.0, 5000.0, 10**6)
    traj = c.translation_variables(series, 2.0 * math.pi / 50.0)
    n0 = c.lag_window(len(series), c.DEFAULT_N0_FRACTION)
    got = c.msd(traj, n0).values
    lags = (1, 10, 1000, n0)
    for lag, want in zip(lags, oracles.msd(traj.p, traj.q, lags)):
        assert got[lag - 1] == pytest.approx(want, rel=1e-9), lag


def test_msd_kernel_keeps_short_lags_near_a_resonance_at_a_million_samples():
    # Near, not at, a resonance the path is an arc: the short-lag sums are
    # differences of terms of order sum |z|^2.  Full-length running sums of
    # |z|^2 put M(1) 1.1e-4 and M(10) 1.9e-6 off here; head and tail sums with
    # the total from the spectrum put them 1.9e-6 and 2.5e-8 off.
    series = c.gen_sawtooth(100.0, 5000.0, 10**6)
    traj = c.translation_variables(series, 2.0 * math.pi / 50.0 + 1e-5)
    got = c.msd(traj, c.lag_window(len(series), c.DEFAULT_N0_FRACTION)).values
    want = oracles.msd(traj.p, traj.q, (1, 10))
    assert got[0] == pytest.approx(want[0], rel=1e-5)
    assert got[9] == pytest.approx(want[1], rel=1e-7)


def test_msd_kernel_worst_relative_error_over_random_angles():
    # The worst over 81 curves is set by the angles nearest a resonance;
    # full-length running sums of |z|^2 gave 1.1e-10, head and tail sums 2.5e-12.
    angles = np.random.default_rng(1).uniform(0.0, c.TWO_PI, 27)
    worst = 0.0
    for series in (c.TimeSeries(c.gen_sine(n=5000).samples + 0.7), c.gen_sawtooth(n=5000),
                   c.gen_henon(keep=2000)):
        n0 = c.lag_window(len(series), c.DEFAULT_N0_FRACTION)
        for angle in angles:
            traj = c.translation_variables(series, angle)
            want = oracles.msd(traj.p, traj.q, range(1, n0 + 1))
            worst = max(worst, np.max(np.abs(c.msd(traj, n0).values / want - 1.0)))
    assert worst < 1e-11


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


@pytest.mark.parametrize("scale", [1e160, 2.0**1000, 1e-300])
@pytest.mark.parametrize("growth", [c.growth_rate_correlation, c.growth_rate_regression])
def test_growth_rate_of_a_curve_is_the_same_at_any_magnitude(growth, scale):
    # unscaled, the correlation's squares overflowed at 1e160 (k = 0.0, not
    # flagged, with a warning) and underflowed at 1e-300
    values = np.linspace(1.0, 2.0, 400) ** 2
    want = growth(c.MsdCurve(c=1.0, values=values))
    got = growth(c.MsdCurve(c=1.0, values=values * scale))
    assert not got.degenerate
    assert got.k == pytest.approx(want.k, rel=1e-12)


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


def _config_error(**kwargs) -> str:
    """The message with which ``TestConfig`` refuses ``kwargs``."""
    with pytest.raises(c.InvalidParameterError) as info:
        c.TestConfig(**kwargs)
    return str(info.value)


@pytest.mark.parametrize("fraction", [0.5, 0.7, -0.1, math.nan, True, "0.25", None])
@pytest.mark.parametrize("aggregator", list(c.Aggregator))
@pytest.mark.parametrize("degenerate", [(), (0, 1, 2)])
def test_aggregate_refuses_a_trim_fraction_as_the_config_does(aggregator, fraction, degenerate):
    # at 0.5 and 0.7 the trimmed mean was the mean of nothing, NaN with two
    # RuntimeWarnings; at -0.1, NaN and True numpy raised a ValueError.  The
    # arguments are checked before the rates, as TestConfig checks them
    # before any rate exists.
    with pytest.raises(c.InvalidParameterError) as info:
        c.aggregate_k(_rates([0.1, 0.2, 0.3], degenerate), aggregator, fraction)
    assert str(info.value) == _config_error(trim_fraction=fraction)


@pytest.mark.parametrize("bands", [3, (0.1, 0.2, 0.3), {}, {"regular_max": 0.1}, "bands"])
def test_classify_refuses_bands_as_the_config_does(bands):
    # 3 and a tuple raised AttributeError; an empty dict meant the defaults
    with pytest.raises(c.InvalidParameterError) as info:
        c.classify(0.3, bands)
    assert str(info.value) == _config_error(bands=bands)


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


def test_classify_rejects_nan():
    # NaN < 0.0 is false, so a sign check alone labelled it chaotic
    with pytest.raises(c.InvalidParameterError, match="^k_m must be non-negative, got nan$"):
        c.classify(math.nan)


@pytest.mark.parametrize("k_m", ["x", None, True])
def test_classify_refuses_a_k_m_that_is_no_real(k_m):
    # "x" and None raised a raw TypeError, and True was labelled chaotic
    with pytest.raises(c.InvalidParameterError, match="^k_m must be a real number, got "):
        c.classify(k_m)


def test_classify_with_custom_bands():
    bands = c.ClassificationBands(regular_max=0.3, quasi_periodic_max=0.6, aperiodic_max=0.9)
    assert c.classify(0.25, bands) is c.Regime.REGULAR
    assert c.classify(0.85, bands) is c.Regime.APERIODIC


def test_bands_must_be_ordered():
    with pytest.raises(c.InvalidParameterError):
        c.ClassificationBands(regular_max=0.5, quasi_periodic_max=0.5, aperiodic_max=0.8)
    with pytest.raises(c.InvalidParameterError):
        c.ClassificationBands(regular_max=-0.1, quasi_periodic_max=0.5, aperiodic_max=0.8)


@pytest.mark.parametrize("bad", ["0.1", None, True])
@pytest.mark.parametrize("edge", ["regular_max", "quasi_periodic_max", "aperiodic_max"])
def test_band_edges_must_be_real_numbers(edge, bad):
    with pytest.raises(c.InvalidParameterError, match=f"^{edge} must be a real number"):
        c.ClassificationBands(**{edge: bad})


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
    *({name: bad} for name in ("c_low", "c_high", "trim_fraction", "n0_fraction")
      for bad in ("0.3", None, True)),
    {"num_c": 2**53},
])
def test_config_validation(kwargs):
    with pytest.raises(c.InvalidParameterError):
        c.TestConfig(**kwargs)


def test_config_coerces_enum_strings():
    config = c.TestConfig(method="regression", aggregator="median", msd_variant="corrected")
    assert config.method is c.Method.REGRESSION
    assert config.aggregator is c.Aggregator.MEDIAN
    assert config.msd_variant is c.MsdVariant.CORRECTED


@pytest.mark.parametrize("count, real", [
    (int, Fraction), (np.int64, np.float32), (np.uint8, np.float64), (np.int32, np.int64),
    (int, int)])
def test_every_count_is_stored_as_an_int_and_every_real_as_a_float(count, real):
    # a Fraction or numpy number was stored as given, for every later use to meet
    config = c.TestConfig(num_c=count(3), seed=count(2), c_low=real(1), c_high=real(6),
                          trim_fraction=real(0), n0_fraction=real(1) / 2,
                          bands=c.ClassificationBands(real(1), real(2), real(3)))
    plan = c.WindowPlan(count(4), count(2))
    spec = c.GeneratorSpec("henon", num_samples=count(5), total=count(7), seed=count(1),
                           freq=real(1), f0=real(0), f1=real(2), a=real(1), b=real(0),
                           x0=real(0), y0=real(0), sample_rate=real(100))
    reals = ("freq", "f0", "f1", "a", "b", "x0", "y0", "sample_rate")
    counts = [config.num_c, config.seed, plan.window_len, plan.stride, spec.num_samples,
              spec.total, spec.seed]
    floats = [config.c_low, config.c_high, config.trim_fraction, config.n0_fraction,
              *vars(config.bands).values(), *(getattr(spec, name) for name in reals),
              c.TranslationTrajectory(real(1), [0.0], [0.0]).c, c.MsdCurve(real(1), [1.0]).c]
    assert [type(value) for value in counts] == [int] * 7
    assert counts == [3, 2, 4, 2, 5, 7, 1]
    assert [type(value) for value in floats] == [float] * 17
    assert floats == [1, 6, 0, 0.5, 1, 2, 3, 1, 0, 2, 1, 0, 0, 0, 100, 1, 1]


def test_lag_window_floor_and_minimum():
    assert c.lag_window(5000, 0.28) == 1400
    assert c.lag_window(5000, 0.1) == 500
    assert c.lag_window(10, 0.28) == 2
    assert c.lag_window(3, 0.28) == 2
    assert c.lag_window(np.int64(5000), 0.5) == 2500


@pytest.mark.parametrize("fraction", [2.0, 0.6, 0.0, -0.1, math.nan, math.inf, True, "0.28"])
def test_lag_window_refuses_an_n0_fraction_as_the_config_does(fraction):
    # 2.0 gave a window of 200 lags on 100 samples; NaN raised a ValueError
    with pytest.raises(c.InvalidParameterError) as info:
        c.lag_window(100, fraction)
    assert str(info.value) == _config_error(n0_fraction=fraction)


@pytest.mark.parametrize("num_samples", [0, -5, 100.0, True, "100", None])
def test_lag_window_refuses_a_sample_count_that_is_no_count(num_samples):
    with pytest.raises(c.InvalidParameterError,
                       match=r"^num_samples must be an integer of at least 1, got "):
        c.lag_window(num_samples, 0.28)


@pytest.mark.parametrize("num_samples", [pytest.param(10**400, id="10**400"),
                                         pytest.param(2**53, id="2**53")])
def test_lag_window_refuses_a_sample_count_beyond_the_count_ceiling(num_samples):
    # 10**400 raised a raw OverflowError
    with pytest.raises(c.InvalidParameterError, match=r"^num_samples must be below 2\*\*53, got "):
        c.lag_window(num_samples, 0.28)


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


@pytest.mark.parametrize("seed", [0, 1, 7, 2**64 - 1])
def test_draw_matches_one_angle_at_a_time(seed):
    # the full range, a subnormal one where a draw now and then rounds to
    # c_low, and ranges 2 and 3 ulp wide, which reject about 1/2 and 1/3 of
    # all draws and hold one and two floats (two, so that order shows)
    ulp = math.ulp(1.0)
    for c_low, c_high in ((0.0, c.TWO_PI), (0.0, 1e-320), (1.0, 1.0 + 2 * ulp),
                          (1.0, 1.0 + 3 * ulp)):
        config = c.TestConfig(num_c=500, c_low=c_low, c_high=c_high, seed=seed)
        assert core._draw_frequencies(config).tolist() == oracles.draw_frequencies(config)


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


@pytest.mark.parametrize("angle, n0, mean, error", [
    # [nan nan nan] with a RuntimeWarning, a raw TypeError, an empty array
    pytest.param(0.0, 3, 1.0, "c must lie strictly inside (0, 2*pi)", id="zero-angle"),
    pytest.param(c.TWO_PI, 3, 1.0, "c must lie strictly inside (0, 2*pi)", id="two-pi"),
    pytest.param(math.nan, 3, 1.0, "c must lie strictly inside (0, 2*pi)", id="nan-angle"),
    pytest.param(np.array([1.0, 7.0]), 3, 1.0, "c must lie strictly inside (0, 2*pi)",
                 id="one-array-entry"),
    pytest.param(1.0, "3", 1.0, "n0 must be an integer of at least 1, got '3'", id="n0-text"),
    pytest.param(1.0, 0, 1.0, "n0 must be an integer of at least 1, got 0", id="n0-zero"),
    pytest.param(1.0, 2.0, 1.0, "n0 must be an integer of at least 1, got 2.0", id="n0-float"),
    # a raw TypeError, and a raw OverflowError
    pytest.param(1.0, 3, "x", "series_mean must be a real number, got 'x'", id="mean-text"),
    pytest.param(1.0, 3, None, "series_mean must be a real number, got None", id="mean-none"),
    pytest.param(1.0, 3, 10**400, "series_mean must be finite, got inf", id="mean-huge"),
    pytest.param(1.0, 3, math.nan, "series_mean must be finite, got nan", id="mean-nan"),
])
def test_oscillation_correction_refuses_what_the_config_refuses(angle, n0, mean, error):
    with pytest.raises(c.InvalidParameterError) as info:
        c.oscillation_correction(angle, n0, mean)
    assert str(info.value) == error


@pytest.mark.parametrize("mean", [Fraction(1, 2), np.float32(0.5), np.int64(2), 2])
def test_oscillation_correction_of_any_real_mean_is_float64(mean):
    # a Fraction mean gave an object array
    vals = c.oscillation_correction(1.2, 5, mean)
    assert vals.dtype == np.float64
    assert np.array_equal(vals, c.oscillation_correction(1.2, 5, float(mean)))


def test_result_k_m_matches_recomputed_aggregate():
    series = c.gen_uniform_random(700, seed=8)
    result = c.run_test(series, c.TestConfig(num_c=20))
    assert c.recompute_k_m(result) == pytest.approx(result.k_m, abs=1e-12)


@pytest.mark.parametrize("method", list(c.Method))
@pytest.mark.parametrize("variant", list(c.MsdVariant))
def test_run_test_matches_per_angle_stages(method, variant):
    series = c.TimeSeries(c.gen_sine(100.0, 5000.0, 2000).samples + 0.3)
    config = c.TestConfig(num_c=30, seed=6, method=method, msd_variant=variant)
    result = c.run_test(series, config)
    reference = oracles.per_angle_rates(series, config)
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

    def spy(steps, plan, table, spectrum, per_lag):
        threads.add(threading.get_ident())
        return msd_rows(steps, plan, table, spectrum, per_lag)

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


def test_run_test_cuts_the_same_chunks_on_any_cpu_count_and_lends_each_workspace_once(
        monkeypatch):
    series = c.gen_henon()
    config = c.TestConfig(num_c=50)
    drawn = list(core._draw_frequencies(config))
    chunks = []
    steps = core._steps

    def chunk_spy(samples, angles, table):
        chunks.append((drawn.index(angles[0]), len(angles)))
        return steps(samples, angles, table)

    monkeypatch.setattr(core, "_steps", chunk_spy)
    monkeypatch.setattr(core, "_CHUNKS_IN_FLIGHT", 3)
    for cpus in (1, 2, 3):
        monkeypatch.setattr(core, "usable_cpus", lambda: cpus)
        chunks.clear()
        c.run_test(series, config)
        # N = 5000 packs 20 rows per chunk, whatever the CPU count
        assert sorted(chunks) == [(0, 20), (20, 20), (40, 10)], cpus

    # one row per chunk: each worker lends its workspace to one MSD at a time
    inside, lock, peak = set(), threading.Lock(), [0]
    msd_rows = core._msd_rows

    def lend_spy(steps, plan, table, spectrum, per_lag):
        with lock:
            assert id(table) not in inside
            inside.add(id(table))
            peak[0] = max(peak[0], len(inside))
        time.sleep(0.002)  # let the other workers reach the kernel meanwhile
        try:
            return msd_rows(steps, plan, table, spectrum, per_lag)
        finally:
            with lock:
                inside.discard(id(table))

    monkeypatch.setattr(core, "_msd_rows", lend_spy)
    monkeypatch.setattr(core, "_CHUNK_ELEMENTS", 1)
    for cpus in (1, 2, 3):
        monkeypatch.setattr(core, "usable_cpus", lambda: cpus)
        chunks.clear()
        peak[0] = 0
        c.run_test(series, config)
        assert sorted(chunks) == [(k, 1) for k in range(50)]
        assert peak[0] == cpus


def test_run_test_leaves_no_thread_behind(monkeypatch):
    monkeypatch.setattr(core, "usable_cpus", lambda: 2)
    before = set(threading.enumerate())
    c.run_test(c.gen_henon(), c.TestConfig(num_c=50))
    assert set(threading.enumerate()) == before


@pytest.mark.parametrize("count, expected", [(3, 3), (None, 1)])
def test_usable_cpus_without_an_affinity_set_is_the_cpu_count(monkeypatch, count, expected):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    assert core.usable_cpus() == expected


def _refuse_to_start(thread):
    raise AssertionError(f"{thread.name} was started")


def test_run_test_on_one_usable_cpu_starts_no_thread(monkeypatch):
    monkeypatch.setattr(threading.Thread, "start", _refuse_to_start)
    monkeypatch.setattr(core, "usable_cpus", lambda: 1)
    assert len(c.run_test(c.gen_henon(), c.TestConfig(num_c=50)).per_c) == 50


def test_on_threads_returns_results_in_item_order():
    # later items end first; thread k starts on item k, the calling thread on 0
    ran_on = {}

    def square(item):
        time.sleep((8 - item) / 1000)
        ran_on[item] = threading.current_thread()
        return item * item

    assert core._on_threads(square, range(8), 3) == [item * item for item in range(8)]
    assert ran_on[0] is threading.current_thread()
    assert len({ran_on[k] for k in range(3)}) == len(set(ran_on.values())) == 3
    assert core._on_threads(square, [], 3) == []


def test_on_threads_runs_each_item_once_under_contention():
    # more threads than CPUs, switching as often as the interpreter allows
    calls = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = core._on_threads(lambda item: calls.append(item) or -item, range(3000), 8)
    finally:
        sys.setswitchinterval(interval)
    assert results == [-item for item in range(3000)]
    assert sorted(calls) == list(range(3000))


def test_on_threads_raises_the_first_error_in_item_order_once_every_thread_has_ended():
    before = set(threading.enumerate())
    seen, ended = set(), []

    def work(item):
        seen.add(threading.current_thread())
        if item == 1:
            time.sleep(0.05)  # item 2 raises first
            raise ValueError("item 1")
        if item == 2:
            raise KeyError("item 2")
        time.sleep(0.2)
        ended.append(item)

    with pytest.raises(ValueError, match="item 1"):
        core._on_threads(work, range(6), 3)
    assert not any(thread.is_alive() for thread in seen - {threading.current_thread()})
    assert set(threading.enumerate()) <= before
    assert ended == [0]  # no thread takes an item once one has raised


def test_run_test_inside_a_worker_thread_matches_the_calling_thread(monkeypatch):
    # batch calls run_test from the threads it starts
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
# any finite magnitude

def _small_or_zero(x):
    return x if abs(x) >= 2.0**-30 else 0.0


# ordinary series: no sample is far enough below the largest to turn
# subnormal when the largest is brought into [0.5, 1)
_ORDINARY = st.one_of(
    st.lists(st.floats(-2.0**10, 2.0**10).map(_small_or_zero), min_size=3, max_size=60),
    st.builds(lambda n, seed: c.gen_uniform_random(n, seed).samples - 0.5,
              st.integers(3, 2000), st.integers(0, 2**32)),
    st.builds(lambda n: c.gen_quasiperiodic(5000.0, n).samples, st.integers(3, 2000)),
)


def _magnitude_outcome(samples, config):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = c.run_test(c.TimeSeries(samples), config)
        except c.AllDegenerateError as error:
            return str(error)
    return _outcome(result), result.label, result.short_series


@given(samples=_ORDINARY, e=st.integers(-1000, 1000), seed=st.integers(0, 2**16),
       variant=st.sampled_from(c.MsdVariant))
@example(samples=[1.0, -2.0, 3.0, 0.5], e=1000, seed=0, variant=c.MsdVariant.PLAIN)
@example(samples=[1.0, -2.0, 3.0, 0.5], e=-1000, seed=0, variant=c.MsdVariant.PLAIN)
@example(samples=[1.0, -2.0, 3.0, 0.5], e=65, seed=0, variant=c.MsdVariant.CORRECTED)
@example(samples=[1.0, -2.0, 3.0, 0.5], e=-66, seed=0, variant=c.MsdVariant.CORRECTED)
# its doubled samples' mean 2m has pow's (2m)**2 != 4 * m**2, which m * m never gives
@example(samples=c.gen_quasiperiodic(5000.0, 236).samples, e=1, seed=1,
         variant=c.MsdVariant.CORRECTED)
@settings(max_examples=60, deadline=None)
def test_run_test_is_the_same_at_any_power_of_two_scale(samples, e, seed, variant):
    # ldexp(s, e) is exact but for samples that turn subnormal, so it is
    # compared with the run on its own samples scaled back; correlation is
    # scale-invariant bit for bit, and nothing may overflow or warn
    config = c.TestConfig(num_c=20, seed=seed, msd_variant=variant)
    scaled = np.ldexp(np.asarray(samples, dtype=float), e)
    assert _magnitude_outcome(scaled, config) == _magnitude_outcome(np.ldexp(scaled, -e), config)


# ---------------------------------------------------------------------------
# memory that run_test gets back from earlier calls, still holding their data

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
    outcomes = {}
    for n_len in (800, 2000, 100_000):
        proc = source_tree_python(["-c", code, str(n_len)])
        assert proc.returncode == 0, proc.stderr
        per_c, k_m = json.loads(proc.stdout)
        outcomes[n_len] = ([(float.fromhex(angle), float.fromhex(k), degenerate)
                            for angle, k, degenerate in per_c], float.fromhex(k_m))
    return outcomes


def _run_lengths(lengths):
    """Outcomes of one thread's calls at each length in turn."""
    return [_outcome(c.run_test(c.gen_quasiperiodic(5000.0, n_len), _HELD_CONFIG))
            for n_len in lengths]


def test_run_test_values_do_not_depend_on_what_its_thread_held(monkeypatch, fresh_outcomes):
    # heap memory freed by a 100k call is reused, full of its data, at 2000,
    # then that freed at 800, and so on
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


def _faults_in_a_fresh_process(code):
    """Minor page faults of the statement ``run`` after ``code`` has run its
    set-up, in a fresh process."""
    proc = source_tree_python(["-c", code + (
        "\nimport resource\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "run()\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)")])
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


_GLIBC_ONLY = pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="counts glibc's page faults")


@_GLIBC_ONLY
def test_a_warm_run_test_faults_in_almost_no_pages():
    # 2000 samples and 100 angles are two chunks, one for each of two workers:
    # memory handed back to the OS after each call costs about 350 faults on
    # the next
    faults = _faults_in_a_fresh_process(
        "import chaos01 as c\n"
        "series = c.gen_quasiperiodic(5000.0, 2000)\n"
        "c.run_test(series)\n"
        "run = lambda: c.run_test(series)")
    assert faults < 100


@_GLIBC_ONLY
def test_run_test_after_a_file_load_reuses_freed_pages(tmp_path):
    # numpy's FFT scratch at 100k samples is mapped and faulted in on every
    # row unless a larger block was freed first, which the array reader's
    # load does not do: about 78k faults
    path = tmp_path / "long.csv"
    c.write_series(c.gen_quasiperiodic(5000.0, 100_000), path, "time_value_csv")
    faults = _faults_in_a_fresh_process(
        "import chaos01 as c\n"
        f"series = c.load_series(c.SeriesFile({str(path)!r}, 'time_value_csv'))\n"
        "run = lambda: c.run_test(series, c.TestConfig(seed=1))")
    assert faults < 20_000


@_GLIBC_ONLY
def test_a_cold_write_faults_in_few_pages(tmp_path):
    # with glibc's mmap threshold at its start, each block's buffers are
    # mapped and faulted in again: about 114k faults for 10^6 values
    faults = _faults_in_a_fresh_process(
        "import numpy as np, chaos01 as c\n"
        "series = c.TimeSeries(np.random.default_rng(32).standard_normal(10**6))\n"
        f"run = lambda: c.write_series(series, {str(tmp_path / 'x.txt')!r})")
    assert faults < 10_000


def test_msd_kernel_memory_stays_near_a_few_rows_of_arrays():
    # one row at 100k samples; two chunks in flight need the kernel this lean
    series = c.gen_quasiperiodic(5000.0, 100_000)
    n0 = c.lag_window(len(series), c.DEFAULT_N0_FRACTION)
    steps = core._steps(series.samples, np.array([0.7]))
    plan = core._Plan(len(series), n0, 1, 1)
    tracemalloc.start()
    try:
        core._msd_rows(steps, plan, *plan.workspaces())
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


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM in /proc")
@pytest.mark.parametrize("workers", [1, 2])
def test_run_test_memory_at_a_million_samples_stays_within_its_plan(workers):
    # VmHWM less the VmRSS just before the call, in a fresh process.  Each
    # worker holds the plan's three workspaces plus the scratch of numpy's
    # in-place forward FFT, measured at two rows of L complex values (42.4 MiB
    # in isolation at L = 1,280,000, of which 3.6 MiB stayed), and numpy's
    # cached FFT plans are kept once per process, at most one row (3.6 MiB
    # forward and 10.3 MiB inverse).  One chunk is one row at this length, so
    # 20 angles reach the peak of 100.
    code = ("import sys\n"
            "import chaos01 as c\n"
            "from chaos01 import core\n"
            "def status(key):\n"
            "    with open('/proc/self/status') as f:\n"
            "        return next(int(l.split()[1]) for l in f if l.startswith(key + ':'))\n"
            "core.usable_cpus = lambda: int(sys.argv[1])\n"
            "series = c.gen_quasiperiodic(5000.0, 10**6)\n"
            "before = status('VmRSS')\n"
            "c.run_test(series, c.TestConfig(num_c=20, seed=1))\n"
            "print(1024 * (status('VmHWM') - before))")
    proc = source_tree_python(["-c", code, str(workers)])
    assert proc.returncode == 0, proc.stderr
    plan = core._Plan(10**6, c.lag_window(10**6, c.DEFAULT_N0_FRACTION), 20, workers)
    assert (plan.size, plan.rows, plan.workers) == (1_280_000, 1, workers)
    bound = plan.workers * (16 * sum(plan.need) + 2 * 16 * plan.size) + 16 * plan.size
    assert int(proc.stdout) < bound


@_GLIBC_ONLY
def test_run_test_rows_reuse_pages_instead_of_faulting_in_fresh_ones():
    # 100k samples, one angle per chunk.  Per-row arrays handed back to the
    # OS and faulted in again cost about 2900 faults a row; each worker's
    # reused buffers and the FFT scratch that the heap gives back, none.
    import resource  # Unix only

    def faults(num_c):
        code = ("from chaos01 import TestConfig, gen_quasiperiodic, run_test\n"
                f"run_test(gen_quasiperiodic(5000.0, 100_000), TestConfig(num_c={num_c}))")
        before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
        proc = source_tree_python(["-c", code])
        assert proc.returncode == 0, proc.stderr
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before

    assert faults(100) - faults(10) < 90_000
