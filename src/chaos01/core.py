"""Core 0-1 test machinery: translation variables, mean square displacement,
growth rates, and the multi-frequency driver that turns a scalar series into
a single regularity statistic.

The test embeds the observable ``s(1..N)`` into a two-dimensional random-walk
style trajectory ``(p_c, q_c)`` for a probe frequency ``c``.  Bounded
trajectories indicate regular dynamics; diffusive ones indicate chaos or
stochasticity.  The diffusion is quantified by the growth rate ``K_c`` of the
mean square displacement, and the final statistic ``K_m`` aggregates ``|K_c|``
over many random frequencies.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import os
import threading
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (
    AllDegenerateError,
    InvalidParameterError,
    PathOverflowError,
    SeriesTooShortError,
)

TWO_PI = 2.0 * math.pi

#: Below this length the asymptotic statistic is unreliable and results are
#: flagged advisory rather than rejected.
SHORT_SERIES_LIMIT = 1000

#: Fraction of the series length used as the largest displacement lag.  The
#: regime thresholds were calibrated jointly with this window; see README.
DEFAULT_N0_FRACTION = 0.28

#: Every count that sizes an array stays below this: above 2**53 a float no
#: longer counts one by one, and numpy cannot address 2**60 float64 values.
_MAX_COUNT = 2**53

#: The sample magnitudes that the kernels take as they are: the highest
#: power they take of the samples, a growth rate's variance of squared MSD
#: values (about s**4 N**8), stays far inside the float range at any length
#: numpy can hold.  ``_in_range`` scales the others.
_UNSCALED = (2.0**-64, 2.0**64)


class Method(str, Enum):
    """How the growth rate is extracted from the displacement curve."""

    REGRESSION = "regression"
    CORRELATION = "correlation"


class Aggregator(str, Enum):
    """How per-frequency ``|K_c|`` values are pooled into ``K_m``."""

    MEAN = "mean"
    MEDIAN = "median"
    TRIMMED_MEAN = "trimmed_mean"


class MsdVariant(str, Enum):
    """Displacement statistic fed to the growth-rate estimator.

    ``PLAIN`` is the raw mean square displacement.  ``CORRECTED`` subtracts
    the closed-form oscillatory term contributed by the series mean, which
    removes a bounded wobble from the curve before fitting.
    """

    PLAIN = "plain"
    CORRECTED = "corrected"


class Regime(str, Enum):
    """Regularity class assigned to an aggregated growth rate."""

    REGULAR = "regular"
    QUASI_PERIODIC = "quasi_periodic"
    APERIODIC = "aperiodic"
    CHAOTIC_OR_STOCHASTIC = "chaotic_or_stochastic"


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """A scalar, uniformly sampled signal.

    Parameters
    ----------
    samples : array_like
        Finite float values, at least one.  Stored as a read-only view;
        a float64 array is not copied, so writes the caller makes to it
        later show through.
    sample_rate : float, optional
        Samples per second.  Optional because the test itself is
        parameterization-free; spectral tools require it.
    label : str
        Free-form name carried through analysis and serialization.
    """

    samples: np.ndarray
    sample_rate: float | None = None
    label: str = ""

    def __post_init__(self):
        samples = _check_array("samples", self.samples)
        _check_rate(self.sample_rate)
        # Freeze a view, not the caller's own array, and copy nothing.
        samples = samples.view()
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True, eq=False)
class TranslationTrajectory:
    """Planar trajectory ``(p, q)`` built from one series at one frequency.

    ``c`` is a real number, and ``p`` and ``q`` are finite, non-empty,
    one-dimensional float arrays of one length, stored as given when they
    are float64.
    """

    c: float
    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        _check_real("c", self.c)
        p, q = _check_array("p", self.p), _check_array("q", self.q)
        if p.size != q.size:
            raise InvalidParameterError(f"p and q must have one length, got {p.size} and {q.size}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    def __len__(self) -> int:
        return self.p.size


@dataclass(frozen=True, eq=False)
class MsdCurve:
    """Mean square displacement ``M(n)`` for lags ``n = 1 .. n_max``.

    ``c`` is a real number and ``values`` a non-empty, one-dimensional float
    array.  Values that are not finite are kept, for the growth-rate
    estimators to judge.
    """

    c: float
    values: np.ndarray

    def __post_init__(self):
        _check_real("c", self.c)
        object.__setattr__(self, "values", _check_array("values", self.values, finite=False))

    @property
    def n_max(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class GrowthRate:
    """Growth rate of one displacement curve.

    ``degenerate`` marks curves that carry no usable growth information
    (flat, or with too few nonzero points to fit); the accompanying ``k``
    is 0.0 and is excluded from aggregation.
    """

    c: float
    k: float
    method: Method
    degenerate: bool = False


@dataclass(frozen=True)
class ClassificationBands:
    """Upper edges of the three non-chaotic regime bands.

    A statistic below ``regular_max`` is regular, below ``quasi_periodic_max``
    quasi-periodic, below ``aperiodic_max`` aperiodic, and anything at or
    above that is chaotic or stochastic.
    """

    regular_max: float = 0.2
    quasi_periodic_max: float = 0.5
    aperiodic_max: float = 0.8

    def __post_init__(self):
        for name in ("regular_max", "quasi_periodic_max", "aperiodic_max"):
            _check_real(name, getattr(self, name))
        if not 0.0 < self.regular_max < self.quasi_periodic_max < self.aperiodic_max:
            raise InvalidParameterError("band edges must be positive and strictly increasing")


@dataclass(frozen=True)
class TestConfig:
    """Tunable parameters for :func:`run_test`.

    The defaults reproduce the reference setup: 100 random probe
    frequencies on the open interval (0, 2*pi), correlation-based growth
    rates, and a 25% trimmed mean of ``|K_c|``.
    """

    num_c: int = 100
    c_low: float = 0.0
    c_high: float = TWO_PI
    method: Method = Method.CORRELATION
    aggregator: Aggregator = Aggregator.TRIMMED_MEAN
    trim_fraction: float = 0.25
    n0_fraction: float = DEFAULT_N0_FRACTION
    seed: int = 0
    msd_variant: MsdVariant = MsdVariant.PLAIN
    bands: ClassificationBands = field(default_factory=ClassificationBands)

    def __post_init__(self):
        _check_size("num_c", self.num_c, 1)
        _check_count("seed", self.seed, 0)
        _check_draw_range(self.c_low, self.c_high)
        _check_trim_fraction(self.trim_fraction)
        _check_n0_fraction(self.n0_fraction)
        _check_bands(self.bands)
        # Accept plain strings for the enum fields so configs parsed from
        # JSON or CLI flags do not need pre-conversion.
        for name, kind in (("method", Method), ("aggregator", Aggregator),
                           ("msd_variant", MsdVariant)):
            object.__setattr__(self, name, _check_name(kind, getattr(self, name), name))


def _check_name(kind: type[Enum], value, name: str) -> Enum:
    """``kind(value)``, or InvalidParameterError when ``value`` names no member.
    The one place that turns a name into an enum member."""
    try:
        return kind(value)
    except ValueError:
        raise InvalidParameterError(
            f"{name} must be one of {[m.value for m in kind]}, got {value!r}") from None


def _check_count(name: str, value, low: int) -> None:
    """Raise unless ``value`` is an integer, not a bool, of at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise InvalidParameterError(f"{name} must be an integer of at least {low}, got {value!r}")


def _check_size(name: str, value, low: int) -> None:
    """The one count-ceiling rule: a count that sizes an array is also
    below ``_MAX_COUNT``.  Seeds are counts but not sizes."""
    _check_count(name, value, low)
    if value >= _MAX_COUNT:
        raise InvalidParameterError(f"{name} must be below 2**53, got {value!r}")


def _check_real(name: str, value) -> None:
    """Raise unless ``value`` is a real number, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidParameterError(f"{name} must be a real number, got {value!r}")


def _check_array(name: str, value, finite: bool = True) -> np.ndarray:
    """The one rule of an array a type holds: ``value`` as a non-empty,
    one-dimensional float array, and finite unless ``finite`` is false."""
    array = np.asarray(value, dtype=float)
    if array.ndim != 1:
        raise InvalidParameterError(f"{name} must be one-dimensional")
    if array.size == 0:
        raise InvalidParameterError(f"{name} must be non-empty")
    if finite and not np.all(np.isfinite(array)):
        raise InvalidParameterError(f"{name} must be finite")
    return array


def _check_angle(name: str, value) -> None:
    """The one probe-angle rule: strictly inside (0, 2*pi), for a number or
    for each entry of an array."""
    if not np.all((0.0 < value) & (value < TWO_PI)):
        raise InvalidParameterError(f"{name} must lie strictly inside (0, 2*pi)")


def _check_draw_range(c_low, c_high) -> None:
    """The one rule for the range the probe angles are drawn from."""
    _check_real("c_low", c_low)
    _check_real("c_high", c_high)
    if not (0.0 <= c_low < c_high <= TWO_PI and c_low < math.nextafter(c_high, 0.0)):
        raise InvalidParameterError("need 0 <= c_low < c_high <= 2*pi with a float between")


def _check_trim_fraction(value) -> None:
    """The one trim rule: a real number in [0, 0.5)."""
    _check_real("trim_fraction", value)
    if not 0.0 <= value < 0.5:
        raise InvalidParameterError("trim_fraction must lie in [0, 0.5)")


def _check_n0_fraction(value) -> None:
    """The one lag-window rule: a real number in (0, 0.5]."""
    _check_real("n0_fraction", value)
    if not 0.0 < value <= 0.5:
        raise InvalidParameterError("n0_fraction must lie in (0, 0.5]")


def _check_bands(bands) -> None:
    """The one bands rule: an instance of ``ClassificationBands``."""
    if not isinstance(bands, ClassificationBands):
        raise InvalidParameterError(f"bands must be ClassificationBands, got {bands!r}")


def _check_rate(rate) -> None:
    """The one sample-rate rule: None, or a finite and positive real number."""
    if rate is not None:
        _check_real("sample_rate", rate)
        if not 0 < rate < math.inf:
            raise InvalidParameterError(f"sample_rate must be finite and positive, got {rate!r}")


@dataclass(frozen=True)
class TestResult:
    """Outcome of one multi-frequency run.

    ``per_c`` preserves draw order.  ``short_series`` is advisory: the run
    completed, but the series was short enough that the statistic should be
    treated with caution.
    """

    series_label: str
    k_m: float
    label: Regime
    per_c: tuple[GrowthRate, ...]
    config: TestConfig
    short_series: bool = False


def translation_variables(series: TimeSeries, c: float) -> TranslationTrajectory:
    """Project a series onto the rotating frame at frequency ``c``.

    Computes ``p(n) = sum_{j<=n} s(j) cos(j c)`` and the sine analogue,
    for ``n = 1 .. N``.  The sample index ``j`` starts at 1.

    Raises
    ------
    InvalidParameterError
        If ``c`` is outside the open interval (0, 2*pi).
    PathOverflowError
        If the path passes the largest float.
    """
    _check_angle("c", c)
    with np.errstate(over="ignore", invalid="ignore"):
        z = np.cumsum(_steps(series.samples, np.array([c]))[0])
    # The steps are finite, so a path that is not finite somewhere ends so.
    if not np.isfinite(z[-1]):
        raise PathOverflowError(f"the path at c={c!r} passes the largest float")
    return TranslationTrajectory(c=c, p=z.real.copy(), q=z.imag.copy())


def _steps(samples: np.ndarray, angles: np.ndarray, table: np.ndarray | None = None) -> np.ndarray:
    """One row per angle: ``s(j) e^{ijc}``, ``j = 1 .. N``, whose running sum
    is the path ``p + iq``.  With ``j = qB + r`` and ``B = isqrt(N) + 1``,
    ``e^{ijc} = e^{iqBc} e^{irc}``: two tables of about ``sqrt(N)`` turns per
    angle and one product per step, so no error carries from step to step.
    The rows are a view into ``table``, flat complex memory of at least
    ``angles.size * B * (N // B + 1)`` entries (see ``_grid``), or into a new
    array if it is not given."""
    n_len = samples.size
    blocks, width = _grid(n_len)
    outer = _turns(angles, np.arange(blocks, dtype=float) * width)
    inner = _turns(angles, np.arange(width, dtype=float))
    count = angles.size * blocks * width
    table = np.empty(count, dtype=complex) if table is None else table[:count]
    table = table.reshape(angles.size, blocks, width)
    np.multiply(outer[:, :, None], inner[:, None, :], out=table)
    steps = table.reshape(angles.size, -1)[:, 1:n_len + 1]
    steps *= samples
    return steps


def _grid(n_len: int) -> tuple[int, int]:
    """Blocks and width of each row of the table that ``_steps`` builds."""
    width = math.isqrt(n_len) + 1
    return n_len // width + 1, width


def _turns(angles: np.ndarray, k: np.ndarray) -> np.ndarray:
    """``e^{ikc}`` for each angle ``c`` (rows) and integer ``k`` (columns).

    ``fl(k c)`` is off by up to ``k c 2^-53``, which grows with ``k``.  So
    each angle is split as ``c = hi + lo``, where ``hi`` keeps the leading 26
    significant bits of ``c`` and ``lo``, the exact rest, has at most 27.
    For an integer ``k < 2^26`` both ``k hi`` and ``k lo`` are exact, and
    ``e^{ikc} = e^{ik hi} e^{ik lo}`` is correct to about an ulp.  Below
    ``2^27`` only ``k lo`` rounds, by less than ``k c 2^-78`` (3e-15); above
    that ``k hi`` rounds too, and the error is that of the direct
    ``e^{i fl(k c)}``.
    """
    angles = np.ascontiguousarray(angles, dtype=float)
    hi = (angles.view(np.uint64) & ~np.uint64(2**27 - 1)).view(float)
    lo = angles - hi
    return _cis(np.multiply.outer(hi, k)) * _cis(np.multiply.outer(lo, k))


def _cis(phase: np.ndarray) -> np.ndarray:
    turn = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=turn.real)
    np.sin(phase, out=turn.imag)
    return turn


def msd(traj: TranslationTrajectory, n0: int) -> MsdCurve:
    """Mean square displacement of a trajectory over lags ``1 .. n0``.

    For each lag ``n``, averages the squared planar displacement
    ``[p(j+n)-p(j)]^2 + [q(j+n)-q(j)]^2`` over all admissible start points
    ``j``, dividing by the full trajectory length ``N``.

    ``n0`` must satisfy ``1 <= n0 < N``: the curve is only meaningful on a
    prefix of the available lags.
    """
    _check_count("n0", n0, 1)
    n0, n_len = int(n0), len(traj)
    if n0 >= n_len:
        raise InvalidParameterError("n0 must satisfy 1 <= n0 < len(trajectory)")
    steps = np.diff([traj.p + 1j * traj.q], prepend=0.0)
    plan = _Plan(n_len, n0, 1, 1)
    return MsdCurve(c=traj.c, values=_msd_rows(steps, plan, *plan.workspaces())[0])


#: Rows times FFT length per chunk of angles (one row at 100k samples).
_CHUNK_ELEMENTS = 1 << 17

#: Workers that ``run_test`` runs at once, the calling thread included,
#: whatever the CPU count, so that its memory (one workspace of a chunk's
#: size per worker) does not grow with the machine.
_CHUNKS_IN_FLIGHT = 2

def _fast_len(n: int) -> int:
    """Smallest 5-smooth integer (2^a 3^b 5^c) that is at least ``n``."""
    bits = range(n.bit_length() + 1)
    odd = [3**a * 5**b for a in bits for b in bits if 3**a * 5**b < 2 * n]
    return min(f << (-(-n // f) - 1).bit_length() for f in odd)


class _Plan:
    """The one sizing rule of the MSD kernel, for ``n_len`` samples, the lag
    window ``n0`` and ``angles`` probe angles on at most ``cpus`` CPUs: the
    FFT length ``size``; the angles per chunk ``rows``, as many as
    ``_CHUNK_ELEMENTS`` entries of the FFT length hold, and at least one; the
    ``workers`` that share the chunks, at most ``cpus`` and
    ``_CHUNKS_IN_FLIGHT`` (both constants are read here, when a plan is
    made); and ``need``, the complex entries of each worker's ``table``,
    ``spectrum`` and ``per_lag`` in ``_msd_rows``.  The table first holds the
    steps (``_grid``'s layout), then the inverse FFT's output."""

    def __init__(self, n_len: int, n0: int, angles: int, cpus: int):
        size = _fast_len(n_len + n0)
        rows = min(angles, max(1, _CHUNK_ELEMENTS // size))
        self.n_len, self.n0, self.size, self.rows = n_len, n0, size, rows
        self.workers = min(-(-angles // rows), cpus, _CHUNKS_IN_FLIGHT)
        self.need = (rows * max(math.prod(_grid(n_len)), size // 2 + 1), rows * size,
                     3 * rows * n0)

    def workspaces(self) -> list[np.ndarray]:
        return [np.empty(count, dtype=complex) for count in self.need]


def _msd_rows(steps: np.ndarray, plan: _Plan, table: np.ndarray, spectrum: np.ndarray,
              per_lag: np.ndarray) -> np.ndarray:
    """Mean square displacement ``M(1..n0)`` of the path ``z = p + iq`` whose
    steps are each row; ``steps`` is overwritten.  As ``|dz|^2 = dp^2 + dq^2``,
    the sum at lag ``n`` is ``ends = sum_{j>=n} |z_j|^2 + sum_{j<N-n} |z_j|^2``
    less twice the real autocorrelation, which one FFT of ``z`` padded to
    ``L = size >= N + n0`` (no lag wraps) gives for all lags.  The power
    ``P = |Y|^2`` of a complex path has no symmetry, but the real part of its
    inverse transform is the inverse transform of its even part
    ``(P[k] + P[(L - k) % L]) / 2``, a real and symmetric sequence, so one
    real inverse FFT of half length takes twice the autocorrelation from
    ``P[k] + P[(L - k) % L]``, ``k = 0 .. L // 2``.

    The path is the one running sum of length ``N``.  With ``E = sum |z|^2``,
    which Parseval gives as ``sum P / L``,
    ``ends(n) = 2E - sum_{j<n} (|z_j|^2 + |z_{N-1-j}|^2)``, and the drift
    term's ``sum_{j>=n} z_j - sum_{j<N-n} z_j`` is
    ``sum_{j<n} (z_{N-1-j} - z_j)``: running sums of the path's first and
    last ``n0`` points only, which round less than sums over all ``N``, and
    which hold the GIL for less time (see ``run_test``).

    Each row is transformed in place: the path's running sum is written
    straight into the first ``N`` entries of its spectrum row and the rest
    zeroed, the forward FFT runs in place, so numpy copies no row into a
    padded buffer, and the power and its even part are formed in that row.

    ``n0`` and ``L`` come from ``plan``, and ``table``, ``spectrum`` and
    ``per_lag`` are flat complex scratch of at least ``plan.need`` entries,
    for at most ``plan.rows`` rows.  ``table`` may be the memory that holds
    ``steps``: once they are summed, the real inverse FFT writes into it.
    ``per_lag`` holds the lag-length intermediates.  What they held does not
    matter, and the returned rows are new memory, so the caller may reuse
    all three for the next rows."""
    rows, n_len = steps.shape
    n0, size, half = plan.n0, plan.size, plan.size // 2
    shift = per_lag[:rows * n0].reshape(rows, n0)
    ends, ramp, out, dust = per_lag[rows * n0:3 * rows * n0].view(float).reshape(4, rows, n0)
    lags = np.arange(1, n0 + 1, dtype=float)
    # Build y from the steps less their mean `drift` (the first step never
    # shows in a displacement), or a drifting path (a resonant angle) leaves
    # short lags as differences of sums growing like N^3.  The last two terms
    # of `out` put the drift back in closed form.
    drift = steps[:, 1:].mean(axis=1, keepdims=True)
    steps -= drift
    steps[:, 0] = 0.0
    # The path goes straight into its spectrum row, zero-padded to L.
    spec = spectrum[:rows * size].reshape(rows, size)
    y = np.cumsum(steps, axis=1, out=spec[:, :n_len])
    spec[:, n_len:] = 0.0
    # The head and tail running sums, before the transform overwrites y:
    # `ends` holds sum_{j<n} (|y_j|^2 + |y_{N-1-j}|^2) until the spectrum
    # gives 2E, and `shift` sum_{j<n} (y_{N-1-j} - y_j).  `out` is scratch
    # until its turn.
    head, tail = y[:, :n0], y[:, :-n0 - 1:-1]
    np.square(head.real, out=ends)
    ends += np.square(head.imag, out=out)
    ends += np.square(tail.real, out=out)
    ends += np.square(tail.imag, out=out)
    np.cumsum(ends, axis=1, out=ends)
    np.subtract(tail, head, out=shift)
    np.cumsum(shift, axis=1, out=shift)
    np.fft.fft(spec, axis=1, out=spec)
    parts = spec.view(float)
    np.square(parts, out=parts)
    power = spec.real
    power += spec.imag
    np.subtract(power.sum(axis=1, keepdims=True) * (2.0 / size), ends, out=ends)
    # The even part is folded into each row's first L // 2 + 1 bins, as
    # complex so that the inverse FFT need not cast a copy, and its output
    # lands where the steps were.  Bin 0, and bin L / 2 when L is even, is
    # its own mirror; the others add bins above L / 2, which the sum does not
    # write, so numpy need not copy them to guard against the overlap.
    even = spec[:, :half + 1]
    even.real[:, 1:size - half] += power[:, :half:-1]
    even.real[:, ::size - half] *= 2.0
    even.imag = 0.0
    acf2 = table.view(float)[:rows * size].reshape(rows, size)
    np.fft.irfft(even, size, axis=1, out=acf2)
    acf2 = acf2[:, 1:n0 + 1]
    # out = ends - acf2 + 2 lags Re(conj(drift) shift) + ramp, in that order
    np.multiply((n_len - lags) * lags**2, drift.real**2 + drift.imag**2, out=ramp)
    np.subtract(ends, acf2, out=out)
    np.multiply(drift.conj(), shift, out=shift)
    np.multiply(2.0 * lags, shift.real, out=shift.real)
    out += shift.real
    out += ramp
    # Snap rounding dust (relative to the energy scale) to exact zero so flat
    # trajectories stay flat, and clamp the negatives it causes; a curve whose
    # whole range is dust is made flat, or its growth rate fits the rounding.
    np.add(ends, ramp, out=dust)
    dust *= 1e-12
    out[np.abs(out) <= dust] = 0.0
    np.maximum(out, 0.0, out=out)
    flat = np.ptp(out, axis=1) <= dust.max(axis=1)
    out[flat] = out[flat, :1]
    return out / n_len


def oscillation_correction(c, n0: int, series_mean: float) -> np.ndarray:
    """Closed-form bounded term that the series mean adds to the MSD.

    Subtracting this from the plain curve yields the corrected variant; the
    result may be negative, which the growth-rate estimators tolerate.  An
    array of frequencies ``c`` gives one row per frequency.  Each ``c`` lies
    strictly inside (0, 2*pi) and ``n0`` is an integer of at least 1.
    """
    _check_count("n0", n0, 1)
    c = np.asarray(c, dtype=float)
    _check_angle("c", c)
    c = c[..., None]
    n = np.arange(1, n0 + 1, dtype=float)
    return series_mean * series_mean * (1.0 - np.cos(n * c)) / (1.0 - np.cos(c))


def growth_rate_regression(curve: MsdCurve) -> GrowthRate:
    """Slope of ``log M(n)`` against ``log n``.

    Non-positive values of ``M`` have no logarithm and are skipped; when
    fewer than two usable points remain, or any value is not finite, the
    result is degenerate.
    """
    return _growth_rates([_in_range(curve.values)], [curve.c], Method.REGRESSION)[0]


def growth_rate_correlation(curve: MsdCurve) -> GrowthRate:
    """Pearson correlation between the lag index and ``M(n)``.

    Bounded in [-1, 1] by construction, which makes the aggregate robust to
    individual runaway fits.  A flat curve has no defined correlation and
    yields a degenerate result.
    """
    return _growth_rates([_in_range(curve.values)], [curve.c], Method.CORRELATION)[0]


def _growth_rates(values: np.ndarray, angles, method: Method) -> list[GrowthRate]:
    """One growth rate per row of ``values``, the curve at the matching angle."""
    values = np.asarray(values, dtype=float)
    n = np.arange(1, values.shape[1] + 1, dtype=float)
    degenerate = np.ptp(values, axis=1) == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        if method is Method.REGRESSION:
            # least-squares line through the points that have a logarithm
            weight = (values > 0.0).astype(float)
            x = np.log(n)
            dx = x - (weight * x).sum(axis=1, keepdims=True) / weight.sum(axis=1, keepdims=True)
            y = np.log(np.where(weight > 0.0, values, 1.0))
            k = (weight * dx * y).sum(axis=1) / (weight * dx * dx).sum(axis=1)
            # a value that is not finite is no point on the curve, not one to skip
            degenerate |= (weight.sum(axis=1) < 2) | ~np.isfinite(values).all(axis=1)
        else:
            dx = n - n.mean()
            dy = values - values.mean(axis=1, keepdims=True)
            k = (dy * dx).sum(axis=1) / np.sqrt((dx * dx).sum() * (dy * dy).sum(axis=1))
            # Guard against rounding pushing the coefficient past the unit bound.
            k = np.clip(k, -1.0, 1.0)
    # A statistic that is not finite (a variance that underflows) is no rate.
    degenerate |= ~np.isfinite(k)
    return [GrowthRate(c=float(c), k=0.0 if flat else float(rate), method=method,
                       degenerate=bool(flat))
            for c, rate, flat in zip(angles, k, degenerate)]


def aggregate_k(rates: list[GrowthRate] | tuple[GrowthRate, ...], aggregator: Aggregator,
                trim_fraction: float = 0.25) -> float:
    """Pool ``|k|`` over the non-degenerate entries.

    Raises
    ------
    AllDegenerateError
        If no entry carries a usable growth rate.
    InvalidParameterError
        If ``aggregator`` or ``trim_fraction`` breaks ``TestConfig``'s rule.
    """
    aggregator = _check_name(Aggregator, aggregator, "aggregator")
    _check_trim_fraction(trim_fraction)
    usable = np.array([abs(r.k) for r in rates if not r.degenerate])
    if usable.size == 0:
        raise AllDegenerateError("no usable growth rate at any probed frequency")
    if aggregator is Aggregator.MEAN:
        return float(np.mean(usable))
    if aggregator is Aggregator.MEDIAN:
        return float(np.median(usable))
    # The algorithm of scipy.stats.trim_mean: drop int(p*n) values from each end.
    cut = int(trim_fraction * usable.size)
    kept = np.partition(usable, (cut, usable.size - cut - 1))[cut:usable.size - cut]
    return float(np.mean(kept))


def classify(k_m: float, bands: ClassificationBands | None = None) -> Regime:
    """Map an aggregated growth rate onto a regularity regime."""
    if not k_m >= 0.0:  # NaN too
        raise InvalidParameterError(f"k_m must be non-negative, got {k_m!r}")
    bands = ClassificationBands() if bands is None else bands
    _check_bands(bands)
    if k_m < bands.regular_max:
        return Regime.REGULAR
    if k_m < bands.quasi_periodic_max:
        return Regime.QUASI_PERIODIC
    if k_m < bands.aperiodic_max:
        return Regime.APERIODIC
    return Regime.CHAOTIC_OR_STOCHASTIC


def lag_window(num_samples: int, n0_fraction: float) -> int:
    """Largest displacement lag used for a series of the given length."""
    _check_count("num_samples", num_samples, 1)
    _check_n0_fraction(n0_fraction)
    return max(2, math.floor(n0_fraction * num_samples))


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has
    one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _on_threads(fn, items, threads: int) -> list:
    """``[fn(item) for item in items]`` on at most ``threads`` threads, the
    calling one included, so one thread starts none.  Thread k starts on item
    k, then, until an item has raised, takes the next item no thread has
    taken.  Every thread started has ended before this returns or raises, and
    then it raises the first exception in item order: every item before the
    one that raised was taken, and so ran to its end."""
    items = list(items)
    results, errors = [None] * len(items), {}
    taken = itertools.count(max(threads, 1))

    def work(index: int) -> None:
        while index < len(items):
            try:
                results[index] = fn(items[index])
            except BaseException as exc:  # raised on the calling thread below
                errors[index] = exc
            index = len(items) if errors else next(taken)

    started = []
    try:
        for index in range(1, min(threads, len(items))):
            thread = threading.Thread(target=work, args=(index,))
            thread.start()
            started.append(thread)
        work(0)
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[min(errors)]
    return results


def _in_range(samples: np.ndarray) -> np.ndarray:
    """``samples`` as they are when their largest magnitude lies inside
    ``_UNSCALED`` (or is 0), else scaled by the power of two that brings it
    into [0.5, 1).  Scaling by a power of two is exact, short of samples that
    turn subnormal, which are negligible beside the largest, so a
    scale-invariant result is the same at any finite magnitude; inside the
    band nothing is copied and no result moves."""
    top = max(float(samples.max()), -float(samples.min()))
    if top == 0.0 or _UNSCALED[0] <= top <= _UNSCALED[1]:
        return samples
    return np.ldexp(samples, -math.frexp(top)[1])


@functools.cache
def _keep_freed_blocks() -> None:
    """Allocate and free one untouched 16 MiB block, once per process.

    Under glibc, freeing a block that malloc had mapped (and of at most
    32 MiB) raises its mmap threshold to that size and its trim threshold to
    twice it, so from then on a freed block below 16 MiB stays in the heap
    with its pages in memory for the next allocation to reuse.  Two callers
    raise it before they allocate:
    - `run_test`, whose workspaces, numpy FFT scratch and growth-rate
      temporaries would otherwise be mapped and faulted in again on every
      row (about 78k faults at 100k samples after a file load);
    - `seriesio._write_table`, whose block buffers would otherwise be
      mapped and faulted in again for every block (about 114k faults, and
      a third of the CPU, writing 10^6 values in a fresh process, against
      about 2.3k).
    Measured on 2 CPUs: once per process, not per call, because after the
    first call the block comes from the heap, and a block on every call
    raised `batch`'s peak memory by 5%; at least 8 MiB, because the trim
    threshold must lie above one call's workspaces (a block under 4 MiB on
    every call faulted more, not less); and in place of workspaces kept from
    call to call, which beside it only raised the peak.  Under any other
    allocator it does nothing."""
    np.empty(1 << 24, dtype=np.uint8)


def _draw_frequencies(config: TestConfig) -> np.ndarray:
    # PCG64 is stable across platforms and versions, so a seed pins the
    # exact frequency draw everywhere.
    rng = np.random.Generator(np.random.PCG64(config.seed))
    # Endpoints are measure-zero but would break the rotating frame; redraw
    # rather than clamp so the distribution stays uniform.  Keeping each
    # block's accepted draws in order gives the angles that one draw at a
    # time gives, and a block of only the missing count reads no further.
    blocks = []
    missing = config.num_c
    while missing:
        block = rng.uniform(config.c_low, config.c_high, missing)
        block = block[(config.c_low < block) & (block < config.c_high)]
        blocks.append(block)
        missing -= block.size
    return np.concatenate(blocks)


def run_test(series: TimeSeries, config: TestConfig | None = None) -> TestResult:
    """Run the full multi-frequency test on one series.

    Draws ``num_c`` probe frequencies, computes a growth rate at each, and
    aggregates ``|K_c|`` into the statistic ``K_m`` with its regime label.
    Deterministic for a fixed series and config: same seed, same draws, same
    result, bit for bit.

    Raises
    ------
    SeriesTooShortError
        If the lag window cannot fit inside the series.
    AllDegenerateError
        If every frequency yields a degenerate growth rate (flat input).
    """
    return _run_test(series, config or TestConfig(), usable_cpus())


def _run_test(series: TimeSeries, config: TestConfig, cpus: int) -> TestResult:
    """``run_test`` on at most ``cpus`` threads, the calling one included:
    ``batch`` gives each of its file threads its share of the CPUs."""
    n_len = len(series)
    n0 = lag_window(n_len, config.n0_fraction)
    if n0 >= n_len:
        raise SeriesTooShortError(
            f"need more than {n0} samples for the configured lag window, got {n_len}"
        )

    angles = _draw_frequencies(config)
    plan = _Plan(n_len, n0, angles.size, cpus)
    samples = _in_range(series.samples)
    mean = float(np.mean(samples))

    def worker(chunk: np.ndarray) -> list[GrowthRate]:
        space = spaces.pop()
        values = _msd_rows(_steps(samples, chunk, space[0]), plan, *space)
        spaces.append(space)  # the rows are new memory
        if config.msd_variant is MsdVariant.CORRECTED:
            values -= oscillation_correction(chunk, n0, mean)
        return _growth_rates(values, chunk, config.method)

    # numpy's FFTs, ufuncs and sums release the GIL, so workers on threads
    # share the CPUs; its running sums along an axis hold it in numpy 2.4,
    # which is why `_msd_rows` makes only one of length N per row.  The
    # angles are cut once, into chunks of `plan.rows`, which N, n0 and the
    # angle count alone set, so the rows that share an FFT call, and with
    # them K, do not depend on the CPU count.  The plan runs at most `cpus`
    # workers, so that the threads of a whole batch stay within the CPUs:
    # the caller and a thread of its own for each other worker (none if
    # there is none) take the chunks in turn.  For a chunk's steps and MSD a
    # worker takes a free set of the plan's workspaces and then puts it back,
    # so rows reuse pages rather than fault fresh ones in; there is a set per
    # worker, and `list.pop` and `append` are atomic, so no set is in two
    # calls at once.  The caller allocates them all: pages a started thread
    # frees stay in its malloc arena, and a later call's thread that finds
    # it still taken builds another.
    # The threads live for one call: module-level ones would not survive fork.
    _keep_freed_blocks()
    spaces = [plan.workspaces() for _ in range(plan.workers)]
    chunks = np.split(angles, range(plan.rows, angles.size, plan.rows))
    rates = [rate for done in _on_threads(worker, chunks, plan.workers) for rate in done]

    k_m = aggregate_k(rates, config.aggregator, config.trim_fraction)
    return TestResult(
        series_label=series.label,
        k_m=k_m,
        label=classify(k_m, config.bands),
        per_c=tuple(rates),
        config=config,
        short_series=n_len < SHORT_SERIES_LIMIT,
    )
