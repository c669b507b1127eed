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

import math
import numbers
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (
    AllDegenerateError,
    InvalidParameterError,
    SeriesTooShortError,
)

TWO_PI = 2.0 * math.pi

#: Below this length the asymptotic statistic is unreliable and results are
#: flagged advisory rather than rejected.
SHORT_SERIES_LIMIT = 1000

#: Fraction of the series length used as the largest displacement lag.  The
#: regime thresholds were calibrated jointly with this window; see README.
DEFAULT_N0_FRACTION = 0.28


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


@dataclass(frozen=True)
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
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1:
            raise InvalidParameterError("samples must be one-dimensional")
        if samples.size == 0:
            raise InvalidParameterError("samples must be non-empty")
        if not np.all(np.isfinite(samples)):
            raise InvalidParameterError("samples must be finite")
        if self.sample_rate is not None and not 0 < self.sample_rate < math.inf:
            raise InvalidParameterError("sample_rate must be finite and positive")
        # Freeze a view, not the caller's own array, and copy nothing.
        samples = samples.view()
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class TranslationTrajectory:
    """Planar trajectory ``(p, q)`` built from one series at one frequency."""

    c: float
    p: np.ndarray
    q: np.ndarray

    def __len__(self) -> int:
        return self.p.size


@dataclass(frozen=True)
class MsdCurve:
    """Mean square displacement ``M(n)`` for lags ``n = 1 .. n_max``."""

    c: float
    values: np.ndarray

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
        _check_count("num_c", self.num_c, 1)
        _check_count("seed", self.seed, 0)
        if not (0.0 <= self.c_low < self.c_high <= TWO_PI
                and self.c_low < math.nextafter(self.c_high, 0.0)):
            raise InvalidParameterError("need 0 <= c_low < c_high <= 2*pi with a float between")
        if not 0.0 <= self.trim_fraction < 0.5:
            raise InvalidParameterError("trim_fraction must lie in [0, 0.5)")
        if not 0.0 < self.n0_fraction <= 0.5:
            raise InvalidParameterError("n0_fraction must lie in (0, 0.5]")
        if not isinstance(self.bands, ClassificationBands):
            raise InvalidParameterError(f"bands must be ClassificationBands, got {self.bands!r}")
        # Accept plain strings for the enum fields so configs parsed from
        # JSON or CLI flags do not need pre-conversion.
        for name, kind in (("method", Method), ("aggregator", Aggregator),
                           ("msd_variant", MsdVariant)):
            object.__setattr__(self, name, _check_name(kind, getattr(self, name), name))


def _check_name(kind: type[Enum], value, name: str) -> Enum:
    """``kind(value)``, or InvalidParameterError when ``value`` names no member."""
    try:
        return kind(value)
    except ValueError:
        raise InvalidParameterError(f"unknown {name}: {value!r}") from None


def _check_count(name: str, value, low: int) -> None:
    """Raise unless ``value`` is an integer, not a bool, of at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise InvalidParameterError(f"{name} must be an integer of at least {low}, got {value!r}")


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
    """
    if not 0.0 < c < TWO_PI:
        raise InvalidParameterError("c must lie strictly inside (0, 2*pi)")
    z = np.cumsum(_steps(series.samples, np.array([c]))[0])
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
    n_len = len(traj)
    if not 1 <= n0 < n_len:
        raise InvalidParameterError("n0 must satisfy 1 <= n0 < len(trajectory)")
    steps = np.diff([traj.p + 1j * traj.q], prepend=0.0)
    return MsdCurve(c=traj.c, values=_msd_rows(steps, n0, _fast_len(n_len + n0))[0])


#: Rows times FFT length per chunk of angles (one row at 100k samples).
_CHUNK_ELEMENTS = 1 << 17

#: Workers that ``run_test`` runs at once, the calling thread included,
#: whatever the CPU count, so that its memory (one workspace of a chunk's
#: size per worker) does not grow with the machine.
_CHUNKS_IN_FLIGHT = 2

#: ``held``: the workspaces, one per worker, that this thread's last
#: ``run_test`` call kept for its next one.
_workspaces = threading.local()


def _fast_len(n: int) -> int:
    """Smallest 5-smooth integer (2^a 3^b 5^c) that is at least ``n``."""
    bits = range(n.bit_length() + 1)
    odd = [3**a * 5**b for a in bits for b in bits if 3**a * 5**b < 2 * n]
    return min(f << (-(-n // f) - 1).bit_length() for f in odd)


def _msd_rows(steps: np.ndarray, n0: int, size: int, table: np.ndarray | None = None,
              spectrum: np.ndarray | None = None,
              per_lag: np.ndarray | None = None) -> np.ndarray:
    """Mean square displacement ``M(1..n0)`` of the path ``z = p + iq`` whose
    steps are each row; ``steps`` is overwritten.  As ``|dz|^2 = dp^2 + dq^2``,
    the sum at lag ``n`` is two tails of ``sum |z|^2`` less twice the real
    autocorrelation, which one FFT of ``z`` padded to ``L = size >= N + n0``
    (no lag wraps) gives for all lags.  The power ``P = |Y|^2`` of a complex path has
    no symmetry, but the real part of its inverse transform is the inverse
    transform of its even part ``(P[k] + P[(L - k) % L]) / 2``, a real and
    symmetric sequence, so one real inverse FFT of half length takes twice
    the autocorrelation from ``P[k] + P[(L - k) % L]``, ``k = 0 .. L // 2``.

    ``table``, ``spectrum`` and ``per_lag`` are flat complex scratch of at
    least ``rows * (L // 2 + 1)``, ``rows * L`` and ``3 * rows * n0``
    entries; ``table`` may be the memory that holds ``steps``, and
    ``per_lag`` holds the lag-length intermediates.  Each is allocated if not
    given.  What they held does not matter, and the returned rows are new
    memory, so the caller may reuse all three for the next rows."""
    rows, n_len = steps.shape
    half = size // 2
    if table is None:
        table = np.empty(rows * (half + 1), dtype=complex)
    if spectrum is None:
        spectrum = np.empty(rows * size, dtype=complex)
    if per_lag is None:
        per_lag = np.empty(3 * rows * n0, dtype=complex)
    scratch = spectrum[:rows * size].view(float)
    shift = per_lag[:rows * n0].reshape(rows, n0)
    ends, ramp, out, dust = per_lag[rows * n0:3 * rows * n0].view(float).reshape(4, rows, n0)
    lags = np.arange(1, n0 + 1, dtype=float)
    # Build y from the steps less their mean `drift` (the first step never
    # shows in a displacement), or a drifting path (a resonant angle) leaves
    # short lags as differences of sums growing like N^3.  The last two terms
    # of `out` put the drift back in closed form.
    drift = steps[:, 1:].mean(axis=1, keepdims=True)
    y = steps
    y -= drift
    y[:, 0] = 0.0
    np.cumsum(y, axis=1, out=y)
    # The running sums of |y|^2 and of y use the spectrum's memory until the
    # FFT needs it.
    energy = np.square(y.real, out=scratch[:rows * n_len].reshape(rows, n_len))
    energy += np.square(y.imag, out=scratch[rows * n_len:2 * rows * n_len].reshape(rows, n_len))
    np.cumsum(energy, axis=1, out=energy)
    np.subtract(energy[:, -1:], energy[:, :n0], out=ends)
    ends += energy[:, n_len - n0 - 1:n_len - 1][:, ::-1]
    level = np.cumsum(y, axis=1, out=spectrum[:rows * n_len].reshape(rows, n_len))
    np.subtract(level[:, -1:], level[:, :n0], out=shift)
    shift -= level[:, n_len - n0 - 1:n_len - 1][:, ::-1]
    transform = np.fft.fft(y, size, axis=1, out=spectrum[:rows * size].reshape(rows, size))
    power = np.square(transform.real, out=transform.real)
    power += np.square(transform.imag, out=transform.imag)
    # The even part is built where the steps were, as complex so that the
    # inverse FFT need not cast a copy, and its output lands in the spectrum.
    even = table[:rows * (half + 1)].reshape(rows, half + 1)
    np.copyto(even, power[:, :half + 1])
    even.real[:, 1:] += power[:, :size - half - 1:-1]
    even.real[:, 0] *= 2.0
    acf2 = np.fft.irfft(even, size, axis=1, out=scratch[:rows * size].reshape(rows, size))
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
    array of frequencies ``c`` gives one row per frequency.
    """
    c = np.asarray(c, dtype=float)[..., None]
    n = np.arange(1, n0 + 1, dtype=float)
    return series_mean**2 * (1.0 - np.cos(n * c)) / (1.0 - np.cos(c))


def growth_rate_regression(curve: MsdCurve) -> GrowthRate:
    """Slope of ``log M(n)`` against ``log n``.

    Non-positive values of ``M`` have no logarithm and are skipped; when
    fewer than two usable points remain the result is degenerate.
    """
    return _growth_rates([curve.values], [curve.c], Method.REGRESSION)[0]


def growth_rate_correlation(curve: MsdCurve) -> GrowthRate:
    """Pearson correlation between the lag index and ``M(n)``.

    Bounded in [-1, 1] by construction, which makes the aggregate robust to
    individual runaway fits.  A flat curve has no defined correlation and
    yields a degenerate result.
    """
    return _growth_rates([curve.values], [curve.c], Method.CORRELATION)[0]


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
            degenerate |= weight.sum(axis=1) < 2
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
    """
    usable = np.array([abs(r.k) for r in rates if not r.degenerate])
    if usable.size == 0:
        raise AllDegenerateError("no usable growth rate at any probed frequency")
    aggregator = _check_name(Aggregator, aggregator, "aggregator")
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
    if k_m < 0.0:
        raise InvalidParameterError("k_m must be non-negative")
    bands = bands or ClassificationBands()
    if k_m < bands.regular_max:
        return Regime.REGULAR
    if k_m < bands.quasi_periodic_max:
        return Regime.QUASI_PERIODIC
    if k_m < bands.aperiodic_max:
        return Regime.APERIODIC
    return Regime.CHAOTIC_OR_STOCHASTIC


def lag_window(num_samples: int, n0_fraction: float) -> int:
    """Largest displacement lag used for a series of the given length."""
    return max(2, math.floor(n0_fraction * num_samples))


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has
    one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _draw_frequencies(config: TestConfig) -> list[float]:
    # PCG64 is stable across platforms and versions, so a seed pins the
    # exact frequency draw everywhere.
    rng = np.random.Generator(np.random.PCG64(config.seed))
    draws: list[float] = []
    while len(draws) < config.num_c:
        c = rng.uniform(config.c_low, config.c_high)
        # Endpoints are measure-zero but would break the rotating frame;
        # redraw rather than clamp so the distribution stays uniform.
        if config.c_low < c < config.c_high:
            draws.append(float(c))
    return draws


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
    config = config or TestConfig()
    n_len = len(series)
    n0 = lag_window(n_len, config.n0_fraction)
    if n0 >= n_len:
        raise SeriesTooShortError(
            f"need more than {n0} samples for the configured lag window, got {n_len}"
        )

    angles = np.array(_draw_frequencies(config))
    size = _fast_len(n_len + n0)
    rows = min(angles.size, max(1, _CHUNK_ELEMENTS // size))
    workers = min(-(-angles.size // rows), usable_cpus(), _CHUNKS_IN_FLIGHT)
    mean = float(np.mean(series.samples))

    def worker(share: np.ndarray, space: list[np.ndarray]) -> list[GrowthRate]:
        done = []
        for chunk in np.split(share, range(rows, share.size, rows)):
            values = _msd_rows(_steps(series.samples, chunk, space[0]), n0, size, *space)
            if config.msd_variant is MsdVariant.CORRECTED:
                values -= oscillation_correction(chunk, n0, mean)
            done += _growth_rates(values, chunk, config.method)
        return done

    # numpy's FFTs and ufuncs release the GIL, so workers on threads share
    # the CPUs.  The caller computes the first slice and a pool thread each
    # other one (none if there is none), in chunks of `rows` in one workspace
    # (the three buffers of `_msd_rows`), so rows reuse pages rather than
    # fault fresh ones in.  The caller allocates them all: pages a pool thread
    # frees stay in its malloc arena, and a later call's thread that finds it
    # still taken builds another.  The caller keeps them for its next call,
    # which reuses each buffer that is large enough, so a warm call maps no
    # fresh chunk-sized memory.  Only a chunk within the budget is kept (not
    # one row of more than about 102k samples): a thread holds at most
    # `_CHUNKS_IN_FLIGHT` workspaces, each of about 3 * `_CHUNK_ELEMENTS`
    # complex entries or fewer, until the thread exits.
    # The pool lives for one call: a module-level one would not survive fork.
    need = (rows * max(math.prod(_grid(n_len)), size // 2 + 1), rows * size, 3 * rows * n0)
    keep = rows * size <= _CHUNK_ELEMENTS
    held = getattr(_workspaces, "held", []) if keep else []
    _workspaces.held = []
    spaces = []
    for index in range(workers):
        old = held[index] if index < len(held) else [np.empty(0, dtype=complex)] * len(need)
        spaces.append([buffer if buffer.size >= count else np.empty(count, dtype=complex)
                       for buffer, count in zip(old, need)])
    del held, old  # what was not reused goes now, not after the call
    first, *rest = np.array_split(angles, workers)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        others = pool.map(worker, rest, spaces[1:])
        rates = worker(first, spaces[0]) + [rate for done in others for rate in done]
    if keep:
        _workspaces.held = spaces

    k_m = aggregate_k(rates, config.aggregator, config.trim_fraction)
    return TestResult(
        series_label=series.label,
        k_m=k_m,
        label=classify(k_m, config.bands),
        per_c=tuple(rates),
        config=config,
        short_series=n_len < SHORT_SERIES_LIMIT,
    )
