"""Reference signal generators spanning the regularity spectrum.

Six canonical inputs for calibrating and exercising the test: a sine tone,
a sawtooth, a two-tone quasi-periodic signal with an irrational frequency
ratio, a linear chirp, the Henon map, and seeded uniform noise.  All
time-parameterized generators sample at t = (j-1)/fs so the first sample
sits at t = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (TimeSeries, _MAX_COUNT, _check_count, _check_name, _check_rate, _check_real,
                   _check_size, _store)
from .errors import AliasingError, DivergenceError, InvalidParameterError

#: Iterates beyond this magnitude are treated as having left the attractor.
DIVERGENCE_LIMIT = 1.0e6

#: The sample rate, in Hz, of the time kinds when none is given.
_DEFAULT_RATE = 5000.0


class GeneratorKind(str, Enum):
    SINE = "sine"
    SAWTOOTH = "sawtooth"
    QUASI_PERIODIC = "quasi_periodic"
    CHIRP = "chirp"
    HENON = "henon"
    UNIFORM_RANDOM = "uniform_random"


@dataclass(frozen=True)
class HenonState:
    """One point of the Henon map orbit."""

    x: float
    y: float


def henon_step(state: HenonState, a: float = 1.4, b: float = 0.3) -> HenonState:
    """Advance the Henon map by one iteration."""
    return HenonState(x=1.0 - a * state.x * state.x + state.y, y=b * state.x)


@dataclass(frozen=True)
class GeneratorSpec:
    """Declarative description of one generated series.

    Only the fields relevant to ``kind`` are consulted: ``freq`` drives the
    sine and sawtooth tones, ``f0``/``f1`` the chirp sweep, the map
    coefficients the Henon orbit, and ``seed`` the noise draw.  Counts are
    stored as ints and reals as floats.
    """

    kind: GeneratorKind
    num_samples: int = 5000
    sample_rate: float | None = None
    freq: float = 100.0
    f0: float = 0.0
    f1: float = 100.0
    a: float = 1.4
    b: float = 0.3
    x0: float = 0.03
    y0: float = 0.03
    total: int = 100_000
    seed: int = 0

    def __post_init__(self):
        _store(self, kind=_check_name(GeneratorKind, self.kind, "kind"),
               num_samples=_check_size("num_samples", self.num_samples, 1),
               total=_check_size("total", self.total, 1), seed=_check_count("seed", self.seed, 0),
               **{name: _check_real(name, getattr(self, name))
                  for name in ("freq", "f0", "f1", "a", "b", "x0", "y0")})
        rate = _KINDS[self.kind][1] if self.sample_rate is None else self.sample_rate
        _store(self, sample_rate=_check_rate(rate))


#: Per kind, the spec fields that name its samples, as ``generate`` prints
#: them, its default sample rate (None: no clock) and the generator call on
#: a spec: the one table that branches on kinds.
_KINDS = {
    GeneratorKind.SINE: ("f={freq} fs={sample_rate}", _DEFAULT_RATE,
                         lambda s: gen_sine(s.freq, s.sample_rate, s.num_samples)),
    GeneratorKind.SAWTOOTH: ("f={freq} fs={sample_rate}", _DEFAULT_RATE,
                             lambda s: gen_sawtooth(s.freq, s.sample_rate, s.num_samples)),
    GeneratorKind.QUASI_PERIODIC: ("fs={sample_rate}", _DEFAULT_RATE,
                                   lambda s: gen_quasiperiodic(s.sample_rate, s.num_samples)),
    GeneratorKind.CHIRP: ("f0={f0} f1={f1} fs={sample_rate}", _DEFAULT_RATE, lambda s: gen_chirp(
        s.f0, s.f1, s.num_samples / s.sample_rate, s.sample_rate)),
    GeneratorKind.HENON: ("a={a} b={b} x0={x0} y0={y0}", None, lambda s: gen_henon(
        s.a, s.b, s.x0, s.y0, total=max(s.total, s.num_samples), keep=s.num_samples)),
    GeneratorKind.UNIFORM_RANDOM: ("seed={seed}", None,
                                   lambda s: gen_uniform_random(s.num_samples, s.seed)),
}


def make_series(spec: GeneratorSpec) -> TimeSeries:
    """Materialize a :class:`GeneratorSpec` into samples."""
    series = _KINDS[spec.kind][2](spec)
    if series.sample_rate != spec.sample_rate:  # a clock declared for map or noise samples
        series = TimeSeries(series.samples, spec.sample_rate, series.label)
    return series


def _describe(spec: GeneratorSpec) -> str:
    """The spec fields that ``spec.kind`` reads, as ``name=value`` words."""
    return _KINDS[spec.kind][0].format_map(vars(spec))


def _check_tone(f: float, fs: float) -> tuple[float, float]:
    """The one aliasing rule: a tone at ``f`` needs ``fs`` above ``2 * f``.
    Returns both as floats."""
    f, fs = _check_real("f", f), _check_real("fs", fs)
    if not f > 0 or not fs > 0:
        raise InvalidParameterError("f and fs must be positive")
    if f >= fs / 2:
        raise AliasingError(f"tone at {f} Hz needs a sample rate above {2 * f} Hz, got {fs}")
    return f, fs


def gen_sine(f: float = 100.0, fs: float = _DEFAULT_RATE, n: int = 5000) -> TimeSeries:
    """Pure tone sin(2*pi*f*t)."""
    f, fs = _check_tone(f, fs)
    n = _check_size("n", n, 1)
    t = np.arange(n) / fs
    return TimeSeries(np.sin(2.0 * math.pi * f * t), sample_rate=fs, label="sine")


def gen_sawtooth(f: float = 100.0, fs: float = _DEFAULT_RATE, n: int = 5000) -> TimeSeries:
    """Sawtooth y(t) = 2*(t*f - floor(1/2 + t*f)), ramping across [-1, 1).

    When the period is a whole number of samples the phase is reduced
    modulo that period in integer arithmetic first.  The values are
    identical in exact math, but this keeps the output bit-exactly
    periodic instead of drifting by float rounding in t*f.  A period of
    2**63 samples or more (an infinite one included) takes the direct form,
    since numpy's integers cannot hold it.
    """
    f, fs = _check_tone(f, fs)
    j = np.arange(_check_size("n", n, 1))
    period = fs / f
    whole = round(period) if period < 2.0**63 else 0
    if whole >= 1 and whole * f == fs:
        phase = (j % whole) / period
    else:
        phase = (j / fs) * f
    return TimeSeries(2.0 * (phase - np.floor(0.5 + phase)), sample_rate=fs, label="sawtooth")


def gen_quasiperiodic(fs: float = _DEFAULT_RATE, n: int = 5000) -> TimeSeries:
    """Two equal-amplitude cosines at 100 Hz and 100*sqrt(2) Hz.

    The irrational frequency ratio (kept at full float precision, never a
    decimal approximation) means the waveform never exactly repeats.
    """
    f_hi = 100.0 * math.sqrt(2.0)
    fs = _check_tone(f_hi, fs)[1]
    t = np.arange(_check_size("n", n, 1)) / fs
    two_pi_t = 2.0 * math.pi * t
    samples = np.cos(100.0 * two_pi_t) + np.cos(f_hi * two_pi_t)
    return TimeSeries(samples, sample_rate=fs, label="quasi_periodic")


def gen_chirp(f0: float = 0.0, f1: float = 100.0, sweep_time: float = 1.0,
              fs: float = _DEFAULT_RATE) -> TimeSeries:
    """Linear sweep sin(2*pi*(f0*t + (k/2)*t^2)) with k = (f1-f0)/sweep_time.

    Sampled over [0, sweep_time), giving round(sweep_time*fs) samples.  The
    instantaneous frequency reaches f1 at the sweep end, so fs must exceed
    2*f1 to keep the tail of the sweep below Nyquist.
    """
    f0, f1, sweep_time, fs = (_check_real(name, value) for name, value in (
        ("f0", f0), ("f1", f1), ("sweep_time", sweep_time), ("fs", fs)))
    if not f1 > f0 >= 0.0:
        raise InvalidParameterError("need f1 > f0 >= 0")
    if not sweep_time > 0:
        raise InvalidParameterError("sweep_time must be positive")
    _check_tone(f1, fs)
    count = sweep_time * fs
    # above 2**53 a float no longer counts samples one by one; inf is refused too
    if not count < _MAX_COUNT:
        raise InvalidParameterError(f"sweep_time * fs must be below 2**53 samples, got {count!r}")
    n = round(count)
    if n < 1:
        raise InvalidParameterError("sweep shorter than one sample")
    t = np.arange(n) / fs
    rate = (f1 - f0) / sweep_time
    samples = np.sin(2.0 * math.pi * (f0 * t + 0.5 * rate * t**2))
    return TimeSeries(samples, sample_rate=fs, label="chirp")


def gen_henon(a: float = 1.4, b: float = 0.3, x0: float = 0.03, y0: float = 0.03,
              total: int = 100_000, keep: int = 5000) -> TimeSeries:
    """x-coordinate of the Henon map x' = 1 - a*x^2 + y, y' = b*x.

    Iterates ``total`` times from (x0, y0) and returns the last ``keep``
    values, discarding the transient.  The defaults give the standard
    chaotic attractor.

    Raises
    ------
    DivergenceError
        If an iterate exceeds 1e6 in magnitude, which signals parameters
        or initial conditions outside the attractor basin.
    """
    a, b, x, y = (_check_real(name, value) for name, value in
                  (("a", a), ("b", b), ("x0", x0), ("y0", y0)))
    keep = _check_size("keep", keep, 1)
    total = _check_size("total", total, keep)
    out = np.empty(total, dtype=float)
    for i in range(total):
        x, y = 1.0 - a * x * x + y, b * x
        if abs(x) > DIVERGENCE_LIMIT:
            raise DivergenceError(f"orbit diverged at iterate {i + 1}")
        out[i] = x
    return TimeSeries(out[total - keep:], sample_rate=None, label="henon")


def gen_uniform_random(n: int = 5000, seed: int = 0) -> TimeSeries:
    """IID draws from U[0, 1).

    Uses the same portable seeded generator as the frequency draw in the
    test driver, so a seed pins the sequence across platforms.
    """
    n, seed = _check_size("n", n, 1), _check_count("seed", seed, 0)
    rng = np.random.Generator(np.random.PCG64(seed))
    return TimeSeries(rng.random(n), sample_rate=None, label="uniform_random")
