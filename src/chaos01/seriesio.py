"""File ingestion, serialization of results and plot data, and windowed
segmentation of long recordings.

Two text formats are understood:

* ``single_column``: one decimal per line, LF terminated, with an optional
  leading ``# sample_rate=<Hz>`` comment.
* ``time_value_csv``: a ``time,value`` header followed by comma-separated
  rows; timestamps must be uniformly spaced (relative tolerance 1e-6) and
  their spacing defines the sample rate.

Either reader gives one table: ``np.loadtxt`` reads it whole, and when it
declines (a value it cannot parse, a skipped or non-finite row) the line
parser, which alone decides what is accepted, re-reads it and names the bad
line.  The timestamp spacing is then checked once, on that table.

All reals are rendered with their shortest round-trip decimal form, so a
write/load cycle reproduces every sample bit for bit.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from . import __version__
from .core import (TestResult, TimeSeries, TranslationTrajectory, aggregate_k, _check_count,
                   _check_name, _check_rate)
from .errors import (
    MissingSampleRateError,
    NonUniformSamplingError,
    SeriesFormatError,
    SeriesTooShortError,
)
from .spectral import PsdEstimate

#: Allowed relative deviation between timestamp gaps in time_value_csv files.
SPACING_RTOL = 1e-6


class SeriesFormat(str, Enum):
    SINGLE_COLUMN = "single_column"
    TIME_VALUE_CSV = "time_value_csv"


@dataclass(frozen=True)
class SeriesFile:
    """A reference to an on-disk series plus how to read it.

    ``sample_rate`` supplies a rate for single_column files that lack the
    comment header; time_value_csv files always infer theirs from the
    timestamp spacing.
    """

    path: str | Path
    format: SeriesFormat = SeriesFormat.SINGLE_COLUMN
    sample_rate: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "format", _check_name(SeriesFormat, self.format, "format"))
        _check_rate(self.sample_rate)


@dataclass(frozen=True)
class WindowPlan:
    """Sliding-window layout for segmenting a long recording.

    Windows shorter than a few hundred samples rarely give a stable
    statistic; they are permitted (small windows are useful in tests) but
    the short-series flag on each result should be heeded.
    """

    window_len: int
    stride: int

    def __post_init__(self):
        _check_count("window_len", self.window_len, 1)
        _check_count("stride", self.stride, 1)


def _parse_float(text: str, line: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise SeriesFormatError(f"not a number: {text!r}", line=line) from None
    if not math.isfinite(value):
        raise SeriesFormatError(f"non-finite value: {text!r}", line=line)
    return value


def _fast_table(body: list[str], columns: int) -> np.ndarray | None:
    """Read ``body`` as a ``len(body)`` × ``columns`` table of finite floats in one
    call, or return None so the line parser can accept the file or name its bad line.

    loadtxt parses a field as ``float()`` does, but it rejects ``_`` and
    non-ASCII digits, skips empty lines (which the row count catches) and
    strips a unit separator ``\x1f`` at a field's edge, where ``float()``
    rejects it beside a comma (so callers check for it).
    """
    if not body:
        return None
    try:
        table = np.loadtxt(body, delimiter=",", comments=None, dtype=float, ndmin=2)
    except ValueError:
        return None
    if table.shape != (len(body), columns) or not np.isfinite(table).all():
        return None
    return table


def _read_table(lines: list[str], start: int, columns: int, tabular: bool) -> np.ndarray:
    """The rows ``lines[start:]`` as a ``(rows, columns)`` table of finite floats.

    The array reader is tried first unless ``tabular`` is False; when it
    declines, the line parser reads the rows and names the first bad line.
    """
    if tabular and (table := _fast_table(lines[start:], columns)) is not None:
        return table
    values = []
    for i in range(start, len(lines)):
        text = lines[i].strip()
        if not text:
            raise SeriesFormatError("blank line", line=i + 1)
        fields = text.split(",") if columns > 1 else [text]
        if len(fields) != columns:
            raise SeriesFormatError(f"expected two comma-separated fields: {text!r}", line=i + 1)
        values.extend(_parse_float(field, line=i + 1) for field in fields)
    return np.array(values, dtype=float).reshape(-1, columns)


def _load_single_column(lines: list[str], rate: float | None,
                        tabular: bool) -> tuple[np.ndarray, float | None]:
    """``rate`` is the one to use when the file has no rate comment."""
    start = 0
    if lines and lines[0].lstrip().startswith("#"):
        comment = lines[0].lstrip()[1:].strip()
        if not comment.startswith("sample_rate="):
            raise SeriesFormatError(f"unrecognized comment: {lines[0]!r}", line=1)
        rate = _parse_float(comment[len("sample_rate="):], line=1)
        if not rate > 0:
            raise SeriesFormatError("sample_rate must be positive", line=1)
        start = 1
    return _read_table(lines, start, 1, tabular)[:, 0], rate


def _load_time_value(lines: list[str], tabular: bool) -> tuple[np.ndarray, float]:
    if not lines or lines[0].strip() != "time,value":
        raise SeriesFormatError("expected 'time,value' header", line=1)
    table = _read_table(lines, 1, 2, tabular)
    if len(table) < 2:
        raise SeriesFormatError("need at least two rows to infer the sample rate")
    t = table[:, 0]
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan gaps compare False
        dt = float(t[1] - t[0])
        uneven = np.flatnonzero(np.abs(np.diff(t) - dt) > SPACING_RTOL * dt)
    if dt <= 0:
        raise NonUniformSamplingError("timestamps must be strictly increasing", line=3)
    if uneven.size:
        i = int(uneven[0])
        gap = float(t[i + 1]) - float(t[i])
        raise NonUniformSamplingError(f"timestamp gap {gap!r} deviates from {dt!r}", line=i + 3)
    return np.ascontiguousarray(table[:, 1]), _rate(dt)  # a copy, so the times are freed


def _rate(dt: float) -> float:
    """The sample rate of timestamps ``dt`` apart, which the first two rows set."""
    rate = 1.0 / dt
    if not (math.isfinite(rate) and rate > 0):
        raise SeriesFormatError(f"timestamp spacing {dt!r} gives no finite positive sample rate",
                                line=3)
    return rate


def load_series(file: SeriesFile | str | Path) -> TimeSeries:
    """Read a series from disk.

    Accepts a :class:`SeriesFile` or a bare path (treated as
    single_column).  The file's stem becomes the series label.

    Raises
    ------
    SeriesFormatError
        On malformed or non-UTF-8 content, with the 1-based line number when known.
    NonUniformSamplingError
        When time_value_csv timestamps are unevenly spaced.
    OSError
        When the path cannot be read.
    """
    if not isinstance(file, SeriesFile):
        file = SeriesFile(path=file)
    path = Path(file.path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SeriesFormatError(f"not UTF-8 text: byte {exc.start} cannot be decoded") from None
    lines = text.splitlines()
    # loadtxt strips a unit separator (\x1f) beside a comma; float() rejects it there
    tabular = "\x1f" not in text
    del text
    if file.format is SeriesFormat.SINGLE_COLUMN:
        samples, rate = _load_single_column(lines, file.sample_rate, tabular)
    else:
        samples, rate = _load_time_value(lines, tabular)
    if samples.size == 0:
        raise SeriesFormatError("empty file")
    return TimeSeries(samples, sample_rate=rate, label=path.stem)


def write_series(series: TimeSeries, path: str | Path,
                 format: SeriesFormat = SeriesFormat.SINGLE_COLUMN) -> None:
    """Serialize a series; the inverse of :func:`load_series`."""
    rate = series.sample_rate
    if _check_name(SeriesFormat, format, "format") is SeriesFormat.SINGLE_COLUMN:
        _write_table(path, None if rate is None else f"# sample_rate={rate!r}", series.samples)
    elif rate is None:
        raise MissingSampleRateError("time_value_csv needs a sample rate for the time column")
    else:
        _write_table(path, "time,value", np.arange(len(series)) / rate, series.samples)


def _write_table(path: str | Path, header: str | None, *columns) -> None:
    """Write ``columns`` side by side as CSV rows under an optional header, each
    number in its shortest round-trip form, so that it reads back bit for bit."""
    columns = [np.asarray(column) for column in columns]
    step = 1 << 16  # rows rendered per write, which bounds the text held at once
    with open(path, "w") as handle:
        if header is not None:
            handle.write(header + "\n")
        for start in range(0, len(columns[0]), step):
            rows = zip(*(map(repr, c[start:start + step].tolist()) for c in columns))
            handle.write("\n".join(map(",".join, rows)) + "\n")


def segment(series: TimeSeries, plan: WindowPlan) -> list[TimeSeries]:
    """Cut a series into overlapping windows.

    Windows start at samples 1, 1+stride, 1+2*stride, ... and there are
    exactly floor((N - window_len)/stride) + 1 of them.  Each window keeps
    the parent's sample rate and gets its label suffixed with the window's
    1-based start index (``label@start``).
    """
    n = len(series)
    if plan.window_len > n:
        raise SeriesTooShortError(f"window of {plan.window_len} exceeds series length {n}")
    count = (n - plan.window_len) // plan.stride + 1
    windows = []
    for i in range(count):
        start = i * plan.stride
        windows.append(TimeSeries(
            series.samples[start:start + plan.window_len],
            sample_rate=series.sample_rate,
            label=f"{series.label}@{start + 1}",
        ))
    return windows


def export_result(result: TestResult, path: str | Path) -> None:
    """Write one test outcome as a JSON document.

    Key order is fixed so repeated runs diff cleanly; floats keep their
    shortest round-trip rendering, so re-parsing reproduces every k value
    bit for bit.
    """
    config = result.config
    doc = {
        "series_label": result.series_label,
        "method": config.method.value,
        "seed": config.seed,
        "num_c": config.num_c,
        "k_m": result.k_m,
        "label": result.label.value,
        "short_series": result.short_series,
        "per_c": [
            {"c": r.c, "k": r.k, "degenerate": r.degenerate} for r in result.per_c
        ],
        "config": dataclasses.asdict(config),
        "version": __version__,
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def export_trajectory(traj: TranslationTrajectory, path: str | Path) -> None:
    """Write the planar path as a two-column CSV with a single header row."""
    _write_table(path, "p,q", traj.p, traj.q)


def export_scatter(result: TestResult, path: str | Path) -> None:
    """Write per-frequency growth rates as CSV: draw index, c, |k|."""
    _write_table(path, "index,c,abs_k", range(len(result.per_c)),
                 [r.c for r in result.per_c], [abs(r.k) for r in result.per_c])


def export_psd(estimate: PsdEstimate, path: str | Path) -> None:
    """Write a spectrum as frequency,power CSV rows."""
    _write_table(path, "frequency,power", estimate.frequencies, estimate.power)


def recompute_k_m(result: TestResult) -> float:
    """Re-derive the aggregate from the per-frequency list.

    Exists so exports can be checked for internal consistency: the stored
    k_m must match this to within accumulation noise.
    """
    return aggregate_k(result.per_c, result.config.aggregator, result.config.trim_fraction)
