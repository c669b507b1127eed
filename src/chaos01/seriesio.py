"""File ingestion, serialization of results and plot data, and windowed
segmentation of long recordings.

Two text formats are understood:

* ``single_column``: one decimal per line, LF terminated, with an optional
  leading ``# sample_rate=<Hz>`` comment.
* ``time_value_csv``: a ``time,value`` header followed by comma-separated
  rows; timestamps must be uniformly spaced (relative tolerance 1e-6) and
  their spacing defines the sample rate.

Either format is read into one table by one of two readers.  The array
reader takes a regular file whose bytes after the header line are all plain
ASCII decimal text: digits, ``+ - . e E ,``, space, tab, ``\r`` and ``\n``.
A pre-pass checks that, a block at a time, and counts the lines as
``str.splitlines`` does; then ``np.loadtxt`` reads the rows from the same
handle, and must give one finite row per line.  Every other file (another
byte, a row loadtxt cannot parse, a blank or non-finite row, or a pipe,
which can be read only once) is decoded whole and split into lines for the
line parser, which alone decides what is accepted and names the bad line.
The timestamp spacing is then checked once, on the table either reader
gives.

All reals are rendered with their shortest round-trip decimal form, so a
write/load cycle reproduces every sample bit for bit.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import stat
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


#: The number of fields in each row of a format.
_COLUMNS = {SeriesFormat.SINGLE_COLUMN: 1, SeriesFormat.TIME_VALUE_CSV: 2}

#: Bytes read at a time by the array reader's pre-pass.
_BLOCK = 1 << 20

#: The only bytes the array reader takes after the header: plain ASCII decimals,
#: commas, blanks and line breaks.
_TABLE_BYTES = b"0123456789+-.eE, \t\r\n"


def _count_rows(handle) -> int | None:
    r"""Count the lines from ``handle``'s position to its end as ``str.splitlines``
    does (``\r\n``, a lone ``\r`` or ``\n``, and a last line with no break), or
    return None at the first byte outside ``_TABLE_BYTES``.  Nothing is kept."""
    rows, last = 0, b""
    while block := handle.read(_BLOCK):
        if block.translate(None, _TABLE_BYTES):
            return None
        rows += block.count(b"\n")
        if b"\r" in block:
            rows += block.count(b"\r") - block.count(b"\r\n")
        if last == b"\r" and block.startswith(b"\n"):  # a CRLF split between blocks
            rows -= 1
        last = block[-1:]
        # a short read is the end; one more would allocate a whole block for
        # nothing, and freeing it raises glibc's mmap threshold, and the peak
        if len(block) < _BLOCK:
            break
    return rows + (last not in b"\r\n")


def _fast_table(handle, columns: int) -> np.ndarray | None:
    """Read the rest of ``handle`` as a table of finite floats with ``columns``
    columns and one row per line, or return None so that the line parser reads
    the file and accepts it or names its bad line.

    The one rule: the array reader takes only ``_TABLE_BYTES``.  On them
    loadtxt and ``float()`` agree, and a blank or otherwise unparsable line
    makes loadtxt fail or return fewer rows than the pre-pass counts.
    """
    start = handle.tell()
    # no rows, or a blank first line, which the line parser refuses (and loadtxt
    # skips, warning when every line is blank)
    if handle.read(1) in (b"", b"\r", b"\n"):
        return None
    handle.seek(start)
    rows = _count_rows(handle)
    if rows is None:
        return None
    handle.seek(start)
    try:
        table = np.loadtxt(handle, delimiter=",", comments=None, dtype=float, ndmin=2)
    except ValueError:
        return None
    if table.shape != (rows, columns) or not np.isfinite(table).all():
        return None
    return table


def _read_table(lines: list[str], start: int, columns: int) -> np.ndarray:
    """The line parser: the rows ``lines[start:]`` as a ``(rows, columns)`` table of
    finite floats; raises at the first bad line, and names it."""
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


def _header(lines: list[str], file: SeriesFile) -> tuple[int, float | None]:
    """How many of ``lines`` (the file's first line, or none) form the header,
    and the sample rate it gives (a single_column file without a rate comment
    keeps ``file.sample_rate``)."""
    if file.format is SeriesFormat.TIME_VALUE_CSV:
        if not lines or lines[0].strip() != "time,value":
            raise SeriesFormatError("expected 'time,value' header", line=1)
        return 1, None
    if not (lines and lines[0].lstrip().startswith("#")):
        return 0, file.sample_rate
    comment = lines[0].lstrip()[1:].strip()
    if not comment.startswith("sample_rate="):
        raise SeriesFormatError(f"unrecognized comment: {lines[0]!r}", line=1)
    rate = _parse_float(comment[len("sample_rate="):], line=1)
    if not rate > 0:
        raise SeriesFormatError("sample_rate must be positive", line=1)
    return 1, rate


def _samples(table: np.ndarray, file: SeriesFile,
             rate: float | None) -> tuple[np.ndarray, float | None]:
    """The samples and rate of a table read after its header; a time_value_csv
    table's timestamps are checked for even spacing and set the rate."""
    if file.format is SeriesFormat.SINGLE_COLUMN:
        return table[:, 0], rate
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


def _read_array(handle, file: SeriesFile) -> tuple[np.ndarray, float | None] | None:
    """The array reader: the samples and rate of the file open in ``handle``,
    or None to leave it to the line parser.  Its header line must decode and be
    one line; the rows after it go to ``_fast_table``."""
    first = handle.readline(_BLOCK)
    try:
        lines = first.decode("utf-8").splitlines()
        start, rate = _header(lines, file)
    except (UnicodeDecodeError, SeriesFormatError):
        return None
    if len(first) == _BLOCK or len(lines) > 1:  # a header cut short, or more than one line
        return None
    if start == 0:
        handle.seek(0)
    table = _fast_table(handle, _COLUMNS[file.format])
    return None if table is None else _samples(table, file, rate)


def _read_lines(handle, file: SeriesFile) -> tuple[np.ndarray, float | None]:
    """Decode the rest of ``handle`` whole, split it into lines and hand them to
    the line parser, which alone decides what is accepted and names a bad line."""
    try:
        text = handle.read().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SeriesFormatError(f"not UTF-8 text: byte {exc.start} cannot be decoded") from None
    lines = text.splitlines()
    del text
    start, rate = _header(lines, file)
    return _samples(_read_table(lines, start, _COLUMNS[file.format]), file, rate)


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
    with open(path, "rb") as handle:
        # a pipe or other stream can be read only once, so it goes to the line parser
        regular = stat.S_ISREG(os.fstat(handle.fileno()).st_mode)
        loaded = _read_array(handle, file) if regular else None
        if loaded is None:
            if regular:
                handle.seek(0)
            loaded = _read_lines(handle, file)
    samples, rate = loaded
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
