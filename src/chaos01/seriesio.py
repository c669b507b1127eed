"""File ingestion, serialization of results and plot data, and windowed
segmentation of long recordings.

Two text formats are understood:

* ``single_column``: one decimal per line, LF terminated, with an optional
  leading ``# sample_rate=<Hz>`` comment.
* ``time_value_csv``: a ``time,value`` header followed by comma-separated
  rows; timestamps must be uniformly spaced (relative tolerance 1e-6) and
  their spacing defines the sample rate.

Either format is read into one table by one block reader, whatever the
input: a file, redirected standard input or a pipe.  It reads the input
once, a block at a time, and cuts each block after its last line break; a
CR that ends a block waits to see whether an LF follows, and a line longer
than a block joins the next.  The header, the first line, is read alone
and first: a bad header is named whatever follows it.  After it, every
piece, the rest of the first one included, is read the same way.  A piece
of plain ASCII decimal text only (digits, ``+ - . e E ,``, space, tab,
``\r`` and ``\n``) goes to ``np.loadtxt``, which must give one finite row
per line.  Any other piece, or one loadtxt refuses, is decoded and split
into lines for the line parser, which alone decides what is accepted and
names the bad line.  So after the header, of two faults in different
pieces, the first in the input is named; within a piece, a byte that is
not UTF-8 comes first.  The timestamp spacing is then checked once, on the
whole table.

All reals are written in their shortest round-trip decimal form, byte for
byte Python's ``repr``, by the vectorised writer in ``_decimal``, so a
write/load cycle reproduces every sample bit for bit.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .core import (TestResult, TimeSeries, TranslationTrajectory, aggregate_k, _check_count,
                   _check_name, _check_rate, _keep_freed_blocks, _store)
from .errors import (
    MissingSampleRateError,
    NonUniformSamplingError,
    SeriesFormatError,
    SeriesTooShortError,
)

if TYPE_CHECKING:
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
    timestamp spacing.  A rate is stored as a float.
    """

    path: str | Path
    format: SeriesFormat = SeriesFormat.SINGLE_COLUMN
    sample_rate: float | None = None

    def __post_init__(self):
        _store(self, format=_check_name(SeriesFormat, self.format, "format"),
               sample_rate=_check_rate(self.sample_rate))


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
        _store(self, window_len=_check_count("window_len", self.window_len, 1),
               stride=_check_count("stride", self.stride, 1))


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

#: Bytes read at a time by the block reader.
_BLOCK = 1 << 20

#: Rows rendered at a time by the writer; it sets the writer's memory peak.
_WRITE_ROWS = 1 << 14

#: Timestamp gaps checked at a time.
_SPACING_ROWS = 1 << 16

#: The only bytes the array reader takes after the header: plain ASCII decimals,
#: commas, blanks and line breaks.
_TABLE_BYTES = b"0123456789+-.eE, \t\r\n"

#: The first line of the input, with its CRLF, CR or LF.
_FIRST_LINE = re.compile(rb"[^\r\n]*(?:\r\n?|\n)?")


def _fast_table(piece: bytes, columns: int) -> np.ndarray | None:
    """The array reader: ``piece``, whole lines after the header, as a table of
    finite floats with ``columns`` columns and one row per line, or None so that
    the line parser reads the piece and accepts it or names its bad line.

    The one rule: the array reader takes only ``_TABLE_BYTES``.  On them
    loadtxt and ``float()`` agree, and a blank or otherwise unparsable line
    makes loadtxt fail or return fewer rows than the piece has lines.
    """
    # no rows, or a blank first line, which the line parser refuses (and loadtxt
    # skips, warning when every line is blank)
    if piece[:1] in (b"", b"\r", b"\n") or piece.translate(None, _TABLE_BYTES):
        return None
    if b"\r" in piece:  # loadtxt ends a line at LF only
        piece = piece.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    rows = piece.count(b"\n") + (not piece.endswith(b"\n"))
    try:
        table = np.loadtxt(io.BytesIO(piece), delimiter=",", comments=None, dtype=float, ndmin=2)
    except ValueError:
        return None
    if table.shape != (rows, columns) or not np.isfinite(table).all():
        return None
    return table


def _read_table(lines: list[str], line: int, columns: int) -> np.ndarray:
    """The line parser: ``lines``, the first of them numbered ``line``, as a
    ``(rows, columns)`` table of finite floats; raises at the first bad line,
    and names it."""
    values = []
    for number, text in enumerate(lines, line):
        text = text.strip()
        if not text:
            raise SeriesFormatError("blank line", line=number)
        fields = text.split(",") if columns > 1 else [text]
        if len(fields) != columns:
            raise SeriesFormatError(f"expected two comma-separated fields: {text!r}", line=number)
        values.extend(_parse_float(field, line=number) for field in fields)
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
    table's timestamps are checked for even spacing, and its first two rows set
    the rate."""
    if file.format is SeriesFormat.SINGLE_COLUMN:
        return table[:, 0], rate
    if len(table) < 2:
        raise SeriesFormatError("need at least two rows to infer the sample rate")
    t = table[:, 0]
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan gaps compare False
        dt = float(t[1] - t[0])
        if dt <= 0:
            raise NonUniformSamplingError("timestamps must be strictly increasing", line=3)
        # over slices that share their edge row, so the temporaries stay small
        for start in range(0, len(t) - 1, _SPACING_ROWS):
            gaps = np.diff(t[start:start + _SPACING_ROWS + 1])
            uneven = np.flatnonzero(np.abs(gaps - dt) > SPACING_RTOL * dt)
            if uneven.size:
                i = start + int(uneven[0])
                gap = float(t[i + 1]) - float(t[i])
                raise NonUniformSamplingError(f"timestamp gap {gap!r} deviates from {dt!r}",
                                              line=i + 3)
    rate = 1.0 / dt
    if not (math.isfinite(rate) and rate > 0):
        raise SeriesFormatError(f"timestamp spacing {dt!r} gives no finite positive sample rate",
                                line=3)
    return np.ascontiguousarray(table[:, 1]), rate  # a copy, so the times are freed


def _pieces(handle):
    """The input in ``handle`` as pieces of whole lines, read a block at a time:
    each block is cut after its last line break, and a line longer than a block
    joins the next."""
    rest = b""
    while True:
        block = handle.read(_BLOCK)
        # a short read is the end; one more would allocate a whole block for
        # nothing, and freeing it raises glibc's mmap threshold, and the peak
        end = len(block) < _BLOCK
        # cut after the block's last line break; a CR that ends it may begin a CRLF
        cut = len(block) if end else max(block.rfind(b"\n"), block.rfind(b"\r", 0, -1)) + 1
        if not (cut or end or rest.endswith(b"\r")):  # a line longer than a block
            rest += block
            continue
        piece, rest = b"".join((rest, memoryview(block)[:cut])), block[cut:]
        del block
        yield piece
        if end:
            return


def _text(data: bytes, offset: int) -> str:
    """``data``, which starts at byte ``offset`` of the input, decoded as UTF-8;
    a byte that does not decode is named by its offset in the input."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SeriesFormatError(
            f"not UTF-8 text: byte {offset + exc.start} cannot be decoded") from None


def _read(handle, file: SeriesFile) -> tuple[np.ndarray, float | None]:
    """The block reader: the table after the header of the input in ``handle``,
    and the header's rate.  The header, the first line, is read alone and first;
    then each piece, the rest of the first one included, goes to the array
    reader or the line parser, so of two faults in different pieces the first
    is named, and within a piece a byte that is not UTF-8 comes first."""
    columns = _COLUMNS[file.format]
    table = np.empty((0, columns))  # grown in place: realloc moves a large one without a copy
    pieces = _pieces(handle)
    piece = next(pieces)
    head = _text(_FIRST_LINE.match(piece)[0], 0)
    start, rate = _header(head.splitlines()[:1], file)
    # the header's bytes as str.splitlines ends it: a form feed, NEL or U+2028
    # ends it too, and what follows is line 2
    skip = len(head.splitlines(keepends=True)[0].encode()) if start else 0
    piece, line, offset = piece[skip:], 1 + start, skip
    while piece is not None:
        rows = _fast_table(piece, columns)
        if rows is None:
            rows = _read_table(_text(piece, offset).splitlines(), line, columns)
        line, offset = line + len(rows), offset + len(piece)
        filled = len(table)
        table.resize((filled + len(rows), columns), refcheck=False)
        table[filled:] = rows
        # rows go before the next read, for the peak; the piece stays until the next
        # replaces it, so glibc does not trim the heap and fault it in again
        del rows
        piece = next(pieces, None)
    return table, rate


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
        table, rate = _read(handle, file)
    samples, rate = _samples(table, file, rate)
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
    """Write ``columns`` side by side as CSV rows under an optional header.

    Each number is written in its shortest round-trip form, byte for byte
    Python's ``repr`` (``_decimal``), so that it reads back bit for bit; an
    integer column is written as integers.  Rows are rendered and written
    ``_WRITE_ROWS`` at a time through the text handle, which bounds the memory
    held at once and keeps the platform's line ends.
    """
    from ._decimal import csv_rows  # here, because batch writes with csv alone

    _keep_freed_blocks()  # else each block's buffers are mapped and faulted in again
    columns = [np.asarray(column) for column in columns]
    with open(path, "w") as handle:
        if header is not None:
            handle.write(header + "\n")
        for text in csv_rows(columns, _WRITE_ROWS):
            handle.write(text)


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
