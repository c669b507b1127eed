"""Tests for file formats, segmentation, and result/plot-data exports."""

import json
import math
import subprocess
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chaos01 as c
from chaos01 import seriesio
from conftest import source_tree_python


# ---------------------------------------------------------------------------
# single_column


def test_load_single_column_plain(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("1.0\n2.0\n3.0\n")
    series = c.load_series(path)
    assert np.array_equal(series.samples, [1.0, 2.0, 3.0])
    assert series.sample_rate is None
    assert series.label == "a"


def test_load_single_column_with_rate_comment(tmp_path):
    path = tmp_path / "b.csv"
    path.write_text("# sample_rate=250.0\n0.5\n-0.5\n")
    series = c.load_series(path)
    assert series.sample_rate == 250.0
    assert np.array_equal(series.samples, [0.5, -0.5])


def test_load_single_column_explicit_fallback_rate(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("1.0\n2.0\n")
    assert c.load_series(c.SeriesFile(path, sample_rate=250.0)).sample_rate == 250.0
    # the file's own comment wins over the fallback
    c.write_series(c.TimeSeries([1.0, 2.0], sample_rate=10.0), path)
    assert path.read_text().startswith("# sample_rate=10.0\n")
    assert c.load_series(c.SeriesFile(path, sample_rate=250.0)).sample_rate == 10.0
    for bad in (0.0, "5", True):
        with pytest.raises(c.InvalidParameterError):
            c.SeriesFile(path, sample_rate=bad)


@pytest.mark.parametrize("rate", [np.float64(100.0), np.float32(0.1), 250, Fraction(1000, 3)])
def test_a_rate_of_any_real_type_is_stored_as_a_float_and_reads_back(tmp_path, rate):
    # a numpy rate was written as '# sample_rate=np.float64(100.0)', which load refused
    series = c.TimeSeries(np.arange(5.0), sample_rate=rate)
    file = c.SeriesFile(tmp_path / "x.txt", sample_rate=rate)
    spec = c.GeneratorSpec("sine", num_samples=5, sample_rate=rate, freq=0.01)
    for stored in (series.sample_rate, file.sample_rate, spec.sample_rate,
                   c.make_series(spec).sample_rate, c.gen_sine(0.01, rate, 5).sample_rate):
        assert type(stored) is float and stored == float(rate)
    c.write_series(series, file.path)
    assert file.path.read_text().startswith(f"# sample_rate={float(rate)!r}\n")
    assert c.load_series(file).sample_rate == float(rate)


@pytest.mark.parametrize("rate", [10**400, Fraction(10**400), -(10**400), Fraction(1, 10**400)])
def test_a_rate_that_no_float_holds_is_refused(rate):
    # 10**400 was taken, and written as a header that read back as inf
    for make in (lambda: c.TimeSeries([1.0], sample_rate=rate),
                 lambda: c.SeriesFile("x.txt", sample_rate=rate),
                 lambda: c.GeneratorSpec("sine", sample_rate=rate)):
        with pytest.raises(c.InvalidParameterError, match="must be finite and positive"):
            make()


@pytest.mark.parametrize("rate", ["0", "-5"])
def test_load_rejects_non_positive_rate_comment(tmp_path, rate):
    path = tmp_path / "r.csv"
    path.write_text(f"# sample_rate={rate}\n1.0\n2.0\n")
    with pytest.raises(c.SeriesFormatError, match="sample_rate must be positive") as info:
        c.load_series(path)
    assert info.value.line == 1


def test_load_reports_offending_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0\n2.0\npotato\n4.0\n")
    with pytest.raises(c.SeriesFormatError) as info:
        c.load_series(path)
    assert info.value.line == 3
    assert "line 3" in str(info.value)


def test_load_rejects_blank_interior_line(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("1.0\n\n2.0\n")
    with pytest.raises(c.SeriesFormatError) as info:
        c.load_series(path)
    assert info.value.line == 2


def test_load_rejects_non_finite_value(tmp_path):
    path = tmp_path / "inf.csv"
    path.write_text("1.0\ninf\n")
    with pytest.raises(c.SeriesFormatError) as info:
        c.load_series(path)
    assert info.value.line == 2


def test_load_rejects_unknown_comment(tmp_path):
    path = tmp_path / "cm.csv"
    path.write_text("# units=mV\n1.0\n")
    with pytest.raises(c.SeriesFormatError) as info:
        c.load_series(path)
    assert info.value.line == 1


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(c.SeriesFormatError):
        c.load_series(path)


def test_load_comment_only_file(tmp_path):
    path = tmp_path / "only.csv"
    path.write_text("# sample_rate=10.0\n")
    with pytest.raises(c.SeriesFormatError):
        c.load_series(path)


def test_load_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        c.load_series(tmp_path / "nope.csv")


@pytest.mark.parametrize("fmt, content", [
    ("single_column", b"1.0\n2.\xff\n"),
    ("time_value_csv", b"time,value\n0.0,\xe9\n"),
])
def test_load_undecodable_bytes_raise_series_format_error(tmp_path, fmt, content):
    path = tmp_path / "latin1.csv"
    path.write_bytes(content)
    with pytest.raises(c.SeriesFormatError, match="not UTF-8"):
        c.load_series(c.SeriesFile(path, format=fmt))


# ---------------------------------------------------------------------------
# time_value_csv


def test_load_time_value_infers_rate(tmp_path):
    path = tmp_path / "tv.csv"
    path.write_text("time,value\n0.0,0.5\n0.001,0.7\n")
    series = c.load_series(c.SeriesFile(path, format="time_value_csv"))
    assert series.sample_rate == pytest.approx(1000.0, rel=1e-12)
    assert np.array_equal(series.samples, [0.5, 0.7])


def test_load_time_value_rejects_gap(tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text("time,value\n0.0,1.0\n0.001,2.0\n0.003,3.0\n")
    with pytest.raises(c.NonUniformSamplingError) as info:
        c.load_series(c.SeriesFile(path, format="time_value_csv"))
    assert info.value.line == 4


def test_load_time_value_rejects_decreasing_time(tmp_path):
    path = tmp_path / "dec.csv"
    path.write_text("time,value\n0.002,1.0\n0.001,2.0\n0.0,3.0\n")
    with pytest.raises(c.NonUniformSamplingError):
        c.load_series(c.SeriesFile(path, format="time_value_csv"))


def test_load_time_value_requires_header(tmp_path):
    path = tmp_path / "nh.csv"
    path.write_text("0.0,1.0\n0.001,2.0\n")
    with pytest.raises(c.SeriesFormatError) as info:
        c.load_series(c.SeriesFile(path, format="time_value_csv"))
    assert info.value.line == 1


def test_load_time_value_rejects_wrong_field_count(tmp_path):
    path = tmp_path / "3f.csv"
    path.write_text("time,value\n0.0,1.0,9\n")
    with pytest.raises(c.SeriesFormatError) as info:
        c.load_series(c.SeriesFile(path, format="time_value_csv"))
    assert info.value.line == 2


def test_load_time_value_needs_two_rows(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("time,value\n0.0,1.0\n")
    with pytest.raises(c.SeriesFormatError):
        c.load_series(c.SeriesFile(path, format="time_value_csv"))


@pytest.mark.parametrize("bad_row, line", [(4, 6), (10, 12)])
def test_spacing_check_over_slices_names_the_first_uneven_gap(tmp_path, monkeypatch, bad_row,
                                                             line):
    # 11 rows whose 10 gaps are checked 4 at a time: row 4 ends the first slice
    # and begins the second, so its first gap is on one side of the slice edge
    # and its second on the other; row 10's gap is in the last slice
    times = [j * 0.5 for j in range(11)]
    times[bad_row] += 0.1
    path = tmp_path / "gap.csv"
    path.write_text("time,value\n" + "".join(f"{t!r},1.0\n" for t in times))
    outcomes = []
    for rows in (4, seriesio._SPACING_ROWS):
        monkeypatch.setattr(seriesio, "_SPACING_ROWS", rows)
        with pytest.raises(c.NonUniformSamplingError) as info:
            c.load_series(c.SeriesFile(path, format="time_value_csv"))
        outcomes.append((str(info.value), info.value.line))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1] == line


def test_time_value_tolerates_jitter_within_relative_tolerance(tmp_path):
    dt = 0.001
    rows = ["time,value"]
    for j in range(5):
        rows.append(f"{j * dt * (1 + 1e-9)!r},{float(j)!r}")
    path = tmp_path / "jit.csv"
    path.write_text("\n".join(rows) + "\n")
    series = c.load_series(c.SeriesFile(path, format="time_value_csv"))
    assert len(series) == 5


# ---------------------------------------------------------------------------
# round trips


tricky_floats = st.lists(
    st.floats(min_value=-1e12, max_value=1e12, allow_nan=False), min_size=1, max_size=40
)


@given(samples=tricky_floats)
@settings(max_examples=40, deadline=None)
def test_single_column_round_trip_is_bit_exact(tmp_path_factory, samples):
    path = tmp_path_factory.mktemp("rt") / "s.csv"
    series = c.TimeSeries(samples, sample_rate=500.0)
    c.write_series(series, path)
    back = c.load_series(path)
    assert np.array_equal(back.samples, series.samples)
    assert back.sample_rate == 500.0


def test_time_value_round_trip_is_bit_exact(tmp_path):
    rng = np.random.Generator(np.random.PCG64(3))
    series = c.TimeSeries(rng.normal(size=200) * 10.0**rng.integers(-12, 12, size=200),
                          sample_rate=1000.0)
    path = tmp_path / "tv.csv"
    c.write_series(series, path, format="time_value_csv")
    back = c.load_series(c.SeriesFile(path, format="time_value_csv"))
    assert np.array_equal(back.samples, series.samples)
    assert back.sample_rate == pytest.approx(1000.0, rel=1e-9)


ALL_FORMATS = list(c.SeriesFormat)


@pytest.mark.parametrize("fmt", ALL_FORMATS)
@given(samples=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=40))
@example(samples=[5e-324, -5e-324, 2.2250738585072014e-308, -0.0, 0.0])
@example(samples=[1.7976931348623157e308, -1.7976931348623157e308, 0.30000000000000004,
                  1.2345678901234567e-300, 9007199254740993.0])
@settings(max_examples=60, deadline=None)
def test_round_trip_is_bit_exact_over_all_finite_floats(tmp_path_factory, fmt, samples):
    path = tmp_path_factory.mktemp("rt") / "s.csv"
    series = c.TimeSeries(samples, sample_rate=1000.0)
    c.write_series(series, path, format=fmt)
    back = c.load_series(c.SeriesFile(path, format=fmt))
    assert np.array_equal(back.samples.view(np.uint64), series.samples.view(np.uint64))


def test_loaded_sample_rate_is_a_python_float(tmp_path):
    path = tmp_path / "tv.csv"
    c.write_series(c.TimeSeries(np.sin(np.arange(50.0)), sample_rate=5000.0), path,
                   format="time_value_csv")
    back = c.load_series(c.SeriesFile(path, format="time_value_csv"))
    assert type(back.sample_rate) is float
    # the rate is 1 / (t1 - t0) of the first two timestamps, as the line parser computes it
    t0, t1 = (float(line.split(",")[0]) for line in path.read_text().splitlines()[1:3])
    c.write_series(back, tmp_path / "sc.csv")
    header = (tmp_path / "sc.csv").read_text().splitlines()[0]
    assert header == f"# sample_rate={1.0 / (t1 - t0)!r}"
    assert type(c.load_series(tmp_path / "sc.csv").sample_rate) is float


def _outcome(path, fmt):
    """What load_series makes of a file: its sample bits and rate, or its error."""
    try:
        series = c.load_series(c.SeriesFile(path, format=fmt))
    except c.Chaos01Error as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return series.samples.view(np.uint64).tolist(), series.sample_rate, type(series.sample_rate)


def _line_parser_outcome(path, fmt):
    with mock.patch.object(seriesio, "_fast_table", lambda body, columns: None):
        return _outcome(path, fmt)


_INSERTIONS = ["_", "inf", "nan", "1e400", ",", "#", " ", "\t", "\x0c", "\x85", "\x1f", "\x00",
               "\u3000", "\xa0", "\u0661\u0662", "\u0967", "'", '"', "-", ".", "e", "5", "\n",
               "\r", "\r\n"]


def _valid_text(samples, rate, fmt):
    """A file as write_series renders it."""
    series = c.TimeSeries(samples, sample_rate=rate)
    if fmt is c.SeriesFormat.SINGLE_COLUMN:
        head = [] if rate is None else [f"# sample_rate={rate!r}"]
        return "\n".join(head + [repr(x) for x in series.samples.tolist()]) + "\n"
    times = (np.arange(len(series)) / rate).tolist()
    return "time,value\n" + "".join(f"{t!r},{x!r}\n" for t, x in zip(times, series.samples.tolist()))


@st.composite
def mutated_files(draw):
    fmt = draw(st.sampled_from(ALL_FORMATS))
    samples = draw(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=6))
    rate = draw(st.sampled_from([None, 250.0, 3.0])) if fmt is c.SeriesFormat.SINGLE_COLUMN else 250.0
    lines = _valid_text(samples, rate, fmt).split("\n")
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            at = draw(st.integers(0, len(lines)))
            lines.insert(at, draw(st.sampled_from(["", " ", "\t", "\u3000", "\x1f"])))
        else:
            row = draw(st.integers(0, len(lines) - 1))
            at = draw(st.integers(0, len(lines[row])))
            text = draw(st.sampled_from(_INSERTIONS))
            lines[row] = lines[row][:at] + text + lines[row][at:]
    return fmt, "\n".join(lines)


@given(case=mutated_files())
@settings(max_examples=300, deadline=None)
def test_array_reader_agrees_with_line_parser(tmp_path_factory, case):
    fmt, text = case
    path = tmp_path_factory.mktemp("fz") / "m.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert _outcome(path, fmt) == _line_parser_outcome(path, fmt)


# 100 000 rows 4 ms apart with the timestamp 306.172 (row 76 544) left out:
# the array reader takes the file, and the one uneven gap ends on line 76 545.
_DEEP_GAP = "time,value\n" + "".join(f"{i / 250!r},{i % 7}.0\n" for i in range(100_001)
                                     if i != 76_543)


@pytest.mark.parametrize("fmt, text, expected", [
    ("single_column", "1_000\n2\n", [1000.0, 2.0]),
    ("single_column", "\u0661\u0662\n3\n", [12.0, 3.0]),
    ("single_column", "1.5\x0c\n2.0\n", (c.SeriesFormatError, "line 2: blank line", 2)),
    ("single_column", "1.0\n\n2.0\n", (c.SeriesFormatError, "line 2: blank line", 2)),
    ("single_column", "1.0\n \u3000\n2.0\n", (c.SeriesFormatError, "line 2: blank line", 2)),
    ("single_column", "1.0\n1e400\n",
     (c.SeriesFormatError, "line 2: non-finite value: '1e400'", 2)),
    ("single_column", "1.0\nnan\n", (c.SeriesFormatError, "line 2: non-finite value: 'nan'", 2)),
    # a single-column row is never split at its comma
    ("single_column", "1.0\n1,2\n", (c.SeriesFormatError, "line 2: not a number: '1,2'", 2)),
    # both readers strip a unit separator at the edge of a line
    ("single_column", "1.0\x1f\n2.0\n", [1.0, 2.0]),
    ("time_value_csv", "time,value\n0,1_0\n1,2\n", [10.0, 2.0]),
    ("time_value_csv", "time,value\n0.0\x1f,1.0\n0.5,2.0\n",
     (c.SeriesFormatError, "line 2: not a number: '0.0\\x1f'", 2)),
    ("time_value_csv", "time,value\n0.0,1.0\n0.5,2.0\n1.5,3.0\n",
     (c.NonUniformSamplingError, "line 4: timestamp gap 1.0 deviates from 0.5", 4)),
    ("time_value_csv", "time,value\n0.0,1.0\n0.0,2.0\n",
     (c.NonUniformSamplingError, "line 3: timestamps must be strictly increasing", 3)),
    pytest.param("time_value_csv", _DEEP_GAP,
                 (c.NonUniformSamplingError,
                  "line 76545: timestamp gap 0.007999999999981355 deviates from 0.004", 76545),
                 id="time_value_csv-one-gap-deep-in-100k-rows"),
    # the spacing overflows to inf, so the rate would be 1 / inf = 0
    ("time_value_csv", "time,value\n-1.7e308,1.0\n1.7e308,2.0\n",
     (c.SeriesFormatError, "line 3: timestamp spacing inf gives no finite positive sample rate", 3)),
    # a later gap overflows to inf
    ("time_value_csv", "time,value\n-1.7e308,1.0\n-0.5e308,2.0\n1.7e308,3.0\n",
     (c.NonUniformSamplingError, "line 4: timestamp gap inf deviates from 1.2e+308", 4)),
    # subnormal spacing, so the rate would be 1 / 5e-324 = inf
    ("time_value_csv", "time,value\n" + "".join(f"{i * 5e-324!r},{i}.0\n" for i in range(10)),
     (c.SeriesFormatError,
      "line 3: timestamp spacing 5e-324 gives no finite positive sample rate", 3)),
    # line breaks as str.splitlines counts them: CRLF, a lone CR, both kinds
    # mixed, and a last line with no break
    ("single_column", "1.0\r\n2.0\r\n", [1.0, 2.0]),
    ("time_value_csv", "time,value\r\n0.0,1.0\r\n0.5,2.0\r\n", [1.0, 2.0]),
    ("single_column", "1.0\r2.0\r", [1.0, 2.0]),
    ("time_value_csv", "time,value\r0.0,1.0\r0.5,2.0\r", [1.0, 2.0]),
    ("single_column", "# sample_rate=4.0\r\n1.0\n2.0\r\n3.0\n", [1.0, 2.0, 3.0]),
    ("time_value_csv", "time,value\n0.0,1.0\r\n0.5,2.0\n1.0,3.0\r\n", [1.0, 2.0, 3.0]),
    ("single_column", "1.0\n2.0", [1.0, 2.0]),
    ("time_value_csv", "time,value\n0.0,1.0\n0.5,2.0", [1.0, 2.0]),
    # a header and no rows
    ("single_column", "# sample_rate=10.0\n", (c.SeriesFormatError, "empty file", None)),
    ("time_value_csv", "time,value\n",
     (c.SeriesFormatError, "need at least two rows to infer the sample rate", None)),
    # a line of blanks only, and files whose every line is blank
    ("single_column", "1.0\n \t\n2.0\n", (c.SeriesFormatError, "line 2: blank line", 2)),
    ("time_value_csv", "time,value\n0.0,1.0\n \t\n0.5,2.0\n",
     (c.SeriesFormatError, "line 3: blank line", 3)),
    ("single_column", "\n", (c.SeriesFormatError, "line 1: blank line", 1)),
    ("time_value_csv", "time,value\n\r\n\n", (c.SeriesFormatError, "line 2: blank line", 2)),
])
def test_line_parser_decides_what_the_array_reader_declines(tmp_path, fmt, text, expected):
    path = tmp_path / "d.csv"
    path.write_text(text, encoding="utf-8", newline="")
    outcome = _outcome(path, fmt)
    assert outcome == _line_parser_outcome(path, fmt)
    if isinstance(expected, list):
        assert outcome[0] == np.array(expected).view(np.uint64).tolist()
    else:
        assert outcome == expected


def test_a_file_whose_only_fault_is_its_spacing_is_not_read_again_line_by_line(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(_DEEP_GAP)
    with mock.patch.object(seriesio, "_parse_float", wraps=seriesio._parse_float) as parse:
        with pytest.raises(c.NonUniformSamplingError):
            c.load_series(c.SeriesFile(path, format="time_value_csv"))
    assert parse.call_count == 0


def _blocks_outcome(path, fmt, block):
    with mock.patch.object(seriesio, "_BLOCK", block):
        return _outcome(path, fmt)


@given(case=mutated_files(), block=st.integers(1, 8))
@settings(max_examples=300, deadline=None)
def test_any_block_size_gives_the_outcome_of_one_block(tmp_path_factory, case, block):
    fmt, text = case
    path = tmp_path_factory.mktemp("bk") / "m.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert _blocks_outcome(path, fmt, block) == _outcome(path, fmt)


@pytest.mark.parametrize("fmt, content, expected", [
    # a CRLF whose CR ends one block and whose LF starts the next, at every edge
    ("single_column", b"1.0\r\n2.0\r\n3.0\r\n", [1.0, 2.0, 3.0]),
    ("time_value_csv", b"time,value\r\n0.0,1.0\r\n0.5,2.0\r\n", [1.0, 2.0]),
    # a header and a row longer than a block
    ("single_column", b"# sample_rate=4.0\n1.0\n-12345.678901e-3\n", [1.0, -12.345678901]),
    ("time_value_csv", b"time,value\n0.0,1.0\n0.5,-12345.678901e-3\n", [1.0, -12.345678901]),
    # multibyte UTF-8 characters that straddle block edges: Arabic-Indic digits,
    # an ideographic space (a blank line) and a NEL (a line break to the line parser)
    ("single_column", "1.0\n\u0661\u0662\n3.0\n".encode(), [1.0, 12.0, 3.0]),
    ("single_column", "1.0\n\u3000\n2.0\n".encode(),
     (c.SeriesFormatError, "line 2: blank line", 2)),
    ("single_column", "1.0\n2.0\x853.0\n4.0\n".encode(), [1.0, 2.0, 3.0, 4.0]),
    # faults past the first block name the line, and the byte in the whole input
    ("single_column", b"1.0\n2.0\n3.0\n4.0\n5.0\nx\n",
     (c.SeriesFormatError, "line 6: not a number: 'x'", 6)),
    ("time_value_csv", b"time,value\n0.0,1.0\n0.5,2.0\n1.0,3.0\n1.5,\n",
     (c.SeriesFormatError, "line 5: not a number: ''", 5)),
    ("single_column", b"1.0\n2.0\n3.0\n4.0\n5.\xff\n",
     (c.SeriesFormatError, "not UTF-8 text: byte 18 cannot be decoded", None)),
    ("time_value_csv", b"time,value\n0.0,1.0\n0.5,2.0\n1.0,\xe93.0\n",
     (c.SeriesFormatError, "not UTF-8 text: byte 31 cannot be decoded", None)),
    # the header is read first, so a bad one is named before a later bad byte
    ("time_value_csv", b"tim,value\n0.0,1.0\n0.5,2.\xff\n",
     (c.SeriesFormatError, "line 1: expected 'time,value' header", 1)),
    ("single_column", b"# rate=3\n1.0\n2.\xff\n",
     (c.SeriesFormatError, "line 1: unrecognized comment: '# rate=3'", 1)),
])
def test_block_edges_change_no_outcome(tmp_path, fmt, content, expected):
    path = tmp_path / "e.csv"
    path.write_bytes(content)
    outcome = _outcome(path, fmt)
    if isinstance(expected, list):
        assert outcome[0] == np.array(expected).view(np.uint64).tolist()
    else:
        assert outcome == expected
    for block in range(1, len(content) + 2):
        assert _blocks_outcome(path, fmt, block) == outcome, block


def test_of_two_faults_in_different_blocks_the_first_is_named(tmp_path):
    # a blank line 2 in the first block, and a byte that is not UTF-8 at the
    # end, 2.4 MB in; a block that held the whole file would name the byte
    path = tmp_path / "two.csv"
    path.write_bytes(b"1.0\n\n" + b"1.0\n" * 600_000 + b"\xff")
    assert _outcome(path, "single_column") == (c.SeriesFormatError, "line 2: blank line", 2)
    assert _blocks_outcome(path, "single_column", 3 * 2**20) == (
        c.SeriesFormatError, "not UTF-8 text: byte 2400005 cannot be decoded", None)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM in /proc")
def test_a_million_samples_load_in_a_bounded_peak(tmp_path):
    # VmHWM, not ru_maxrss: a child's ru_maxrss keeps its parent's high-water
    # mark from before the exec.  The same bound holds for the file, for the
    # file through a pipe, and for the file with lone-CR line ends.
    path = tmp_path / "long.csv"
    series = c.gen_quasiperiodic(5000.0, 10**6)
    c.write_series(series, path, "time_value_csv")
    lone_cr = tmp_path / "long-cr.csv"
    lone_cr.write_bytes(path.read_bytes().replace(b"\n", b"\r"))
    code = ("import sys, chaos01 as c\n"
            "s = c.load_series(c.SeriesFile(sys.argv[1], format='time_value_csv'))\n"
            "peak = [l for l in open('/proc/self/status') if l.startswith('VmHWM:')][0]\n"
            "print(len(s), s.samples[-1].hex(), int(peak.split()[1]) / 1024)")
    with subprocess.Popen(["cat", str(path)], stdout=subprocess.PIPE) as cat:
        piped = source_tree_python(["-c", code, "/dev/stdin"], stdin=cat.stdout)
    for proc in (source_tree_python(["-c", code, str(path)]), piped,
                 source_tree_python(["-c", code, str(lone_cr)])):
        assert proc.returncode == 0, proc.stderr
        count, last, peak_mib = proc.stdout.split()
        assert (int(count), last) == (10**6, series.samples[-1].hex())
        assert float(peak_mib) < 80


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM in /proc")
def test_psd_of_a_million_samples_runs_in_a_bounded_peak(tmp_path):
    # the psd command in a fresh process: load, transform, and the export,
    # which renders a block of rows at a time; a block four times larger
    # would go over the bound
    path = tmp_path / "long.csv"
    c.write_series(c.gen_quasiperiodic(5000.0, 10**6), path, "time_value_csv")
    code = ("import runpy, sys\n"
            "sys.argv = ['chaos01', 'psd', *sys.argv[1:]]\n"
            "status = None\n"
            "try:\n"
            "    runpy.run_module('chaos01.cli', run_name='__main__')\n"
            "except SystemExit as exit:\n"
            "    status = exit.code\n"
            "peak = [l for l in open('/proc/self/status') if l.startswith('VmHWM:')][0]\n"
            "print(status, int(peak.split()[1]) / 1024)")
    out = tmp_path / "long.psd.csv"
    proc = source_tree_python(["-c", code, str(path), "--format", "time_value_csv",
                               "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    status, peak_mib = proc.stdout.split()[-2:]
    assert status in ("0", "None")
    assert len(out.read_text().splitlines()) == 1 + 500_001
    assert float(peak_mib) < 68


def test_unknown_format_name_raises(tmp_path):
    with pytest.raises(c.InvalidParameterError):
        c.SeriesFile(tmp_path / "x.csv", format="bogus")
    with pytest.raises(c.InvalidParameterError):
        c.write_series(c.TimeSeries([1.0]), tmp_path / "x.csv", format="bogus")
    assert not (tmp_path / "x.csv").exists()


def test_write_time_value_requires_rate(tmp_path):
    with pytest.raises(c.MissingSampleRateError):
        c.write_series(c.TimeSeries([1.0, 2.0]), tmp_path / "x.csv", format="time_value_csv")


def test_write_single_column_omits_comment_without_rate(tmp_path):
    path = tmp_path / "p.csv"
    c.write_series(c.TimeSeries([1.0, 2.0]), path)
    assert path.read_text() == "1.0\n2.0\n"


# ---------------------------------------------------------------------------
# segmentation


def test_segment_two_disjoint_windows():
    series = c.TimeSeries(np.arange(10.0), label="rec")
    windows = c.segment(series, c.WindowPlan(window_len=5, stride=5))
    assert len(windows) == 2
    assert np.array_equal(windows[0].samples, np.arange(5.0))
    assert np.array_equal(windows[1].samples, np.arange(5.0, 10.0))


def test_segment_identity_window():
    series = c.TimeSeries(np.arange(10.0), label="rec")
    windows = c.segment(series, c.WindowPlan(window_len=10, stride=1))
    assert len(windows) == 1
    assert np.array_equal(windows[0].samples, series.samples)


def test_segment_overlapping_windows_and_labels():
    series = c.TimeSeries(np.arange(10.0), label="rec")
    windows = c.segment(series, c.WindowPlan(window_len=4, stride=3))
    assert len(windows) == 3
    assert [w.label for w in windows] == ["rec@1", "rec@4", "rec@7"]
    assert np.array_equal(windows[1].samples, [3.0, 4.0, 5.0, 6.0])


def test_segment_preserves_sample_rate():
    series = c.TimeSeries(np.arange(12.0), sample_rate=60.0)
    windows = c.segment(series, c.WindowPlan(window_len=6, stride=6))
    assert all(w.sample_rate == 60.0 for w in windows)


def test_segment_window_longer_than_series():
    with pytest.raises(c.SeriesTooShortError):
        c.segment(c.TimeSeries(np.arange(5.0)), c.WindowPlan(window_len=6, stride=1))


@given(n=st.integers(min_value=1, max_value=200),
       window=st.integers(min_value=1, max_value=200),
       stride=st.integers(min_value=1, max_value=50))
@settings(max_examples=80, deadline=None)
def test_segment_count_formula(n, window, stride):
    series = c.TimeSeries(np.arange(float(n)))
    plan = c.WindowPlan(window_len=window, stride=stride)
    if window > n:
        with pytest.raises(c.SeriesTooShortError):
            c.segment(series, plan)
        return
    windows = c.segment(series, plan)
    assert len(windows) == (n - window) // stride + 1


def test_segment_tiling_reconstructs_prefix():
    series = c.TimeSeries(np.arange(23.0))
    windows = c.segment(series, c.WindowPlan(window_len=5, stride=5))
    glued = np.concatenate([w.samples for w in windows])
    assert np.array_equal(glued, series.samples[:len(glued)])


def test_window_plan_validation():
    for window_len, stride in [(0, 1), (5, 0), (2.5, 1), (5, 2.0), ("x", 1), (5, True), (None, 1)]:
        with pytest.raises(c.InvalidParameterError):
            c.WindowPlan(window_len=window_len, stride=stride)


# ---------------------------------------------------------------------------
# result export


def _result():
    series = c.gen_uniform_random(600, seed=2)
    return c.run_test(series, c.TestConfig(num_c=12, seed=4))


def test_export_result_round_trips_bit_exact(tmp_path):
    result = _result()
    path = tmp_path / "r.json"
    c.export_result(result, path)
    doc = json.loads(path.read_text())
    assert doc["k_m"] == result.k_m
    assert [entry["k"] for entry in doc["per_c"]] == [r.k for r in result.per_c]
    assert [entry["c"] for entry in doc["per_c"]] == [r.c for r in result.per_c]


def test_export_result_schema_and_key_order(tmp_path):
    result = _result()
    path = tmp_path / "r.json"
    c.export_result(result, path)
    doc = json.loads(path.read_text())
    assert list(doc) == ["series_label", "method", "seed", "num_c", "k_m", "label",
                         "short_series", "per_c", "config", "version"]
    assert doc["method"] == "correlation"
    assert doc["num_c"] == 12
    assert doc["seed"] == 4
    assert doc["label"] == result.label.value
    assert doc["version"] == c.__version__
    assert doc["config"]["aggregator"] == "trimmed_mean"
    assert doc["config"]["bands"]["regular_max"] == 0.2


def test_export_result_intact_aggregate(tmp_path):
    result = _result()
    path = tmp_path / "r.json"
    c.export_result(result, path)
    doc = json.loads(path.read_text())
    ks = [abs(e["k"]) for e in doc["per_c"] if not e["degenerate"]]
    from scipy.stats import trim_mean
    assert doc["k_m"] == pytest.approx(trim_mean(ks, 0.25), abs=1e-12)


def test_export_result_serializes_degenerate_entries(tmp_path):
    rates = (
        c.GrowthRate(c=1.0, k=0.3, method=c.Method.CORRELATION),
        c.GrowthRate(c=2.0, k=0.0, method=c.Method.CORRELATION, degenerate=True),
    )
    result = c.TestResult(
        series_label="mixed",
        k_m=c.aggregate_k(rates, c.Aggregator.MEAN),
        label=c.classify(0.3),
        per_c=rates,
        config=c.TestConfig(num_c=2),
        short_series=True,
    )
    path = tmp_path / "d.json"
    c.export_result(result, path)
    doc = json.loads(path.read_text())
    assert doc["per_c"][1] == {"c": 2.0, "k": 0.0, "degenerate": True}
    assert doc["short_series"] is True


# ---------------------------------------------------------------------------
# trajectory / scatter / spectrum export


def test_export_trajectory_zero_rows(tmp_path):
    traj = c.translation_variables(c.TimeSeries(np.zeros(4)), 2.5)
    path = tmp_path / "t.csv"
    c.export_trajectory(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "p,q"
    assert len(lines) == 5
    for line in lines[1:]:
        p, q = map(float, line.split(","))
        assert p == 0.0 and q == 0.0


def test_export_trajectory_worked_example(tmp_path):
    traj = c.translation_variables(c.TimeSeries([1.0, 2.0, 3.0]), math.pi / 2)
    path = tmp_path / "t.csv"
    c.export_trajectory(traj, path)
    lines = path.read_text().splitlines()
    assert lines.count("p,q") == 1
    rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
    assert np.allclose(rows, [(0.0, 1.0), (-2.0, 1.0), (-2.0, -2.0)], atol=1e-12)


def test_export_scatter_columns(tmp_path):
    result = _result()
    path = tmp_path / "kc.csv"
    c.export_scatter(result, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "index,c,abs_k"
    assert len(lines) == 13
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[1]) == result.per_c[0].c
    assert float(first[2]) == abs(result.per_c[0].k)


def test_export_psd_round_trips(tmp_path, sine_series):
    estimate = c.psd(sine_series)
    path = tmp_path / "p.csv"
    c.export_psd(estimate, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "frequency,power"
    values = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert np.array_equal(values[:, 0], estimate.frequencies)
    assert np.array_equal(values[:, 1], estimate.power)
