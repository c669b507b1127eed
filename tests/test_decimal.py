"""The CSV writer against Python's ``repr``: every comparison is of whole
texts, the writer's against rows of ``repr`` joined by commas."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chaos01 import _decimal, seriesio

SPECIAL = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
           2.2250738585072014e-308, 1.7976931348623157e308]
#: Where repr's layout changes: 16 digits before the point, and 1e-4 against 1e-5.
LAYOUT_EDGES = [1e16, 9999999999999998.0, 1e15, 123456789012345.6, 1e-4, 1e-5, 0.00012345,
                0.000012345, 1e22, 1e21, 1.5e-300, 1e100, 1e-100, 0.1, 1.0, 100.0, 123.0]


def repr_text(*columns) -> str:
    """Each row's values, by repr, joined by commas, one line per row."""
    rows = zip(*(np.asarray(column).tolist() for column in columns))
    return "".join(",".join(map(repr, row)) + "\n" for row in rows)


def writer_text(*columns, rows=seriesio._WRITE_ROWS) -> str:
    return "".join(_decimal.csv_rows([np.asarray(column) for column in columns], rows))


def with_neighbours(values) -> np.ndarray:
    """``values``, their negatives, and one ulp either side of each."""
    values = np.asarray(values, dtype=float)
    values = np.concatenate([values, -values])
    with np.errstate(over="ignore"):  # the largest float's upper neighbour is inf
        return np.concatenate([values, np.nextafter(values, np.inf),
                               np.nextafter(values, -np.inf)])


@given(values=st.lists(st.floats(), min_size=1, max_size=60))
@example(values=SPECIAL)
@example(values=LAYOUT_EDGES)
@settings(max_examples=300, deadline=None)
def test_any_floats_are_written_as_repr_writes_them(values):
    assert writer_text(values) == repr_text(values)
    assert writer_text(values, values[::-1]) == repr_text(values, values[::-1])


def test_powers_of_two_and_of_ten_and_their_neighbours():
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = [float(f"1e{k}") for k in range(-323, 309)]
    for values in (with_neighbours(twos), with_neighbours(tens)):
        assert writer_text(values) == repr_text(values)


def test_subnormals_and_layout_edges():
    first = np.arange(2**16, dtype=np.uint64).view(np.float64)
    last = (np.arange(2**16, dtype=np.uint64) + np.uint64(2**52 - 2**16)).view(np.float64)
    for values in (first, -first, last, with_neighbours(SPECIAL[6:] + LAYOUT_EDGES)):
        assert writer_text(values) == repr_text(values)


def test_integers_around_two_to_the_53():
    near = np.arange(2**53 - 3000, 2**53 + 3000, dtype=np.int64)
    floats = near.astype(np.float64)
    assert writer_text(floats, -floats) == repr_text(floats, -floats)
    assert writer_text(near, -near) == repr_text(near, -near)
    top = np.arange(2**63 - 3000, 2**63 - 1, dtype=np.int64) + 1  # up to the largest int64
    assert writer_text(top, -top) == repr_text(top, -top)


def test_a_million_random_bit_patterns():
    bits = np.random.Generator(np.random.PCG64(22)).integers(0, 2**64, 10**6, dtype=np.uint64)
    values = bits.view(np.float64)
    assert writer_text(values[::2], values[1::2]) == repr_text(values[::2], values[1::2])


def test_mixed_integer_and_float_table(tmp_path):
    rng = np.random.Generator(np.random.PCG64(5))
    index = np.arange(-40, 2000)
    c = rng.random(index.size) * 2 * math.pi
    k = np.where(index % 7 == 0, math.nan, rng.standard_normal(index.size) * 1e-3)
    path = tmp_path / "kc.csv"
    seriesio._write_table(path, "index,c,abs_k", range(-40, 2000), list(c), k)
    assert path.read_text() == "index,c,abs_k\n" + repr_text(index, c, k)
    # blocks of any size give the same text
    assert writer_text(index, c, k, rows=7) == repr_text(index, c, k)


def test_zero_row_table(tmp_path):
    path = tmp_path / "t.csv"
    seriesio._write_table(path, "p,q", np.empty(0), np.empty(0))
    assert path.read_text() == "p,q\n"
    assert writer_text(np.empty(0), np.empty(0, dtype=int)) == ""


@pytest.mark.parametrize("value", [2**53, -2**53, 2**63 - 1, -2**63, 2**64 - 1])
def test_an_integer_of_two_to_the_53_or_more_is_written_as_repr_writes_it(value):
    column = np.array([1, value], dtype=np.uint64 if value >= 2**63 else np.int64)
    assert writer_text(column) == f"1\n{value!r}\n"
    assert writer_text(column, column.astype(float)) == repr_text(column, column.astype(float))
