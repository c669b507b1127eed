"""Shared test support: the six reference signals at their standard size,
and a fresh Python process on this source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import chaos01 as c

#: Each reference signal's builder, by kind; the only place they are built.
REFERENCE_SIGNALS = {
    "sine": lambda: c.gen_sine(100.0, 5000.0, 5000),
    "sawtooth": lambda: c.gen_sawtooth(100.0, 5000.0, 5000),
    "quasi_periodic": lambda: c.gen_quasiperiodic(5000.0, 5000),
    "chirp": lambda: c.gen_chirp(0.0, 100.0, 1.0, 5000.0),
    "henon": lambda: c.gen_henon(),
    "uniform_random": lambda: c.gen_uniform_random(5000, seed=0),
}


@pytest.fixture(scope="session")
def sine_series():
    return REFERENCE_SIGNALS["sine"]()


@pytest.fixture(scope="session")
def sawtooth_series():
    return REFERENCE_SIGNALS["sawtooth"]()


@pytest.fixture(scope="session")
def quasi_series():
    return REFERENCE_SIGNALS["quasi_periodic"]()


@pytest.fixture(scope="session")
def chirp_series():
    return REFERENCE_SIGNALS["chirp"]()


@pytest.fixture(scope="session")
def henon_series():
    return REFERENCE_SIGNALS["henon"]()


@pytest.fixture(scope="session")
def random_series():
    return REFERENCE_SIGNALS["uniform_random"]()


def source_tree_python(args, stdin=None, input=None, **environ):
    """Run ``python *args`` in a fresh process that imports chaos01 from this
    source tree, and return the finished process with its text output.  Its
    standard input is ``stdin`` (an open file), or a pipe that carries the
    text ``input``.  The process gets this one's environment plus
    ``environ``, but without the BLAS setting that importing chaos01.cli put
    there, unless ``environ`` sets one."""
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env.update(environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          stdin=stdin, input=input, timeout=120)
