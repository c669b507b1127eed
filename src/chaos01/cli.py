"""Command-line front end.

Four subcommands cover the full workflow: ``generate`` writes reference
signals, ``analyze`` runs the regularity test on one file, ``psd`` writes a
normalized spectrum, and ``batch`` processes a manifest of files into a
summary table.

Exit codes follow one taxonomy everywhere: 2 for usage or invalid
parameters, 3 for I/O failures, 4 for data that cannot be analyzed.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import typing
from concurrent.futures import ThreadPoolExecutor
from enum import Enum
from pathlib import Path

import click

# When numpy loads, its OpenBLAS starts one thread per extra CPU, which
# spins for about 0.1 s of CPU; nothing here calls BLAS.  A value the user
# set is kept.  This must run before the imports below load numpy, which is
# why the package imports its submodules only on first use.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import __version__
from .core import (
    TWO_PI,
    DEFAULT_N0_FRACTION,
    Aggregator,
    Method,
    TestConfig,
    run_test,
    translation_variables,
    usable_cpus,
)
from .errors import Chaos01Error, DivergenceError, InvalidParameterError
from .seriesio import (
    SeriesFile,
    SeriesFormat,
    WindowPlan,
    export_psd,
    export_result,
    export_scatter,
    export_trajectory,
    load_series,
    segment,
    write_series,
)
from .signals import GeneratorKind, GeneratorSpec, make_series
from .spectral import psd as compute_psd

EXIT_USAGE = 2
EXIT_IO = 3
EXIT_DATA = 4

_FORMAT_CHOICE = click.Choice([f.value for f in SeriesFormat])


class _Main(click.Group):
    """Ends any command that raises a package error with one ``error:`` line."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (InvalidParameterError, DivergenceError) as exc:
            error, code = exc, EXIT_USAGE
        except Chaos01Error as exc:  # the file's content cannot be analyzed
            error, code = exc, EXIT_DATA
        except OSError as exc:
            error, code = exc, EXIT_IO
        click.echo(f"error: {error}", err=True)
        ctx.exit(code)


def _read(cls, mapping, what: str):
    """Build ``cls`` from JSON-like settings, the one reader of flags and
    manifests: a dataclass from an object of its fields, each read by type,
    an enum from a value ("trimmed" names the trimmed mean).  Integers are
    left to the dataclasses.  Bad keys, types and values raise InvalidParameterError."""
    if isinstance(cls, type) and issubclass(cls, Enum):
        try:
            return cls("trimmed_mean" if cls is Aggregator and mapping == "trimmed" else mapping)
        except ValueError:
            raise InvalidParameterError(
                f"{what} must be one of {[m.value for m in cls]}, got {mapping!r}") from None
    if cls is float and (isinstance(mapping, bool) or not isinstance(mapping, (int, float))):
        raise InvalidParameterError(f"{what} must be a number, got {mapping!r}")
    if not dataclasses.is_dataclass(cls):
        return mapping
    if not isinstance(mapping, dict):
        raise InvalidParameterError(f"{what} must be a JSON object, got {mapping!r}")
    fields = dataclasses.fields(cls)
    unknown = sorted(mapping.keys() - {f.name for f in fields})
    missing = [f.name for f in fields
               if f.default is f.default_factory is dataclasses.MISSING and f.name not in mapping]
    for problem, keys in (("unknown", unknown), ("missing", missing)):
        if keys:
            raise InvalidParameterError(f"{what}: {problem} keys {keys}")
    hints = typing.get_type_hints(cls)
    return cls(**{key: _read(hints[key], item, f"{what}.{key}") for key, item in mapping.items()})


@click.group(cls=_Main)
@click.version_option(version=__version__)
def main():
    """Detect chaos in scalar time series with a 0-1 style growth-rate test."""


@main.command()
@click.option("--kind", required=True, type=click.Choice([k.value for k in GeneratorKind]),
              help="Which reference signal to produce.")
@click.option("--f", "freq", type=float, default=100.0, show_default=True,
              help="Tone frequency in Hz (sine and sawtooth).")
@click.option("--fs", type=float, default=None,
              help="Sample rate in Hz [default: 5000 for time-based kinds].")
@click.option("--n", type=int, default=5000, show_default=True, help="Number of samples.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed for uniform_random.")
@click.option("--out", required=True, type=click.Path(dir_okay=False),
              help="Output path (single_column format).")
def generate(kind, freq, fs, n, seed, out):
    """Write one reference signal to a file."""
    spec = GeneratorSpec(kind=kind, num_samples=n, sample_rate=fs, freq=freq, seed=seed)
    series = make_series(spec)
    write_series(series, out)
    click.echo(f"wrote {out}: kind={kind} N={len(series)} {_describe(spec)}")


def _describe(spec: GeneratorSpec) -> str:
    if spec.kind in (GeneratorKind.SINE, GeneratorKind.SAWTOOTH):
        return f"f={spec.freq} fs={spec.sample_rate}"
    if spec.kind is GeneratorKind.QUASI_PERIODIC:
        return f"fs={spec.sample_rate}"
    if spec.kind is GeneratorKind.CHIRP:
        return f"f0={spec.f0} f1={spec.f1} fs={spec.sample_rate}"
    if spec.kind is GeneratorKind.HENON:
        return f"a={spec.a} b={spec.b} x0={spec.x0} y0={spec.y0}"
    return f"seed={spec.seed}"


@main.command()
@click.argument("input", type=click.Path(dir_okay=False))
@click.option("--format", "fmt", type=_FORMAT_CHOICE, default="single_column",
              show_default=True, help="Input file format.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed for the frequency draw.")
@click.option("--num-c", type=int, default=100, show_default=True,
              help="Number of probe frequencies.")
@click.option("--method", type=click.Choice([m.value for m in Method]),
              default=Method.CORRELATION.value, show_default=True)
@click.option("--aggregator", type=click.Choice(["mean", "median", "trimmed"]),
              default="trimmed", show_default=True)
@click.option("--n0-fraction", type=float, default=DEFAULT_N0_FRACTION, show_default=True,
              help="Fraction of the series length used as the lag window.")
@click.option("--c-low", type=float, default=0.0, show_default=True)
@click.option("--c-high", type=float, default=TWO_PI, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Result JSON path [default: INPUT stem + .result.json].")
@click.option("--scatter", type=click.Path(dir_okay=False), default=None,
              help="Per-frequency growth-rate CSV [default: INPUT stem + .kc.csv].")
@click.option("--trajectory", type=click.Path(dir_okay=False), default=None,
              help="Also write the p,q trajectory CSV at --trajectory-c.")
@click.option("--trajectory-c", type=float, default=2.5, show_default=True,
              help="Frequency for the exported trajectory.")
def analyze(input, fmt, seed, num_c, method, aggregator, n0_fraction, c_low, c_high,
            out, scatter, trajectory, trajectory_c):
    """Run the test on one series and write result artifacts."""
    config = _read(TestConfig, {"seed": seed, "num_c": num_c, "method": method,
                                "aggregator": aggregator, "n0_fraction": n0_fraction,
                                "c_low": c_low, "c_high": c_high}, "options")
    if trajectory is not None and not 0.0 < trajectory_c < TWO_PI:
        raise InvalidParameterError("--trajectory-c must lie strictly inside (0, 2*pi)")
    series = load_series(SeriesFile(path=input, format=fmt))
    result = run_test(series, config)
    base = Path(input).with_suffix("")
    export_result(result, out or f"{base}.result.json")
    export_scatter(result, scatter or f"{base}.kc.csv")
    if trajectory is not None:
        export_trajectory(translation_variables(series, trajectory_c), trajectory)
    if result.short_series:
        click.echo(f"note: only {len(series)} samples, treat the statistic as advisory", err=True)
    click.echo(f"K_m={result.k_m!r} label={result.label.value}")


@main.command("psd")
@click.argument("input", type=click.Path(dir_okay=False))
@click.option("--format", "fmt", type=_FORMAT_CHOICE, default="single_column",
              show_default=True, help="Input file format.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Spectrum CSV path [default: INPUT stem + .psd.csv].")
def psd_command(input, fmt, out):
    """Write the normalized power spectrum of a series."""
    series = load_series(SeriesFile(path=input, format=fmt))
    estimate = compute_psd(series)
    target = out or f"{Path(input).with_suffix('')}.psd.csv"
    export_psd(estimate, target)
    click.echo(f"wrote {target}: {estimate.frequencies.size} bins")


def _batch_one(path: Path, fmt: SeriesFormat, plan: WindowPlan | None,
               config: TestConfig) -> list[list[str]]:
    """Rows for one input file; failures become rows, never exceptions."""
    rows: list[list[str]] = []
    try:
        series = load_series(SeriesFile(path=path, format=fmt))
        if plan is None:
            parts = [(str(path), series)]
        else:
            parts = [
                (f"{path}@{i * plan.stride + 1}", window)
                for i, window in enumerate(segment(series, plan))
            ]
        for name, part in parts:
            try:
                result = run_test(part, config)
                degenerate = sum(r.degenerate for r in result.per_c)
                rows.append([name, str(len(part)), repr(result.k_m),
                             result.label.value, str(degenerate), ""])
            except Chaos01Error as exc:
                rows.append([name, str(len(part)), "", "", "", str(exc)])
    except (OSError, Chaos01Error) as exc:
        rows.append([str(path), "", "", "", "", str(exc)])
    return rows


@main.command()
@click.argument("manifest", type=click.Path(dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Summary CSV path [default: manifest 'out' entry, else MANIFEST stem + .summary.csv].")
@click.option("--window", type=int, default=None,
              help="Segment each series into windows of this many samples.")
@click.option("--stride", type=int, default=None,
              help="Window step [default: --window, i.e. non-overlapping].")
@click.option("--jobs", type=int, default=4, show_default=True,
              help="Files analyzed at once, at most one per usable CPU.")
def batch(manifest, out, window, stride, jobs):
    """Analyze every file in a JSON manifest and write one summary CSV.

    \b
    key     type    meaning
    inputs  [path]  series files, at least one (required)
    format  string  "single_column" (default) or "time_value_csv"
    config  object  TestConfig fields, as in the result JSON "config"
    window  object  {"window_len": int, "stride": int}; default: no windows
    out     path    summary CSV; default: MANIFEST stem + .summary.csv

    "trimmed" is an alias of the aggregator "trimmed_mean".  Paths are
    resolved relative to the manifest's directory.  Row order follows
    manifest order regardless of worker scheduling.  An invalid manifest
    exits 2 with one error line; a file that cannot be read or decoded
    becomes an error row.
    """
    if jobs < 1:
        raise InvalidParameterError("--jobs must be at least 1")
    manifest_path = Path(manifest)
    try:
        doc = json.loads(manifest_path.read_bytes())
    except ValueError as exc:  # not JSON, or bytes that are not text
        raise InvalidParameterError(f"manifest is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or not doc.get("inputs"):
        raise InvalidParameterError("manifest lists no inputs")
    unknown = sorted(doc.keys() - {"inputs", "format", "config", "window", "out"})
    if unknown:
        raise InvalidParameterError(f"manifest: unknown keys {unknown}")
    names = doc["inputs"]
    if not isinstance(names, list) or not all(
            isinstance(p, str) and "\0" not in p for p in [*names, doc.get("out", "")]):
        raise InvalidParameterError('manifest "inputs" must be a list of paths, and "out" a path')

    base = manifest_path.parent
    fmt = _read(SeriesFormat, doc.get("format", "single_column"), "format")
    config = _read(TestConfig, doc.get("config", {}), "config")
    plan = _read(WindowPlan, doc["window"], "window") if "window" in doc else None
    if window is not None:
        plan = WindowPlan(window_len=window, stride=window if stride is None else stride)
    elif stride is not None:
        raise InvalidParameterError("--stride needs --window")

    target = out or (base / doc["out"] if "out" in doc
                     else f"{manifest_path.with_suffix('')}.summary.csv")
    if Path(target).resolve() in {(base / name).resolve() for name in names}:
        raise InvalidParameterError(f"summary path {target} is also an input")
    with open(target, "w", newline="") as handle:  # an unwritable target fails before any work
        # each run_test also runs its angle chunks on threads, so more file
        # threads than CPUs only contend
        with ThreadPoolExecutor(max_workers=min(jobs, len(names), usable_cpus())) as pool:
            per_file = list(pool.map(lambda name: _batch_one(base / name, fmt, plan, config), names))
        rows = [row for group in per_file for row in group]
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["file", "n", "k_m", "label", "degenerate_count", "error"])
        writer.writerows(rows)

    succeeded = sum(1 for row in rows if row[5] == "")
    click.echo(f"wrote {target}: {succeeded}/{len(rows)} rows analyzed")
    if succeeded == 0:
        raise SystemExit(EXIT_DATA)


if __name__ == "__main__":
    main()
