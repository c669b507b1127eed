"""Command-line front end.

Four subcommands cover the full workflow: ``generate`` writes reference
signals, ``analyze`` runs the regularity test on one file, ``psd`` writes a
normalized spectrum, and ``batch`` processes a manifest of files into a
summary table.

Exit codes follow one taxonomy everywhere: 2 for usage or invalid
parameters, 3 for I/O failures, 4 for data that cannot be analyzed.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import json
import os
import shutil
import typing
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import click

# When numpy loads, its OpenBLAS starts one thread per extra CPU, which
# spins for about 0.1 s of CPU; nothing here calls BLAS.  A value the user
# set is kept; an empty one counts as unset, as OpenBLAS reads it.  This
# must run before the imports below load numpy, which is why the package
# imports its submodules only on first use.
if not os.environ.get("OPENBLAS_NUM_THREADS"):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from . import __version__
from .core import (
    Aggregator,
    Method,
    TestConfig,
    _check_angle,
    _check_name,
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
from .signals import _DEFAULT_RATE, GeneratorKind, GeneratorSpec, _describe, make_series
from .spectral import psd as compute_psd

EXIT_USAGE = 2
EXIT_IO = 3
EXIT_DATA = 4

_FORMAT_CHOICE = click.Choice([f.value for f in SeriesFormat])
_TRIMMED = "trimmed"  # the one name the CLI adds: an alias of Aggregator.TRIMMED_MEAN


class _Main(click.Group):
    """Ends any command that raises a package error with one ``error:`` line."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (InvalidParameterError, DivergenceError, MemoryError) as exc:
            error, code = exc, EXIT_USAGE
        except Chaos01Error as exc:  # the file's content cannot be analyzed
            error, code = exc, EXIT_DATA
        except OSError as exc:
            error, code = exc, EXIT_IO
        click.echo(f"error: {error}", err=True)
        ctx.exit(code)


def _read(cls, mapping, what: str):
    """Build ``cls`` from JSON-like settings, the one reader of flags and
    manifests: a dataclass from an object of its fields, "trimmed" as the
    aggregator TRIMMED_MEAN, and any other value as given, for the
    dataclass to check.  Bad keys and shapes raise InvalidParameterError."""
    if cls is Aggregator and mapping == _TRIMMED:
        return Aggregator.TRIMMED_MEAN
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


def _check_targets(inputs, targets) -> None:
    """Raise unless each output path names a file apart from every input and
    every other output, so that no command overwrites what it reads or writes."""
    taken = {Path(path).resolve() for path in inputs}
    for target in targets:
        path = Path(target).resolve()
        if path in taken:
            raise InvalidParameterError(f"output path {target} is also an input or another output")
        taken.add(path)


@contextlib.contextmanager
def _replacing(path):
    """A text handle on a new file beside the file ``path`` names, through any
    symlinks, which replaces that file when the block ends and is removed if
    the block raises, so an interrupted run leaves the old file whole.  The new
    file gets the mode ``open(path, "w")`` would give, and a directory at
    ``path`` or an unwritable directory fails at once.  An existing target that
    is not a regular file, such as a FIFO or a device, is written directly."""
    if os.path.isdir(path):
        raise IsADirectoryError(f"{path} is a directory")
    path = os.path.realpath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", newline="") as handle:
            yield handle
        return
    directory, name = os.path.split(path)
    partial = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.partial")
    handle = open(partial, "x", newline="")
    try:
        with handle:
            yield handle
        if os.path.exists(path):
            shutil.copymode(path, partial)
        os.replace(partial, path)
    except BaseException:
        os.remove(partial)
        raise


@click.group(cls=_Main)
@click.version_option(version=__version__)
def main():
    """Detect chaos in scalar time series with a 0-1 style growth-rate test."""


@main.command()
@click.option("--kind", required=True, type=click.Choice([k.value for k in GeneratorKind]),
              help="Which reference signal to produce.")
@click.option("--f", "freq", type=float, default=GeneratorSpec.freq, show_default=True,
              help="Tone frequency in Hz (sine and sawtooth).")
@click.option("--fs", "sample_rate", type=float, default=None,
              help=f"Sample rate in Hz [default: {_DEFAULT_RATE:g} for time-based kinds].")
@click.option("--n", "num_samples", type=int, default=GeneratorSpec.num_samples,
              show_default=True, help="Number of samples.")
@click.option("--seed", type=int, default=GeneratorSpec.seed, show_default=True,
              help="Seed for uniform_random.")
@click.option("--out", required=True, type=click.Path(dir_okay=False),
              help="Output path (single_column format).")
def generate(out, **fields):
    """Write one reference signal to a file."""
    spec = GeneratorSpec(**fields)
    series = make_series(spec)
    write_series(series, out)
    click.echo(f"wrote {out}: kind={spec.kind.value} N={len(series)} {_describe(spec)}")


@main.command()
@click.argument("input", type=click.Path(dir_okay=False))
@click.option("--format", "fmt", type=_FORMAT_CHOICE, default=SeriesFile.format.value,
              show_default=True, help="Input file format.")
@click.option("--seed", type=int, default=TestConfig.seed, show_default=True,
              help="Seed for the frequency draw.")
@click.option("--num-c", type=int, default=TestConfig.num_c, show_default=True,
              help="Number of probe frequencies.")
@click.option("--method", type=click.Choice([m.value for m in Method]),
              default=TestConfig.method.value, show_default=True)
@click.option("--aggregator", type=click.Choice([*(a.value for a in Aggregator), _TRIMMED]),
              default=TestConfig.aggregator.value, show_default=True)
@click.option("--n0-fraction", type=float, default=TestConfig.n0_fraction, show_default=True,
              help="Fraction of the series length used as the lag window.")
@click.option("--c-low", type=float, default=TestConfig.c_low, show_default=True)
@click.option("--c-high", type=float, default=TestConfig.c_high, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Result JSON path [default: INPUT stem + .result.json].")
@click.option("--scatter", type=click.Path(dir_okay=False), default=None,
              help="Per-frequency growth-rate CSV [default: INPUT stem + .kc.csv].")
@click.option("--trajectory", type=click.Path(dir_okay=False), default=None,
              help="Also write the p,q trajectory CSV at --trajectory-c.")
@click.option("--trajectory-c", type=float, default=2.5, show_default=True,
              help="Frequency for the exported trajectory.")
def analyze(input, fmt, out, scatter, trajectory, trajectory_c, **options):
    """Run the test on one series and write result artifacts."""
    config = _read(TestConfig, options, "options")
    if trajectory is not None:
        _check_angle("--trajectory-c", trajectory_c)
    base = Path(input).with_suffix("")
    out, scatter = out or f"{base}.result.json", scatter or f"{base}.kc.csv"
    _check_targets([input], [path for path in (out, scatter, trajectory) if path is not None])
    series = load_series(SeriesFile(path=input, format=fmt))
    result = run_test(series, config)
    export_result(result, out)
    export_scatter(result, scatter)
    if trajectory is not None:
        export_trajectory(translation_variables(series, trajectory_c), trajectory)
    if result.short_series:
        click.echo(f"note: only {len(series)} samples, treat the statistic as advisory", err=True)
    click.echo(f"K_m={result.k_m!r} label={result.label.value}")


@main.command("psd")
@click.argument("input", type=click.Path(dir_okay=False))
@click.option("--format", "fmt", type=_FORMAT_CHOICE, default=SeriesFile.format.value,
              show_default=True, help="Input file format.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Spectrum CSV path [default: INPUT stem + .psd.csv].")
def psd_command(input, fmt, out):
    """Write the normalized power spectrum of a series."""
    target = out or f"{Path(input).with_suffix('')}.psd.csv"
    _check_targets([input], [target])
    series = load_series(SeriesFile(path=input, format=fmt))
    estimate = compute_psd(series)
    export_psd(estimate, target)
    click.echo(f"wrote {target}: {estimate.frequencies.size} bins")


def _batch_one(path: Path, fmt: SeriesFormat, plan: WindowPlan | None,
               config: TestConfig) -> list[list[str]]:
    """Rows for one input file; failures become rows, never exceptions."""
    rows: list[list[str]] = []
    try:
        # named by its path, on a view of the samples; segment names each window path@start
        series = load_series(SeriesFile(path=path, format=fmt))
        series = dataclasses.replace(series, label=str(path))
        for part in [series] if plan is None else segment(series, plan):
            try:
                result = run_test(part, config)
                degenerate = sum(r.degenerate for r in result.per_c)
                rows.append([part.label, str(len(part)), repr(result.k_m),
                             result.label.value, str(degenerate), ""])
            except Chaos01Error as exc:
                rows.append([part.label, str(len(part)), "", "", "", str(exc)])
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
    fmt = _check_name(SeriesFormat, doc.get("format", SeriesFile.format), "format")
    config = _read(TestConfig, doc.get("config", {}), "config")
    plan = _read(WindowPlan, doc["window"], "window") if "window" in doc else None
    if window is not None:
        plan = WindowPlan(window_len=window, stride=window if stride is None else stride)
    elif stride is not None:
        raise InvalidParameterError("--stride needs --window")

    target = out or (base / doc["out"] if "out" in doc
                     else f"{manifest_path.with_suffix('')}.summary.csv")
    _check_targets([manifest_path, *(base / name for name in names)], [target])
    with _replacing(target) as handle:  # an unwritable target fails before any work
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
