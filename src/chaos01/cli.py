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
import errno
import json
import os
import shutil
import typing
from pathlib import Path

import click

# When numpy loads, its OpenBLAS starts one thread per extra CPU, which
# spins for about 0.1 s of CPU; nothing here calls BLAS.  A value the user
# set is kept; an empty one counts as unset, as OpenBLAS reads it.  This
# must run before the imports below load numpy, which is why the package
# imports its submodules only on first use.  Every request pays for what
# this module imports, so ``signals`` (``generate``) and ``spectral``
# (``psd``) load only in the command that runs them.
if not os.environ.get("OPENBLAS_NUM_THREADS"):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from . import __version__
from .core import (
    Aggregator,
    Method,
    TestConfig,
    _check_angle,
    _check_name,
    _on_threads,
    _run_test,
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

EXIT_USAGE = 2
EXIT_IO = 3
EXIT_DATA = 4

_FORMAT_CHOICE = click.Choice([f.value for f in SeriesFormat])
_TRIMMED = "trimmed"  # the one name the CLI adds: an alias of Aggregator.TRIMMED_MEAN


class _Main(click.Group):
    """Ends any command, or chaos01 itself, that raises a package or usage
    error with one ``error:`` line, and builds ``generate`` when it is first
    looked up."""

    def list_commands(self, ctx):
        return sorted({*self.commands, "generate"})

    def get_command(self, ctx, name):
        if name == "generate" and name not in self.commands:
            self.add_command(_generate())
        return super().get_command(ctx, name)

    def parse_args(self, ctx, args):
        try:
            return super().parse_args(ctx, args)
        except click.UsageError as exc:  # a bad flag given to chaos01 itself
            if isinstance(exc, getattr(click.exceptions, "NoArgsIsHelpError", ())):
                raise  # a bare chaos01 prints its help: click >= 8.2 raises it, 8.0 exits
            _fail(ctx, exc.format_message(), EXIT_USAGE)

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:  # a bad flag, value or argument of a command
            error, code = exc.format_message(), EXIT_USAGE
        except (InvalidParameterError, DivergenceError, MemoryError) as exc:
            error, code = exc, EXIT_USAGE
        except Chaos01Error as exc:  # the file's content cannot be analyzed
            error, code = exc, EXIT_DATA
        except OSError as exc:
            error, code = exc, EXIT_IO
        _fail(ctx, error, code)


def _fail(ctx, error, code: int):
    """End the run with the one line ``error: ...`` on stderr and exit ``code``."""
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
    fields = dataclasses.fields(cls)
    required = [f.name for f in fields if f.default is f.default_factory is dataclasses.MISSING]
    _check_keys(mapping, [f.name for f in fields], required, what)
    hints = typing.get_type_hints(cls)
    return cls(**{key: _read(hints[key], item, f"{what}.{key}") for key, item in mapping.items()})


def _check_keys(mapping, names, required, what: str) -> None:
    """Raise InvalidParameterError unless ``mapping`` is a JSON object whose
    keys are all in ``names`` and include every key in ``required``."""
    if not isinstance(mapping, dict):
        raise InvalidParameterError(f"{what} must be a JSON object, got {mapping!r}")
    unknown = sorted(mapping.keys() - set(names))
    missing = [name for name in required if name not in mapping]
    for problem, keys in (("unknown", unknown), ("missing", missing)):
        if keys:
            raise InvalidParameterError(f"{what}: {problem} keys {keys}")


def _check_targets(inputs, targets) -> None:
    """Raise unless each output path names a file apart from every input and
    every other output, so that no command overwrites what it reads or writes,
    and in a directory that exists, so that no command does its work, or
    writes part of its output, only to fail at a later file.  A missing
    directory raises the error ``open`` would, naming the path as given."""
    taken = {Path(path).resolve() for path in inputs}
    for target in targets:
        path = Path(target).resolve()
        if path in taken:
            raise InvalidParameterError(
                f"output path {str(target)!r} is also an input or another output")
        if not path.parent.is_dir():
            nearest = next(parent for parent in path.parents if parent.exists())
            code = errno.ENOENT if nearest.is_dir() else errno.ENOTDIR
            raise OSError(code, os.strerror(code), os.fspath(target))
        taken.add(path)


@contextlib.contextmanager
def _replacing(path):
    """A text handle on a new file beside the file ``path`` names, through any
    symlinks, which replaces that file when the block ends and is removed if
    the block raises, so an interrupted run leaves the old file whole.  The new
    file gets the mode ``open(path, "w")`` would give, and a directory at
    ``path`` or an unwritable directory fails at once, with an error that names
    ``path`` as given.  An existing target that is not a regular file, such as
    a FIFO or a device, is written directly."""
    given, path = os.fspath(path), os.path.realpath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", newline="") as handle:
            yield handle
        return
    directory, name = os.path.split(path)
    partial = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.partial")
    try:
        handle = open(partial, "x", newline="")
    except OSError as exc:  # not the partial file's random name
        raise OSError(exc.errno, exc.strerror, given) from None
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


def _generate() -> click.Command:
    """The ``generate`` command, whose choices and defaults come from ``signals``."""
    from . import signals

    @click.command()
    @click.option("--kind", required=True,
                  type=click.Choice([k.value for k in signals.GeneratorKind]),
                  help="Which reference signal to produce.")
    @click.option("--f", "freq", type=float, default=signals.GeneratorSpec.freq,
                  show_default=True, help="Tone frequency in Hz (sine and sawtooth).")
    @click.option("--fs", "sample_rate", type=float, default=None,
                  help=f"Sample rate in Hz [default: {signals._DEFAULT_RATE:g} "
                       "for time-based kinds].")
    @click.option("--n", "num_samples", type=int, default=signals.GeneratorSpec.num_samples,
                  show_default=True, help="Number of samples.")
    @click.option("--seed", type=int, default=signals.GeneratorSpec.seed, show_default=True,
                  help="Seed for uniform_random.")
    @click.option("--out", required=True, type=click.Path(dir_okay=False),
                  help="Output path (single_column format).")
    def generate(out, **fields):
        """Write one reference signal to a file."""
        spec = signals.GeneratorSpec(**fields)
        _check_targets([], [out])
        series = signals.make_series(spec)
        write_series(series, out)
        click.echo(f"wrote {out}: kind={spec.kind.value} N={len(series)} "
                   f"{signals._describe(spec)}")

    return generate


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
    # before any file is written, so that a path that overflows writes none
    path = None if trajectory is None else translation_variables(series, trajectory_c)
    export_result(result, out)
    export_scatter(result, scatter)
    if path is not None:
        export_trajectory(path, trajectory)
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
    from .spectral import psd

    target = out or f"{Path(input).with_suffix('')}.psd.csv"
    _check_targets([input], [target])
    series = load_series(SeriesFile(path=input, format=fmt))
    estimate = psd(series)
    export_psd(estimate, target)
    click.echo(f"wrote {target}: {estimate.frequencies.size} bins")


def _batch_one(path: Path, fmt: SeriesFormat, plan: WindowPlan | None,
               config: TestConfig, cpus: int) -> list[list[str]]:
    """Rows for one input file, each window's test on at most ``cpus``
    threads; failures become rows, never exceptions."""
    rows: list[list[str]] = []
    try:
        # named by its path, on a view of the samples; segment names each window path@start
        series = load_series(SeriesFile(path=path, format=fmt))
        series = dataclasses.replace(series, label=str(path))
        for part in [series] if plan is None else segment(series, plan):
            try:
                result = _run_test(part, config, cpus)
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
@click.option("--jobs", type=click.IntRange(min=1), default=4, show_default=True,
              help="Files analyzed at once, at most one per usable CPU.  Each file's "
                   "test runs on its share of the CPUs, at most two threads.")
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
    manifest_path = Path(manifest)
    try:
        doc = json.loads(manifest_path.read_bytes())
    except ValueError as exc:  # not JSON, or bytes that are not text
        raise InvalidParameterError(f"manifest is not valid JSON: {exc}") from None
    _check_keys(doc, ("inputs", "format", "config", "window", "out"), ["inputs"], "manifest")
    names = doc["inputs"]
    if not names or not isinstance(names, list) or not all(
            isinstance(p, str) and "\0" not in p for p in [*names, doc.get("out", "")]):
        raise InvalidParameterError('manifest "inputs" must list one or more paths, and "out" a path')

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
        # file threads times each run_test's threads stay within the CPUs:
        # more only contend
        available = usable_cpus()
        threads = min(jobs, len(names), available)
        cpus = available // threads
        per_file = _on_threads(lambda name: _batch_one(base / name, fmt, plan, config, cpus),
                               names, threads)
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
