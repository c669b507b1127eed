"""The three workloads: their inputs, requests, in-process replays and checks.

Each workload makes its inputs from the seed with chaos01's reference
generators, names the CLI requests of one round, replays a request in-process
with spans around the public calls it makes, and checks the CLI's outputs
against the independent computations in :mod:`oracle`.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from chaos01 import (
    GeneratorKind,
    GeneratorSpec,
    SeriesFile,
    SeriesFormat,
    TestConfig,
    WindowPlan,
    aggregate_k,
    export_psd,
    export_result,
    export_scatter,
    export_trajectory,
    growth_rate_correlation,
    lag_window,
    load_series,
    make_series,
    msd,
    psd,
    run_test,
    segment,
    translation_variables,
    write_series,
)

import oracle

FS = 5000.0
TRAJECTORY_C = 2.5  # the CLI's default --trajectory-c
K_TOLERANCE = 1e-9


@dataclass
class Request:
    """One CLI invocation of a round and the input samples it analyses."""

    tag: str
    args: list[str]
    samples: int
    jobs: int = 1


def _analysis_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


def _henon_spec(rng: np.random.Generator, n: int) -> GeneratorSpec:
    x0, y0 = rng.uniform(-0.1, 0.1, 2)
    return GeneratorSpec(kind=GeneratorKind.HENON, num_samples=n, sample_rate=FS,
                         x0=float(x0), y0=float(y0), total=n + 10_000)


def _generate(tracer, spec: GeneratorSpec):
    with tracer.span("make_series", samples=spec.num_samples):
        return make_series(spec)


def _write(tracer, series, path: Path, fmt: SeriesFormat) -> None:
    with tracer.span("write_series", samples=len(series)):
        write_series(series, path, fmt)


def _load(tracer, path: Path, fmt: SeriesFormat):
    with tracer.span("load_series", bytes=path.stat().st_size):
        return load_series(SeriesFile(path=path, format=fmt))


def _export(tracer, name: str, fn, obj, path: Path) -> None:
    with tracer.span(name) as record:
        fn(obj, path)
    record["bytes"] = path.stat().st_size


def _run_test_split(tracer, series, config: TestConfig):
    """``run_test`` once, then its stages replayed at the angles it reports."""
    with tracer.span("run_test") as record:
        result = run_test(series, config)
    record["usable"] = sum(not r.degenerate for r in result.per_c)
    record["degenerate"] = len(result.per_c) - record["usable"]
    n0 = lag_window(len(series), config.n0_fraction)
    rates = []
    with tracer.span("split"):
        for reported in result.per_c:
            with tracer.span("split.translation"):
                traj = translation_variables(series, reported.c)
            with tracer.span("split.msd", lag_terms=n0 * len(series)):
                curve = msd(traj, n0)
            with tracer.span("split.growth"):
                rates.append(growth_rate_correlation(curve))
        with tracer.span("split.aggregate"):
            k_m = aggregate_k(rates, config.aggregator, config.trim_fraction)
    problems = []
    worst = max(abs(a.k - b.k) for a, b in zip(rates, result.per_c))
    if worst > K_TOLERANCE or abs(k_m - result.k_m) > K_TOLERANCE:
        problems.append(f"{series.label}: replayed stages differ from run_test by {worst:.3g}")
    return problems, result


def _check_k_c(name: str, samples: np.ndarray, per_c: list[dict], picks) -> list[str]:
    problems = []
    for i in picks:
        entry = per_c[i]
        expected = oracle.k_c(samples, entry["c"])
        if abs(expected - entry["k"]) > K_TOLERANCE:
            problems.append(f"{name}: K_c at c={entry['c']!r} is {entry['k']!r}, "
                            f"independent value {expected!r}")
    return problems


def _check_summary(name: str, k_m: float, label: str, expected_k_m: float) -> list[str]:
    problems = []
    if abs(k_m - expected_k_m) > K_TOLERANCE:
        problems.append(f"{name}: K_m {k_m!r}, independent trimmed mean {expected_k_m!r}")
    if label != oracle.band_label(k_m):
        problems.append(f"{name}: label {label} does not match K_m {k_m!r}")
    return problems


def _check_regime(name: str, kind: str, k_m: float) -> list[str]:
    # Henon must come out diffusive and the quasi-periodic reference (the
    # paper's model of a healthy PPG) in its own band; the other kinds only
    # need a label that matches their K_m.
    if kind == "henon" and not k_m >= 0.9:
        return [f"{name}: Henon K_m {k_m!r} is below 0.9"]
    if kind == "quasi_periodic" and oracle.band_label(k_m) != "quasi_periodic":
        return [f"{name}: quasi-periodic K_m {k_m!r} is outside its band"]
    return []


class LongRecord:
    """``analyze`` on two 100k-sample time,value recordings, with a trajectory."""

    N = 100_000
    CHECKED_ANGLES = 10

    def __init__(self, seed: int, workdir: Path, cli):
        rng = np.random.Generator(np.random.PCG64(seed))
        self.workdir = workdir
        self.seed = _analysis_seed(rng)
        self.specs = {
            "quasi_periodic": GeneratorSpec(kind=GeneratorKind.QUASI_PERIODIC,
                                            num_samples=self.N, sample_rate=FS),
            "henon": _henon_spec(rng, self.N),
        }
        self.picks = sorted(rng.choice(100, self.CHECKED_ANGLES, replace=False))
        self.samples: dict[str, np.ndarray] = {}

    def setup(self, tracer) -> None:
        for kind, spec in self.specs.items():
            series = _generate(tracer, spec)
            _write(tracer, series, self.workdir / f"{kind}.csv", SeriesFormat.TIME_VALUE_CSV)
            self.samples[kind] = series.samples

    def round(self) -> list[Request]:
        return [
            Request(tag=kind, samples=self.N, args=[
                "analyze", f"{kind}.csv", "--format", "time_value_csv",
                "--seed", str(self.seed), "--trajectory", f"{kind}.traj.csv",
            ])
            for kind in self.specs
        ]

    def replay(self, request: Request, tracer, outdir: Path) -> list[str]:
        kind = request.tag
        series = _load(tracer, self.workdir / f"{kind}.csv", SeriesFormat.TIME_VALUE_CSV)
        problems, result = _run_test_split(tracer, series, TestConfig(seed=self.seed))
        _export(tracer, "export_result", export_result, result, outdir / f"{kind}.result.json")
        _export(tracer, "export_scatter", export_scatter, result, outdir / f"{kind}.kc.csv")
        with tracer.span("translation_variables"):
            traj = translation_variables(series, TRAJECTORY_C)
        _export(tracer, "export_trajectory", export_trajectory, traj, outdir / f"{kind}.traj.csv")
        return problems

    def check(self) -> list[str]:
        problems = []
        angles = oracle.draw_angles(self.seed)
        for kind, samples in self.samples.items():
            doc = json.loads((self.workdir / f"{kind}.result.json").read_text())
            per_c = doc["per_c"]
            if not np.array_equal([e["c"] for e in per_c], angles):
                problems.append(f"{kind}: reported angles are not the PCG64 draw of seed {self.seed}")
                continue
            if any(abs(e["k"]) > 1.0 for e in per_c):
                problems.append(f"{kind}: some |K_c| exceeds 1")
            problems += _check_k_c(kind, samples, per_c, self.picks)
            usable = [e["k"] for e in per_c if not e["degenerate"]]
            problems += _check_summary(kind, doc["k_m"], doc["label"], oracle.trimmed_mean(usable))
            problems += _check_regime(kind, kind, doc["k_m"])
            problems += self._check_scatter(kind, per_c)
            problems += self._check_trajectory(kind, samples)
        return problems

    def _check_scatter(self, kind: str, per_c: list[dict]) -> list[str]:
        rows = (self.workdir / f"{kind}.kc.csv").read_text().splitlines()
        expected = ["index,c,abs_k"] + [f"{i},{e['c']!r},{abs(e['k'])!r}" for i, e in enumerate(per_c)]
        return [] if rows == expected else [f"{kind}: K_c scatter does not match the result"]

    def _check_trajectory(self, kind: str, samples: np.ndarray) -> list[str]:
        lines = (self.workdir / f"{kind}.traj.csv").read_text().splitlines()
        if lines[0] != "p,q" or len(lines) != samples.size + 1:
            return [f"{kind}: trajectory has {len(lines) - 1} rows, expected {samples.size}"]
        p, q = (float(v) for v in lines[-1].split(","))
        phase = np.arange(1, samples.size + 1) * TRAJECTORY_C
        scale = math.fsum(np.abs(samples))
        end_p = math.fsum(samples * np.cos(phase))
        end_q = math.fsum(samples * np.sin(phase))
        if abs(p - end_p) > K_TOLERANCE * scale or abs(q - end_q) > K_TOLERANCE * scale:
            return [f"{kind}: trajectory ends at ({p!r}, {q!r}), expected ({end_p!r}, {end_q!r})"]
        return []


class WindowScreen:
    """``batch --jobs 2`` over four kinds cut into windows on both MSD paths."""

    N = 3000
    JOBS = 2
    KINDS = ("quasi_periodic", "henon", "uniform_random", "sine")
    # 800 samples sit below the per-lag/FFT MSD crossover (N ~ 845), 2000 above.
    # The window counts (2 and 5 per file) give the two batches about the same
    # wall time, so each MSD path weighs about equally in a round.
    PLANS = {"short": WindowPlan(window_len=800, stride=2200),
             "long": WindowPlan(window_len=2000, stride=250)}

    def __init__(self, seed: int, workdir: Path, cli):
        rng = np.random.Generator(np.random.PCG64(seed))
        self.workdir = workdir
        self.cli = cli
        self.seed = _analysis_seed(rng)
        tone = float(rng.uniform(50.0, 400.0))
        self.specs = {
            "quasi_periodic": GeneratorSpec(kind=GeneratorKind.QUASI_PERIODIC,
                                            num_samples=self.N, sample_rate=FS),
            "henon": _henon_spec(rng, self.N),
            "uniform_random": GeneratorSpec(kind=GeneratorKind.UNIFORM_RANDOM,
                                            num_samples=self.N, seed=self.seed),
            "sine": GeneratorSpec(kind=GeneratorKind.SINE, num_samples=self.N,
                                  sample_rate=FS, freq=tone),
        }
        self.samples: dict[str, np.ndarray] = {}

    def _inputs(self) -> list[str]:
        return [f"{kind}.txt" for kind in self.KINDS]

    def _windows(self, plan: WindowPlan) -> int:
        return (self.N - plan.window_len) // plan.stride + 1

    def setup(self, tracer) -> None:
        for kind in self.KINDS:
            series = _generate(tracer, self.specs[kind])
            _write(tracer, series, self.workdir / f"{kind}.txt", SeriesFormat.SINGLE_COLUMN)
            self.samples[kind] = series.samples
        for name, plan in self.PLANS.items():
            manifest = {
                "inputs": self._inputs(),
                "format": "single_column",
                "config": {"seed": self.seed},
                "window": {"window_len": plan.window_len, "stride": plan.stride},
                "out": f"{name}.summary.csv",
            }
            (self.workdir / f"{name}.json").write_text(json.dumps(manifest, indent=2) + "\n")

    def round(self) -> list[Request]:
        return [
            Request(tag=name, jobs=self.JOBS,
                    samples=len(self.KINDS) * self._windows(plan) * plan.window_len,
                    args=["batch", f"{name}.json", "--jobs", str(self.JOBS)])
            for name, plan in self.PLANS.items()
        ]

    def replay(self, request: Request, tracer, outdir: Path) -> list[str]:
        plan = self.PLANS[request.tag]
        config = TestConfig(seed=self.seed)
        problems = []
        for path in self._inputs():
            series = _load(tracer, self.workdir / path, SeriesFormat.SINGLE_COLUMN)
            with tracer.span("segment"):
                windows = segment(series, plan)
            for window in windows:
                problems += _run_test_split(tracer, window, config)[0]
        return problems

    def check(self) -> list[str]:
        problems = []
        angles = oracle.draw_angles(self.seed)
        for name, plan in self.PLANS.items():
            summary = self.workdir / f"{name}.summary.csv"
            reference = self.workdir / f"{name}.jobs1.csv"
            outcome = self.cli.run(["batch", f"{name}.json", "--jobs", "1", "--out", reference.name],
                                   tag=f"{name}.jobs1")
            if outcome.code != 0:
                problems.append(f"{name}: --jobs 1 reference run exited {outcome.code}")
            elif summary.read_bytes() != reference.read_bytes():
                problems.append(f"{name}: summary differs from the --jobs 1 run")
            with open(summary, newline="") as handle:
                rows = list(csv.reader(handle))
            if rows[0] != ["file", "n", "k_m", "label", "degenerate_count", "error"]:
                problems.append(f"{name}: unexpected summary header {rows[0]}")
            expected_names = [f"{path}@{i * plan.stride + 1}"
                              for path in self._inputs() for i in range(self._windows(plan))]
            body = rows[1:]
            if [row[0] for row in body] != expected_names:
                problems.append(f"{name}: rows are not the expected windows in manifest order")
                continue
            for row in body:
                problems += self._check_row(row, plan, angles)
        return problems

    def _check_row(self, row: list[str], plan: WindowPlan, angles: np.ndarray) -> list[str]:
        name, n, k_m, label, degenerate, error = row
        if error or n != str(plan.window_len):
            return [f"{name}: n={n} error={error!r}"]
        path, start = name.rsplit("@", 1)
        kind = path.removesuffix(".txt")
        begin = int(start) - 1
        window = self.samples[kind][begin:begin + plan.window_len]
        rates = [oracle.k_c(window, c) for c in angles]
        problems = [] if degenerate == "0" else [f"{name}: {degenerate} degenerate angles"]
        problems += _check_summary(name, float(k_m), label, oracle.trimmed_mean(rates))
        return problems + _check_regime(name, kind, float(k_m))


class Ingest:
    """``psd`` on 10^6-sample recordings, one per file format; core is not called."""

    N = 1_000_000
    # The two tones of gen_quasiperiodic and the bins nearest to them.
    QUASI_BINS = (round(100.0 * N / FS), round(100.0 * math.sqrt(2.0) * N / FS))

    def __init__(self, seed: int, workdir: Path, cli):
        rng = np.random.Generator(np.random.PCG64(seed))
        self.workdir = workdir
        # An on-bin tone, so its spectral peak falls on exactly one bin.
        self.sine_bin = int(rng.integers(10_000, 200_000))
        self.files = {
            "quasi_periodic": ("quasi_periodic.txt", SeriesFormat.SINGLE_COLUMN,
                               GeneratorSpec(kind=GeneratorKind.QUASI_PERIODIC,
                                             num_samples=self.N, sample_rate=FS)),
            "sine": ("sine.csv", SeriesFormat.TIME_VALUE_CSV,
                     GeneratorSpec(kind=GeneratorKind.SINE, num_samples=self.N, sample_rate=FS,
                                   freq=self.sine_bin * FS / self.N)),
        }
        self.samples: dict[str, np.ndarray] = {}

    def setup(self, tracer) -> None:
        for kind, (path, fmt, spec) in self.files.items():
            series = _generate(tracer, spec)
            _write(tracer, series, self.workdir / path, fmt)
            self.samples[kind] = series.samples

    def round(self) -> list[Request]:
        return [Request(tag=kind, samples=self.N, args=["psd", path, "--format", fmt.value])
                for kind, (path, fmt, _) in self.files.items()]

    def replay(self, request: Request, tracer, outdir: Path) -> list[str]:
        path, fmt, _ = self.files[request.tag]
        series = _load(tracer, self.workdir / path, fmt)
        with tracer.span("psd"):
            estimate = psd(series)
        _export(tracer, "export_psd", export_psd, estimate, outdir / f"{request.tag}.psd.csv")
        return []

    def _strongest_bin(self, kind: str) -> int:
        if kind == "sine":
            return self.sine_bin
        samples = self.samples[kind]
        return max(self.QUASI_BINS, key=lambda k: oracle.dft_power(samples, k))

    def check(self) -> list[str]:
        problems = []
        for kind, (path, fmt, _) in self.files.items():
            loaded = load_series(SeriesFile(path=self.workdir / path, format=fmt)).samples
            if not np.array_equal(loaded.view(np.uint64), self.samples[kind].view(np.uint64)):
                problems.append(f"{kind}: samples read back differ from those written")
            table = np.loadtxt(self.workdir / f"{Path(path).stem}.psd.csv", delimiter=",",
                               skiprows=1)
            if table.shape != (self.N // 2 + 1, 2):
                problems.append(f"{kind}: PSD has {table.shape[0]} bins, expected {self.N // 2 + 1}")
                continue
            power = table[:, 1]
            peak = int(np.argmax(power))
            strongest = self._strongest_bin(kind)
            if power[peak] != 1.0 or peak != strongest:
                problems.append(f"{kind}: PSD peak {power[peak]!r} at bin {peak}, "
                                f"expected 1.0 at bin {strongest}")
            if table[0, 0] != 0.0 or table[-1, 0] != FS / 2:
                problems.append(f"{kind}: PSD frequencies do not run from 0 to {FS / 2}")
        return problems


WORKLOADS = {"long_record": LongRecord, "window_screen": WindowScreen, "ingest": Ingest}
