"""chaos01 benchmark: one closed-loop client driving the CLI, one request at a time.

    python3 perfbench/run.py --workload long_record --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.  The
run sets up its inputs several times (``setup_s`` is the median), then sends
whole rounds of CLI requests until ``--seconds`` have passed, then checks the
outputs.  With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` the same loop runs untraced,
then again with every request replayed in-process under spans, and the JSON
object holds the per-layer metrics.  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
#: Hard limit on a whole run; a request still running then is killed.
RUN_LIMIT_S = 170.0


@dataclass
class Outcome:
    wall: float
    cpu: float
    rss_mib: float
    code: int


class Cli:
    """Runs ``python -m chaos01.cli`` against the checkout's ``src/``."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.logs = workdir / "logs"
        self.logs.mkdir()

    def run(self, args: list[str], tag: str) -> Outcome:
        log = self.logs / f"{tag}.log"
        start = time.perf_counter()
        with open(log, "wb") as handle:
            proc = subprocess.Popen([sys.executable, "-m", "chaos01.cli", *args],
                                    cwd=self.workdir, env=self.env,
                                    stdout=handle, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            sys.stderr.write(f"request {tag} {' '.join(args)} exited {proc.returncode}:\n"
                             f"{log.read_text()[-2000:]}\n")
        # ru_maxrss is in KiB on Linux
        return Outcome(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                       proc.returncode)


def timed_setup(workload, cli: Cli, tracer) -> list[float]:
    """Generate and write the inputs, then warm up with one fresh CLI start."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup(tracer)
        cli.run(["--help"], tag="warmup")
        times.append(time.perf_counter() - start)
    return times


def closed_loop(workload, cli: Cli, seconds: float, rounds: int | None = None,
                on_request=None) -> tuple[list, float, int]:
    """Send whole rounds of requests, one at a time, for ``seconds`` or ``rounds``."""
    outcomes = []
    done = 0
    start = time.perf_counter()
    while True:
        for request in workload.round():
            outcome = cli.run(request.args, tag=request.tag)
            outcomes.append((request, outcome))
            if on_request is not None:
                on_request(request, outcome)
        done += 1
        if done == rounds or (rounds is None and time.perf_counter() - start >= seconds):
            return outcomes, time.perf_counter() - start, done


def end_to_end(setup_times, outcomes) -> dict[str, float]:
    """End-to-end figures from the untraced loop.

    Timings are medians per request of the round, so one request slowed by
    the machine does not move them; a round holds each request once.
    """
    by_tag: dict[str, list] = {}
    for request, outcome in outcomes:
        if outcome.code == 0:
            by_tag.setdefault(request.tag, []).append((request, outcome))
    walls = [statistics.median(o.wall for _, o in runs) for runs in by_tag.values()]
    return {
        "setup_s": statistics.median(setup_times),
        "samples_per_s": sum(runs[0][0].samples for runs in by_tag.values()) / sum(walls),
        "request_p50_s": statistics.fmean(walls),
        "cpu_s": statistics.fmean(statistics.median(o.cpu for _, o in runs)
                                 for runs in by_tag.values()),
        "peak_rss_mib": max(o.rss_mib for runs in by_tag.values() for _, o in runs),
    }


def per_layer(tracer, setup_count: int, import_times, overhead_s: float) -> dict[str, float]:
    """Per-layer figures of one traced round, from its spans."""
    length = lambda span: span["end"] - span["start"]  # noqa: E731
    split = {stage: tracer.seconds(f"split.{stage}")
             for stage in ("translation", "msd", "growth", "aggregate")}
    run_test_s = tracer.seconds("run_test")
    overheads = []
    batch_run_test = batch_capacity = 0.0
    for request in tracer.named("request"):
        layers = [s for s in tracer.children(request["id"]) if s["name"] != "split"]
        overheads.append(request["cli_wall"] - sum(map(length, layers)))
        if request["jobs"] > 1:
            batch_run_test += sum(length(s) for s in tracer.named("run_test")
                                  if s["request"] == request["request"])
            batch_capacity += request["jobs"] * request["cli_wall"]
    exports = [s for s in tracer.spans if s["name"].startswith("export_")]
    return {
        "core.run_test_s": run_test_s,
        "core.run_test_calls": len(tracer.named("run_test")),
        "core.translation_s": split["translation"] + tracer.seconds("translation_variables"),
        "core.msd_s": split["msd"],
        "core.msd_lag_terms": tracer.field("split.msd", "lag_terms"),
        "core.growth_s": split["growth"],
        "core.aggregate_s": split["aggregate"],
        "core.driver_s": run_test_s - sum(split.values()),
        "core.usable_angles": tracer.field("run_test", "usable"),
        "core.degenerate_angles": tracer.field("run_test", "degenerate"),
        "seriesio.load_s": tracer.seconds("load_series"),
        "seriesio.load_bytes": tracer.field("load_series", "bytes"),
        "seriesio.export_s": sum(map(length, exports)),
        "seriesio.export_bytes": sum(s["bytes"] for s in exports),
        "seriesio.segment_s": tracer.seconds("segment"),
        "spectral.psd_s": tracer.seconds("psd"),
        "signals.generate_s": tracer.seconds("make_series") / setup_count,
        "seriesio.write_s": tracer.seconds("write_series") / setup_count,
        "cli.import_s": statistics.median(import_times),
        "cli.request_overhead_s": statistics.median(overheads),
        "cli.batch_efficiency": batch_run_test / batch_capacity if batch_capacity else 0.0,
        "trace.overhead_s": overhead_s,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (SRC / "chaos01" / "__init__.py").is_file():
        print(f"error: no chaos01 sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    sys.path.insert(0, str(SRC))
    from tracing import NullTracer, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    workdir = HERE / "work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cli = Cli(workdir, deadline=started + RUN_LIMIT_S)
    workload = WORKLOADS[args.workload](args.seed, workdir, cli)
    tracer = Tracer() if args.trace else NullTracer()

    setup_times = timed_setup(workload, cli, tracer)
    outcomes, wall, rounds = closed_loop(workload, cli, args.seconds)
    problems = []
    if args.trace:
        replay_dir = workdir / "replay"
        replay_dir.mkdir()

        def replay(request, outcome):
            tracer.request = len(tracer.named("request"))
            with tracer.span("request", tag=request.tag, jobs=request.jobs,
                             cli_wall=outcome.wall):
                problems.extend(workload.replay(request, tracer, replay_dir))
            tracer.request = None

        traced, traced_wall, _ = closed_loop(workload, cli, args.seconds, rounds=1,
                                             on_request=replay)
        import_times = [cli.run(["--help"], tag="import").wall for _ in range(IMPORT_REPEATS)]
        tracer.write(workdir / "spans.jsonl")
        outcomes += traced
    failed = sum(o.code != 0 for _, o in outcomes)
    if failed == len(outcomes):
        print("error: every request failed; see the logs under perfbench/work", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(tracer, SETUP_REPEATS, import_times, traced_wall - wall / rounds)
    else:
        metrics = end_to_end(setup_times, outcomes)
    problems += workload.check()
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
