"""End-to-end tests for the command-line interface."""

import csv
import dataclasses
import json
import math
import os
import stat
import threading
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chaos01 as c
from chaos01 import cli, core
from chaos01.cli import _read, main

from conftest import source_tree_python


@pytest.fixture
def runner():
    return CliRunner()


def _generate(runner, tmp_path, kind, n=None, extra=()):
    out = tmp_path / f"{kind}.csv"
    args = ["generate", "--kind", kind, "--out", str(out)]
    if n is not None:
        args += ["--n", str(n)]
    args += list(extra)
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return out


# ---------------------------------------------------------------------------
# generate


def test_generate_henon_default(runner, tmp_path):
    out = tmp_path / "h.csv"
    result = runner.invoke(main, ["generate", "--kind", "henon", "--out", str(out)])
    assert result.exit_code == 0
    assert len(out.read_text().splitlines()) == 5000
    assert "N=5000" in result.output
    assert "a=1.4" in result.output and "b=0.3" in result.output


def test_generate_sawtooth_file_repeats_every_fifty_lines(runner, tmp_path):
    out = _generate(runner, tmp_path, "sawtooth", extra=["--f", "100", "--fs", "5000"])
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# sample_rate=")
    data = lines[1:]
    assert len(data) == 5000
    assert data[:-50] == data[50:]


def test_generate_sine_aliasing_exits_2(runner, tmp_path):
    result = runner.invoke(main, [
        "generate", "--kind", "sine", "--f", "3000", "--fs", "5000",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert result.exit_code == 2
    assert "error" in result.output


def test_generate_io_failure_exits_3(runner, tmp_path):
    result = runner.invoke(main, [
        "generate", "--kind", "sine", "--out", str(tmp_path / "no" / "dir" / "x.csv"),
    ])
    assert result.exit_code == 3


def test_generate_unknown_kind_exits_2(runner, tmp_path):
    result = runner.invoke(main, [
        "generate", "--kind", "square", "--out", str(tmp_path / "x.csv"),
    ])
    assert result.exit_code == 2


@pytest.mark.parametrize("fs", ["inf", "nan"])
def test_generate_non_finite_rate_exits_2(runner, tmp_path, fs):
    out = tmp_path / "x.txt"
    result = runner.invoke(main, ["generate", "--kind", "sine", "--fs", fs, "--out", str(out)])
    assert result.exit_code == 2
    assert result.output.startswith("error: ") and result.output.count("\n") == 1
    assert not out.exists()


def test_generate_negative_seed_exits_2(runner, tmp_path):
    out = tmp_path / "x.txt"
    result = runner.invoke(main, ["generate", "--kind", "uniform_random", "--n", "10",
                                  "--seed", "-1", "--out", str(out)])
    assert result.exit_code == 2
    assert result.output.startswith("error: ") and result.output.count("\n") == 1
    assert not out.exists()


def test_generate_seed_controls_noise(runner, tmp_path):
    a = _generate(runner, tmp_path, "uniform_random", n=50, extra=["--seed", "9"])
    text_a = a.read_text()
    b = tmp_path / "again.csv"
    runner.invoke(main, ["generate", "--kind", "uniform_random", "--n", "50",
                         "--seed", "9", "--out", str(b)])
    assert text_a == b.read_text()


#: What generate prints after "wrote PATH: " for each kind, with no flags
#: and with --n 1200 --f 50 --fs 1000 --seed 3; pinned, so that an edit of
#: the per-kind table in signals cannot change a printed line unseen.
_GENERATE_LINES = {
    "sine": ("N=5000 f=100.0 fs=5000.0", "N=1200 f=50.0 fs=1000.0"),
    "sawtooth": ("N=5000 f=100.0 fs=5000.0", "N=1200 f=50.0 fs=1000.0"),
    "quasi_periodic": ("N=5000 fs=5000.0", "N=1200 fs=1000.0"),
    "chirp": ("N=5000 f0=0.0 f1=100.0 fs=5000.0", "N=1200 f0=0.0 f1=100.0 fs=1000.0"),
    "henon": ("N=5000 a=1.4 b=0.3 x0=0.03 y0=0.03", "N=1200 a=1.4 b=0.3 x0=0.03 y0=0.03"),
    "uniform_random": ("N=5000 seed=0", "N=1200 seed=3"),
}


@pytest.mark.parametrize("kind", list(c.GeneratorKind))
def test_generate_defaults_are_the_spec_defaults(runner, tmp_path, kind):
    out = _generate(runner, tmp_path, kind.value)
    c.write_series(c.make_series(c.GeneratorSpec(kind=kind)), tmp_path / "spec.csv")
    assert out.read_bytes() == (tmp_path / "spec.csv").read_bytes()


@pytest.mark.parametrize("kind", list(_GENERATE_LINES))
def test_generate_prints_each_kinds_fields(runner, tmp_path, kind):
    out = tmp_path / "g.csv"
    for flags, fields in zip(([], ["--n", "1200", "--f", "50", "--fs", "1000", "--seed", "3"]),
                             _GENERATE_LINES[kind]):
        result = runner.invoke(main, ["generate", "--kind", kind, "--out", str(out), *flags])
        assert result.exit_code == 0, result.output
        assert result.output == f"wrote {out}: kind={kind} {fields}\n"


# ---------------------------------------------------------------------------
# analyze


def test_analyze_quasi_periodic_label(runner, tmp_path):
    src = _generate(runner, tmp_path, "quasi_periodic")
    result = runner.invoke(main, ["analyze", str(src)])
    assert result.exit_code == 0, result.output
    assert "label=quasi_periodic" in result.output
    assert "K_m=" in result.output


def test_analyze_henon_label(runner, tmp_path):
    src = _generate(runner, tmp_path, "henon")
    result = runner.invoke(main, ["analyze", str(src)])
    assert result.exit_code == 0
    assert "label=chaotic_or_stochastic" in result.output


def test_analyze_writes_default_artifacts(runner, tmp_path):
    src = _generate(runner, tmp_path, "uniform_random", n=800)
    result = runner.invoke(main, ["analyze", str(src), "--num-c", "8"])
    assert result.exit_code == 0
    report = json.loads((tmp_path / "uniform_random.result.json").read_text())
    assert report["num_c"] == 8
    scatter = (tmp_path / "uniform_random.kc.csv").read_text().splitlines()
    assert scatter[0] == "index,c,abs_k"
    assert len(scatter) == 9


def test_analyze_is_deterministic_byte_for_byte(runner, tmp_path):
    src = _generate(runner, tmp_path, "uniform_random", n=600)
    outputs = []
    for name in ("one.json", "two.json"):
        result = runner.invoke(main, [
            "analyze", str(src), "--num-c", "1", "--seed", "7",
            "--out", str(tmp_path / name), "--scatter", str(tmp_path / f"{name}.csv"),
        ])
        assert result.exit_code == 0
        outputs.append((tmp_path / name).read_bytes())
    assert outputs[0] == outputs[1]


def test_analyze_trajectory_export(runner, tmp_path):
    src = _generate(runner, tmp_path, "sine", n=400)
    traj_path = tmp_path / "pq.csv"
    result = runner.invoke(main, [
        "analyze", str(src), "--num-c", "4", "--trajectory", str(traj_path),
    ])
    assert result.exit_code == 0
    lines = traj_path.read_text().splitlines()
    assert lines[0] == "p,q"
    assert len(lines) == 401
    series = c.load_series(src)
    expected = c.translation_variables(series, 2.5)
    got = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert np.array_equal(got[:, 0], expected.p)
    assert np.array_equal(got[:, 1], expected.q)


def test_analyze_short_series_advisory_note(runner, tmp_path):
    src = _generate(runner, tmp_path, "uniform_random", n=300)
    result = runner.invoke(main, ["analyze", str(src), "--num-c", "4"])
    assert result.exit_code == 0
    assert "advisory" in result.output


def test_analyze_missing_file_exits_3(runner, tmp_path):
    result = runner.invoke(main, ["analyze", str(tmp_path / "ghost.csv")])
    assert result.exit_code == 3


def test_analyze_malformed_file_exits_4(runner, tmp_path):
    src = tmp_path / "bad.csv"
    src.write_text("1.0\nbanana\n")
    result = runner.invoke(main, ["analyze", str(src)])
    assert result.exit_code == 4
    assert "line 2" in result.output


def test_analyze_too_short_series_exits_4(runner, tmp_path):
    src = tmp_path / "tiny.csv"
    src.write_text("1.0\n2.0\n")
    result = runner.invoke(main, ["analyze", str(src)])
    assert result.exit_code == 4


def test_analyze_zero_series_exits_4(runner, tmp_path):
    src = tmp_path / "zero.csv"
    src.write_text("\n".join(["0.0"] * 1200) + "\n")
    result = runner.invoke(main, ["analyze", str(src), "--num-c", "5"])
    assert result.exit_code == 4


@pytest.mark.parametrize("factor", [1e100, 2.0**-1000])
def test_analyze_at_extreme_magnitudes_prints_the_unscaled_k_m(tmp_path, factor):
    # before the scaling, 1e100 printed K_m=0.0 label=regular with overflow
    # warnings, and 2**-1000 exited 4 with no usable growth rate; a fresh
    # process, so that a warning would reach stderr
    noise = c.gen_uniform_random(5000, seed=3).samples
    c.write_series(c.TimeSeries(noise * factor), tmp_path / "noise.txt")
    proc = source_tree_python(["-m", "chaos01.cli", "analyze", str(tmp_path / "noise.txt")])
    assert (proc.returncode, proc.stderr) == (0, "")
    k_m, label = (field.split("=")[1] for field in proc.stdout.split()[:2])
    assert float(k_m) == pytest.approx(c.run_test(c.TimeSeries(noise)).k_m, rel=1e-12)
    assert label == c.Regime.CHAOTIC_OR_STOCHASTIC.value


def test_analyze_trajectory_past_the_largest_float_exits_4_and_writes_nothing(tmp_path):
    # it used to write inf in 49 of the 50 rows, warn and exit 0; K itself is
    # fine, as run_test scales the samples
    c.write_series(c.TimeSeries(np.full(50, 1.7e308)), tmp_path / "big.txt")
    proc = source_tree_python(["-m", "chaos01.cli", "analyze", str(tmp_path / "big.txt"),
                               "--trajectory", str(tmp_path / "big.traj.csv"),
                               "--trajectory-c", "0.001"])
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr == "error: the path at c=0.001 passes the largest float\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["big.txt"]


def test_analyze_invalid_config_exits_2(runner, tmp_path):
    src = _generate(runner, tmp_path, "uniform_random", n=300)
    result = runner.invoke(main, ["analyze", str(src), "--num-c", "0"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["analyze", str(src), "--c-low", "3", "--c-high", "2"])
    assert result.exit_code == 2
    # no float lies strictly between the two, so the draw could never finish
    result = runner.invoke(main, ["analyze", str(src), "--c-low", "1",
                                  "--c-high", "1.0000000000000002"])
    assert result.exit_code == 2, result.output
    assert result.output.startswith("error: ") and result.output.count("\n") == 1
    result = runner.invoke(main, ["analyze", str(src), "--c-low", "0", "--c-high", "1e-320",
                                  "--num-c", "4", "--out", str(tmp_path / "tiny.json")])
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("rate", ["0", "-5"])
def test_analyze_non_positive_rate_comment_exits_4(runner, tmp_path, rate):
    src = tmp_path / "r.csv"
    src.write_text(f"# sample_rate={rate}\n" + "0.5\n" * 600)
    result = runner.invoke(main, ["analyze", str(src)])
    assert result.exit_code == 4, result.output
    assert result.output == "error: line 1: sample_rate must be positive\n"


@pytest.mark.parametrize("angle", ["7", "0", "-1"])
def test_analyze_bad_trajectory_angle_exits_2_before_any_analysis(runner, tmp_path, monkeypatch,
                                                                  angle):
    calls = []
    monkeypatch.setattr("chaos01.cli.run_test", lambda *args: calls.append(args))
    src = _generate(runner, tmp_path, "henon")
    before = sorted(tmp_path.iterdir())
    result = runner.invoke(main, ["analyze", str(src), "--trajectory", str(tmp_path / "t.csv"),
                                  "--trajectory-c", angle])
    assert result.exit_code == 2, result.output
    assert result.output.startswith("error: ") and result.output.count("\n") == 1
    assert result.output == "error: --trajectory-c must lie strictly inside (0, 2*pi)\n"
    assert calls == []
    assert sorted(tmp_path.iterdir()) == before


def test_analyze_unknown_flag_exits_2(runner, tmp_path):
    result = runner.invoke(main, ["analyze", "x.csv", "--frobnicate"])
    assert result.exit_code == 2


@pytest.mark.parametrize("args", [
    pytest.param(["analyze", "x.csv", "--frobnicate"], id="unknown-flag"),
    pytest.param(["analyze", "x.csv", "--num-c", "abc"], id="bad-integer"),
    pytest.param(["analyze", "x.csv", "--method", "centroid"], id="bad-choice"),
    pytest.param(["analyze"], id="missing-input"),
    pytest.param(["analyze", "x.csv", "--out", "."], id="directory-out"),
    pytest.param(["generate", "--kind", "square", "--out", "x.csv"], id="unknown-kind"),
    pytest.param(["batch", "m.json", "--jobs", "0"], id="zero-jobs"),
    pytest.param(["bogus"], id="unknown-command"),
    pytest.param(["--bogus"], id="unknown-main-flag"),
    pytest.param(["--version=3"], id="main-flag-given-a-value"),
])
def test_usage_error_exits_2_with_one_line(runner, tmp_path, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("error: ") and result.output.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@given(name=st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\0/"),
                    min_size=1, max_size=6))
@example(name="a\nb.csv")
@example(name=" ")
@settings(max_examples=40, deadline=None)
def test_any_path_or_flag_text_fails_with_one_error_line(name):
    runner = CliRunner()
    with runner.isolated_filesystem():
        os.mkdir("d")
        _write_manifest(Path("d/m.json"), [name], out=name)
        for args, code in [(["analyze", "--out", name, "--", name], 2),
                           (["psd", "--", name], 2 if os.path.isdir(name) else 3),
                           (["batch", "d/m.json"], 2),
                           (["analyze", "x.csv", "--bogus" + name], 2),
                           (["--bogus" + name], 2)]:
            result = runner.invoke(main, args)
            assert result.exit_code == code, (args, result.output)
            assert result.output.startswith("error: ") and result.output.endswith("\n")
            assert len(result.output.splitlines()) == 1, result.output


def test_analyze_defaults_are_the_test_config_defaults(runner, tmp_path):
    src = _generate(runner, tmp_path, "henon")
    assert runner.invoke(main, ["analyze", str(src)]).exit_code == 0
    block = json.loads((tmp_path / "henon.result.json").read_text())["config"]
    assert json.dumps(block) == json.dumps(dataclasses.asdict(c.TestConfig()))


def test_analyze_aggregator_alias_trimmed_writes_the_same_bytes(runner, tmp_path):
    src = _generate(runner, tmp_path, "uniform_random", n=700)
    outputs = []
    for name in ("trimmed", "trimmed_mean"):
        paths = [tmp_path / f"{name}.json", tmp_path / f"{name}.csv"]
        result = runner.invoke(main, ["analyze", str(src), "--num-c", "6", "--aggregator", name,
                                      "--out", str(paths[0]), "--scatter", str(paths[1])])
        assert result.exit_code == 0, result.output
        outputs.append((result.output, [path.read_bytes() for path in paths]))
    assert outputs[0] == outputs[1]
    result = runner.invoke(main, ["analyze", str(src), "--aggregator", "mode"])
    assert result.exit_code == 2


def test_analyze_method_and_aggregator_flags(runner, tmp_path):
    src = _generate(runner, tmp_path, "uniform_random", n=700)
    result = runner.invoke(main, [
        "analyze", str(src), "--num-c", "6", "--method", "regression",
        "--aggregator", "median",
    ])
    assert result.exit_code == 0
    report = json.loads((tmp_path / "uniform_random.result.json").read_text())
    assert report["method"] == "regression"
    assert report["config"]["aggregator"] == "median"


# ---------------------------------------------------------------------------
# psd


def test_psd_sine_peak_row(runner, tmp_path):
    src = _generate(runner, tmp_path, "sine")
    result = runner.invoke(main, ["psd", str(src)])
    assert result.exit_code == 0
    rows = (tmp_path / "sine.psd.csv").read_text().splitlines()[1:]
    table = np.array([[float(x) for x in row.split(",")] for row in rows])
    peak = table[np.argmax(table[:, 1])]
    assert peak[0] == pytest.approx(100.0, abs=1.0)
    assert peak[1] == 1.0


def test_psd_zero_file_all_zero(runner, tmp_path):
    src = tmp_path / "z.csv"
    src.write_text("# sample_rate=100.0\n" + "\n".join(["0.0"] * 64) + "\n")
    result = runner.invoke(main, ["psd", str(src), "--out", str(tmp_path / "z.psd.csv")])
    assert result.exit_code == 0
    rows = (tmp_path / "z.psd.csv").read_text().splitlines()[1:]
    assert all(float(row.split(",")[1]) == 0.0 for row in rows)


def test_psd_quasi_two_strong_rows(runner, tmp_path):
    src = _generate(runner, tmp_path, "quasi_periodic")
    result = runner.invoke(main, ["psd", str(src)])
    assert result.exit_code == 0
    rows = (tmp_path / "quasi_periodic.psd.csv").read_text().splitlines()[1:]
    strong = [row for row in rows if float(row.split(",")[1]) > 0.5]
    assert len(strong) == 2


def test_psd_without_sample_rate_exits_4(runner, tmp_path):
    src = _generate(runner, tmp_path, "henon", n=512)
    result = runner.invoke(main, ["psd", str(src)])
    assert result.exit_code == 4


# ---------------------------------------------------------------------------
# batch


def _write_manifest(path, inputs, **extra):
    doc = {"inputs": inputs, **extra}
    path.write_text(json.dumps(doc))
    return path


def test_batch_reference_labels(runner, tmp_path):
    inputs = []
    for kind in ("sine", "quasi_periodic", "henon"):
        _generate(runner, tmp_path, kind)
        inputs.append(f"{kind}.csv")
    manifest = _write_manifest(tmp_path / "man.json", inputs)
    result = runner.invoke(main, ["batch", str(manifest)])
    assert result.exit_code == 0, result.output
    rows = (tmp_path / "man.summary.csv").read_text().splitlines()
    assert rows[0] == "file,n,k_m,label,degenerate_count,error"
    labels = [row.split(",")[3] for row in rows[1:]]
    assert labels == ["regular", "quasi_periodic", "chaotic_or_stochastic"]


def test_batch_partial_failure_keeps_going(runner, tmp_path):
    src = _generate(runner, tmp_path, "uniform_random", n=600)
    manifest = _write_manifest(tmp_path / "man.json", [src.name, "missing.csv"],
                               config={"num_c": 6})
    result = runner.invoke(main, ["batch", str(manifest)])
    assert result.exit_code == 0
    rows = (tmp_path / "man.summary.csv").read_text().splitlines()[1:]
    assert len(rows) == 2
    assert rows[0].split(",")[5] == ""
    assert "missing.csv" in rows[1]
    assert rows[1].split(",")[1] == ""


def test_batch_all_failed_exits_4(runner, tmp_path):
    manifest = _write_manifest(tmp_path / "man.json", ["a.csv", "b.csv"])
    result = runner.invoke(main, ["batch", str(manifest)])
    assert result.exit_code == 4


def test_batch_empty_manifest_exits_2(runner, tmp_path):
    manifest = _write_manifest(tmp_path / "man.json", [])
    result = runner.invoke(main, ["batch", str(manifest)])
    assert result.exit_code == 2


def test_batch_invalid_json_exits_2(runner, tmp_path):
    manifest = tmp_path / "man.json"
    for content in (b"{nope", b'{"inputs": ["\xe9.csv"]}'):  # bad JSON, then bad UTF-8
        manifest.write_bytes(content)
        result = runner.invoke(main, ["batch", str(manifest)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)


def test_batch_windowed_rows(runner, tmp_path):
    src = _generate(runner, tmp_path, "uniform_random", n=1000)
    manifest = _write_manifest(tmp_path / "man.json", [src.name], config={"num_c": 5})
    result = runner.invoke(main, ["batch", str(manifest), "--window", "400", "--stride", "300"])
    assert result.exit_code == 0
    rows = (tmp_path / "man.summary.csv").read_text().splitlines()[1:]
    assert len(rows) == 3
    assert rows[0].split(",")[0].endswith("@1")
    assert rows[1].split(",")[0].endswith("@301")
    assert rows[2].split(",")[0].endswith("@601")
    assert all(row.split(",")[1] == "400" for row in rows)
    # windows with gaps between them: each row is named by its window's start
    result = runner.invoke(main, ["batch", str(manifest), "--window", "200", "--stride", "350"])
    assert result.exit_code == 0
    rows = (tmp_path / "man.summary.csv").read_text().splitlines()[1:]
    series = c.load_series(c.SeriesFile(path=src))
    starts = [w.label.rsplit("@", 1)[1] for w in c.segment(series, c.WindowPlan(200, 350))]
    assert starts == ["1", "351", "701"]
    assert [row.split(",")[0] for row in rows] == [f"{src}@{start}" for start in starts]


def test_batch_failed_window_becomes_an_error_row(runner, tmp_path):
    src = tmp_path / "half.txt"
    noise = c.gen_uniform_random(500, seed=3).samples
    src.write_text("".join(f"{x!r}\n" for x in [0.0] * 500 + noise.tolist()))
    manifest = _write_manifest(tmp_path / "man.json", [src.name], config={"num_c": 8})
    result = runner.invoke(main, ["batch", str(manifest), "--window", "500"])
    assert result.exit_code == 0, result.output
    rows = list(csv.reader((tmp_path / "man.summary.csv").read_text().splitlines()))[1:]
    assert len(rows) == 2
    assert rows[0][0].endswith("half.txt@1") and rows[1][0].endswith("half.txt@501")
    assert rows[0][1:] == ["500", "", "", "", "no usable growth rate at any probed frequency"]
    assert rows[1][1] == "500" and rows[1][2] and rows[1][5] == ""


def test_batch_all_windows_too_short_exits_4(runner, tmp_path):
    src = _generate(runner, tmp_path, "uniform_random", n=6)
    manifest = _write_manifest(tmp_path / "man.json", [src.name], config={"num_c": 4})
    result = runner.invoke(main, ["batch", str(manifest), "--window", "2"])
    assert result.exit_code == 4, result.output
    rows = list(csv.reader((tmp_path / "man.summary.csv").read_text().splitlines()))[1:]
    assert len(rows) == 3
    for row in rows:
        assert row[1:] == ["2", "", "", "",
                           "need more than 2 samples for the configured lag window, got 2"]


@pytest.mark.parametrize("flags", [
    pytest.param(["--window", "400", "--stride", "0"], id="zero-stride"),
    pytest.param(["--stride", "100"], id="stride-without-window"),
    pytest.param(["--jobs", "0"], id="zero-jobs"),
])
def test_batch_stride_without_valid_window_exits_2(runner, tmp_path, flags):
    src = _generate(runner, tmp_path, "uniform_random", n=1000)
    manifest = _write_manifest(tmp_path / "man.json", [src.name], config={"num_c": 5})
    result = runner.invoke(main, ["batch", str(manifest), *flags])
    assert result.exit_code == 2, result.output
    assert result.output.startswith("error: ") and result.output.count("\n") == 1
    assert not (tmp_path / "man.summary.csv").exists()


def test_batch_unwritable_summary_exits_3_before_any_analysis(runner, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr("chaos01.cli._run_test", lambda *args: calls.append(args))
    src = _generate(runner, tmp_path, "uniform_random", n=600)
    manifest = _write_manifest(tmp_path / "man.json", [src.name], config={"num_c": 4})
    (tmp_path / "man.summary.csv").mkdir()  # a directory at the default summary path
    before = {path: path.is_dir() or path.read_bytes() for path in tmp_path.rglob("*")}
    for flags in (["--out", str(tmp_path / "nodir" / "s.csv")], []):
        result = runner.invoke(main, ["batch", str(manifest), *flags])
        assert result.exit_code == 3, result.output
        assert result.output.startswith("error: ") and result.output.count("\n") == 1
        assert calls == []
        assert {path: path.is_dir() or path.read_bytes() for path in tmp_path.rglob("*")} == before


@pytest.mark.parametrize("args", [
    pytest.param(["analyze", "h.csv", "--scatter", "nodir/k.csv"], id="analyze-scatter"),
    pytest.param(["analyze", "h.csv", "--out", "nodir/r.json"], id="analyze-out"),
    pytest.param(["analyze", "h.csv", "--trajectory", "nodir/pq.csv"], id="analyze-trajectory"),
    pytest.param(["psd", "h.csv", "--out", "nodir/p.csv"], id="psd"),
    pytest.param(["batch", "m.json", "--out", "nodir/s.csv"], id="batch"),
    pytest.param(["generate", "--kind", "sine", "--out", "nodir/g.csv"], id="generate"),
    pytest.param(["generate", "--kind", "sine", "--out", "no/dir/g.csv"], id="nested"),
])
def test_output_in_a_missing_directory_exits_3_before_any_work(runner, tmp_path, monkeypatch,
                                                                args):
    # analyze used to run the test and write its result before the scatter
    # failed, and batch named its partial file, a new random name each run
    monkeypatch.chdir(tmp_path)
    _generate(runner, tmp_path, "henon", n=600)
    (tmp_path / "henon.csv").rename("h.csv")
    _write_manifest(tmp_path / "m.json", ["h.csv"], config={"num_c": 4})
    calls = []
    for name in ("run_test", "_run_test", "load_series", "write_series"):
        monkeypatch.setattr(cli, name, lambda *a, **k: calls.append(a))
    before = sorted(tmp_path.rglob("*"))
    results = [runner.invoke(main, args) for _ in range(2)]
    target = args[args.index("--out") + 1] if "--out" in args else args[-1]
    line = f"error: [Errno 2] No such file or directory: {target!r}\n"
    assert [(result.exit_code, result.output) for result in results] == [(3, line)] * 2
    assert calls == [] and sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("target", ["f/g.csv", "f/sub/g.csv"])
def test_output_under_a_file_exits_3_as_open_would(runner, tmp_path, monkeypatch, target):
    monkeypatch.chdir(tmp_path)
    Path("f").write_text("")
    with pytest.raises(NotADirectoryError) as info:
        open(target, "w")
    result = runner.invoke(main, ["generate", "--kind", "sine", "--out", target])
    assert result.exit_code == 3
    assert result.output == f"error: {info.value}\n"
    assert list(tmp_path.iterdir()) == [tmp_path / "f"]


def test_replacing_names_the_given_path_when_it_cannot_start(tmp_path):
    # an unwritable directory fails the same way; as root none can be made
    target = tmp_path / "nodir" / "s.csv"
    with pytest.raises(FileNotFoundError) as info:
        with cli._replacing(target):
            pass
    assert str(info.value) == f"[Errno 2] No such file or directory: {str(target)!r}"
    assert not (tmp_path / "nodir").exists()


# Each command's arguments, in a directory that `_command_inputs` filled; the
# outputs they write, the one that --out names first; and the name in cli
# that the command calls while its outputs are open.
_OUTPUTS = {
    "batch": (["batch", "man.json"], ["man.summary.csv"], "_run_test"),
    "analyze": (["analyze", "src.txt", "--num-c", "4"], ["src.result.json", "src.kc.csv"],
                "export_scatter"),
    "psd": (["psd", "src.txt"], ["src.psd.csv"], "export_psd"),
    "generate": (["generate", "--kind", "sine", "--n", "600", "--out", "g.csv"], ["g.csv"],
                 "write_series"),
}


def _command_inputs(tmp_path):
    noise = c.gen_uniform_random(600, seed=1).samples
    c.write_series(c.TimeSeries(noise, sample_rate=1000.0), tmp_path / "src.txt")
    _write_manifest(tmp_path / "man.json", ["src.txt"], config={"num_c": 4})


def _record_work(monkeypatch):
    """Make the calls that start each command's work record themselves in the
    list returned, and do nothing else."""
    calls = []
    for name in ("run_test", "_run_test", "load_series", "write_series"):
        monkeypatch.setattr(cli, name, lambda *a, **k: calls.append(a))
    monkeypatch.setattr(c.signals, "make_series", lambda *a, **k: calls.append(a))
    return calls


@pytest.mark.parametrize("command", list(_OUTPUTS))
def test_batch_replaces_its_summary_only_when_done(runner, tmp_path, monkeypatch, command):
    # analyze used to leave the new result beside the old scatter
    args, outputs, inside = _OUTPUTS[command]
    monkeypatch.chdir(tmp_path)
    _command_inputs(tmp_path)
    assert runner.invoke(main, args).exit_code == 0
    (tmp_path / "plain.txt").write_text("")  # the mode open(path, "w") gives a new file
    fresh = {name: (tmp_path / name).read_bytes() for name in outputs}
    for name in outputs:
        assert (tmp_path / name).stat().st_mode == (tmp_path / "plain.txt").stat().st_mode
        (tmp_path / name).write_text("old\n")
        (tmp_path / name).chmod(0o640)
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}

    def interrupt(*args):
        raise KeyboardInterrupt

    with monkeypatch.context() as patch:
        patch.setattr(cli, inside, interrupt)
        result = runner.invoke(main, args)
    assert result.exit_code == 1 and "Aborted!" in result.output
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before
    assert runner.invoke(main, args).exit_code == 0
    for name in outputs:
        assert (tmp_path / name).read_bytes() == fresh[name]
        assert (tmp_path / name).stat().st_mode & 0o777 == 0o640  # an old output keeps its mode


@pytest.mark.parametrize("command", list(_OUTPUTS))
def test_batch_writes_its_summary_through_a_symlink(runner, tmp_path, monkeypatch, command):
    args, outputs, _ = _OUTPUTS[command]
    monkeypatch.chdir(tmp_path)
    _command_inputs(tmp_path)
    assert runner.invoke(main, args).exit_code == 0
    summary = (tmp_path / outputs[0]).read_bytes()
    shared = tmp_path / "shared"
    shared.mkdir()
    (shared / "summary.csv").write_text("old\n")
    link = tmp_path / "link.csv"
    link.symlink_to(Path("shared") / "summary.csv")
    assert runner.invoke(main, [*args, "--out", str(link)]).exit_code == 0
    assert link.is_symlink() and os.readlink(link) == str(Path("shared") / "summary.csv")
    assert (shared / "summary.csv").read_bytes() == summary
    assert sorted(path.name for path in shared.iterdir()) == ["summary.csv"]  # no partial file


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
@pytest.mark.parametrize("command", list(_OUTPUTS))
def test_batch_writes_its_summary_into_a_fifo(runner, tmp_path, monkeypatch, command):
    args, outputs, _ = _OUTPUTS[command]
    monkeypatch.chdir(tmp_path)
    _command_inputs(tmp_path)
    assert runner.invoke(main, args).exit_code == 0
    summary = (tmp_path / outputs[0]).read_bytes()
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    os.link(fifo, tmp_path / "spare")  # a second name, to free the reader if the FIFO is lost
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        result = runner.invoke(main, [*args, "--out", str(fifo)])
        reader.join(timeout=10)
        assert result.exit_code == 0, result.output
        assert received == [summary]
        assert stat.S_ISFIFO(fifo.stat().st_mode)
    finally:
        if reader.is_alive():
            os.close(os.open(tmp_path / "spare", os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=10)


@pytest.mark.parametrize("command", list(_OUTPUTS))
def test_every_command_writes_to_stdout_on_a_pipe(tmp_path, command):
    # batch resolved /dev/stdout to /proc/<pid>/fd/pipe:[N] and exited 3
    args, outputs, _ = _OUTPUTS[command]
    _command_inputs(tmp_path)
    paths = [str(tmp_path / word) if (tmp_path / word).exists() else word for word in args]
    to_file = source_tree_python(["-m", "chaos01.cli", *paths, "--out", str(tmp_path / "o")])
    assert to_file.returncode == 0, to_file.stderr
    expected = (tmp_path / "o").read_text() + to_file.stdout.replace(str(tmp_path / "o"),
                                                                     "/dev/stdout")
    piped = source_tree_python(["-m", "chaos01.cli", *paths, "--out", "/dev/stdout"])
    assert (piped.returncode, piped.stderr, piped.stdout) == (0, to_file.stderr, expected)


@pytest.mark.parametrize("command, stream, target", [
    *((command, "stdout", target) for command in _OUTPUTS
      for target in ("/dev/stdout", "red.txt")),
    ("psd", "stderr", "/dev/stderr"),
    ("analyze", "stderr", "red.txt"),
])
def test_output_that_is_the_file_a_standard_stream_writes_to_exits_2_before_any_work(
        tmp_path, command, stream, target):
    # under `> red.txt` the output was renamed over red.txt, and what was
    # printed after it went to the old, unlinked file; src.txt is missing, so
    # a command that read it would exit 3 (batch 4)
    args, _, _ = _OUTPUTS[command]
    _command_inputs(tmp_path)
    (tmp_path / "src.txt").unlink()
    before = sorted(tmp_path.iterdir())
    paths = [str(tmp_path / word) if word in ("src.txt", "man.json") else word for word in args]
    target = str(tmp_path / target) if target == "red.txt" else target
    run = (f"import subprocess, sys; sys.exit(subprocess.run([sys.executable, '-m', "
           f"'chaos01.cli', *{paths!r}, '--out', {target!r}], "
           f"{stream}=open({str(tmp_path / 'red.txt')!r}, 'w')).returncode)")
    proc = source_tree_python(["-c", run])
    name = {"stdout": "standard output", "stderr": "standard error"}[stream]
    message = f"error: output path {target!r} is also {name}\n"
    # red.txt holds what was printed to it, the error line only if it is stderr
    expected = ("", message) if stream == "stdout" else (message, "")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert ((tmp_path / "red.txt").read_text(), proc.stderr) == expected
    assert sorted(tmp_path.iterdir()) == sorted([*before, tmp_path / "red.txt"])


@pytest.mark.parametrize("args", [
    pytest.param(["analyze", "src.txt", "--scatter", "ro/k.csv"], id="analyze-scatter"),
    pytest.param(["analyze", "src.txt", "--trajectory", "ro/pq.csv"], id="analyze-trajectory"),
    pytest.param(["psd", "src.txt", "--out", "ro/p.csv"], id="psd"),
    pytest.param(["batch", "man.json", "--out", "ro/s.csv"], id="batch"),
    pytest.param(["generate", "--kind", "sine", "--out", "ro/g.csv"], id="generate"),
])
def test_output_in_a_directory_that_refuses_new_files_exits_3_before_any_work(
        runner, tmp_path, monkeypatch, args):
    # analyze and psd used to do their work and fail only at their write; as
    # root no directory refuses by its mode, so open refuses files made in ro
    monkeypatch.chdir(tmp_path)
    _command_inputs(tmp_path)
    Path("ro").mkdir()
    calls = _record_work(monkeypatch)
    real_open = open

    def refusing_open(file, mode="r", *rest, **options):
        if os.path.dirname(os.path.abspath(file)) == str(tmp_path / "ro") and "r" not in mode:
            raise PermissionError(13, "Permission denied", file)
        return real_open(file, mode, *rest, **options)

    monkeypatch.setattr("builtins.open", refusing_open)
    before = sorted(tmp_path.rglob("*"))
    result = runner.invoke(main, args)
    target = args[args.index("--out") + 1] if "--out" in args else args[-1]
    assert (result.exit_code, result.output) == (
        3, f"error: [Errno 13] Permission denied: {target!r}\n")
    assert calls == [] and sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command, target", [
    *((command, target) for command in _OUTPUTS for target in ("sub/", "nodir/..", "f/")),
    ("generate", ""),  # the others take "" as their default
])
def test_output_path_that_ends_in_no_file_name_exits_3_as_open_would(
        runner, tmp_path, monkeypatch, command, target):
    # generate wrote "sub/" as a file named sub, and "" beside the directory
    monkeypatch.chdir(tmp_path)
    _command_inputs(tmp_path)
    Path("f").write_text("")
    calls = _record_work(monkeypatch)
    with pytest.raises(OSError) as info:
        open(target, "w")
    before = sorted(tmp_path.parent.rglob("*"))
    result = runner.invoke(main, [*_OUTPUTS[command][0], "--out", target])
    assert (result.exit_code, result.output) == (3, f"error: {info.value}\n")
    assert calls == [] and sorted(tmp_path.parent.rglob("*")) == before


def test_batch_summary_naming_a_directory_names_the_given_path(runner, tmp_path, monkeypatch):
    # the manifest's "out" was named by its resolved path
    monkeypatch.chdir(tmp_path)
    _command_inputs(tmp_path)
    _write_manifest(tmp_path / "man.json", ["src.txt"], out="outdir")
    Path("outdir").mkdir()
    calls = []
    monkeypatch.setattr(cli, "_run_test", lambda *args: calls.append(args))
    result = runner.invoke(main, ["batch", "man.json"])
    assert (result.exit_code, result.output) == (3, "error: [Errno 21] Is a directory: 'outdir'\n")
    assert calls == [] and list(Path("outdir").iterdir()) == []


def test_batch_summary_path_naming_an_input_exits_2(runner, tmp_path):
    src = _generate(runner, tmp_path, "uniform_random", n=600)
    before = src.read_bytes()
    manifest = _write_manifest(tmp_path / "man.json", [src.name], config={"num_c": 4}, out=src.name)
    for flags in ([], ["--out", str(src)]):
        result = runner.invoke(main, ["batch", str(manifest), *flags])
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: ") and result.output.count("\n") == 1
    assert src.read_bytes() == before


@pytest.mark.parametrize("args, manifest_out", [
    pytest.param(["analyze", "b.txt", "--out", "b.txt"], None, id="analyze-out-is-input"),
    pytest.param(["analyze", "b.txt", "--trajectory", "b.txt"], None, id="trajectory-is-input"),
    pytest.param(["analyze", "b.txt", "--scatter", "b.result.json"], None,
                 id="scatter-is-default-result"),
    pytest.param(["analyze", "b.txt", "--out", "r.json", "--scatter", "r.json"], None,
                 id="scatter-is-result"),
    pytest.param(["psd", "b.txt", "--out", "b.txt"], None, id="psd-out-is-input"),
    pytest.param(["batch", "man.json", "--out", "man.json"], None, id="batch-out-is-manifest"),
    pytest.param(["batch", "man.json"], "man.json", id="manifest-out-names-itself"),
    pytest.param(["analyze", "a\nb.csv", "--out", "a\nb.csv"], None, id="line-break-in-path"),
])
def test_output_path_naming_an_input_or_another_output_exits_2(runner, tmp_path, monkeypatch,
                                                                 args, manifest_out):
    monkeypatch.chdir(tmp_path)
    c.write_series(c.gen_uniform_random(600, seed=1), tmp_path / "b.txt")
    extra = {} if manifest_out is None else {"out": manifest_out}
    _write_manifest(tmp_path / "man.json", ["b.txt"], config={"num_c": 4}, **extra)
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert result.output.startswith("error: output path ") and result.output.count("\n") == 1
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


_REAL_FIELDS = ["c_low", "c_high", "trim_fraction", "n0_fraction",
                "bands.regular_max", "bands.quasi_periodic_max", "bands.aperiodic_max"]


@pytest.mark.parametrize("bad", ["0.3", None, True])
@pytest.mark.parametrize("field", _REAL_FIELDS)
def test_manifest_config_value_fails_with_the_library_message(runner, tmp_path, field, bad):
    group, _, name = field.rpartition(".")
    owner = c.ClassificationBands if group else c.TestConfig
    with pytest.raises(c.InvalidParameterError) as raised:
        owner(**{name: bad})
    config = {"num_c": 4, **({group: {name: bad}} if group else {name: bad})}
    c.write_series(c.gen_uniform_random(600, seed=1), tmp_path / "a.csv")
    manifest = _write_manifest(tmp_path / "man.json", ["a.csv"], config=config)
    result = runner.invoke(main, ["batch", str(manifest)])
    assert result.exit_code == 2, result.output
    assert result.output == f"error: {raised.value}\n"
    assert not (tmp_path / "man.summary.csv").exists()


def test_batch_manifest_window_and_config(runner, tmp_path):
    src = _generate(runner, tmp_path, "uniform_random", n=900)
    manifest = _write_manifest(
        tmp_path / "man.json", [src.name],
        config={"num_c": 4, "seed": 2, "aggregator": "trimmed"},
        window={"window_len": 450, "stride": 450},
        out="custom.csv",
    )
    result = runner.invoke(main, ["batch", str(manifest)])
    assert result.exit_code == 0
    rows = (tmp_path / "custom.csv").read_text().splitlines()[1:]
    assert len(rows) == 2


def test_batch_concurrency_is_deterministic(runner, tmp_path):
    inputs = []
    for seed in range(4):
        out = tmp_path / f"n{seed}.csv"
        runner.invoke(main, ["generate", "--kind", "uniform_random", "--n", "700",
                             "--seed", str(seed), "--out", str(out)])
        inputs.append(out.name)
    manifest = _write_manifest(tmp_path / "man.json", inputs, config={"num_c": 8})
    blobs = []
    for jobs, name in ((1, "s1.csv"), (2, "s2.csv"), (8, "s8.csv"), (8, "s8b.csv")):
        result = runner.invoke(main, ["batch", str(manifest), "--jobs", str(jobs),
                                      "--out", str(tmp_path / name)])
        assert result.exit_code == 0
        blobs.append((tmp_path / name).read_bytes())
    assert blobs[0] == blobs[1] == blobs[2] == blobs[3]


def test_batch_windows_give_the_same_summary_at_any_job_count(runner, tmp_path, monkeypatch):
    # perfbench's window_screen shape: three files, each cut into three
    # 2000-sample windows of 100 angles, which are two kernel chunks
    names = []
    for seed in range(3):
        out = tmp_path / f"n{seed}.csv"
        runner.invoke(main, ["generate", "--kind", "uniform_random", "--n", "3000",
                             "--seed", str(seed), "--out", str(out)])
        names.append(out.name)
    manifest = _write_manifest(tmp_path / "man.json", names,
                               window={"window_len": 2000, "stride": 500})
    rows, msd_rows = [], core._msd_rows

    def spy(steps, *args):
        rows.append(len(steps))
        return msd_rows(steps, *args)

    monkeypatch.setattr(core, "_msd_rows", spy)
    for module in (cli, core):
        monkeypatch.setattr(module, "usable_cpus", lambda: 2)
    blobs = []
    for jobs in (1, 2, 3):
        rows.clear()
        out = tmp_path / f"s{jobs}.csv"
        result = runner.invoke(main, ["batch", str(manifest), "--jobs", str(jobs),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert "9/9 rows analyzed" in result.output
        # 51 + 49 rows, on two kernel workers at --jobs 1 and on one above it
        assert sorted(rows) == [49] * 9 + [51] * 9, jobs
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


@pytest.mark.parametrize("cpus, inputs, extra", [
    (2, 4, 0),  # two file threads, each file's test on its own thread
    (2, 1, 1),  # one file thread, whose test keeps a second worker
    (1, 4, 0),  # one file thread, and its test on it alone
])
def test_batch_keeps_file_and_kernel_threads_within_the_cpus(runner, tmp_path, monkeypatch,
                                                             cpus, inputs, extra):
    # 2000 samples and 100 angles are two chunks, enough for two workers
    names = []
    for seed in range(inputs):
        out = tmp_path / f"n{seed}.csv"
        runner.invoke(main, ["generate", "--kind", "uniform_random", "--n", "2000",
                             "--seed", str(seed), "--out", str(out)])
        names.append(out.name)
    manifest = _write_manifest(tmp_path / "man.json", names)
    files, kernels = set(), set()
    batch_one, msd_rows = cli._batch_one, core._msd_rows

    def on_file_thread(*args):
        files.add(threading.current_thread().name)
        return batch_one(*args)

    def on_kernel_thread(*args):
        kernels.add(threading.current_thread().name)
        return msd_rows(*args)

    monkeypatch.setattr(cli, "_batch_one", on_file_thread)
    monkeypatch.setattr(core, "_msd_rows", on_kernel_thread)
    for module in (cli, core):
        monkeypatch.setattr(module, "usable_cpus", lambda: cpus)
    result = runner.invoke(main, ["batch", str(manifest), "--jobs", "2"])
    assert result.exit_code == 0, result.output
    assert f"{inputs}/{inputs} rows analyzed" in result.output
    assert len(files) == min(cpus, inputs)  # the calling thread is one of them
    assert len(kernels - files) == extra  # threads that run_test started
    assert len(kernels | files) <= cpus


def test_batch_with_one_job_on_one_cpu_starts_no_thread(runner, tmp_path, monkeypatch):
    names = [_generate(runner, tmp_path, kind, n=2000).name for kind in ("sine", "henon")]
    manifest = _write_manifest(tmp_path / "man.json", names)

    def refuse(thread):
        raise AssertionError(f"{thread.name} was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    for module in (cli, core):
        monkeypatch.setattr(module, "usable_cpus", lambda: 1)
    result = runner.invoke(main, ["batch", str(manifest), "--jobs", "1"])
    assert result.exit_code == 0, result.output
    assert "2/2 rows analyzed" in result.output


@pytest.mark.parametrize("patch", [
    pytest.param({"format": "xml"}, id="unknown-format"),
    pytest.param({"window": {"window_len": 300, "stride": 300, "size": 3}},
                 id="unknown-window-key"),
    pytest.param({"window": {"stride": 300}}, id="missing-window-key"),
    pytest.param({"window": {"window_len": 2.5, "stride": 300}}, id="fractional-window"),
    pytest.param({"window": {"window_len": 300, "stride": "x"}}, id="string-stride"),
    pytest.param({"window": 300}, id="window-not-object"),
    pytest.param({"config": [6]}, id="config-not-object"),
    pytest.param({"config": {"num_c": 4, "seed": 1.5}}, id="fractional-seed"),
    pytest.param({"config": {"num_c": 4, "seed": True}}, id="bool-seed"),
    pytest.param({"config": {"num_c": 2.5}}, id="fractional-num-c"),
    pytest.param({"config": {"num_c": 4, "n_c": 6}}, id="unknown-config-key"),
    pytest.param({"config": {"num_c": 4, "method": "centroid"}}, id="unknown-method"),
    pytest.param({"config": {"num_c": 4, "aggregator": "mode"}}, id="unknown-aggregator"),
    pytest.param({"config": {"num_c": 4, "msd_variant": "smoothed"}}, id="unknown-msd-variant"),
    pytest.param({"config": {"num_c": 4, "c_low": "0.5"}}, id="string-c-low"),
    pytest.param({"config": {"num_c": 4, "c_low": 0.0, "c_high": 5e-324}},
                 id="empty-angle-range"),
    pytest.param({"config": {"num_c": 4, "bands": {"x": 1}}}, id="unknown-band"),
    pytest.param({"config": {"num_c": 4, "bands": 3}}, id="bands-not-object"),
    pytest.param({"inputs": "a.csv"}, id="inputs-string"),
    pytest.param({"inputs": ["a.csv", 3]}, id="non-string-input"),
    pytest.param({"inputs": ["a\0.csv"]}, id="nul-in-input"),
    pytest.param({"out": 5}, id="out-not-path"),
    pytest.param({"confg": {"num_c": 4}}, id="unknown-top-level-key"),
    pytest.param({"inputs": None}, id="null-inputs"),
    pytest.param({"out": None}, id="null-out"),
    # a string is the whole manifest
    pytest.param("[1]", id="manifest-not-object"),
    pytest.param("{}", id="no-inputs-key"),
])
def test_batch_invalid_manifest_exits_2_with_one_line(runner, tmp_path, patch):
    _generate(runner, tmp_path, "uniform_random", n=600)
    doc = {"inputs": ["uniform_random.csv"], "config": {"num_c": 4}}
    manifest = tmp_path / "man.json"
    manifest.write_text(patch if isinstance(patch, str) else json.dumps({**doc, **patch}))
    result = runner.invoke(main, ["batch", str(manifest)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("error: ") and result.output.count("\n") == 1
    assert not (tmp_path / "man.summary.csv").exists()


@pytest.mark.parametrize("times", [
    [i * 5e-324 for i in range(10)],  # subnormal spacing: the rate would be inf
    [-1.7e308, 1.7e308],  # the spacing overflows: the rate would be 0
])
def test_spacing_without_a_finite_rate_exits_4_or_becomes_error_row(runner, tmp_path, times):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,value\n" + "".join(f"{t!r},{i}.0\n" for i, t in enumerate(times)))
    for command in ("analyze", "psd"):
        result = runner.invoke(main, [command, str(bad), "--format", "time_value_csv"])
        assert result.exit_code == 4, result.output
        assert result.output.startswith("error: line 3: ")
        assert "Traceback" not in result.output
    good = tmp_path / "good.csv"
    samples = c.gen_uniform_random(600, seed=1).samples
    c.write_series(c.TimeSeries(samples, sample_rate=100.0), good, format="time_value_csv")
    manifest = _write_manifest(tmp_path / "man.json", [good.name, bad.name],
                               format="time_value_csv", config={"num_c": 4})
    result = runner.invoke(main, ["batch", str(manifest)])
    assert result.exit_code == 0, result.output
    rows = (tmp_path / "man.summary.csv").read_text().splitlines()[1:]
    assert rows[0].split(",")[5] == ""
    assert rows[1].startswith(f"{bad},,,,,") and "line 3" in rows[1]


def test_undecodable_file_exits_4_or_becomes_error_row(runner, tmp_path):
    good = _generate(runner, tmp_path, "uniform_random", n=600)
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"# sample_rate=5000.0\n0.5\n\xff\xfe\n")
    for command in ("analyze", "psd"):
        result = runner.invoke(main, [command, str(bad)])
        assert result.exit_code == 4, result.output
        assert "not UTF-8" in result.output
    manifest = _write_manifest(tmp_path / "man.json", [good.name, bad.name], config={"num_c": 4})
    result = runner.invoke(main, ["batch", str(manifest)])
    assert result.exit_code == 0, result.output
    rows = (tmp_path / "man.summary.csv").read_text().splitlines()[1:]
    assert rows[0].split(",")[5] == ""
    assert rows[1].startswith(f"{bad},,,,,") and "not UTF-8" in rows[1]


@pytest.mark.parametrize("config", [
    c.TestConfig(),
    c.TestConfig(num_c=6, c_low=0.5, c_high=5.0, method="regression", aggregator="median",
                 trim_fraction=0.1, n0_fraction=0.2, seed=3, msd_variant="corrected",
                 bands=c.ClassificationBands(0.1, 0.3, 0.9)),
])
def test_result_config_block_reads_back_as_manifest_config(fuzz_dir, config):
    _check_config_block_reads_back(fuzz_dir, config)


def _check_config_block_reads_back(fuzz_dir, config):
    result = c.run_test(c.load_series(fuzz_dir / "a.csv"), config)
    c.export_result(result, fuzz_dir / "r.json")
    block = json.loads((fuzz_dir / "r.json").read_text())["config"]
    read = _read(c.TestConfig, block, "config")
    assert read == config
    # == cannot see an integer turned into a float; the re-exported text can
    c.export_result(dataclasses.replace(result, config=read), fuzz_dir / "again.json")
    assert (fuzz_dir / "again.json").read_bytes() == (fuzz_dir / "r.json").read_bytes()
    manifest = _write_manifest(fuzz_dir / "readback.json", ["a.csv"], config=block)
    assert CliRunner().invoke(main, ["batch", str(manifest)]).exit_code == 0
    row = (fuzz_dir / "readback.summary.csv").read_text().splitlines()[1].split(",")
    assert row[2:4] == [repr(result.k_m), result.label.value]


def _real(low, high):
    """Integers and floats in [low, high], since a float field keeps an integer as given."""
    return st.one_of(st.integers(math.ceil(low), math.floor(high)), st.floats(low, high))


_CONFIGS = st.builds(
    c.TestConfig,
    num_c=st.integers(1, 6),
    c_low=_real(0.0, 3.0),
    c_high=_real(3.5, c.TWO_PI),
    method=st.sampled_from(list(c.Method)),
    aggregator=st.sampled_from(list(c.Aggregator)),
    trim_fraction=_real(0.0, 0.45),
    n0_fraction=st.floats(0.05, 0.5),
    seed=st.integers(0, 2**64),
    msd_variant=st.sampled_from(list(c.MsdVariant)),
    bands=st.lists(_real(0.01, 3.0), min_size=3, max_size=3, unique=True).map(
        lambda edges: c.ClassificationBands(*sorted(edges))),
)


@given(config=_CONFIGS)
@settings(max_examples=40, deadline=None)
def test_any_result_config_block_reads_back_as_manifest_config(fuzz_dir, config):
    _check_config_block_reads_back(fuzz_dir, config)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    c.write_series(c.gen_uniform_random(600, seed=1), path / "a.csv")
    c.write_series(c.gen_quasiperiodic(5000.0, 500), path / "b.csv", "time_value_csv")
    (path / "bad.csv").write_bytes(b"1.0\n\xff\n")
    return path


# A bad type or value, or an unknown key, turns up one draw in eight, so that
# most manifests mix valid and invalid parts.  No draw asks for a big run.
_JUNK = st.sampled_from([None, True, -1, 0, 2.5, "x", [1], {"x": 1}])


def _rarely(bad, good):
    return st.sampled_from(range(8)).flatmap(lambda roll: bad if roll == 7 else good)


def _or_junk(valid):
    return _rarely(_JUNK, valid)


def _object(required, optional):
    return _or_junk(_rarely(st.fixed_dictionaries({**required, "bogus": st.just(1)},
                                                  optional=optional),
                            st.fixed_dictionaries(required, optional=optional)))


_BANDS = st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3, unique=True).map(
    lambda edges: dict(zip(("regular_max", "quasi_periodic_max", "aperiodic_max"), sorted(edges))))

_MANIFESTS = _object({
    "inputs": _or_junk(st.lists(st.sampled_from(["a.csv", "b.csv", "bad.csv", "gone.csv"]),
                                min_size=1, max_size=2)),
    "config": _object({"num_c": _or_junk(st.integers(1, 8))}, {
        "seed": _or_junk(st.integers(0, 2**64)),
        "method": _or_junk(st.sampled_from(["regression", "correlation"])),
        "aggregator": _or_junk(st.sampled_from(["mean", "median", "trimmed", "trimmed_mean"])),
        "msd_variant": _or_junk(st.sampled_from(["plain", "corrected"])),
        "c_low": _or_junk(st.floats(0.0, 3.0)),
        "c_high": _or_junk(st.floats(3.0, 6.28)),
        "trim_fraction": _or_junk(st.floats(0.0, 0.45)),
        "n0_fraction": _or_junk(st.floats(0.05, 0.5)),
        "bands": _or_junk(_BANDS),
    }),
}, {
    "format": _or_junk(st.sampled_from(["single_column", "time_value_csv"])),
    "window": _object({"window_len": _or_junk(st.integers(100, 600)),
                       "stride": _or_junk(st.integers(100, 600))}, {}),
    "out": _or_junk(st.just("fuzz.summary.csv")),
})


# A flag's text: a valid value, or one draw in eight a bad one.  A Path
# names a file in the fuzz directory.
_BAD_TEXT = st.sampled_from(["", "x", "-1", "0", "2.5", "nan", "inf", "1e999"])


def _flag(valid):
    return _rarely(_BAD_TEXT, valid.map(str))


def _command(words, required, optional):
    """``words``, then each required flag and any of the optional ones."""
    return st.fixed_dictionaries(required, optional=optional).map(
        lambda flags: [*words, *(part for flag in flags.items() for part in flag)])


def _output(name):
    """Mostly a path of its own; one draw in eight a missing directory or a
    path that another output may take too."""
    return _rarely(st.sampled_from([Path("no") / name, Path("out.json")]), st.just(Path(name)))


# an input file with its --format, or one draw in eight a file that cannot
# be read as given
_SOURCES = _rarely(
    st.sampled_from([[Path("bad.csv")], [Path("gone.csv")], [Path("b.csv")],
                     [Path("a.csv"), "--format", "time_value_csv"], [Path("a.csv"), "--format", "x"]]),
    st.sampled_from([[Path("a.csv")], [Path("b.csv"), "--format", "time_value_csv"]]))

_COMMANDS = st.one_of(
    _command(["generate"], {"--kind": _flag(st.sampled_from([k.value for k in c.GeneratorKind])),
                            "--out": _output("gen.csv")}, {
        "--f": _flag(st.floats(1.0, 1000.0)),
        "--fs": _flag(st.floats(2000.0, 10000.0)),
        "--n": _flag(st.integers(1, 600)),
        "--seed": _flag(st.integers(0, 2**64)),
    }),
    _SOURCES.flatmap(lambda source: _command(["analyze", *source], {}, {
        "--seed": _flag(st.integers(0, 2**64)),
        "--num-c": _flag(st.integers(1, 8)),
        "--method": _flag(st.sampled_from(["regression", "correlation"])),
        "--aggregator": _flag(st.sampled_from(["mean", "median", "trimmed"])),
        "--n0-fraction": _flag(st.floats(0.05, 0.5)),
        "--c-low": _flag(st.floats(0.0, 3.0)),
        "--c-high": _flag(st.floats(3.0, 6.28)),
        "--out": _output("result.json"),
        "--scatter": _output("kc.csv"),
        "--trajectory": _output("pq.csv"),
        "--trajectory-c": _flag(st.floats(0.01, 6.28)),
    })),
    _SOURCES.flatmap(lambda source: _command(["psd", *source], {}, {"--out": _output("psd.csv")})),
)

# 2^57 values of 8 bytes are 2^60 bytes, more than any address space, so
# these fail at once and allocate nothing; so does 2^61, whose byte count
# numpy cannot even address
_HUGE = 2**57
_HUGER = 2**61


@given(doc=_MANIFESTS, jobs=st.sampled_from(["1", "2"]), args=_COMMANDS)
@settings(max_examples=100, deadline=None)
@example(doc={"inputs": ["a.csv"], "config": {"num_c": _HUGE}}, jobs="2",
         args=["generate", "--kind", "sine", "--n", str(_HUGE), "--out", Path("gen.csv")])
@example(doc={"inputs": ["a.csv"], "config": {"num_c": 1}}, jobs="1",
         args=["analyze", Path("a.csv"), "--num-c", str(_HUGE)])
@example(doc={"inputs": ["a.csv"], "config": {"num_c": _HUGER}}, jobs="1",
         args=["generate", "--kind", "sine", "--n", str(_HUGER), "--out", Path("gen.csv")])
@example(doc={"inputs": ["a.csv"], "config": {"num_c": 1}}, jobs="1",
         args=["generate", "--kind", "henon", "--n", str(_HUGER), "--out", Path("gen.csv")])
@example(doc={"inputs": ["a.csv"], "config": {"num_c": 1}}, jobs="1",
         args=["generate", "--kind", "uniform_random", "--n", str(_HUGER),
               "--out", Path("gen.csv")])
@example(doc={"inputs": ["a.csv"], "config": {"num_c": 1}}, jobs="1",
         args=["analyze", Path("a.csv"), "--num-c", str(_HUGER)])
@example(doc={"inputs": ["a.csv"], "config": {"num_c": 1}}, jobs="1",
         args=["generate", "--kind", "sawtooth", "--fs", "1e300", "--out", Path("gen.csv")])
def test_batch_manifest_fuzz_exits_with_a_documented_code(fuzz_dir, doc, jobs, args):
    # each draw runs batch on a manifest, then generate, analyze or psd
    manifest = fuzz_dir / "man.json"
    manifest.write_text(json.dumps(doc))
    for argv in (["batch", str(manifest), "--jobs", jobs],
                 [str(fuzz_dir / arg) if isinstance(arg, Path) else arg for arg in args]):
        result = CliRunner().invoke(main, argv)
        assert result.exception is None or isinstance(result.exception, SystemExit), result.output
        assert result.exit_code in (0, 2, 3, 4)
        assert result.output.count("error:") <= 1 and "Traceback" not in result.output, argv


def test_memory_error_exits_2_with_one_line(runner, tmp_path, monkeypatch):
    # a size below the count ceiling that still cannot be allocated
    def fail(spec):
        raise MemoryError("Unable to allocate 64. PiB for an array")
    monkeypatch.setattr("chaos01.signals.make_series", fail)
    out = tmp_path / "x.csv"
    result = runner.invoke(main, ["generate", "--kind", "sine", "--n", str(2**53 - 1),
                                  "--out", str(out)])
    assert result.exit_code == 2
    assert result.output == "error: Unable to allocate 64. PiB for an array\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# help and misc


def test_help_lists_commands(runner):
    result = runner.invoke(main, ["--help"])
    assert result.exit_code == 0
    for command in ("generate", "analyze", "psd", "batch"):
        assert command in result.output


def test_help_documents_flags(runner):
    result = runner.invoke(main, ["analyze", "--help"])
    for flag in ("--seed", "--num-c", "--method", "--aggregator", "--n0-fraction",
                 "--c-low", "--c-high", "--out"):
        assert flag in result.output
    result = runner.invoke(main, ["generate", "--help"])
    for flag in ("--kind", "--f", "--fs", "--n", "--seed", "--out"):
        assert flag in result.output
    # the choices and defaults still come from signals, which builds the options
    text = " ".join(result.output.split())
    assert f"--kind [{'|'.join(kind.value for kind in c.GeneratorKind)}]" in text
    spec = c.GeneratorSpec
    for flag, default in (("--f FLOAT", spec.freq), ("--n INTEGER", spec.num_samples),
                          ("--seed INTEGER", spec.seed)):
        assert f"[default: {default}]" in text.split(flag, 1)[1].split(" --", 1)[0]
    result = runner.invoke(main, ["batch", "--help"])
    for flag in ("--window", "--stride", "--jobs"):
        assert flag in result.output


def test_bare_help_and_version_keep_their_output(runner):
    # a bare chaos01 prints its help: click >= 8.2 exits 2, as for a usage error, 8.0 exits 0
    bare, usage = runner.invoke(main, []), runner.invoke(main, ["--help"])
    assert bare.exit_code == (2 if hasattr(click.exceptions, "NoArgsIsHelpError") else 0)
    assert (usage.exit_code, bare.output) == (0, usage.output)
    assert usage.output.startswith("Usage: ") and "Commands:" in usage.output
    version = runner.invoke(main, ["--version"])
    assert (version.exit_code, version.output) == (0, f"main, version {c.__version__}\n")


def test_unknown_command_exits_2(runner):
    result = runner.invoke(main, ["transmogrify"])
    assert result.exit_code == 2


# ---------------------------------------------------------------------------
# running from a source tree


def test_version_from_source_tree():
    proc = source_tree_python(["-m", "chaos01.cli", "--version"])
    assert proc.returncode == 0, proc.stderr
    assert "0.1.0" in proc.stdout


def test_psd_reads_standard_input_from_a_file_or_a_pipe(tmp_path):
    # a redirected file is a regular file on /dev/stdin; a pipe can be read only once
    c.write_series(c.gen_sine(100.0, 5000.0, 2000), tmp_path / "s.csv", "time_value_csv")
    args = ["-m", "chaos01.cli", "psd", "--format", "time_value_csv", "--out"]
    by_path = source_tree_python([*args, str(tmp_path / "path.csv"), str(tmp_path / "s.csv")])
    assert by_path.returncode == 0, by_path.stderr
    with open(tmp_path / "s.csv") as handle:
        redirected = source_tree_python([*args, str(tmp_path / "file.csv"), "/dev/stdin"],
                                        stdin=handle)
    piped = source_tree_python([*args, str(tmp_path / "pipe.csv"), "/dev/stdin"],
                               input=(tmp_path / "s.csv").read_text())
    expected = (tmp_path / "path.csv").read_bytes()
    for proc, out in ((redirected, "file.csv"), (piped, "pipe.csv")):
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == by_path.stdout.replace("path.csv", out)
        assert (tmp_path / out).read_bytes() == expected


def test_cli_import_does_not_load_scipy():
    # scipy costs about a second of every CLI start
    proc = source_tree_python(["-c", "import sys, chaos01.cli; print('scipy' in sys.modules)"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


_UNUSED_BY_BATCH = ("chaos01.signals", "chaos01.spectral", "chaos01._decimal",
                    "concurrent.futures", "logging")


@pytest.mark.parametrize("args, unused", [
    (["batch", "{tmp}/man.json", "--jobs", "2"], _UNUSED_BY_BATCH),
    (["analyze", "{tmp}/s.txt"], ("chaos01.signals", "chaos01.spectral", "concurrent.futures")),
    (["psd", "{tmp}/s.txt"], ("chaos01.signals", "concurrent.futures")),
    (["generate", "--kind", "sine", "--n", "1200", "--out", "{tmp}/g.txt"], ()),
    (["--help"], ("chaos01.signals", "chaos01.spectral", "chaos01._decimal")),
], ids=["batch", "analyze", "psd", "generate", "help"])
def test_each_command_loads_only_what_it_runs(tmp_path, args, unused):
    # every request is a fresh process that pays for each module it imports
    c.write_series(c.gen_sine(100.0, 5000.0, 3000), tmp_path / "s.txt")
    _write_manifest(tmp_path / "man.json", ["s.txt", "s.txt"],
                    window={"window_len": 800, "stride": 1100})
    args = [arg.format(tmp=tmp_path) for arg in args]
    code = (f"import sys; sys.argv = ['chaos01', *{args!r}]\n"
            "from chaos01.cli import main\n"
            "try:\n"
            "    main()\n"
            "except SystemExit as exc:\n"
            f"    print(exc.code, sorted(set({unused!r}) & set(sys.modules)))")
    proc = source_tree_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    *output, loaded = proc.stdout.splitlines()
    assert loaded == "0 []", output
    if args[0] == "generate":
        assert c.load_series(tmp_path / "g.txt").samples.size == 1200
    if args[0] == "--help":
        listed = output[output.index("Commands:") + 1:]
        assert [line.split()[0] for line in listed] == ["analyze", "batch", "generate", "psd"]


def test_package_import_loads_no_submodule_and_no_numpy():
    proc = source_tree_python(["-c", "import os, sys; before = dict(os.environ); import chaos01; "
                               "print('numpy' in sys.modules, 'chaos01.core' in sys.modules, "
                               "dict(os.environ) == before)"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "True"]


def test_every_public_name_resolves_and_is_listed():
    code = ("import os; before = dict(os.environ)\n"
            "import chaos01\n"
            "from chaos01 import *\n"
            "from chaos01 import core, seriesio\n"
            "assert core.run_test is chaos01.run_test is run_test\n"
            "assert seriesio.load_series is chaos01.load_series\n"
            "assert not [name for name in chaos01.__all__ if name not in dir(chaos01)]\n"
            "assert all(getattr(chaos01, name) is not None for name in chaos01.__all__)\n"
            "try:\n"
            "    chaos01.no_such_name\n"
            "except AttributeError:\n"
            "    pass\n"
            "else:\n"
            "    raise SystemExit('no AttributeError')\n"
            "assert dict(os.environ) == before  # the library sets no variable\n"
            "print(len(chaos01.__all__))")
    proc = source_tree_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == len(c.__all__) == len(set(c.__all__))


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
def test_cli_import_starts_no_blas_thread():
    # numpy's OpenBLAS would start one spinning thread per extra CPU; it
    # reads an empty value as unset, and so does the CLI
    for environ in ({}, {"OPENBLAS_NUM_THREADS": ""}):
        proc = source_tree_python(["-c", "import os, sys, chaos01.cli; "
                                   "print('numpy' in sys.modules, "
                                   "len(os.listdir('/proc/self/task')), "
                                   "os.environ['OPENBLAS_NUM_THREADS'])"], **environ)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True", "1", "1"], environ


def test_cli_keeps_a_blas_thread_count_the_user_set():
    proc = source_tree_python(["-c", "import os, chaos01.cli; "
                               "print(os.environ['OPENBLAS_NUM_THREADS'])"],
                              OPENBLAS_NUM_THREADS="2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "2"
