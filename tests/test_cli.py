"""End-to-end tests for the command-line interface."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import chaos01 as c
from chaos01.cli import _read, main


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
    assert "--trajectory-c" in result.output
    assert calls == []
    assert sorted(tmp_path.iterdir()) == before


def test_analyze_unknown_flag_exits_2(runner, tmp_path):
    result = runner.invoke(main, ["analyze", "x.csv", "--frobnicate"])
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
    monkeypatch.setattr("chaos01.cli.run_test", lambda *args: calls.append(args))
    src = _generate(runner, tmp_path, "uniform_random", n=600)
    manifest = _write_manifest(tmp_path / "man.json", [src.name], config={"num_c": 4})
    result = runner.invoke(main, ["batch", str(manifest), "--out", str(tmp_path / "nodir" / "s.csv")])
    assert result.exit_code == 3, result.output
    assert result.output.startswith("error: ") and result.output.count("\n") == 1
    assert calls == []


def test_batch_summary_path_naming_an_input_exits_2(runner, tmp_path):
    src = _generate(runner, tmp_path, "uniform_random", n=600)
    before = src.read_bytes()
    manifest = _write_manifest(tmp_path / "man.json", [src.name], config={"num_c": 4}, out=src.name)
    for flags in ([], ["--out", str(src)]):
        result = runner.invoke(main, ["batch", str(manifest), *flags])
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: ") and result.output.count("\n") == 1
    assert src.read_bytes() == before


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
])
def test_batch_invalid_manifest_exits_2_with_one_line(runner, tmp_path, patch):
    _generate(runner, tmp_path, "uniform_random", n=600)
    doc = {"inputs": ["uniform_random.csv"], "config": {"num_c": 4}, **patch}
    manifest = tmp_path / "man.json"
    manifest.write_text(json.dumps(doc))
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
def test_result_config_block_reads_back_as_manifest_config(runner, tmp_path, config):
    src = _generate(runner, tmp_path, "uniform_random", n=600)
    result = c.run_test(c.load_series(src), config)
    c.export_result(result, tmp_path / "r.json")
    block = json.loads((tmp_path / "r.json").read_text())["config"]
    assert _read(c.TestConfig, block, "config") == config
    manifest = _write_manifest(tmp_path / "man.json", [src.name], config=block)
    assert runner.invoke(main, ["batch", str(manifest)]).exit_code == 0
    row = (tmp_path / "man.summary.csv").read_text().splitlines()[1].split(",")
    assert row[2:4] == [repr(result.k_m), result.label.value]


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


@given(doc=_MANIFESTS, jobs=st.sampled_from(["1", "2"]))
@settings(max_examples=100, deadline=None)
def test_batch_manifest_fuzz_exits_with_a_documented_code(fuzz_dir, doc, jobs):
    manifest = fuzz_dir / "man.json"
    manifest.write_text(json.dumps(doc))
    result = CliRunner().invoke(main, ["batch", str(manifest), "--jobs", jobs])
    assert result.exception is None or isinstance(result.exception, SystemExit), result.output
    assert result.exit_code in (0, 2, 3, 4)


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
    result = runner.invoke(main, ["batch", "--help"])
    for flag in ("--window", "--stride", "--jobs"):
        assert flag in result.output


def test_unknown_command_exits_2(runner):
    result = runner.invoke(main, ["transmogrify"])
    assert result.exit_code == 2


# ---------------------------------------------------------------------------
# running from a source tree


def _source_tree_python(code_args, **environ):
    # without the BLAS setting that importing chaos01.cli here put in this
    # process's environment, unless the test sets one
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env.update(environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, *code_args], env=env, capture_output=True,
                          text=True, timeout=60)


def test_version_from_source_tree():
    proc = _source_tree_python(["-m", "chaos01.cli", "--version"])
    assert proc.returncode == 0, proc.stderr
    assert "0.1.0" in proc.stdout


def test_cli_import_does_not_load_scipy():
    # scipy costs about a second of every CLI start
    proc = _source_tree_python(["-c", "import sys, chaos01.cli; print('scipy' in sys.modules)"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_package_import_loads_no_submodule_and_no_numpy():
    proc = _source_tree_python(["-c", "import os, sys; before = dict(os.environ); import chaos01; "
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
    proc = _source_tree_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == len(c.__all__) == len(set(c.__all__))


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
def test_cli_import_starts_no_blas_thread():
    # numpy's OpenBLAS would start one spinning thread per extra CPU
    proc = _source_tree_python(["-c", "import os, sys, chaos01.cli; "
                                "print('numpy' in sys.modules, len(os.listdir('/proc/self/task')), "
                                "os.environ['OPENBLAS_NUM_THREADS'])"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "1", "1"]


def test_cli_keeps_a_blas_thread_count_the_user_set():
    proc = _source_tree_python(["-c", "import os, chaos01.cli; "
                                "print(os.environ['OPENBLAS_NUM_THREADS'])"],
                               OPENBLAS_NUM_THREADS="2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "2"
