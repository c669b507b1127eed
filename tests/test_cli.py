"""End-to-end tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import chaos01 as c
from chaos01.cli import main


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
    manifest.write_text("{nope")
    result = runner.invoke(main, ["batch", str(manifest)])
    assert result.exit_code == 2


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
    for jobs, name in ((1, "s1.csv"), (4, "s4.csv"), (4, "s4b.csv")):
        result = runner.invoke(main, ["batch", str(manifest), "--jobs", str(jobs),
                                      "--out", str(tmp_path / name)])
        assert result.exit_code == 0
        blobs.append((tmp_path / name).read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


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


def _source_tree_python(code_args):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
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
