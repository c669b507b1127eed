"""Acceptance gate for the toolkit.

Eight numbered criteria cover reference-value reproduction, ordering
structure, oracle equivalence, scale invariance, boundedness vs diffusion,
determinism, degenerate totality, and spectral sanity.  Every check prints
one PASS/FAIL line (run with ``-rA`` or ``-s`` to see them all); the
assertions state the targets verbatim and report honestly, so a criterion
the estimator cannot reach fails red rather than being weakened.

Suggested invocation::

    pytest tests/test_acceptance.py -v -rA
"""

import json
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

import chaos01 as c
from chaos01.cli import main as cli_main

import oracles
from conftest import REFERENCE_SIGNALS

SEEDS = tuple(range(20))


def _report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def km_table():
    """K_m for all six reference signals across 20 frequency-draw seeds."""
    table = {}
    for kind, build in REFERENCE_SIGNALS.items():
        series = build()
        for seed in SEEDS:
            table[kind, seed] = c.run_test(series, c.TestConfig(seed=seed)).k_m
    return table


# ---------------------------------------------------------------------------
# criterion 1: reference K_m values (median over 20 seeds, default config)


_TARGETS = {
    "sine": (0.177, 0.10),
    "sawtooth": (0.094, 0.10),
    "quasi_periodic": (0.357, 0.12),
    "chirp": (0.520, 0.15),
}


@pytest.mark.parametrize("kind", list(REFERENCE_SIGNALS))
def test_criterion_1_reference_k_m(kind, km_table):
    median = float(np.median([km_table[kind, seed] for seed in SEEDS]))
    if kind in _TARGETS:
        target, tol = _TARGETS[kind]
        ok = abs(median - target) <= tol
        detail = f"median K_m={median:.3f}, target {target} +/- {tol}"
    else:
        ok = median >= 0.90
        detail = f"median K_m={median:.3f}, target >= 0.90"
    _report(f"criterion-1[{kind}]", ok, detail)


def test_criterion_1_runtime_budget():
    series = REFERENCE_SIGNALS["quasi_periodic"]()
    start = time.perf_counter()
    c.run_test(series, c.TestConfig(seed=0))
    elapsed = time.perf_counter() - start
    _report("criterion-1[runtime]", elapsed < 10.0, f"{elapsed:.2f} s per signal (budget 10 s)")


# ---------------------------------------------------------------------------
# criterion 2: ordering structure, required to hold for every seed


_ORDERINGS = [
    ("sawtooth<quasi_periodic", lambda t, s: t["sawtooth", s] < t["quasi_periodic", s]),
    ("quasi_periodic<chirp", lambda t, s: t["quasi_periodic", s] < t["chirp", s]),
    ("chirp<henon", lambda t, s: t["chirp", s] < t["henon", s]),
    ("sawtooth<sine", lambda t, s: t["sawtooth", s] < t["sine", s]),
    ("sine<0.2", lambda t, s: t["sine", s] < 0.2),
    ("0.2<=quasi_periodic", lambda t, s: 0.2 <= t["quasi_periodic", s]),
    ("quasi_periodic<0.5", lambda t, s: t["quasi_periodic", s] < 0.5),
]


@pytest.mark.parametrize("name,check", _ORDERINGS, ids=[o[0] for o in _ORDERINGS])
def test_criterion_2_ordering(name, check, km_table):
    violations = [seed for seed in SEEDS if not check(km_table, seed)]
    detail = "held for all 20 seeds" if not violations else f"violated at seeds {violations}"
    _report(f"criterion-2[{name}]", not violations, detail)


# ---------------------------------------------------------------------------
# criterion 3: equivalence with an independent re-summation oracle


def test_criterion_3_oracle_equivalence():
    """200 random series, lengths 50-200, random angles; 1e-9 relative
    tolerance with an equal absolute floor where sums cancel to zero."""
    rng = np.random.Generator(np.random.PCG64(123))
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(50, 201))
        samples = rng.uniform(-5.0, 5.0, size=n)
        angle = float(rng.uniform(0.05, 6.2))
        series = c.TimeSeries(samples)
        traj = c.translation_variables(series, angle)
        p_ref, q_ref = oracles.translation(samples, angle)
        assert np.allclose(traj.p, p_ref, rtol=1e-9, atol=1e-9)
        assert np.allclose(traj.q, q_ref, rtol=1e-9, atol=1e-9)
        n0 = min(20, n - 1)
        curve = c.msd(traj, n0)
        m_ref = oracles.msd(p_ref, q_ref, range(1, n0 + 1))
        assert np.allclose(curve.values, m_ref, rtol=1e-9, atol=1e-9)
        scale = np.maximum(np.abs(m_ref), 1.0)
        worst = max(worst, float(np.max(np.abs(curve.values - m_ref) / scale)))
    _report("criterion-3", True, f"200 series matched; worst scaled deviation {worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 4: growth rates are invariant under positive rescaling


def test_criterion_4_scale_invariance():
    rng = np.random.Generator(np.random.PCG64(456))
    for trial in range(100):
        n = int(rng.integers(100, 401))
        samples = rng.normal(size=n) * float(rng.uniform(0.1, 10.0))
        angle = float(rng.uniform(0.05, 6.2))
        alpha = float(10.0 ** rng.uniform(-3.0, 3.0))
        n0 = c.lag_window(n, 0.28)
        for method in (c.growth_rate_correlation, c.growth_rate_regression):
            base = method(c.msd(c.translation_variables(c.TimeSeries(samples), angle), n0))
            scaled = method(c.msd(
                c.translation_variables(c.TimeSeries(alpha * samples), angle), n0))
            assert base.degenerate == scaled.degenerate, trial
            if not base.degenerate:
                assert scaled.k == pytest.approx(base.k, rel=1e-9, abs=1e-9), trial
    _report("criterion-4", True, "100 rescaled trials, both methods, within 1e-9")


# ---------------------------------------------------------------------------
# criterion 5: bounded paths stay bounded, chaotic paths diffuse


def test_criterion_5_sawtooth_radius_is_bounded():
    traj = c.translation_variables(REFERENCE_SIGNALS["sawtooth"](), 2.5)
    radius = np.hypot(traj.p, traj.q)
    r_half = radius[:2500].max()
    r_full = radius.max()
    growth = r_full / r_half - 1.0
    _report("criterion-5[sawtooth-radius]", growth < 0.10,
            f"max radius grew {growth * 100:.2f}% from N=2500 to N=5000 (limit 10%)")


def test_criterion_5_henon_diffuses_at_most_angles():
    result = c.run_test(REFERENCE_SIGNALS["henon"](), c.TestConfig(seed=0))
    strong = sum(1 for r in result.per_c if not r.degenerate and r.k > 0.9)
    _report("criterion-5[henon-diffusion]", strong >= 80,
            f"K_c > 0.9 at {strong}/100 angles (need >= 80)")


# ---------------------------------------------------------------------------
# criterion 6: bitwise determinism, including concurrent batch runs


def test_criterion_6_repeated_analyze_is_byte_identical(tmp_path):
    runner = CliRunner()
    src = tmp_path / "q.csv"
    c.write_series(REFERENCE_SIGNALS["quasi_periodic"](), src)
    blobs = []
    for name in ("a.json", "b.json"):
        res = runner.invoke(cli_main, [
            "analyze", str(src), "--seed", "7",
            "--out", str(tmp_path / name), "--scatter", str(tmp_path / f"{name}.kc.csv"),
        ])
        assert res.exit_code == 0, res.output
        blobs.append((tmp_path / name).read_bytes())
    _report("criterion-6[analyze]", blobs[0] == blobs[1],
            f"two runs, {len(blobs[0])} identical bytes")


def test_criterion_6_concurrent_batch_is_byte_identical(tmp_path):
    runner = CliRunner()
    inputs = []
    for kind in ("sine", "quasi_periodic", "henon", "uniform_random"):
        path = tmp_path / f"{kind}.csv"
        c.write_series(REFERENCE_SIGNALS[kind](), path)
        inputs.append(path.name)
    manifest = tmp_path / "man.json"
    manifest.write_text(json.dumps({"inputs": inputs, "config": {"num_c": 40}}))
    blobs = []
    for jobs, name in ((4, "s_a.csv"), (4, "s_b.csv"), (1, "s_c.csv")):
        res = runner.invoke(cli_main, ["batch", str(manifest), "--jobs", str(jobs),
                                       "--out", str(tmp_path / name)])
        assert res.exit_code == 0, res.output
        blobs.append((tmp_path / name).read_bytes())
    _report("criterion-6[batch]", blobs[0] == blobs[1] == blobs[2],
            "4-worker runs match each other and the serial run")


# ---------------------------------------------------------------------------
# criterion 7: degenerate inputs produce documented outcomes, never NaN


def test_criterion_7_zero_series():
    with pytest.raises(c.AllDegenerateError):
        c.run_test(c.TimeSeries(np.zeros(2000)))
    _report("criterion-7[zero]", True, "all-degenerate error raised")


def test_criterion_7_constant_series(tmp_path):
    result = c.run_test(c.TimeSeries(np.full(2000, 4.2)))
    values = [result.k_m] + [r.k for r in result.per_c] + [r.c for r in result.per_c]
    finite = all(math.isfinite(v) for v in values)
    path = tmp_path / "const.json"
    c.export_result(result, path)
    text = path.read_text()
    clean = "NaN" not in text and "Infinity" not in text
    _report("criterion-7[constant]", finite and clean,
            f"K_m={result.k_m:.4f}, all values finite, export clean")


def test_criterion_7_single_sample():
    with pytest.raises(c.SeriesTooShortError):
        c.run_test(c.TimeSeries([3.0]))
    _report("criterion-7[single-sample]", True, "too-short error raised")


# ---------------------------------------------------------------------------
# criterion 8: spectral sanity on the reference tones


def test_criterion_8_sine_peak():
    estimate = c.psd(REFERENCE_SIGNALS["sine"]())
    peak_bin = int(np.argmax(estimate.power))
    freq = estimate.frequencies[peak_bin]
    bin_width = 5000.0 / 5000
    ok = abs(freq - 100.0) <= bin_width and estimate.power[peak_bin] == 1.0
    _report("criterion-8[sine]", ok,
            f"peak at {freq} Hz (bin width {bin_width}), power {estimate.power[peak_bin]}")


def test_criterion_8_quasi_periodic_two_peaks():
    estimate = c.psd(REFERENCE_SIGNALS["quasi_periodic"]())
    strong = np.nonzero(estimate.power > 0.5)[0]
    ok = strong.size == 2
    _report("criterion-8[quasi-periodic]", ok,
            f"{strong.size} bins above 0.5 at {estimate.frequencies[strong]} Hz (need exactly 2)")
