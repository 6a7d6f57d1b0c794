"""Self-checks of the benchmark.

    python3 -m pytest bench -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import child
import run
import spans
import workloads

sys.path.insert(0, str(run.SRC))


def test_tracer_wraps_every_binding_and_restores():
    import remkdv.cli as cli
    import remkdv.diagnostics as diagnostics
    import remkdv.energy as energy
    import remkdv.resonance as resonance

    originals = (energy.energy_mode, diagnostics.energy_mode,
                 cli.energy_drift_scan, resonance.classify, diagnostics.classify)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert energy.energy_mode is diagnostics.energy_mode
        assert energy.energy_mode is not originals[0]
        assert cli.energy_drift_scan is not originals[2]
        assert diagnostics.classify is resonance.classify is not originals[3]
        diagnostics.suite_partition(bound=3)
    finally:
        tracer.uninstall()
    assert (energy.energy_mode, diagnostics.energy_mode, cli.energy_drift_scan,
            resonance.classify, diagnostics.classify) == originals

    summary = tracer.summary()
    assert summary["diagnostics.suite_partition"]["calls"] == 1
    # the hot callee is a counter under its parent, not one span per call
    assert summary["resonance.classify"]["calls"] == 7 ** 3
    assert [s[2] for s in tracer.spans] == ["diagnostics.suite_partition"]
    assert {name for _, name in tracer.hot} >= {"resonance.classify"}
    part = summary["diagnostics.suite_partition"]
    assert 0.0 <= part["self_s"] <= part["busy_s"]


def test_traced_pass_writes_identical_manifest(tmp_path):
    item = workloads.items("smoothing", 0)[0]
    deadline = time.monotonic() + 120
    plain = run.run_pass(item, tmp_path, "plain", None, deadline)
    traced = run.run_pass(item, tmp_path, "traced", tmp_path / "spans.json", deadline)
    assert not plain["crashed"] and not traced["crashed"]
    assert ((plain["out"] / "manifest.json").read_bytes()
            == (traced["out"] / "manifest.json").read_bytes())
    layers = traced["layers"]
    assert layers["evolve.step.calls"] == 5000
    assert layers["energy.energy_mode.calls"] == 0
    assert layers["resonance.classify.calls"] == 0
    assert "layers" not in plain
    assert json.loads((tmp_path / "spans.json").read_text())["spans"]


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert set(run.PER_LAYER) >= {metric for metric, _, _ in child.SUMMED}


def test_checks_flag_bad_outputs(tmp_path):
    assert all(ok for _, ok in workloads.check_coercivity([0.9, 1.0, 1.2], {}))
    bad = dict(workloads.check_coercivity([1.0, 1.0, 2.5], {}))
    assert not bad["margin 2 in [0.5, 2.0]"]
    plain = dict(workloads.check_coercivity([1.0, 1.0, 1.0], {}))
    assert not plain["some margin engages the correction"]

    manifest = {"results": {"ratios": {"32:0.05": 15.0, "64:0.05": 40.0,
                                       "128:0.05": 16.0},
                            "deviation": {}}}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    checks = dict(workloads.check_smoothing(tmp_path, 1, run.GOLDEN, {}))
    assert checks["ratio 32:0.05 in [8.0, 32.0]"]
    assert not checks["ratio 64:0.05 in [8.0, 32.0]"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "drift",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
