"""One benchmark pass in a fresh interpreter.

    python3 bench/child.py '<spec json>'

The spec (the fields of a workloads.Item, plus "out", "result", "trace"
and "spans") names the calls to make. The pass imports remkdv.cli, builds its
inputs, then times the calls: wall_s and cpu_s cover the calls only, from
the first entry-point call to the last return, output writing included.
peak_rss_mb is the process's ru_maxrss. With "trace" set the calls run under
spans.Tracer and the per-layer sums go into the result as "layers".

The result is written as JSON to spec["result"]; the exit code is 0 when
the pass ran to the end, whatever the program's own exit code was.
"""
from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

from workloads import COERCIVITY

# (metric, span name, field of Tracer.summary()); all add up over passes
SUMMED = [
    ("evolve.step.calls", "evolve.step", "calls"),
    ("evolve.step.busy_s", "evolve.step", "busy_s"),
    ("evolve.simulate.self_s", "evolve.simulate", "self_s"),
    ("energy.energy_mode.calls", "energy.energy_mode", "calls"),
    ("energy.energy_mode.busy_s", "energy.energy_mode", "busy_s"),
    ("energy.diff_energy_dyadic.calls", "energy.diff_energy_dyadic", "calls"),
    ("energy.diff_energy_dyadic.busy_s", "energy.diff_energy_dyadic", "busy_s"),
    ("energy.coercivity_margin.busy_s", "energy.coercivity_margin", "busy_s"),
    ("resonance.d1_triples.calls", "resonance.d1_triples", "calls"),
    ("resonance.d1_triples.busy_s", "resonance.d1_triples", "busy_s"),
    ("resonance.d2_triples_medcut.calls", "resonance.d2_triples_medcut", "calls"),
    ("resonance.d2_triples_medcut.busy_s", "resonance.d2_triples_medcut", "busy_s"),
    ("resonance.classify.calls", "resonance.classify", "calls"),
    ("resonance.classify.busy_s", "resonance.classify", "busy_s"),
    ("pseudo.verify_ibp.calls", "pseudo.verify_ibp", "calls"),
    ("pseudo.verify_ibp.busy_s", "pseudo.verify_ibp", "busy_s"),
    ("pseudo.paired_quadrilinear.calls", "pseudo.paired_quadrilinear", "calls"),
    ("pseudo.paired_quadrilinear.busy_s", "pseudo.paired_quadrilinear", "busy_s"),
    ("diagnostics.suite_resonance.busy_s", "diagnostics.suite_resonance", "busy_s"),
    ("diagnostics.suite_partition.busy_s", "diagnostics.suite_partition", "busy_s"),
    ("diagnostics.suite_pairing.busy_s", "diagnostics.suite_pairing", "busy_s"),
    ("diagnostics.suite_skew.busy_s", "diagnostics.suite_skew", "busy_s"),
    ("diagnostics.suite_ibp.busy_s", "diagnostics.suite_ibp", "busy_s"),
    ("diagnostics.energy_drift_scan.self_s", "diagnostics.energy_drift_scan", "self_s"),
    ("diagnostics.smoothing_scan.self_s", "diagnostics.smoothing_scan", "self_s"),
    ("fields.phi_dyadic.calls", "fields.phi_dyadic", "calls"),
    ("fields.phi_dyadic.busy_s", "fields.phi_dyadic", "busy_s"),
    ("cli.main.self_s", "cli.main", "self_s"),
]

COMPLEX_BYTES = 16


def layer_sums(summary: dict) -> dict:
    """The additive per-layer quantities of one pass."""
    zero = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "attrs": []}
    out = {metric: summary.get(name, zero)[field] for metric, name, field in SUMMED}
    tables = [a for name in ("resonance.d1_triples", "resonance.d2_triples_medcut")
              for a in summary.get(name, zero)["attrs"]]
    out["resonance.d1_triples.rows"] = sum(
        a["rows"] for a in summary.get("resonance.d1_triples", zero)["attrs"])
    out["resonance.d2_triples_medcut.rows"] = sum(
        a["rows"] for a in summary.get("resonance.d2_triples_medcut", zero)["attrs"])
    out["resonance.cell_tables_built"] = len(tables)
    out["resonance.cell_tables_distinct"] = len({tuple(a["key"]) for a in tables})
    sims = summary.get("evolve.simulate", zero)["attrs"]
    out["evolve.snapshots_kept"] = sum(a["snapshots"] for a in sims)
    out["evolve.snapshot_bytes"] = sum(a["snapshots"] * a["modes"] * COMPLEX_BYTES
                                       for a in sims)
    return out


def _live_pairs(seeds) -> list:
    """criterion 7's live (u, v) pairs, one per generator seed, each field
    rescaled to H^{1/3} norm COERCIVITY["target"]."""
    import numpy as np
    from remkdv.diagnostics import random_real_field
    from remkdv.fields import sobolev_norm

    pairs = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        pair = []
        for _ in range(2):
            f = random_real_field(COERCIVITY["max_mode"], rng, decay=1.0)
            pair.append((COERCIVITY["target"] / sobolev_norm(f, 1.0 / 3.0)) * f)
        pairs.append(pair)
    return pairs


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def main(spec: dict) -> None:
    t0 = time.perf_counter()
    import remkdv.cli
    import_s = time.perf_counter() - t0
    import remkdv.energy  # already loaded by remkdv.cli

    out_dir = Path(spec["out"])
    pairs = _live_pairs(spec["pair_seeds"]) if spec["kind"] == "coercivity" else None
    tracer = None
    if spec["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    result = {"import_s": import_s, "exit": 0}
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    w0 = time.perf_counter()
    try:
        if spec["kind"] == "cli":
            result["exit"] = remkdv.cli.main(list(spec["argv"]) + ["--out", str(out_dir)])
        else:
            result["margins"] = [
                remkdv.energy.coercivity_margin(u, v, s_prime=COERCIVITY["s_prime"])
                for u, v in pairs]
    finally:
        w1 = time.perf_counter()
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        if tracer is not None:
            tracer.uninstall()
    result["wall_s"] = w1 - w0
    result["cpu_s"] = ((ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime))
    result["peak_rss_mb"] = ru1.ru_maxrss / 1024.0   # Linux reports KiB
    result["output_bytes"] = _dir_bytes(out_dir) if out_dir.is_dir() else 0
    if tracer is not None:
        result["layers"] = layer_sums(tracer.summary())
        if spec.get("spans"):
            tracer.dump(spec["spans"])
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
