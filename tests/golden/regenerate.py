"""Regenerate the golden baseline files in this directory.

Run from the repository root:

    python3 tests/golden/regenerate.py

Baselines are deterministic (fixed seeds, fixed configurations). The tests
compare fresh measurements against these values with a +/-20% band, so a
regeneration is only needed when a deliberate change moves an empirical
constant; commit the diff together with the change that caused it.

energy_drift.json holds two record lists at criterion 9's shape. "runs" are
the IFRK4 records that the energy-drift CLI default and the benchmark
compare against; they are copied from the file unchanged. "resolved_runs"
are the exact-phase records that criterion 9 gates on; they are measured
afresh (about three minutes each).
"""

import json
from pathlib import Path

from remkdv.diagnostics import decaying_profile, energy_drift_scan, smoothing_scan
from remkdv.energy import energy_mode
from remkdv.evolve import ModelConfig
from remkdv.pseudo import estimate_quadrilinear_ratio, ibp_symbols, symbol_one

HERE = Path(__file__).resolve().parent


def smoothing_baseline() -> dict:
    config = {
        "max_mode": 256,
        "t_final": 0.25,
        "dt": 1e-4,
        "sigma": 2.0,
        "eps_list": [0.05, 0.1],
        "watch_modes": [32, 64, 128],
        "seed": 0,
    }
    rep = smoothing_scan(
        decaying_profile(config["max_mode"], 1.0, config["sigma"], config["seed"]),
        ModelConfig(max_mode=config["max_mode"], dt=config["dt"],
                    t_final=config["t_final"]),
        tuple(config["eps_list"]), tuple(config["watch_modes"]))
    return {
        "config": config,
        "ratios": {str(k): rep.ratios[k][0.05] for k in (32, 64, 128)},
        "sup_deviation": {
            str(eps): {str(k): v for k, v in devs.items()}
            for eps, devs in rep.sup_deviation.items()
        },
    }


def _resolved_record(eps: float) -> dict:
    config = {
        "max_mode": 2048,
        "k_watch": 1024,
        "t_final": 0.1,
        "dt": 2e-4,
        "sigma": 1.0,
        "eps": eps,
        "seed": 0,
        "sample_every": 25,
        "integrator": "exact-phase",
    }
    u0 = decaying_profile(config["max_mode"], eps, config["sigma"], config["seed"])
    model = ModelConfig(max_mode=config["max_mode"], dt=config["dt"],
                        t_final=config["t_final"], integrator=config["integrator"])
    rep = energy_drift_scan(u0, model, config["k_watch"], config["sample_every"])
    e0 = energy_mode(u0, config["k_watch"])
    return {
        "config": config,
        "drift_quadratic": rep.drift_quadratic,
        "drift_total": rep.drift_total,
        "ratio": rep.ratio,
        "initial": {"quadratic": e0.quadratic, "e31": e0.e31,
                    "e32": e0.e32, "e5": e0.e5},
    }


def energy_drift_baseline() -> dict:
    runs = json.loads((HERE / "energy_drift.json").read_text())["runs"]
    resolved = [_resolved_record(eps) for eps in (0.05, 0.025)]
    return {"runs": runs, "resolved_runs": resolved}


def quadrilinear_baseline() -> dict:
    K = 64
    runs = []
    for N, M in ((32, 1), (32, 2), (64, 4)):
        syms = ibp_symbols(M, N)
        for name, sym in (("one", symbol_one()),
                          ("shift", syms.eta_shift_out),
                          ("boundary", syms.eta_boundary)):
            val = estimate_quadrilinear_ratio(sym, M, trials=20, K=K, seed=7)
            runs.append({"symbol": name, "N": N, "M": M, "K": K,
                         "trials": 20, "seed": 7, "ratio": val})
    return {"runs": runs}


def main() -> None:
    for fname, build in (
        ("smoothing.json", smoothing_baseline),
        ("energy_drift.json", energy_drift_baseline),
        ("quadrilinear_ratio.json", quadrilinear_baseline),
    ):
        data = build()
        path = HERE / fname
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
