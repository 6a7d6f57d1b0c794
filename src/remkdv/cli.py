"""Command line front end.

Subcommands: simulate, identities, smoothing, energy-drift, norms. Each takes
--config (JSON), --out (directory), --seed, and repeated --override key=value
with dotted paths into the config. Outputs are a manifest.json plus CSV files,
written deterministically (seeded randomness only, stable key order, repr
floats) so identical invocations produce identical bytes.

Exit codes: 0 success, 1 a checked identity or required band failed,
2 runtime failure (including blow-up), 3 bad configuration or arguments.
"""
from __future__ import annotations

import argparse
import copy
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .diagnostics import (EnergyDriftReport, SmoothingReport, decaying_profile,
                          energy_drift_scan, norms_report, profile_from_csv,
                          run_identity_suites, single_mode_profile,
                          smoothing_scan)
from .energy import EnergyConfig
from .evolve import (BlowUpError, ModelConfig, gauge_backward, gauge_forward,
                     simulate)

__all__ = ["main"]


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; bad args are code 3 here
        self.exit(3, f"{self.prog}: error: {message}\n")


DEFAULTS: dict[str, dict] = {
    "simulate": {
        "seed": 0,
        "model": {"max_mode": 128, "dt": 1e-4, "t_final": 0.25, "sign": 1,
                  "renormalized": True, "dealias": True, "integrator": "ifrk4"},
        "profile": {"type": "single_mode", "eps": 0.1, "sigma": 2.0, "path": None},
        "sample_every": 250,
        "gauge": "none",
    },
    "identities": {
        "seed": 0,
        "quick": True,
    },
    "smoothing": {
        "seed": 0,
        "model": {"max_mode": 256, "dt": 1e-4, "t_final": 0.25, "sign": 1},
        "profile": {"sigma": 2.0},
        "eps_list": [0.05, 0.1],
        "watch_modes": [32, 64, 128],
        "scaling_band": None,  # e.g. [8.0, 32.0] to enforce the quartic ratio
    },
    "energy-drift": {
        "seed": 0,
        "model": {"max_mode": 2048, "dt": 2e-4, "t_final": 0.1, "sign": 1,
                  "integrator": "ifrk4"},
        "profile": {"eps": 0.05, "sigma": 1.0},
        "k_watch": 1024,
        "sample_every": 25,
        "energy": {"alpha": 1.0, "beta": 1.0, "gamma": 1.0},
        "require_ratio_below": None,  # e.g. 1.0 to enforce improvement
    },
    "norms": {
        "seed": 0,
        "model": {"max_mode": 128, "dt": 1e-4, "t_final": 0.25, "sign": 1,
                  "renormalized": True, "dealias": True, "integrator": "ifrk4"},
        "profile": {"type": "decaying", "eps": 0.1, "sigma": 2.0},
        "sample_every": 125,
        "s": 1.0 / 3.0,
    },
}


def _deep_update(base: dict, upd: dict) -> dict:
    for key, val in upd.items():
        if key not in base:
            raise ConfigError(f"unknown config key {key!r}")
        if isinstance(base[key], dict) and isinstance(val, dict):
            _deep_update(base[key], val)
        else:
            base[key] = val
    return base


def _set_dotted(cfg: dict, dotted: str, raw: str) -> None:
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = cfg
    parts = dotted.split(".")
    for part in parts[:-1]:
        if part not in node or not isinstance(node[part], dict):
            raise ConfigError(f"no config section {part!r} in {dotted!r}")
        node = node[part]
    if parts[-1] not in node:
        raise ConfigError(f"unknown config key {dotted!r}")
    node[parts[-1]] = value


def _load_config(command: str, args) -> dict:
    cfg = copy.deepcopy(DEFAULTS[command])
    if args.config is not None:
        with open(args.config) as fh:
            _deep_update(cfg, json.load(fh))
    for item in args.override:
        if "=" not in item:
            raise ConfigError(f"--override expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        _set_dotted(cfg, key.strip(), raw.strip())
    if args.seed is not None:
        cfg["seed"] = args.seed
    _integer(cfg["seed"], "seed")
    return cfg


def _model_config(section: dict) -> ModelConfig:
    _integer(section["max_mode"], "model.max_mode")
    try:
        return ModelConfig(**section)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad model config: {exc}") from exc


def _sample_every(cfg: dict) -> int:
    n = _integer(cfg["sample_every"], "sample_every")
    if n < 1:
        raise ConfigError(f"sample_every must be at least 1, got {n}")
    return n


def _energy_config(section: dict) -> EnergyConfig:
    try:
        return EnergyConfig(**section)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad energy config: {exc}") from exc


def _finite(value, name: str) -> float:
    """A config number that must be finite (an amplitude or a decay rate)."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        x = math.nan
    if not math.isfinite(x):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return x


def _integer(value, name: str) -> int:
    """A config integer (a seed, a mode or a count)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def _list(value, convert, name: str) -> list:
    """A config list, each entry passed through convert(entry, name)."""
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a list, got {value!r}")
    return [convert(v, f"{name} entry") for v in value]


def _build_profile(section: dict, max_mode: int, seed: int):
    kind = section.get("type", "single_mode")
    if kind == "single_mode":
        return single_mode_profile(max_mode, _finite(section.get("eps", 0.1), "profile.eps"))
    if kind == "decaying":
        return decaying_profile(max_mode, _finite(section.get("eps", 0.1), "profile.eps"),
                                _finite(section.get("sigma", 2.0), "profile.sigma"), seed)
    if kind == "file":
        path = section.get("path")
        if not path:
            raise ConfigError("profile.type=file requires profile.path")
        prof = profile_from_csv(path)
        if prof.max_mode > max_mode:
            raise ConfigError("profile file exceeds model.max_mode")
        out = np.zeros(2 * max_mode + 1, dtype=np.complex128)
        out[max_mode - prof.max_mode: max_mode + prof.max_mode + 1] = prof.coeffs
        from .fields import FourierField
        return FourierField(out, copy=False)
    raise ConfigError(f"unknown profile type {kind!r}")


def _write_manifest(out_dir: Path, command: str, cfg: dict, results: dict) -> None:
    manifest = {
        "command": command,
        "config": cfg,
        "results": results,
        "versions": {"remkdv": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__},
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fmt(x: float) -> str:
    return repr(float(x))


def _cmd_simulate(cfg: dict, out_dir: Path) -> int:
    model = _model_config(cfg["model"])
    u0 = _build_profile(cfg["profile"], model.max_mode, cfg["seed"])
    res = simulate(u0, model, sample_every=_sample_every(cfg))
    states = res.snapshots
    if cfg["gauge"] == "forward":
        states = [gauge_forward(s, model) for s in states]
    elif cfg["gauge"] == "backward":
        states = [gauge_backward(s, model) for s in states]
    elif cfg["gauge"] != "none":
        raise ConfigError("gauge must be one of none, forward, backward")
    with open(out_dir / "snapshots.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "k", "re", "im"])
        for s in states:
            for k in s.field.modes:
                c = s.field.mode(int(k))
                w.writerow([_fmt(s.t), int(k), _fmt(c.real), _fmt(c.imag)])
    final = res.final
    results = {
        "t_final": final.t,
        "l2_norm": final.field.l2_norm(),
        "l2_drift": abs(final.field.l2_norm() - u0.l2_norm()),
        "mass": final.field.mass(),
        "alpha_accum": final.alpha_accum,
        "n_snapshots": len(states),
    }
    _write_manifest(out_dir, "simulate", cfg, results)
    print(f"simulate: t={final.t:.6g} l2_drift={results['l2_drift']:.3e} "
          f"snapshots={len(states)}")
    return 0


def _cmd_identities(cfg: dict, out_dir: Path) -> int:
    if not isinstance(cfg["quick"], bool):
        raise ConfigError(f"quick must be true or false, got {cfg['quick']!r}")
    checks = run_identity_suites(seed=cfg["seed"], quick=cfg["quick"])
    with open(out_dir / "identities.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["name", "residual", "tol", "passed"])
        for c in checks:
            w.writerow([c.name, _fmt(c.residual), _fmt(c.tol), int(c.passed)])
    ok = all(c.passed for c in checks)
    for c in checks:
        print(f"{'PASS' if c.passed else 'FAIL'}  {c.name}: "
              f"residual {c.residual:.3e} (tol {c.tol:.1e})")
    _write_manifest(out_dir, "identities", cfg, {
        "n_checks": len(checks),
        "n_failed": sum(not c.passed for c in checks),
        "max_residual": max(c.residual for c in checks),
    })
    return 0 if ok else 1


def _smoothing_rows(rep: SmoothingReport):
    for eps in rep.eps_list:
        for k in rep.watch_modes:
            yield eps, k, rep.sup_deviation[eps][k]


def _cmd_smoothing(cfg: dict, out_dir: Path) -> int:
    model = _model_config(cfg["model"])
    band = cfg["scaling_band"]
    if band is not None:
        band = _list(band, _finite, "scaling_band")
        if len(band) != 2:
            raise ConfigError(f"scaling_band must be [low, high], got {band!r}")
    rep = smoothing_scan(
        max_mode=int(model.max_mode), t_final=float(model.t_final),
        dt=float(model.dt), sigma=_finite(cfg["profile"]["sigma"], "profile.sigma"),
        eps_list=_list(cfg["eps_list"], _finite, "eps_list"),
        watch_modes=_list(cfg["watch_modes"], _integer, "watch_modes"),
        seed=cfg["seed"], sign=int(model.sign))
    with open(out_dir / "smoothing.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["eps", "k", "sup_deviation"])
        for eps, k, dev in _smoothing_rows(rep):
            w.writerow([_fmt(eps), k, _fmt(dev)])
    ratios = {}
    for k, pairs in rep.ratios.items():
        for eps, r in pairs.items():
            print(f"smoothing: k={k} ratio({2 * eps:g}/{eps:g}) = {r:.3f} "
                  f"(quartic scaling predicts 16)")
            ratios[f"{k}:{eps!r}"] = r
    _write_manifest(out_dir, "smoothing", cfg,
                    {"ratios": ratios,
                     "deviation": {f"{eps!r}:{k}": dev
                                   for eps, k, dev in _smoothing_rows(rep)}})
    if band is not None:
        lo, hi = band
        if not all(lo <= r <= hi for r in ratios.values()):
            print(f"smoothing: ratio outside required band [{lo}, {hi}]")
            return 1
    return 0


def _cmd_energy_drift(cfg: dict, out_dir: Path) -> int:
    model = _model_config(cfg["model"])
    limit = cfg["require_ratio_below"]
    if limit is not None:
        limit = _finite(limit, "require_ratio_below")
    rep: EnergyDriftReport = energy_drift_scan(
        max_mode=int(model.max_mode), k_watch=_integer(cfg["k_watch"], "k_watch"),
        t_final=float(model.t_final), dt=float(model.dt),
        sigma=_finite(cfg["profile"]["sigma"], "profile.sigma"),
        eps=_finite(cfg["profile"]["eps"], "profile.eps"),
        seed=cfg["seed"], sample_every=_sample_every(cfg),
        sign=int(model.sign), energy_config=_energy_config(cfg["energy"]),
        integrator=model.integrator)
    with open(out_dir / "energy_drift.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "quadratic", "total"])
        for t, q, tot in zip(rep.times, rep.quadratic, rep.total):
            w.writerow([_fmt(t), _fmt(q), _fmt(tot)])
    print(f"energy-drift: k={rep.k} drift(quadratic)={rep.drift_quadratic:.3e} "
          f"drift(corrected)={rep.drift_total:.3e} ratio={rep.ratio:.3f}")
    _write_manifest(out_dir, "energy-drift", cfg, {
        "drift_quadratic": rep.drift_quadratic,
        "drift_total": rep.drift_total,
        "ratio": rep.ratio,
    })
    if limit is not None and not rep.ratio < limit:
        print(f"energy-drift: ratio {rep.ratio:.3f} not below required {limit}")
        return 1
    return 0


def _cmd_norms(cfg: dict, out_dir: Path) -> int:
    model = _model_config(cfg["model"])
    u0 = _build_profile(cfg["profile"], model.max_mode, cfg["seed"])
    s = _finite(cfg["s"], "s")
    res = simulate(u0, model, sample_every=_sample_every(cfg))
    rep = norms_report(res.snapshots, res.times, s=s)
    with open(out_dir / "norms.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["name", "value"])
        for name, val in rep.items():
            w.writerow([name, _fmt(val)])
    for name, val in rep.items():
        print(f"norms: {name} = {val:.6e}")
    _write_manifest(out_dir, "norms", cfg, rep)
    return 0


COMMANDS = {
    "simulate": _cmd_simulate,
    "identities": _cmd_identities,
    "smoothing": _cmd_smoothing,
    "energy-drift": _cmd_energy_drift,
    "norms": _cmd_norms,
}


def main(argv=None) -> int:
    parser = _Parser(prog="remkdv",
                     description="spectral runs and exact-identity checks for "
                                 "the renormalized cubic dispersive flow")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE", help="dotted config override")
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.command, args)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except (json.JSONDecodeError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except BlowUpError as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
