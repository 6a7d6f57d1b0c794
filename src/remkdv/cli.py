"""Command line front end.

Subcommands: simulate, identities, smoothing, energy-drift, norms. Each takes
--config (JSON), --out (directory), --seed, and repeated --override key=value
with dotted paths into the config. Every value is checked against
`DEFAULTS` before anything runs. Outputs are a manifest.json plus one CSV
file, written deterministically (seeded randomness only, stable key order,
repr floats) so identical invocations produce identical bytes.

Exit codes (`EXIT_CODES`): 0 success, 1 a checked identity or required band
failed, 2 runtime failure (including blow-up), 3 bad configuration or
arguments.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .diagnostics import (decaying_profile, energy_drift_scan, norms_report,
                          profile_from_csv, run_identity_suites,
                          single_mode_profile, smoothing_scan)
from .evolve import (BlowUpError, ModelConfig, gauge_backward, gauge_forward,
                     simulate)
from .fields import FourierField

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

# The type of a key's default is its check. What a type cannot say is here:
# the type a None default stands for when the value is not null, and the
# rules a value must also meet (by key, or by (command, key) where a command
# differs).
NULLABLE = {"profile.path": "", "scaling_band": [0.0], "require_ratio_below": 0.0}


def _one_of(*choices):
    return choices.__contains__, "one of " + ", ".join(choices)


RULES = {
    "seed": ((lambda n: n >= 0), "at least 0"),
    "sample_every": ((lambda n: n >= 1), "at least 1"),
    "k_watch": ((lambda k: k != 0), "a nonzero mode"),
    "scaling_band": ((lambda band: len(band) == 2), "[low, high]"),
    "gauge": _one_of("none", "forward", "backward"),
    "profile.type": _one_of("single_mode", "decaying", "file"),
    # norms reads no profile.path, so it has no file profile
    ("norms", "profile.type"): _one_of("single_mode", "decaying"),
}
_KINDS = {bool: "true or false", int: "an integer", float: "a finite number",
          str: "a string", list: "a list", dict: "an object of config keys"}


def _check(command: str, value, default, key: str = ""):
    """value checked against default, where a section may leave keys out;
    returns the copy a run reads, with integers given for floats as floats."""
    if default is None:
        if value is None:
            return None
        default = NULLABLE[key]
    kind = type(default)
    if kind is float and type(value) is int:
        with contextlib.suppress(OverflowError):  # past the float range: refused below
            value = float(value)
    if type(value) is not kind or (kind is float and not math.isfinite(value)):
        raise ConfigError(f"{key or 'the config'} must be {_KINDS[kind]}, got {value!r}")
    if kind is list:
        value = [_check(command, v, default[0], f"{key}[{i}]") for i, v in enumerate(value)]
    elif kind is dict:
        checked = {}
        for name, val in value.items():
            dotted = f"{key}.{name}" if key else name
            if name not in default:
                raise ConfigError(f"unknown config key {dotted!r}")
            checked[name] = _check(command, val, default[name], dotted)
        value = checked
    rule = RULES.get((command, key)) or RULES.get(key)
    if rule and not rule[0](value):
        raise ConfigError(f"{key} must be {rule[1]}, got {value!r}")
    return value


def _merge(base, upd):
    """A checked upd laid over base, section by section."""
    if not (isinstance(base, dict) and isinstance(upd, dict)):
        return upd
    return {**base, **{key: _merge(base[key], val) for key, val in upd.items()}}


def _override(item: str) -> dict:
    """--override a.b=value as {"a": {"b": value}}; value is JSON if it parses."""
    if "=" not in item:
        raise ConfigError(f"--override expects key=value, got {item!r}")
    dotted, _, raw = item.partition("=")
    try:
        value = json.loads(raw.strip())
    except json.JSONDecodeError:
        value = raw.strip()
    for part in reversed(dotted.strip().split(".")):
        value = {part: value}
    return value


def _load_config(command: str, args) -> tuple[dict, dict]:
    """(the config as given, for the manifest; its checked copy, for the
    run). Each layer is checked before it is merged."""
    defaults = DEFAULTS[command]
    layers = []
    if args.config is not None:
        with open(args.config) as fh:
            layers.append(json.load(fh))
    layers += [_override(item) for item in args.override]
    if args.seed is not None:
        layers.append({"seed": args.seed})
    cfg = defaults
    for layer in layers:
        _check(command, layer, defaults)
        cfg = _merge(cfg, layer)
    run = _check(command, cfg, defaults)
    if "model" in run:
        try:
            run["model"] = ModelConfig(**run["model"])
        except ValueError as exc:
            raise ConfigError(f"bad model config: {exc}") from exc
    # the rules across keys, each checked before any step; a step count that
    # is not a whole number raises ValueError here, a runtime error as before
    model = run.get("model")
    if "k_watch" in run and abs(run["k_watch"]) > model.max_mode:
        raise ConfigError(f"k_watch must be at most model.max_mode = "
                          f"{model.max_mode} in size, got {run['k_watch']}")
    if command == "energy-drift" and model.n_steps == 0:
        raise ConfigError(f"energy-drift needs at least one step, got "
                          f"model.t_final = {model.t_final!r}")
    # norms_report needs at least 4 uniformly spaced samples
    if command == "norms" and (model.n_steps % run["sample_every"]
                               or model.n_steps // run["sample_every"] < 3):
        raise ConfigError(f"sample_every must divide model.n_steps = {model.n_steps} "
                          f"into at least 3 intervals, got {run['sample_every']}")
    return cfg, run


def _build_profile(section: dict, max_mode: int, seed: int) -> FourierField:
    kind = section["type"]
    if kind == "single_mode":
        return single_mode_profile(max_mode, section["eps"])
    if kind == "decaying":
        return decaying_profile(max_mode, section["eps"], section["sigma"], seed)
    if not section["path"]:
        raise ConfigError("profile.type=file requires profile.path")
    try:
        prof = profile_from_csv(section["path"])
        prof.require_real()
    except (OSError, ValueError, csv.Error) as exc:
        raise ConfigError(f"profile.path: {exc}") from exc
    if prof.max_mode > max_mode:
        raise ConfigError("profile file exceeds model.max_mode")
    out = np.zeros(2 * max_mode + 1, dtype=np.complex128)
    out[max_mode - prof.max_mode: max_mode + prof.max_mode + 1] = prof.coeffs
    return FourierField(out, copy=False)


def _write(out_dir: Path, command: str, cfg: dict, results: dict,
           table: str, header: list, rows) -> None:
    """The command's CSV table (floats as repr) and its manifest.json."""
    with open(out_dir / table, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([repr(float(v)) if isinstance(v, float) else v for v in row]
                    for row in rows)
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


# Each command reads its checked config c and hands its outputs to
# write(results, table, header, rows); it returns the exit code.

def _cmd_simulate(c: dict, write) -> int:
    model = c["model"]
    u0 = _build_profile(c["profile"], model.max_mode, c["seed"])
    res = simulate(u0, model, sample_every=c["sample_every"])
    gauge = {"forward": gauge_forward, "backward": gauge_backward}.get(c["gauge"])
    states = [gauge(s, model) for s in res.snapshots] if gauge else res.snapshots
    final = res.final
    results = {
        "t_final": final.t,
        "l2_norm": final.field.l2_norm(),
        "l2_drift": abs(final.field.l2_norm() - u0.l2_norm()),
        "mass": final.field.mass(),
        "alpha_accum": final.alpha_accum,
        "n_snapshots": len(states),
    }
    write(results, "snapshots.csv", ["t", "k", "re", "im"],
          ((s.t, k, z.real, z.imag) for s in states
           for k, z in zip(s.field.modes, s.field.coeffs)))
    print(f"simulate: t={final.t:.6g} l2_drift={results['l2_drift']:.3e} "
          f"snapshots={len(states)}")
    return 0


def _cmd_identities(c: dict, write) -> int:
    checks = run_identity_suites(seed=c["seed"], quick=c["quick"])
    for chk in checks:
        print(f"{'PASS' if chk.passed else 'FAIL'}  {chk.name}: "
              f"residual {chk.residual:.3e} (tol {chk.tol:.1e})")
    write({"n_checks": len(checks),
           "n_failed": sum(not chk.passed for chk in checks),
           "max_residual": max(chk.residual for chk in checks)},
          "identities.csv", ["name", "residual", "tol", "passed"],
          ((chk.name, chk.residual, chk.tol, int(chk.passed)) for chk in checks))
    return 0 if all(chk.passed for chk in checks) else 1


def _cmd_smoothing(c: dict, write) -> int:
    model = c["model"]
    base = decaying_profile(model.max_mode, 1.0, c["profile"]["sigma"], c["seed"])
    rep = smoothing_scan(base, model, c["eps_list"], c["watch_modes"])
    rows = [(eps, k, rep.sup_deviation[eps][k])
            for eps in rep.eps_list for k in rep.watch_modes]
    ratios = {}
    for k, pairs in rep.ratios.items():
        for eps, r in pairs.items():
            print(f"smoothing: k={k} ratio({2 * eps:g}/{eps:g}) = {r:.3f} "
                  f"(quartic scaling predicts 16)")
            ratios[f"{k}:{eps!r}"] = r
    write({"ratios": ratios,
           "deviation": {f"{eps!r}:{k}": dev for eps, k, dev in rows}},
          "smoothing.csv", ["eps", "k", "sup_deviation"], rows)
    if c["scaling_band"] is not None:
        lo, hi = c["scaling_band"]
        if not all(lo <= r <= hi for r in ratios.values()):
            print(f"smoothing: ratio outside required band [{lo}, {hi}]")
            return 1
    return 0


def _cmd_energy_drift(c: dict, write) -> int:
    model = c["model"]
    u0 = decaying_profile(model.max_mode, c["profile"]["eps"], c["profile"]["sigma"],
                          c["seed"])
    rep = energy_drift_scan(u0, model, c["k_watch"], c["sample_every"])
    print(f"energy-drift: k={rep.k} drift(quadratic)={rep.drift_quadratic:.3e} "
          f"drift(corrected)={rep.drift_total:.3e} ratio={rep.ratio:.3f}")
    write({"drift_quadratic": rep.drift_quadratic,
           "drift_total": rep.drift_total,
           "ratio": rep.ratio},
          "energy_drift.csv", ["t", "quadratic", "total"],
          zip(rep.times, rep.quadratic, rep.total))
    limit = c["require_ratio_below"]
    if limit is not None and not rep.ratio < limit:
        print(f"energy-drift: ratio {rep.ratio:.3f} not below required {limit}")
        return 1
    return 0


def _cmd_norms(c: dict, write) -> int:
    model = c["model"]
    u0 = _build_profile(c["profile"], model.max_mode, c["seed"])
    res = simulate(u0, model, sample_every=c["sample_every"])
    rep = norms_report(res.snapshots, res.times, s=c["s"])
    for name, val in rep.items():
        print(f"norms: {name} = {val:.6e}")
    write(rep, "norms.csv", ["name", "value"], rep.items())
    return 0


COMMANDS = {
    "simulate": _cmd_simulate,
    "identities": _cmd_identities,
    "smoothing": _cmd_smoothing,
    "energy-drift": _cmd_energy_drift,
    "norms": _cmd_norms,
}

# The exit-code contract, first match wins: a blow-up before the runtime
# errors it is one of, a JSON syntax error before the ValueError it is one of.
EXIT_CODES = (
    ((ConfigError, json.JSONDecodeError, OSError), 3, "config error"),
    (BlowUpError, 2, "blow-up"),
    ((ValueError, RuntimeError), 2, "runtime error"),
)


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
        cfg, checked = _load_config(args.command, args)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](
            checked, functools.partial(_write, out_dir, args.command, cfg))
    except Exception as exc:
        for kinds, code, label in EXIT_CODES:
            if isinstance(exc, kinds):
                print(f"{label}: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
