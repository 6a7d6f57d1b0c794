"""The benchmark's workloads and the checks on their outputs.

A workload is a list of items. Each item is one pass: a fresh interpreter
that makes the item's calls into the package (see child.py). A round runs
every item of the workload once, in order.

Every check returns (name, ok). A check is one "checked output" of the
benchmark: fail_rate is failed checks over attempted checks.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

GOLDEN_BAND = 0.2            # the acceptance suite's band around the goldens
SMOOTHING_RATIO = (8.0, 32.0)  # quartic scaling of the doubling ratio
MARGIN_WINDOW = (0.5, 2.0)     # coercivity sandwich

COERCIVITY = {"max_mode": 2048, "target": 0.45, "s_prime": 5.0 / 24.0}


@dataclass(frozen=True)
class Item:
    name: str
    kind: str                 # "cli" or "coercivity"
    argv: tuple = ()          # cli: arguments of remkdv.cli.main, without --out
    pair_seeds: tuple = ()    # coercivity: generator seed of each (u, v) pair


def items(workload: str, seed: int) -> list[Item]:
    s = str(seed)
    if workload == "drift":
        # the two runs recorded in tests/golden/energy_drift.json
        return [Item("eps0.05", "cli", ("energy-drift", "--seed", s)),
                Item("eps0.025", "cli", ("energy-drift", "--seed", s,
                                         "--override", "profile.eps=0.025"))]
    if workload == "smoothing":
        return [Item("smoothing", "cli", ("smoothing", "--seed", s))]
    if workload == "structure":
        # criterion 7's live pairs use generator seeds 1-3; seed n uses 3n+1..3n+3
        return [Item("identities", "cli", ("identities", "--seed", s,
                                           "--override", "quick=false")),
                Item("coercivity", "coercivity",
                     pair_seeds=tuple(3 * seed + i for i in (1, 2, 3)))]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("drift", "smoothing", "structure")


# ------------------------------------------------------------------ checks

def _within(got: float, want: float, band: float = GOLDEN_BAND) -> bool:
    return abs(got - want) <= band * abs(want)


def _finite_nonzero(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x) and x != 0


def _manifest(out_dir: Path) -> dict:
    return json.loads((out_dir / "manifest.json").read_text())


def check_drift(out_dir: Path, seed: int, golden_dir: Path, values: dict) -> list:
    man = _manifest(out_dir)
    res, eps = man["results"], man["config"]["profile"]["eps"]
    # criterion 9's gate (ratio < 1) is red by design: recorded, not checked
    values[f"ratio@eps={eps!r}"] = res["ratio"]
    checks = [(f"eps={eps}: {key} finite and nonzero", _finite_nonzero(res[key]))
              for key in ("drift_quadratic", "drift_total", "ratio")]
    if seed == 0:
        runs = json.loads((golden_dir / "energy_drift.json").read_text())["runs"]
        run = next(r for r in runs if r["config"]["eps"] == eps)
        checks += [(f"eps={eps}: {key} within golden band",
                    _within(res[key], run[key]))
                   for key in ("drift_quadratic", "drift_total", "ratio")]
    return checks


def check_smoothing(out_dir: Path, seed: int, golden_dir: Path, values: dict) -> list:
    res = _manifest(out_dir)["results"]
    lo, hi = SMOOTHING_RATIO
    values.update({f"ratio@{key}": r for key, r in res["ratios"].items()})
    checks = [(f"ratio {key} in [{lo}, {hi}]", lo <= r <= hi)
              for key, r in res["ratios"].items()]
    checks.append(("three doubling ratios reported", len(res["ratios"]) == 3))
    if seed == 0:
        golden = json.loads((golden_dir / "smoothing.json").read_text())
        for key, r in res["ratios"].items():
            k, _ = key.split(":")
            checks.append((f"ratio {key} within golden band",
                           _within(r, golden["ratios"][k])))
        for key, dev in res["deviation"].items():
            eps, k = key.split(":")
            checks.append((f"deviation {key} within golden band",
                           _within(dev, golden["sup_deviation"][eps][k])))
    return checks


def check_identities(out_dir: Path, seed: int, golden_dir: Path, values: dict) -> list:
    # The program's residuals are relative to max(|LHS|, |RHS|). When a random
    # field makes the LHS nearly cancel, roundoff of the usual absolute size
    # can exceed tol: at seed 1518544146, field 81 of suite_ibp (N=64, M=1)
    # has LHS 0.136 against a typical |LHS| of 10^2-10^3, and a residual of
    # 2.29e-10 > 1e-10. The CLI then exits 1, and this check fails with it.
    # Over 60 other random seeds the worst suite_ibp residual per seed was
    # 8e-14 to 3e-12, and the share of fields above a level t falls about as
    # 1/t, so on the order of 1 seed in 500 fails this way. That is a defect of
    # the program's residual, and the check reports it as such.
    with open(out_dir / "identities.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    values["identity_checks"] = len(rows)
    values["identity_residuals"] = {r["name"]: [float(r["residual"]), float(r["tol"])]
                                    for r in rows}
    checks = [(f"identity {r['name']}: residual <= tol",
               float(r["residual"]) <= float(r["tol"])) for r in rows]
    checks.append(("identity suites reported", len(rows) > 0))
    return checks


def check_coercivity(margins: list, values: dict) -> list:
    lo, hi = MARGIN_WINDOW
    values["margins"] = margins
    checks = [(f"margin {i} in [{lo}, {hi}]", lo <= m <= hi)
              for i, m in enumerate(margins)]
    checks.append(("some margin engages the correction",
                   any(m != 1.0 for m in margins)))
    return checks


CLI_CHECKS = {
    "energy-drift": check_drift,
    "smoothing": check_smoothing,
    "identities": check_identities,
}
