"""The remkdv benchmark: time-to-result of the paper's experiments, run the way
a user runs them, one CLI invocation per fresh interpreter.

    python3 bench/run.py --workload drift --seed 0 --seconds 30 --trace 0

Run from the repository root. Workloads (inputs in workloads.py):

  drift      energy-drift at its default config (criterion 9's pinned shape,
             K = 2048, k_watch = 1024), at eps = 0.05 and at eps = 0.025.
             Half FFT-bound `step`s, half `energy_mode` cell-table rebuilds.
  smoothing  smoothing at its default config (criterion 8's shape, K = 256):
             5000 small steps with every state kept. Never calls energy,
             resonance or pseudo.
  structure  identities with quick=false, then coercivity_margin on
             criterion 7's three live pairs (K = 2048). Never calls evolve.

The benchmark is a closed loop with one client. A pass is one fresh
interpreter making one item's calls; a round runs each item of the workload
once. New rounds start until --seconds have gone by since the first.

Metrics with --trace 0 (end to end):
  wall_s       entry-point calls of one round, first call to last return;
               mean over the run's rounds (their total over their count)
  cpu_s        user + system CPU time over the same calls, summed over
               passes; mean over rounds
  peak_rss_mb  largest ru_maxrss among the round's passes; median over rounds
  setup_s      fresh-interpreter `import remkdv.cli`, median over 3 dedicated
               imports and the import of every pass

wall_s and cpu_s are means, not medians, because the noise on a shared host
is not a few outliers but stretches of 5-20 s in which the CPU runs up to
1.8x slower. A 2 s smoothing pass falls wholly inside one stretch, so the
median of a 30 s run follows whichever speed held longest, while the mean
weighs each speed by its share of the run. Over ten smoothing runs on a
2-vCPU VM the spread between runs (quartile distance over median) was 0.32
for the median and 0.16 for the mean. The per-round samples and their
median stay in the results file.

With --trace 1 rounds alternate between untraced and traced; the traced
passes run under spans.Tracer and give the per-layer metrics (median over
traced rounds; per-layer sums over the round's passes). trace.overhead_s is
the traced minus the untraced wall_s, both means over rounds. Which
end-to-end metric each layer metric should move, and on which workload:

  evolve.step.*, evolve.simulate.self_s         wall_s on drift, smoothing
  evolve.snapshots_kept, evolve.snapshot_mb     peak_rss_mb on smoothing
  energy.energy_mode.*                          wall_s on drift
  energy.diff_energy_dyadic.*, .coercivity_*    wall_s on structure
  resonance.d1_triples.*, .d2_triples_medcut.*,
  resonance.cell_builds_useful                  wall_s on drift (structure)
  resonance.classify.*, pseudo.*, diagnostics.suite_*, fields.phi_dyadic.*
                                                wall_s on structure
  diagnostics.*_scan.self_s                     wall_s on drift, smoothing
  cli.main.self_s, cli.output_bytes             wall_s on all

resonance.cell_builds_useful is distinct (k, bound, cut) cell tables over
tables built, per pass then summed; 1 when none is built.

Every output is checked (workloads.py); a check is one attempted operation
and fail_rate = failed / attempted. Each pass's manifest.json must also be
byte-identical to the first pass of the same item in the run, traced or
not, since the CLI promises bit-reproducible output.

The last line of stdout is {"correct", "attempted", "failed", "metrics"};
the full record (samples, checks, environment, seed) goes to
bench/results/<workload>-seed<n>-trace<t>.json.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from child import SUMMED

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"

SLACK_S = 140.0        # the run may take this long beyond --seconds, set-up included
SETUP_IMPORTS = 3      # dedicated import-only interpreters per run

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {metric: ("count" if metric.endswith(".calls") else "s")
             for metric, _, _ in SUMMED}
PER_LAYER.update({
    "evolve.snapshots_kept": "count",
    "evolve.snapshot_mb": "MB",
    "resonance.d1_triples.rows": "count",
    "resonance.d2_triples_medcut.rows": "count",
    "resonance.cell_builds_useful": "ratio",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
})


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _deadline_left(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 1.0:
        raise BenchError("run deadline reached")
    return left


def _run_child(args: list, deadline: float) -> subprocess.CompletedProcess:
    try:
        return subprocess.run([sys.executable] + args, cwd=ROOT, env=_env(),
                              capture_output=True, text=True,
                              timeout=_deadline_left(deadline))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"pass timed out: {args[:2]}") from exc


def measure_import(deadline: float) -> float:
    code = ("import time; t = time.perf_counter(); import remkdv.cli; "
            "print(repr(time.perf_counter() - t))")
    proc = _run_child(["-c", code], deadline)
    if proc.returncode != 0:
        raise BenchError(f"import remkdv.cli failed:\n{proc.stderr[-2000:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def run_pass(item: workloads.Item, work: Path, tag: str, spans: Path | None,
             deadline: float) -> dict:
    """One pass of `item`; traced when `spans` names the file for its spans."""
    out = work / tag
    out.mkdir(parents=True)
    spec = dict(dataclasses.asdict(item), out=str(out), trace=spans is not None,
                result=str(work / f"{tag}.json"),
                spans=str(spans) if spans is not None else None)
    proc = _run_child([str(BENCH / "child.py"), json.dumps(spec)], deadline)
    if proc.returncode != 0:
        return {"crashed": True, "stderr": proc.stderr[-2000:], "out": out}
    res = json.loads(Path(spec["result"]).read_text())
    res.update(crashed=False, out=out)
    return res


def check_pass(item: workloads.Item, res: dict, seed: int, first: dict,
               values: dict) -> list:
    """The checks on one pass's outputs, as (name, ok) pairs."""
    if res["crashed"]:
        return [(f"{item.name}: pass ran to the end", False)]
    checks = [("exit code 0", res["exit"] == 0)]
    try:
        if item.kind == "cli":
            checks += workloads.CLI_CHECKS[item.argv[0]](res["out"], seed, GOLDEN, values)
            got = (res["out"] / "manifest.json").read_bytes()
        else:
            checks += workloads.check_coercivity(res["margins"], values)
            got = json.dumps(res["margins"]).encode()
        if item.name in first:
            checks.append(("output identical to the first pass", got == first[item.name]))
        else:
            first[item.name] = got
    except (OSError, KeyError, ValueError, StopIteration) as exc:
        checks.append((f"outputs readable ({exc!r})", False))
    return [(f"{item.name}: {name}", ok) for name, ok in checks]


def run_round(its: list, work: Path, tag: str, spans_dir: Path | None, seed: int,
              first: dict, values: dict, deadline: float) -> tuple[dict, list]:
    """One pass of every item; traced when `spans_dir` is given, in which
    case each pass's spans overwrite <spans_dir>/<item>.spans.json."""
    trace = spans_dir is not None
    passes, checks = [], []
    for i, item in enumerate(its):
        spans = spans_dir / f"{item.name}.spans.json" if trace else None
        res = run_pass(item, work, f"{tag}-{i}", spans, deadline)
        checks += check_pass(item, res, seed, first, values)
        passes.append(res)
    ok = [p for p in passes if not p["crashed"]]
    rnd = {"trace": trace, "complete": len(ok) == len(passes),
           "import_s": [p["import_s"] for p in ok]}
    if rnd["complete"]:
        rnd["wall_s"] = sum(p["wall_s"] for p in ok)
        rnd["cpu_s"] = sum(p["cpu_s"] for p in ok)
        rnd["peak_rss_mb"] = max(p["peak_rss_mb"] for p in ok)
        rnd["output_bytes"] = sum(p["output_bytes"] for p in ok)
        if trace:
            rnd["layers"] = {k: sum(p["layers"][k] for p in ok)
                             for k in ok[0]["layers"]}
    return rnd, checks


def layer_metrics(rounds: list, untraced: list) -> dict:
    med, mean = statistics.median, statistics.fmean
    traced = [r for r in rounds if r["trace"]]
    out = {}
    for metric in PER_LAYER:
        if metric == "trace.overhead_s":
            out[metric] = (mean(r["wall_s"] for r in traced)
                           - mean(r["wall_s"] for r in untraced))
        elif metric == "cli.output_bytes":
            out[metric] = med(r["output_bytes"] for r in traced)
        elif metric == "evolve.snapshot_mb":
            out[metric] = med(r["layers"]["evolve.snapshot_bytes"] for r in traced) / 2 ** 20
        elif metric == "resonance.cell_builds_useful":
            ratios = [r["layers"]["resonance.cell_tables_distinct"]
                      / r["layers"]["resonance.cell_tables_built"]
                      if r["layers"]["resonance.cell_tables_built"] else 1.0
                      for r in traced]
            out[metric] = med(ratios)
        else:
            out[metric] = med(r["layers"][metric] for r in traced)
    return out


def tail_percentile(samples: list) -> dict | None:
    """The highest percentile with at least ten samples above it, if any."""
    n = len(samples)
    if n < 11:
        return None
    p = 100.0 * (n - 10) / n
    return {"percentile": p, "value": sorted(samples)[n - 11]}


def git_sha() -> str | None:
    """HEAD of the checkout's own repository; None outside one (the ceiling
    keeps git from finding a repository above the checkout)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(rounds: list) -> dict:
    import numpy
    import scipy
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "rounds": len(rounds),
        "passes": sum(len(r["import_s"]) for r in rounds),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (SRC / "remkdv" / "cli.py").is_file():
        print(f"benchmark: no remkdv sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + args.seconds + SLACK_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = BENCH / ".work" / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results_dir = BENCH / "results"
    results_dir.mkdir(exist_ok=True)

    spans_dir = results_dir / f"{tag}-spans" if args.trace else None
    if spans_dir is not None:
        shutil.rmtree(spans_dir, ignore_errors=True)
        spans_dir.mkdir()

    its = workloads.items(args.workload, args.seed)
    rounds, checks, values, first, setup = [], [], {}, {}, []
    try:
        measure_import(deadline)  # untimed: byte-compiles the sources once
        setup = [measure_import(deadline) for _ in range(SETUP_IMPORTS)]
        t_loop = time.monotonic()
        while True:
            traced = args.trace and len(rounds) % 2 == 1
            rnd, chk = run_round(its, work, f"r{len(rounds)}",
                                 spans_dir if traced else None, args.seed,
                                 first, values, deadline)
            rounds.append(rnd)
            checks += chk
            if not rnd["complete"]:
                break
            done = time.monotonic() - t_loop >= args.seconds
            if done and (not args.trace or len(rounds) >= 2):
                break
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        checks.append((str(exc), False))
        if not rounds:
            return 2

    complete = [r for r in rounds if r["complete"]]
    untraced = [r for r in complete if not r["trace"]]
    traced = [r for r in complete if r["trace"]]
    measured = bool(untraced) and (bool(traced) or not args.trace)
    checks.append(("a complete round to measure", measured))
    failed = [name for name, ok in checks if not ok]
    med, mean = statistics.median, statistics.fmean
    metrics = {}
    if measured:
        if args.trace:
            values_out = layer_metrics(complete, untraced)
            units = PER_LAYER
        else:
            setup_all = setup + [s for r in complete for s in r["import_s"]]
            values_out = {"wall_s": mean(r["wall_s"] for r in untraced),
                          "setup_s": med(setup_all),
                          "cpu_s": mean(r["cpu_s"] for r in untraced),
                          "peak_rss_mb": med(r["peak_rss_mb"] for r in untraced)}
            units = END_TO_END
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values_out.items()}

    walls = [r["wall_s"] for r in untraced]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(rounds),
        "metrics": metrics,
        "samples": {
            "wall_s": walls,
            "wall_s_median": med(walls) if walls else None,
            "wall_s_tail": tail_percentile(walls),
            "cpu_s": [r["cpu_s"] for r in untraced],
            "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
            "setup_s": setup,
            "pass_import_s": [s for r in complete for s in r["import_s"]],
            "traced_wall_s": [r["wall_s"] for r in traced],
        },
        "values": values,
        "checks": {"attempted": len(checks), "failed": failed,
                   "fail_rate": len(failed) / len(checks)},
        "spans_dir": str(spans_dir.relative_to(ROOT)) if spans_dir else None,
    }
    (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=2, default=str) + "\n")
    shutil.rmtree(work, ignore_errors=True)

    line = {"correct": not failed, "attempted": len(checks),
            "failed": len(failed), "metrics": metrics}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
