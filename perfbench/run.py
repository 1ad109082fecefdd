"""The verifier benchmark: time to verdict on three workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ltl-session-sigmas --seed 1 \\
        --seconds 30 --trace 0

One client runs one workload in a closed loop: one operation is one
``verify_*`` call on inputs built once per process, and the next call
starts only after the previous verdict returned.  Every process runs
from a fresh interpreter with every ``REPRO_*`` variable cleared;
``PYTHONHASHSEED`` is the seed, so a seed fixes inputs and hashing.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over
fresh processes, each from start to its first verdict),
``verify_s.p50`` and ``verify_s.tail`` (the highest percentile with at
least ten samples beyond it), ``verifications_per_s`` and
``peak_rss_mb`` (the loop process plus its largest pool child).
``--trace 1`` prints the per-layer metrics of a separate traced run
(see ``layers.py`` and ``worker.py``).

Every operation is checked against its known answer (see
``workloads.py``); a miss counts in ``failed``.  The last line of
standard output is the result object; the line before it is the full
record (samples' percentile and count, counters, ``cpu_count``, Python
version, source revision, workers).  The process exits 2 without a
result when the checkout holds no ``src/repro``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"

DEFAULT_SEED = 1
#: Fresh processes whose median is ``setup_s``.
SETUP_PROCESSES = 3
#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 170

WORKLOADS = (
    "ltl-session-sigmas",
    "ctl-propositional",
    "ltl-registration-pool",
)

END_TO_END_UNITS = {
    "verify_s.p50": "s",
    "verify_s.tail": "s",
    "verifications_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "runs.successors.calls": "count",
    "runs.successors.self_s": "s",
    "runs.step.calls": "count",
    "runs.step.self_s": "s",
    "runs.choices.calls": "count",
    "runs.choices.self_s": "s",
    "runs.eval_contexts": "count",
    "runs.snapshots_explored": "count",
    "label.plan_calls": "count",
    "label.self_s": "s",
    "label.bits_computed": "count",
    "label.bits_shared": "count",
    "label.share_ratio": "ratio",
    "lasso.calls": "count",
    "lasso.self_s": "s",
    "lasso.valuations": "count",
    "kripke.build.self_s": "s",
    "kripke.states": "count",
    "kripke.edges": "count",
    "ctl.check_s": "s",
    "enumerate.databases": "count",
    "enumerate.sigmas": "count",
    "enumerate.s": "s",
    "pool.units": "count",
    "pool.run_units_s": "s",
    "pool.unit_busy_s": "s",
    "pool.overhead_s": "s",
    "pool.efficiency": "ratio",
    "pool.retries": "count",
    "pool.rebuilds": "count",
    "compile.plans_s": "s",
    "compile.buchi_s": "s",
    "compile.dataflow_s": "s",
    "compile.plans": "count",
    "engine.self_s": "s",
    "trace.overhead_pct": "%",
    "layers.unaccounted_pct": "%",
    "failed_frac": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a wrong verdict)."""


def child_env(seed: int) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["PYTHONPYCACHEPREFIX"] = str(BUILD / "pycache")
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def run_child(args: list[str], env: dict) -> tuple[dict, float]:
    """Start ``worker.py`` fresh; (its last-line JSON, monotonic start)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    started = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker timed out: {' '.join(args)}")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {' '.join(args)}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"worker printed nothing: {' '.join(args)}")
    return json.loads(lines[-1]), started


def warm_bytecode(env: dict) -> None:
    """Compile the sources once, so no timed process pays for it."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "repro"),
         str(HERE)],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, check=True,
        timeout=CHILD_TIMEOUT_S,
    )


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that still has
    ``TAIL_BEYOND`` samples beyond it; the median when there are too
    few samples for that."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return statistics.median(ordered), 50.0
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n


def revision() -> str:
    """The git commit, or a hash of the sources outside a git checkout."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            )
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def end_to_end(workload: str, seed: int, seconds: float, env: dict):
    common = ["--workload", workload, "--seed", str(seed)]
    setups = []
    attempted = failed = 0
    problems: list[str] = []
    setup_stats = []
    for _ in range(SETUP_PROCESSES):
        rec, started = run_child(["setup", *common], env)
        setups.append(rec["t_verdict"] - started)
        setup_stats.append(rec["stats"])
        attempted += rec["attempted"]
        failed += rec["failed"]
        problems += rec["problems"]
    loop, _ = run_child(["loop", *common, "--seconds", str(seconds)], env)
    attempted += loop["attempted"]
    failed += loop["failed"]
    problems += loop["problems"]
    # Work counters repeat exactly across fresh processes, too.
    for stats in setup_stats:
        if stats is not None and stats != loop["stats"]:
            failed += 1
            problems.append(f"stats differ between processes: {stats} != "
                            f"{loop['stats']}")
    samples = loop["samples"]
    if not samples:
        raise BenchError("the loop timed no operation")
    tail_s, tail_pct = tail(samples)
    metrics = {
        "verify_s.p50": statistics.median(samples),
        "verify_s.tail": tail_s,
        "verifications_per_s": loop["correct_ops"] / loop["loop_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": loop["peak_rss_mb"],
    }
    detail = {
        "samples": len(samples),
        "tail_percentile": round(tail_pct, 2),
        "setup_samples_s": setups,
        "counters": loop["counters"],
        "stats": loop["stats"],
        "workers": loop["workers"],
    }
    return metrics, END_TO_END_UNITS, attempted, failed, problems, detail


def per_layer(workload: str, seed: int, seconds: float, env: dict):
    out_dir = BUILD / "trace"
    out_dir.mkdir(parents=True, exist_ok=True)
    rec, _ = run_child(
        ["trace", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--out-dir", str(out_dir)],
        env,
    )
    metrics = dict(rec["metrics"])
    attempted, failed = rec["attempted"], rec["failed"]
    metrics["failed_frac"] = failed / attempted if attempted else 1.0
    missing = set(PER_LAYER_UNITS) - set(metrics)
    problems = list(rec["problems"])
    if missing:
        failed += 1
        problems.append(f"per-layer metrics missing: {sorted(missing)}")
    detail = {
        "traced_ops": rec["traced_ops"],
        "untraced_ops": rec["untraced_ops"],
        "layers_self_s": rec["layers_self_s"],
        "reconcile_tolerance_pct": rec["reconcile_tolerance_pct"],
        "counters": rec["counters"],
        "workers": rec["workers"],
        "spans_dir": str(out_dir.relative_to(ROOT)),
    }
    return metrics, PER_LAYER_UNITS, attempted, failed, problems, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no src/repro under {ROOT}: nothing to benchmark",
              file=sys.stderr)
        return 2
    env = child_env(args.seed)
    BUILD.mkdir(exist_ok=True)
    try:
        warm_bytecode(env)
        measure = per_layer if args.trace else end_to_end
        metrics, units, attempted, failed, problems, detail = measure(
            args.workload, args.seed, args.seconds, env
        )
    except (BenchError, subprocess.SubprocessError, OSError,
            json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "workers": detail.pop("workers"),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "commit": revision(),
        "problems": problems,
        **detail,
    }
    print(json.dumps({"record": record}))
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics.get(name, 0), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
