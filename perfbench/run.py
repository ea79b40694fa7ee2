"""The repository's benchmark: three user-facing jobs, timed end to end.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-repro|serve-day|plan-search \\
        [--seed N] [--seconds S] [--trace 0|1]

With ``--trace 0`` the benchmark runs the workload's job cold, each time
in a fresh interpreter with an empty throwaway store, then (for the two
workloads that use the store) replays it store-warm in another fresh
interpreter, until ``--seconds`` have passed.  It reports the slowest
``setup_s`` over every child, the slowest cold sample's ``cold_s`` and the
median ``peak_rss_mb``.  With ``--trace 1`` it runs
one untraced and one traced cold job (and replay), reports the per-layer
metrics of the traced one plus ``trace.overhead``, and writes the spans to
``.perfbench-out/trace-<workload>-seed<N>.json`` as Chrome trace events.

Every output is checked (pinned goldens and digests, warm replay equal to
the cold run byte for byte, every fresh run equal to the first); each
comparison is one attempted operation and each mismatch one failed
operation.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/NOTES.md`` for the metric catalogue.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"

#: Cold samples taken even when ``--seconds`` is already spent.
MIN_SAMPLES = 3
#: A job child that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 150.0

END_TO_END_UNITS = {"setup_s": "s", "cold_s": "s", "peak_rss_mb": "MB"}


class Tally:
    """Attempted and failed output comparisons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, label: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: FAILED {label} {detail}".rstrip(), file=sys.stderr)


def child_env(store_dir: Path) -> dict[str, str]:
    """The environment of a job child: throwaway store, one BLAS thread."""
    env = dict(os.environ)
    env["REPRO_STORE_DIR"] = str(store_dir)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_job(workload: str, seed: int, phase: str, store_dir: Path, work_dir: Path,
            trace: bool = False) -> dict:
    """Run one job child to completion and return its report."""
    out = work_dir / f"{store_dir.name}-{phase}.json"
    spec = {
        "workload": workload,
        "seed": seed,
        "phase": phase,
        "store_dir": str(store_dir),
        "work_dir": str(work_dir),
        "trace": trace,
        "out": str(out),
    }
    spec["spawned"] = time.monotonic()
    completed = subprocess.run(
        [sys.executable, str(HERE / "job.py"), json.dumps(spec)],
        cwd=work_dir,
        env=child_env(store_dir),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise RuntimeError(f"{phase} {workload} job exited with status {completed.returncode}")
    report = json.loads(out.read_text())
    out.unlink()
    return report


def run_pair(workload: str, seed: int, work_dir: Path, tally: Tally, index: int,
             trace: bool = False) -> tuple[dict, dict | None]:
    """One cold job in an empty store, then its warm replay when the store is used."""
    store_dir = work_dir / f"store-{index}"
    cold = run_job(workload, seed, "cold", store_dir, work_dir, trace)
    for label, ok, detail in cold["checks"]:
        tally.add(label, ok, detail)
    warm = None
    if workloads.WORKLOADS[workload].uses_store:
        warm = run_job(workload, seed, "warm", store_dir, work_dir, trace)
        tally.add("warm replay equals cold run", warm["replay_digest"] == cold["replay_digest"])
    shutil.rmtree(store_dir, ignore_errors=True)
    return cold, warm


def warm_up(work_dir: Path) -> None:
    """Import the package once, untimed, so every sample finds its bytecode cached."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import repro.experiments.cli"
    subprocess.run([sys.executable, "-c", code], cwd=work_dir, env=child_env(work_dir),
                   stdout=subprocess.DEVNULL, check=True, timeout=CHILD_TIMEOUT_S)


def measure(args: argparse.Namespace, work_dir: Path, tally: Tally) -> dict[str, float]:
    """The end-to-end metrics over the cold samples taken for ``--seconds``."""
    deadline = time.monotonic() + args.seconds
    colds, setups = [], []
    while True:
        started = time.monotonic()
        cold, warm = run_pair(args.workload, args.seed, work_dir, tally, len(colds))
        if colds:
            tally.add("fresh run equals first run",
                      cold["content_digest"] == colds[0]["content_digest"])
        colds.append(cold)
        pair_setups = [cold["setup_s"]] + ([warm["setup_s"]] if warm is not None else [])
        setups += pair_setups
        print(f"perfbench: sample {len(colds)} cold_s={cold['job_s']:.4f} setup_s="
              + ",".join(f"{s:.4f}" for s in pair_setups), file=sys.stderr)
        took = time.monotonic() - started
        if len(colds) >= MIN_SAMPLES and time.monotonic() + took > deadline:
            break
    print(f"perfbench: {len(colds)} cold samples, {len(setups)} set-ups", file=sys.stderr)
    # Times are the slowest sample of the run: on a host that alternates
    # between an uncontended and a contended speed, the slowest sample
    # estimates the contended time every run sees ("Noise" in NOTES.md).
    return {
        "setup_s": max(setups),
        "cold_s": max(c["job_s"] for c in colds),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in colds),
    }


def _trace_data(report: dict) -> dict:
    spans = [tracing.Span(*fields) for fields in report["spans"]]
    return {"spans": spans, "counts": Counter(report["counts"]), "job_s": report["job_s"]}


def measure_layers(args: argparse.Namespace, work_dir: Path, tally: Tally) -> dict[str, float]:
    """The per-layer metrics of one traced run, next to one untraced run."""
    plain_cold, plain_warm = run_pair(args.workload, args.seed, work_dir, tally, 0)
    cold, warm = run_pair(args.workload, args.seed, work_dir, tally, 1, trace=True)
    tally.add("traced output equals untraced output",
              cold["content_digest"] == plain_cold["content_digest"])
    for report in (cold, warm):
        if report is not None:
            tally.add("every wrapper removed", not report["leftover_wrappers"],
                      ", ".join(report["leftover_wrappers"]))
    cold_data = _trace_data(cold)
    warm_data = None
    if warm is not None:
        warm_data = _trace_data(warm)
        warm_data["replay_s"] = plain_warm["job_s"]
    metrics = dict(plain_cold["imports"])
    metrics.update(tracing.layer_metrics(cold_data, warm_data, cold["experiment_ids"]))
    metrics["trace.overhead"] = cold["job_s"] / plain_cold["job_s"]

    processes = [("cold job", cold_data["spans"], cold_data["counts"])]
    if warm_data is not None:
        processes.append(("warm replay", warm_data["spans"], warm_data["counts"]))
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    tracing.write_chrome_trace(path, processes)
    print(f"perfbench: wrote {path.relative_to(ROOT)}", file=sys.stderr)
    return metrics


def unit_of(name: str) -> str:
    """The unit a metric name implies."""
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", ".overhead")):
        return "ratio"
    return "count"


def environment() -> dict[str, object]:
    """Revision, interpreter, numpy, platform and CPU count of this run."""
    import numpy

    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except OSError:
        revision = None
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sources.update(path.relative_to(ROOT).as_posix().encode())
        sources.update(path.read_bytes())
    return {
        "revision": revision,
        "source_sha256": sources.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not workloads.GOLDEN_DIR.is_dir():
        print(f"perfbench: no repro sources under {ROOT}", file=sys.stderr)
        return 2
    if args.workload == "paper-repro":
        print("paper-repro runs every experiment at its default params "
              "(the goldens pin them); --seed does not change its inputs")

    OUT_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    tally = Tally()
    try:
        warm_up(work_dir)
        if args.trace:
            metrics = measure_layers(args, work_dir, tally)
        else:
            metrics = measure(args, work_dir, tally)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps({"environment": environment(), "workload": args.workload,
                      "seed": args.seed}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    # On SIGTERM, unwind: subprocess.run kills the running job child and
    # the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
