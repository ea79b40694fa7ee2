"""One benchmark job in a fresh interpreter: set up, run, check, report.

``run.py`` starts this script once per sample, so no in-process cache
(``lru_cache``, the shared sweep engine, workload caches) survives from
one sample to the next.  Its one argument is a JSON object:

* ``workload``, ``seed`` -- what to run;
* ``phase`` -- ``cold`` (empty store; output checked against the pins)
  or ``warm`` (replays the store a cold job filled);
* ``store_dir``, ``work_dir`` -- throwaway directories;
* ``trace`` -- wrap the layers' functions and record spans;
* ``spawned`` -- the parent's ``time.monotonic()`` just before it started
  this process (a system-wide clock on Linux), so set-up time counts the
  interpreter's own start;
* ``out`` -- where to write the result as JSON.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main(spec: dict) -> None:
    imports = {}
    start = time.perf_counter()
    import repro  # noqa: F401

    imports["setup.import_repro_s"] = time.perf_counter() - start
    start = time.perf_counter()
    from repro.experiments import registry

    imports["setup.import_registry_s"] = time.perf_counter() - start
    start = time.perf_counter()
    import repro.experiments.cli  # noqa: F401

    imports["setup.import_cli_s"] = time.perf_counter() - start

    import tracing
    import workloads

    workload = workloads.WORKLOADS[spec["workload"]]
    inputs = workload.prepare(spec["seed"], Path(spec["work_dir"]), Path(spec["store_dir"]))
    tracer = installation = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        installation = tracing.install(tracer)

    ready = time.monotonic()
    setup_s = ready - spec["spawned"]
    if tracer is None:
        result = workload.run(inputs)
        job_s = time.monotonic() - ready
    else:
        try:
            with tracer.span("job", "other") as root:
                result = workload.run(inputs)
        finally:
            tracing.uninstall(installation)
        job_s = root.duration
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    text = workload.render(result)
    checks = workload.check(text, spec["seed"]) if spec["phase"] == "cold" else []
    report = {
        "setup_s": setup_s,
        "job_s": job_s,
        "peak_rss_mb": peak_rss_mb,
        "imports": imports,
        "replay_digest": workloads.digest(text),
        "content_digest": workloads.digest(workload.content(text)),
        "checks": [[c.label, c.ok, c.detail] for c in checks],
        "experiment_ids": list(registry.EXPERIMENTS),
    }
    if tracer is not None:
        report["spans"] = [
            [s.id, s.name, s.layer, s.start, s.end, s.parent] for s in tracer.spans
        ]
        report["counts"] = dict(tracer.counts)
        report["leftover_wrappers"] = tracing.leftover_wrappers()
    Path(spec["out"]).write_text(json.dumps(report))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
