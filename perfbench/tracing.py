"""Spans and counters recorded around the public functions of each layer.

Nothing under ``src/`` knows about tracing.  :func:`install` wraps the
functions named in :data:`TARGETS` from the outside -- module functions in
every module that imported them, methods on their class and on every
subclass that overrides them -- and :func:`uninstall` puts the originals
back.  A wrapper only times and counts: it passes arguments and return
values through untouched, so traced output equals untraced output.

Spans live in memory (:class:`Tracer`) and are written once, at the end,
as Chrome trace-event JSON (:func:`write_chrome_trace`), which Perfetto and
``chrome://tracing`` open.  :func:`layer_metrics` turns the spans and
counts of a traced cold job (and its traced warm replay) into the
benchmark's per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

#: Layers a span can belong to; ``other`` is the root job span's own time.
LAYERS = ("experiments", "nerf", "sim", "store", "serve", "plan", "other")

#: Store tiers and the ``ResultStore`` methods that read / write them.
STORE_TIERS = {
    "frame": ("get", "put"),
    "result": ("get_result", "put_result"),
    "asset": ("get_asset", "put_asset"),
    "plan": ("get_plan", "put_plan"),
}

#: Marker attribute set on every wrapper, so a test can prove none is left.
WRAPPER_MARK = "__perfbench_wrapper__"


@dataclass
class Span:
    """One timed call: name, layer, start/end (host seconds) and parent id."""

    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None

    @property
    def duration(self) -> float:
        """End minus start, in seconds."""
        return self.end - self.start


class Tracer:
    """In-memory span and counter sink for one single-threaded job.

    A span's parent is the innermost span open when it starts.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._ids = itertools.count(1)
        self._stack: list[Span] = []

    def innermost(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    @contextlib.contextmanager
    def span(self, name: str, layer: str) -> Iterator[Span]:
        """Record one span around the ``with`` body."""
        parent = self._stack[-1].id if self._stack else None
        record = Span(next(self._ids), name, layer, time.perf_counter(), 0.0, parent)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            self.spans.append(record)


# -- targets -------------------------------------------------------------------


@dataclass(frozen=True)
class Target:
    """One function to wrap.

    ``owner`` is ``"module"`` for a module function or ``"module:Class"``
    for a method.  ``name`` is the span name, or a callable of the call's
    ``args`` returning it; ``layer`` is None for a count-only wrapper.
    ``before`` runs ahead of the call and its return value reaches
    ``after``, which sees the call's result (both optional).
    """

    owner: str
    attr: str
    name: str | Callable[[tuple], str]
    layer: str | None
    before: Callable[[Tracer, tuple, dict], Any] | None = None
    after: Callable[[Tracer, Any, tuple, dict, Any], None] | None = None


def _count(key: str) -> Callable[[Tracer, Any, tuple, dict, Any], None]:
    def after(tracer: Tracer, token: Any, args: tuple, kwargs: dict, result: Any) -> None:
        tracer.counts[key] += 1

    return after


def _count_len(key: str) -> Callable[[Tracer, Any, tuple, dict, Any], None]:
    def after(tracer: Tracer, token: Any, args: tuple, kwargs: dict, result: Any) -> None:
        tracer.counts[key] += len(result)

    return after


def _store_read(tier: str) -> Callable[[Tracer, Any, tuple, dict, Any], None]:
    def after(tracer: Tracer, token: Any, args: tuple, kwargs: dict, result: Any) -> None:
        tracer.counts[f"store.{tier}.reads"] += 1
        if result is not None:
            tracer.counts[f"store.{tier}.hits"] += 1

    return after


def _frame_lookup_before(tracer: Tracer, args: tuple, kwargs: dict) -> int:
    return tracer.counts["sim.frame_sims"]


def _frame_lookup_after(
    tracer: Tracer, sims_before: int, args: tuple, kwargs: dict, result: Any
) -> None:
    # A lookup is a hit when no physical simulation ran inside it.
    tracer.counts["sim.frame_lookups"] += 1
    if tracer.counts["sim.frame_sims"] == sims_before:
        tracer.counts["sim.frame_hits"] += 1


def _fleet_path(args: tuple) -> str:
    # FleetSimulator.run's documented rule: an exact FIFOScheduler with no
    # control plane, or one that is fast_path_compatible, takes the fast path.
    from repro.serve.scheduler import FIFOScheduler

    simulator = args[0]
    fast = type(simulator.scheduler) is FIFOScheduler and (
        simulator.control is None or simulator.control.fast_path_compatible
    )
    return "serve.fast_path" if fast else "serve.event_loop"


def _fleet_after(tracer: Tracer, token: Any, args: tuple, kwargs: dict, result: Any) -> None:
    path = _fleet_path(args)
    tracer.counts[f"{path}_runs"] += 1
    requests = args[1] if len(args) > 1 else kwargs["requests"]
    tracer.counts["serve.simulated_requests"] += len(requests)


def _plan_after(tracer: Tracer, token: Any, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counts["plan.points"] += result.enumerated
    tracer.counts["plan.fresh"] += result.fresh
    tracer.counts["plan.cached"] += result.cached


def _experiment_name(args: tuple) -> str:
    return f"experiments.{args[0].id}.run"


def _build_targets() -> tuple[Target, ...]:
    targets = [
        Target("repro.experiments.api:Experiment", "run", _experiment_name, "experiments",
               after=_count("experiments.runs")),
        Target("repro.experiments.api:ExperimentResult", "to_table", "experiments.table",
               "experiments"),
        Target("repro.nerf.models.base:NeRFModel", "build_workload", "nerf.workload_build",
               "nerf", after=_count("nerf.workload_builds")),
        Target("repro.nerf.renderer:VanillaNeRFRenderer", "render", "nerf.render", "nerf",
               after=_count("nerf.render_calls")),
        Target("repro.nerf.renderer:InstantNGPRenderer", "render", "nerf.render", "nerf",
               after=_count("nerf.render_calls")),
        Target("repro.nerf.renderer:InstantNGPRenderer", "render_prepared", "nerf.render",
               "nerf", after=_count("nerf.render_calls")),
        Target("repro.nerf.renderer:InstantNGPRenderer", "fit_to_scene", "nerf.scene_fit",
               "nerf", after=_count("nerf.scene_fits")),
        Target("repro.nerf.scenes:SyntheticScene", "fields", "nerf.field_query", "nerf"),
        Target("repro.core.device:Device", "render_frame", "sim.frame_sim", "sim",
               after=_count("sim.frame_sims")),
        Target("repro.sim.sweep:SweepEngine", "frame_report", "sim.frame_lookup", None,
               before=_frame_lookup_before, after=_frame_lookup_after),
        Target("repro.sim.sweep:SweepEngine", "run", "sim.sweep", "sim"),
        Target("repro.serve.request:RequestStream", "generate", "serve.generate", "serve",
               after=_count_len("serve.requests")),
        Target("repro.serve.fleet:FleetSimulator", "run", _fleet_path, "serve",
               after=_fleet_after),
        Target("repro.serve.report:ServingReport", "from_arrays", "serve.report", "serve"),
        Target("repro.serve.report:ServingReport", "from_completions", "serve.report", "serve"),
        Target("repro.serve.report:ServingReport", "by_tenant", "serve.report", "serve"),
        Target("repro.plan.evaluate", "evaluate_space", "plan.evaluate_space", "plan",
               after=_plan_after),
        Target("repro.plan.evaluate", "evaluate_point", "plan.evaluate", "plan"),
        Target("repro.plan.evaluate", "fleet_area_report", "plan.cost_model", "plan"),
        Target("repro.plan.evaluate", "fleet_power_report", "plan.cost_model", "plan"),
        Target("repro.plan.pareto", "pareto_frontier", "plan.pareto", "plan"),
        Target("repro.plan.pareto", "cheapest_feasible", "plan.pareto", "plan"),
    ]
    for tier, (read, write) in STORE_TIERS.items():
        targets.append(Target("repro.perf.store:ResultStore", read, f"store.{tier}.read",
                              "store", after=_store_read(tier)))
        targets.append(Target("repro.perf.store:ResultStore", write, f"store.{tier}.write",
                              "store", after=_count(f"store.{tier}.writes")))
    return tuple(targets)


#: Every wrapped function; see NOTES.md for the metric each one feeds.
TARGETS = _build_targets()


# -- install / uninstall -------------------------------------------------------


def _wrap(tracer: Tracer, target: Target, fn: Callable) -> Callable:
    name, layer, before, after = target.name, target.layer, target.before, target.after

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        span_name = name(args) if callable(name) else name
        inner = tracer.innermost()
        if inner is not None and inner.name == span_name:
            # A delegation chain (super() call, render -> render_prepared,
            # a merged stream generating its parts) is one call.
            return fn(*args, **kwargs)
        token = before(tracer, args, kwargs) if before is not None else None
        if layer is None:
            result = fn(*args, **kwargs)
        else:
            with tracer.span(span_name, layer):
                result = fn(*args, **kwargs)
        if after is not None:
            after(tracer, token, args, kwargs, result)
        return result

    setattr(wrapper, WRAPPER_MARK, True)
    return wrapper


def _subclasses(cls: type) -> Iterator[type]:
    seen: set[type] = set()
    pending = [cls]
    while pending:
        current = pending.pop()
        if current in seen:
            continue
        seen.add(current)
        yield current
        pending.extend(current.__subclasses__())


def install(tracer: Tracer) -> list[tuple[Any, str, Any]]:
    """Wrap every target; returns the (owner, attribute, original) triples replaced."""
    patched: list[tuple[Any, str, Any]] = []
    try:
        for target in TARGETS:
            module_name, _, class_name = target.owner.partition(":")
            module = importlib.import_module(module_name)
            if class_name:
                for cls in _subclasses(getattr(module, class_name)):
                    raw = cls.__dict__.get(target.attr)
                    if raw is None or getattr(raw, WRAPPER_MARK, False):
                        continue
                    if isinstance(raw, (classmethod, staticmethod)):
                        wrapped = type(raw)(_wrap(tracer, target, raw.__func__))
                    else:
                        wrapped = _wrap(tracer, target, raw)
                    patched.append((cls, target.attr, raw))
                    setattr(cls, target.attr, wrapped)
                continue
            original = getattr(module, target.attr)
            wrapped = _wrap(tracer, target, original)
            # Rebind the function in every module that imported it by name.
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        patched.append((loaded, key, original))
                        setattr(loaded, key, wrapped)
    except BaseException:
        uninstall(patched)
        raise
    return patched


def uninstall(patched: list[tuple[Any, str, Any]]) -> None:
    """Put back every original :func:`install` replaced, newest first."""
    while patched:
        owner, attr, original = patched.pop()
        setattr(owner, attr, original)


def leftover_wrappers() -> list[str]:
    """``module.attr`` / ``Class.attr`` names still bound to a wrapper."""
    found = []
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if getattr(value, WRAPPER_MARK, False):
                found.append(f"{module.__name__}.{key}")
            if isinstance(value, type):
                for attr, raw in vars(value).items():
                    func = getattr(raw, "__func__", raw)
                    if getattr(func, WRAPPER_MARK, False):
                        found.append(f"{module.__name__}.{key}.{attr}")
    return sorted(set(found))


# -- analysis ------------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.id] = span.duration - covered
    return result


def write_chrome_trace(path: Path, processes: list[tuple[str, list[Span], dict[str, int]]]) -> None:
    """Write the processes' spans and counts as Chrome trace-event JSON.

    Each ``(label, spans, counts)`` process gets its own pid (1, 2, ...),
    one complete event per span and one counter event per count.
    """
    events: list[dict] = []
    for pid, (label, spans, counts) in enumerate(processes, start=1):
        origin = min((span.start for span in spans), default=0.0)
        end = max((span.end for span in spans), default=origin)
        events.append({"name": "process_name", "ph": "M", "pid": pid, "tid": 1,
                       "args": {"name": label}})
        for span in sorted(spans, key=lambda s: (s.start, s.id)):
            events.append({
                "name": span.name, "cat": span.layer, "ph": "X", "pid": pid, "tid": 1,
                "ts": (span.start - origin) * 1e6, "dur": span.duration * 1e6,
                "args": {"id": span.id, "parent": span.parent},
            })
        for key in sorted(counts):
            events.append({"name": key, "ph": "C", "pid": pid, "tid": 1,
                           "ts": (end - origin) * 1e6, "args": {"value": counts[key]}})
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _inclusive(spans: list[Span], name: str) -> float:
    return sum(span.duration for span in spans if span.name == name)


def layer_metrics(
    cold: dict, warm: dict | None, experiment_ids: list[str]
) -> dict[str, float]:
    """The per-layer metrics of one traced cold job and its traced replay.

    ``cold`` / ``warm`` hold ``spans`` (a list of :class:`Span`), ``counts``
    and ``job_s``.  Read-side store metrics, ``experiments.table_s``,
    ``experiments.replay_ratio`` and ``plan.cached`` come from the warm
    replay (zero without one); everything else from the cold job.  The
    ``layer.<name>.self_s`` values add up to ``trace.job_s``: each span's
    self time goes to its layer, the root job span's to ``other``.
    """
    spans, counts = cold["spans"], cold["counts"]
    warm_spans = warm["spans"] if warm else []
    warm_counts = warm["counts"] if warm else Counter()
    metrics: dict[str, float] = {}
    for exp_id in experiment_ids:
        metrics[f"experiments.{exp_id}.run_s"] = _inclusive(spans, f"experiments.{exp_id}.run")
    metrics["experiments.table_s"] = _inclusive(warm_spans, "experiments.table")
    metrics["experiments.replay_ratio"] = _ratio(
        warm_counts["store.result.hits"], counts["experiments.runs"]
    )
    metrics.update(
        {
            "nerf.workload_build_s": _inclusive(spans, "nerf.workload_build"),
            "nerf.workload_builds": counts["nerf.workload_builds"],
            "nerf.render_s": _inclusive(spans, "nerf.render"),
            "nerf.render_calls": counts["nerf.render_calls"],
            "nerf.scene_fit_s": _inclusive(spans, "nerf.scene_fit"),
            "nerf.scene_fits": counts["nerf.scene_fits"],
            "nerf.field_query_s": _inclusive(spans, "nerf.field_query"),
            "sim.frame_sim_s": _inclusive(spans, "sim.frame_sim"),
            "sim.frame_sims": counts["sim.frame_sims"],
            "sim.frame_lookups": counts["sim.frame_lookups"],
            "sim.report_cache_hit_ratio": _ratio(
                counts["sim.frame_hits"], counts["sim.frame_lookups"]
            ),
            "sim.sweep_s": _inclusive(spans, "sim.sweep"),
        }
    )
    for tier in STORE_TIERS:
        metrics[f"store.{tier}.reads"] = warm_counts[f"store.{tier}.reads"]
        metrics[f"store.{tier}.hit_ratio"] = _ratio(
            warm_counts[f"store.{tier}.hits"], warm_counts[f"store.{tier}.reads"]
        )
        metrics[f"store.{tier}.read_s"] = _inclusive(warm_spans, f"store.{tier}.read")
        metrics[f"store.{tier}.writes"] = counts[f"store.{tier}.writes"]
        metrics[f"store.{tier}.write_s"] = _inclusive(spans, f"store.{tier}.write")
    metrics["store.replay_s"] = warm["replay_s"] if warm else 0.0
    simulate_s = _inclusive(spans, "serve.fast_path") + _inclusive(spans, "serve.event_loop")
    metrics.update(
        {
            "serve.generate_s": _inclusive(spans, "serve.generate"),
            "serve.requests": counts["serve.requests"],
            "serve.fast_path_s": _inclusive(spans, "serve.fast_path"),
            "serve.fast_path_runs": counts["serve.fast_path_runs"],
            "serve.event_loop_s": _inclusive(spans, "serve.event_loop"),
            "serve.event_loop_runs": counts["serve.event_loop_runs"],
            "serve.report_s": _inclusive(spans, "serve.report"),
            "serve.sim_req_per_s": _ratio(counts["serve.simulated_requests"], simulate_s),
            "plan.points": counts["plan.points"],
            "plan.fresh": counts["plan.fresh"],
            "plan.cached": warm_counts["plan.cached"],
            "plan.evaluate_s": _inclusive(spans, "plan.evaluate"),
            "plan.cost_model_s": _inclusive(spans, "plan.cost_model"),
            "plan.pareto_s": _inclusive(spans, "plan.pareto"),
        }
    )
    layer_self = dict.fromkeys(LAYERS, 0.0)
    own = self_times(spans)
    for span in spans:
        layer_self[span.layer] += own[span.id]
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = layer_self[layer]
    metrics["trace.job_s"] = cold["job_s"]
    return metrics
