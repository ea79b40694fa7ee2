"""The benchmark's three workloads: inputs, the timed job, output checks.

Each workload is the job one kind of user runs:

* ``paper-repro`` -- ``repro run all``, the reproduction command itself;
* ``serve-day`` -- two simulated serving days on a FlexNeRFer + NeuRex
  FIFO fleet, each from stream generation through report aggregation;
* ``plan-search`` -- ``repro plan`` over the committed 162-candidate spec.

A workload ``prepare``\\ s its inputs (part of set-up), ``run``\\ s the job
(the timed part), ``render``\\ s the job's result as text, and ``check``\\ s
that text against pinned expectations.  ``content`` strips the only
volatile bytes (host wall times printed by the CLI) so outputs of two
fresh runs can be compared.  Nothing here imports ``repro`` at module
level: the imports belong to the set-up a job child times.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN_DIR = ROOT / "tests" / "experiments" / "golden"
PLAN_SPEC = HERE / "plan_spec.json"
EXPECTED = HERE / "expected.json"

#: The seed the pinned serve-day and plan-search digests were made with.
DEFAULT_SEED = 0

#: ``repro plan`` constraint: cheapest point with p99 <= 1 s and SLO
#: attainment >= 0.5.  Loose on purpose: the command exits with an error
#: when no point is feasible, and over seeds 0-999 the two-FlexNeRFer FIFO
#: candidate alone never exceeds a 0.58 s p99 or falls below 0.65.
PLAN_SLA_MS = "1000"
PLAN_MIN_ATTAINMENT = "0.5"


@dataclass(frozen=True)
class Check:
    """One output comparison; a failed one is a failed operation."""

    label: str
    ok: bool
    detail: str = ""


def digest(text: str) -> str:
    """SHA-256 hex digest of ``text``."""
    return hashlib.sha256(text.encode()).hexdigest()


def load_expected() -> dict[str, Any]:
    """The pinned expectations in ``expected.json``."""
    return json.loads(EXPECTED.read_text())


def _cli(argv: list[str]) -> str:
    """Run the ``repro`` CLI in-process and return what it printed."""
    from repro.experiments.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(argv)
    if status != 0:
        raise RuntimeError(f"repro {' '.join(argv)} exited with status {status}")
    return out.getvalue()


class PaperRepro:
    """``repro run all`` at default params, replayed store-warm."""

    name = "paper-repro"
    uses_store = True
    _HEADER = re.compile(r"^===== (\S+): .* \(\d+\.\d+s\) =====$", re.MULTILINE)

    def prepare(self, seed: int, work_dir: Path, store_dir: Path) -> list[str]:
        # The goldens pin the default params, so the seed changes nothing.
        return ["run", "all"]

    def run(self, argv: list[str]) -> str:
        return _cli(argv)

    def render(self, result: str) -> str:
        return result

    def content(self, text: str) -> str:
        return re.sub(r" \(\d+\.\d+s\) =====$", " (_s) =====", text, flags=re.MULTILINE)

    def tables(self, text: str) -> dict[str, str]:
        """Each experiment's printed table, by id."""
        headers = list(self._HEADER.finditer(text))
        tables = {}
        for header, following in zip(headers, headers[1:] + [None]):
            end = following.start() if following is not None else len(text)
            tables[header.group(1)] = text[header.end() + 1 : end].rstrip("\n")
        return tables

    def check(self, text: str, seed: int, expected: dict[str, str] | None = None) -> list[Check]:
        """Every printed table equals its golden file, and no id is missing or extra."""
        if expected is None:
            expected = {
                path.stem: path.read_text().rstrip("\n")
                for path in sorted(GOLDEN_DIR.glob("*.txt"))
            }
        tables = self.tables(text)
        checks = [
            Check(
                f"golden {exp_id}",
                tables.get(exp_id) == golden,
                "" if exp_id in tables else "missing from output",
            )
            for exp_id, golden in expected.items()
        ]
        extra = sorted(set(tables) - set(expected))
        checks.append(Check("no unpinned tables", not extra, ", ".join(extra)))
        return checks


class ServeDay:
    """Two serving days on a FlexNeRFer + NeuRex FIFO fleet.

    The plain day is a 40 rps x 1 h Poisson stream on the reference mix.
    The controlled day is the three-tenant roster of ``serve-multi-tenant``
    scaled to 65 rps for 30 min, overloading the fleet, under queue-cap
    admission and queue-depth quality shedding; it is also broken down by
    tenant.  The store is not used.
    """

    name = "serve-day"
    uses_store = False
    fleet = ("flexnerfer", "neurex")

    def prepare(self, seed: int, work_dir: Path, store_dir: Path) -> dict[str, Any]:
        from repro.experiments._serving import MODELED_LADDER, REFERENCE_MIX
        from repro.experiments.serve_multi_tenant import tenant_roster
        from repro.serve import (
            ControlConfig,
            MultiTenantStream,
            PoissonStream,
            QueueCapAdmission,
            QueueDepthShedder,
        )

        tenants = tenant_roster(65.0 / 24.0)
        return {
            "seed": seed,
            "plain": PoissonStream(40.0, 3600.0, REFERENCE_MIX, sla_s=0.25),
            "tenants": tuple(t.name for t in tenants),
            "controlled": MultiTenantStream(tenants, duration_s=1800.0),
            "control": ControlConfig(
                admission=QueueCapAdmission(max_queue=8),
                shedder=QueueDepthShedder(MODELED_LADDER, depth_per_step=2),
            ),
        }

    def run(self, inputs: dict[str, Any]) -> dict[str, Any]:
        from repro.serve import FIFOScheduler, FleetSimulator

        plain = FleetSimulator(self.fleet, scheduler=FIFOScheduler()).run(
            inputs["plain"].generate(seed=inputs["seed"])
        )
        controlled = FleetSimulator(
            self.fleet, scheduler=FIFOScheduler(), control=inputs["control"]
        ).run(inputs["controlled"].generate(seed=inputs["seed"]))
        return {
            "plain": plain,
            "controlled": controlled,
            "by_tenant": controlled.by_tenant(inputs["tenants"]),
        }

    def render(self, result: dict[str, Any]) -> str:
        import dataclasses

        days = {
            "poisson_day": result["plain"].to_dict(),
            "controlled_day": {
                "report": result["controlled"].to_dict(),
                "by_tenant": [dataclasses.asdict(t) for t in result["by_tenant"]],
            },
        }
        return "\n".join(f"{day} {json.dumps(days[day], sort_keys=True)}" for day in days)

    def content(self, text: str) -> str:
        return text

    def check(self, text: str, seed: int, expected: dict[str, str] | None = None) -> list[Check]:
        """Each day's aggregates match the digest pinned for the default seed."""
        if seed != DEFAULT_SEED:
            return []
        if expected is None:
            expected = load_expected()[self.name]
        days = dict(line.split(" ", 1) for line in text.splitlines())
        return [
            Check(
                f"pinned {day}",
                digest(days.get(day, "")) == pinned,
                f"got {digest(days.get(day, ''))}",
            )
            for day, pinned in expected.items()
        ]


class PlanSearch:
    """``repro plan`` over ``plan_spec.json`` with the seed swapped in."""

    name = "plan-search"
    uses_store = True

    def prepare(self, seed: int, work_dir: Path, store_dir: Path) -> list[str]:
        spec = json.loads(PLAN_SPEC.read_text())
        spec["traffic"]["seed"] = seed
        path = work_dir / f"plan-spec-{seed}.json"
        path.write_text(json.dumps(spec, indent=2) + "\n")
        return [
            "plan", str(path), "--store", str(store_dir), "--format", "json",
            "--sla-ms", PLAN_SLA_MS, "--min-attainment", PLAN_MIN_ATTAINMENT,
        ]

    def run(self, argv: list[str]) -> str:
        return _cli(argv)

    def render(self, result: str) -> str:
        from repro.perf.distributed import normalize_result_json

        # The first line counts fresh vs cached points, and the document
        # records the producing run's wall time; both differ between a
        # cold run and its warm replay by design.
        return normalize_result_json(result.split("\n", 1)[1])

    def content(self, text: str) -> str:
        return text

    def check(self, text: str, seed: int, expected: dict[str, Any] | None = None) -> list[Check]:
        """The frontier and the cheapest feasible point match the pins."""
        if seed != DEFAULT_SEED:
            return []
        if expected is None:
            expected = load_expected()[self.name]
        document = json.loads(text)
        frontier = digest(json.dumps(document["frontier"], sort_keys=True))
        solution = document["constraint"]["solution"]
        cheapest = {key: solution.get(key) for key in expected["cheapest"]}
        return [
            Check("pinned frontier", frontier == expected["frontier"], f"got {frontier}"),
            Check("pinned cheapest feasible", cheapest == expected["cheapest"], f"got {cheapest}"),
        ]


WORKLOADS = {w.name: w for w in (PaperRepro(), ServeDay(), PlanSearch())}
