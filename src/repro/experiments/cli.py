"""The ``repro`` command line: list, run, benchmark and cache-manage.

Usage::

    repro list [--tags frame-sim,hw-cost] [--format table|json]
    repro run <ids|tag:TAG|all> [--format table|json|csv] [--out DIR]
              [--jobs N] [--no-store] [per-experiment param flags]
    repro shard <ids|tag:TAG|all> --index I --count N [--store DIR]
                [--pack PATH] [--jobs N] [per-experiment param flags]
    repro assemble <pack.json ...> [--store DIR] [--run SELECTORS]
                   [--format table|json|csv] [--out DIR] [--check DIR]
                   [--no-run] [per-experiment param flags]
    repro plan <spec> [--shard I/N] [--pack PATH] [--format table|json|csv]
               [--out PATH] [--check PATH] [--store DIR] [--no-store]
               [--jobs N] [--sla-ms X] [--min-attainment F]
    repro docs [--out PATH] [--check]
    repro lint [--format table|json] [--rules ID[,ID]] [--root PATH]
               [--baseline PATH] [--update-baseline]
    repro bench [--quick] [--out PATH] [--validate PATH]
                [--compare A.json B.json] [--trend [--dir PATH]]
    repro cache <stats|clear|evict> [--dir PATH] [--format table|json]
                [--max-entries N] [--max-age-days D]

Examples::

    repro list --tags frame-sim
    repro run fig19 --models all --pruning-ratios 0,0.5,0.9
    repro run tag:serving --format json
    repro run all --format json --out artifacts/ --jobs 4
    repro run all --no-store          # force cold, bypass the result store
    repro shard all --index 2 --count 4 --store .shard-store \\
        --pack packs/shard-2.json    # one machine's quarter of the evaluation
    repro assemble packs/*.json --out assembled/ --check artifacts/
    repro plan tiny                   # Pareto frontier of the built-in tiny space
    repro plan reference --sla-ms 250 --min-attainment 0.99
    repro plan reference --shard 0/2 --store .plan-store --pack packs/plan-0.json
    repro docs --check
    repro lint                        # determinism / cache-safety pass, exits 1 on findings
    repro lint --rules DET001,CONC001 --format json
    repro bench --quick --out bench/  # emit a BENCH_<rev>.json smoke point
    repro bench --compare BENCH_a.json BENCH_b.json
    repro cache stats --format json
    repro cache evict --max-entries 5000

``repro shard`` runs the deterministic ``--index``-of-``--count`` subset of
an experiment selection (partitioned by result-store cache key), persisting
every frame and result entry it produces; ``repro assemble`` merges the
shards' exported packs back into one store and replays the full selection
store-warm -- see ``docs/distributed.md`` for the scaling recipe.

``repro plan`` searches a fleet capacity-plan space (:mod:`repro.plan`):
every candidate (device mix, worker count, scheduler, control variant) is
simulated against the spec's traffic and scored, the Pareto frontier over
(cost/request, p99, energy/request) is reported, and ``--sla-ms`` /
``--min-attainment`` solve for the cheapest feasible point.  Evaluated
points are cached in the store's plan tier, so ``--shard I/N`` + ``repro
assemble --no-run`` distribute a large space across machines and a final
serial ``repro plan`` replays it warm -- see ``docs/planning.md``.

Every selected experiment's typed parameters are exposed as ``--flag value``
options (``repro list --format json`` shows them); a flag applies to every
selected experiment declaring that parameter.  Unknown experiment ids,
unknown tags and malformed parameter values exit with status 2 and a
one-line message -- never a traceback.

``repro run`` reads and writes the persistent result store
(:mod:`repro.perf.store`) by default, so re-runs with an unchanged
simulation model skip cycle-level simulation entirely; ``--no-store``
bypasses it.  The command surface below is described declaratively by
:data:`COMMANDS`: each subcommand's :mod:`argparse` parser is generated
from its spec (:func:`build_parser`, so ``repro <command> --help`` lists
that command's options), and the same specs render this usage text and
the generated ``docs/experiments.md`` catalog, so ``repro docs --check``
guards the documented CLI against drift.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, NoReturn, Sequence, TextIO

from repro.experiments.api import (
    BadParamError,
    Experiment,
    ExperimentResult,
    UnknownExperimentError,
)
from repro.experiments.registry import (
    EXPERIMENTS,
    all_tags,
    experiments_by_tag,
    get_experiment,
)

RUN_FORMATS = ("table", "json", "csv")
LIST_FORMATS = ("table", "json")

#: The pseudo-option standing for every experiment parameter flag.
_PARAM_FLAG = "--<param>"


# -- option value parsers -----------------------------------------------------
# Each raises ArgumentTypeError; the parser reports it as ``--flag: message``.


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int '{text}'") from None


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number '{text}'") from None


def _jobs(text: str) -> int:
    jobs = _int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return jobs


def _shard(text: str):
    """An ``I/N`` shard designator as a :class:`~repro.perf.distributed.Shard`."""
    from repro.perf.distributed import Shard

    try:
        index, count = map(int, text.split("/"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid shard '{text}' (expected I/N)"
        ) from None
    try:
        return Shard(index, count)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _choice(label: str, choices: tuple[str, ...]) -> Callable[[str], str]:
    """A parser accepting one of ``choices`` (e.g. an output format)."""

    def parse(text: str) -> str:
        if text not in choices:
            raise argparse.ArgumentTypeError(
                f"invalid {label} '{text}'; valid: {', '.join(choices)}"
            )
        return text

    return parse


@dataclass(frozen=True)
class CommandOption:
    """One option of a CLI command: parsing, usage and generated catalog.

    ``value`` is the metavar: an empty one makes a bare switch, and one of
    several words (``A.json B.json``) collects a list whose length the
    command checks.  ``parse`` converts (and validates) each value;
    ``action`` exists only for ``repro cache``: it restricts the option to
    one value of that command's action operand.
    """

    flag: str
    value: str
    help: str
    parse: Callable[[str], Any] = str
    required: bool = False
    action: str | None = None

    @property
    def syntax(self) -> str:
        """The option as written on a command line, e.g. ``--jobs N``."""
        return f"{self.flag} {self.value}".strip()

    @property
    def switch(self) -> bool:
        """True for a bare ``--flag`` that takes no value."""
        return not self.value

    @property
    def dest(self) -> str:
        """The parsed namespace attribute, e.g. ``no_store`` for ``--no-store``."""
        return self.flag.removeprefix("--").replace("-", "_")


@dataclass(frozen=True)
class CommandSpec:
    """One ``repro`` subcommand: name, operands, summary and options.

    The usage screen, each subcommand's argparse parser and the CLI
    section of the generated experiment catalog are all built from these
    specs, so the documented command surface cannot drift from the
    implemented one without failing ``repro docs --check``.
    """

    name: str
    summary: str
    operands: tuple[tuple[str, str], ...] = ()
    options: tuple[CommandOption, ...] = ()


_RUN_FORMAT = _choice("format", RUN_FORMATS)
_SELECTORS = ("selectors", "experiment ids, tag:TAG groups, or 'all'")

#: The documented ``repro`` command surface, in help order.
COMMANDS: tuple[CommandSpec, ...] = (
    CommandSpec(
        "list",
        "list registered experiments",
        options=(
            CommandOption("--tags", "TAG[,TAG]", "only experiments carrying any given tag"),
            CommandOption("--format", "table|json", "json includes the typed parameter schemas", _choice("list format", LIST_FORMATS)),
        ),
    ),
    CommandSpec(
        "run",
        "run experiments and render / write their results",
        operands=(_SELECTORS,),
        options=(
            CommandOption("--format", "table|json|csv", "output rendering", _RUN_FORMAT),
            CommandOption("--out", "DIR", "write one artifact file per experiment", Path),
            CommandOption("--jobs", "N", "run up to N experiments concurrently", _jobs),
            CommandOption("--no-store", "", "bypass the persistent result store (force cold simulation)"),
            CommandOption(_PARAM_FLAG, "VALUE", "any selected experiment's typed parameter"),
        ),
    ),
    CommandSpec(
        "shard",
        "run one deterministic shard of an experiment set into the store",
        operands=(_SELECTORS,),
        options=(
            CommandOption("--index", "I", "this shard's index, in [0, count)", _int, required=True),
            CommandOption("--count", "N", "total number of shards", _int, required=True),
            CommandOption("--store", "DIR", "result store to populate (default: $REPRO_STORE_DIR or .repro-store)", Path),
            CommandOption("--pack", "PATH", "export the populated store as a portable pack file (whole store: use a fresh --store for a minimal pack)", Path),
            CommandOption("--jobs", "N", "run up to N of the shard's experiments concurrently", _jobs),
            CommandOption(_PARAM_FLAG, "VALUE", "any selected experiment's typed parameter"),
        ),
    ),
    CommandSpec(
        "assemble",
        "merge shard packs into one store and replay the results store-warm",
        operands=(("packs", "pack files written by 'repro shard --pack'"),),
        options=(
            CommandOption("--store", "DIR", "store to merge into (default: $REPRO_STORE_DIR or .repro-store)", Path),
            CommandOption("--run", "SELECTORS", "experiments to replay after merging (default: all)"),
            CommandOption("--format", "table|json|csv", "output rendering (default: json)", _RUN_FORMAT),
            CommandOption("--out", "DIR", "write one artifact file per experiment", Path),
            CommandOption("--check", "DIR", "verify replayed artifacts match a reference directory (wall-clock field excluded)", Path),
            CommandOption("--no-run", "", "merge only; skip the replay"),
            CommandOption(_PARAM_FLAG, "VALUE", "typed parameter for the replay (pass the same values the shards used)"),
        ),
    ),
    CommandSpec(
        "plan",
        "search a fleet plan space and report its Pareto frontier",
        operands=(("spec", "built-in plan-space name (tiny, reference) or a JSON spec file"),),
        options=(
            CommandOption("--shard", "I/N", "evaluate only this shard of the space's plan points", _shard),
            CommandOption("--pack", "PATH", "export the populated store as a portable pack file", Path),
            CommandOption("--format", "table|json|csv", "output rendering (default: table)", _RUN_FORMAT),
            CommandOption("--out", "PATH", "write the rendered plan to a file instead of stdout", Path),
            CommandOption("--check", "PATH", "verify output matches a reference file (wall-clock field excluded)", Path),
            CommandOption("--store", "DIR", "result store caching evaluated points (default: $REPRO_STORE_DIR or .repro-store)", Path),
            CommandOption("--no-store", "", "bypass the persistent result store (force re-evaluation)"),
            CommandOption("--jobs", "N", "evaluate up to N candidates concurrently", _jobs),
            CommandOption("--sla-ms", "X", "constraint: cheapest point with p99 <= X milliseconds", _number),
            CommandOption("--min-attainment", "F", "constraint: require SLO attainment >= F (in [0, 1])", _number),
        ),
    ),
    CommandSpec(
        "trace",
        "validate and summarize a serving-log trace (see docs/scenarios.md)",
        operands=(("path", "trace file: .csv or .jsonl serving log"),),
        options=(
            CommandOption("--summarize", "", "print per-scenario / per-tenant breakdown tables"),
            CommandOption("--to-json", "", "re-emit the validated trace as lossless JSON lines on stdout"),
        ),
    ),
    CommandSpec(
        "docs",
        "regenerate the experiment catalog (docs/experiments.md)",
        options=(
            CommandOption("--out", "PATH", "where to write the catalog", Path),
            CommandOption("--check", "", "exit 1 if the checked-in catalog is stale"),
        ),
    ),
    CommandSpec(
        "lint",
        "run the determinism / cache-safety static-analysis pass",
        options=(
            CommandOption("--format", "table|json", "diagnostic rendering (default: table)", _choice("lint format", LIST_FORMATS)),
            CommandOption("--rules", "ID[,ID]", "run only the given rule ids (default: all)"),
            CommandOption("--root", "PATH", "tree to lint (default: the installed repro package sources)", Path),
            CommandOption("--baseline", "PATH", "baseline file (default: lint-baseline.json at the checkout root)", Path),
            CommandOption("--update-baseline", "", "rewrite the baseline to grandfather every current finding"),
        ),
    ),
    CommandSpec(
        "bench",
        "measure a BENCH_<rev>.json performance trajectory point",
        options=(
            CommandOption("--quick", "", "CI-smoke footprint (small sweep, 5 experiments)"),
            CommandOption("--out", "PATH", "output file or directory (default: checkout root)", Path),
            CommandOption("--validate", "PATH", "schema-check an existing BENCH file instead of measuring", Path),
            CommandOption("--compare", "A.json B.json", "print regression deltas between two BENCH documents (matched quick flags)", Path),
            CommandOption("--trend", "", "render the committed BENCH_*.json trajectory as one scoreboard row per point"),
            CommandOption("--dir", "PATH", "trend: directory holding the BENCH_*.json points (default: checkout root)", Path),
        ),
    ),
    CommandSpec(
        "cache",
        "inspect or prune the persistent result store",
        operands=(("action", "stats | clear | evict"),),
        options=(
            CommandOption("--dir", "PATH", "store directory (default: $REPRO_STORE_DIR or .repro-store)", Path),
            CommandOption("--format", "table|json", "stats output rendering", _choice("cache format", LIST_FORMATS), action="stats"),
            CommandOption("--max-entries", "N", "evict: keep at most N newest entries", _int, action="evict"),
            CommandOption("--max-age-days", "D", "evict: drop entries older than D days", _number, action="evict"),
        ),
    ),
)

_SPECS = {spec.name: spec for spec in COMMANDS}


def _usage() -> str:
    """The usage screen, rendered from :data:`COMMANDS`."""
    lines = ["usage: repro <command> [options]", "", "commands:"]
    for spec in COMMANDS:
        lines.append(f"  {spec.name:<6} {spec.summary}")
        for name, help_text in spec.operands:
            lines.append(f"           {name:<21} {help_text}")
        for option in spec.options:
            lines.append(f"           {option.syntax:<21} {option.help}".rstrip())
    lines += ["", "run 'repro list' for the experiment ids and tags."]
    return "\n".join(lines)


class CLIError(Exception):
    """A user-facing CLI error: printed as one line, exits with status 2."""


class _Parser(argparse.ArgumentParser):
    """argparse with the CLI's error contract: one ``error:`` line, exit 2."""

    def error(self, message: str) -> NoReturn:
        raise CLIError(message.removeprefix("argument "))


def build_parser(spec: CommandSpec) -> argparse.ArgumentParser:
    """The argparse parser of one subcommand, generated from its spec.

    Operands collect any number of values (the command checks the count),
    so they may sit before, between or after options.  A spec carrying
    :data:`_PARAM_FLAG` registers every registered experiment's parameter
    flag, kept as text under its flag for :meth:`Param.parse` to read once
    the selection is resolved.
    """
    parser = _Parser(
        prog=f"repro {spec.name}", description=spec.summary, allow_abbrev=False
    )
    for name, help_text in spec.operands:
        parser.add_argument(name, nargs="*", help=help_text)
    for option in spec.options:
        if option.flag == _PARAM_FLAG:
            group = parser.add_argument_group(
                "experiment parameters", f"{option.syntax}: {option.help}"
            )
            for flag in _param_flags():
                group.add_argument(
                    flag, dest=flag, default=argparse.SUPPRESS, help=argparse.SUPPRESS
                )
        elif option.switch:
            parser.add_argument(
                option.flag, dest=option.dest, action="store_true", help=option.help
            )
        else:
            parser.add_argument(
                option.flag,
                dest=option.dest,
                metavar=option.value,
                nargs="*" if " " in option.value else None,
                type=option.parse,
                required=option.required,
                help=option.help,
            )
    return parser


def _param_flags() -> list[str]:
    """Every registered experiment's parameter flag, sorted."""
    return sorted({p.flag for exp in EXPERIMENTS.values() for p in exp.params})


def _take_unknown_flags(
    argv: list[str], known: set[str]
) -> tuple[list[str], dict[str, str | None]]:
    """Take every unknown ``--flag [value]`` out of ``argv``.

    argparse cannot know whether an unknown flag takes a value, and Python
    versions differ on whether the token after it becomes an operand, so
    the next token (unless it is a flag) is taken here as the flag's value:
    ``--bogus 1 fig06`` and ``fig06 --bogus 1`` then fail alike everywhere.
    """
    rest: list[str] = []
    unknown: dict[str, str | None] = {}
    i = 0
    while i < len(argv):
        flag, eq, value = argv[i].partition("=")
        i += 1
        if not flag.startswith("--") or flag in known:
            rest.append(argv[i - 1])
        elif eq or i == len(argv) or argv[i].startswith("--"):
            unknown[flag] = value if eq else None
        else:
            unknown[flag] = argv[i]
            i += 1
    return rest, unknown


def _parse(spec: CommandSpec, argv: list[str]) -> argparse.Namespace:
    """Parse one subcommand's arguments, rejecting anything unrecognised.

    For a command taking experiment parameters, ``args.params`` maps each
    given parameter flag to its text, including flags no experiment
    declares, so selection-aware resolution reports those.
    """
    takes_params = any(option.flag == _PARAM_FLAG for option in spec.options)
    known = {"-h", "--help", *(option.flag for option in spec.options)}
    if takes_params:
        known.update(_param_flags())
    argv, unknown = _take_unknown_flags(argv, known)
    args, extras = build_parser(spec).parse_known_intermixed_args(argv)
    if takes_params:
        args.params = {k: v for k, v in vars(args).items() if k.startswith("--")}
        args.params.update(unknown)
    elif unknown:
        valid = ", ".join(option.flag for option in spec.options)
        raise CLIError(f"unknown option '{next(iter(unknown))}'; valid: {valid}")
    if extras:
        raise CLIError(f"unexpected argument '{extras[0]}'")
    return args


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``repro`` console script and ``python -m``."""
    args = list(sys.argv[1:] if argv is None else argv)
    try:
        if not args or args[0] in ("-h", "--help", "help"):
            print(_usage())
            return 0
        command, rest = args[0], args[1:]
        # Historical invocation styles keep working: ``repro fig19``,
        # ``repro all`` behave like ``repro run ...``.
        if command == "all" or command.lower() in EXPERIMENTS:
            command, rest = "run", args
        if command not in _SPECS:
            known = ", ".join(f"'{spec.name}'" for spec in COMMANDS)
            raise CLIError(
                f"unknown command '{command}' (expected one of {known}); "
                f"run 'repro --help' for usage"
            )
        try:
            parsed = _parse(_SPECS[command], rest)
        except SystemExit as exc:  # argparse exits 0 after printing --help
            return int(exc.code or 0)
        return _HANDLERS[command](parsed)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


# -- repro list ---------------------------------------------------------------


def _cmd_list(args: argparse.Namespace) -> int:
    experiments = list(EXPERIMENTS.values())
    if args.tags is not None:
        wanted = {t for t in args.tags.split(",") if t}
        if not wanted:
            raise CLIError("--tags needs at least one tag")
        unknown = wanted - set(all_tags())
        if unknown:
            raise CLIError(
                f"unknown tag(s) {', '.join(sorted(unknown))}; "
                f"valid: {', '.join(all_tags())}"
            )
        experiments = [e for e in experiments if wanted & set(e.tags)]
    if args.format == "json":
        import json

        print(json.dumps([_describe(e) for e in experiments], indent=2))
        return 0
    print("Available experiments:")
    for exp in experiments:
        tags = ",".join(exp.tags)
        print(f"  {exp.id:<22} {tags:<28} {exp.title}")
    return 0


def _describe(exp: Experiment) -> dict[str, Any]:
    return {
        "id": exp.id,
        "title": exp.title,
        "tags": list(exp.tags),
        "params": [
            {
                "name": param.name,
                "flag": param.flag,
                "type": param.type_label,
                "default": param.to_json(param.default),
                "help": param.help,
            }
            for param in exp.params
        ],
    }


# -- repro docs ---------------------------------------------------------------


def _cmd_docs(args: argparse.Namespace) -> int:
    """Regenerate (or, with ``--check``, verify) the experiment catalog."""
    from repro.experiments.catalog import catalog_markdown, default_catalog_path

    path = args.out or default_catalog_path()
    generated = catalog_markdown()
    if args.check:
        current = path.read_text() if path.exists() else None
        if current != generated:
            command = (
                "repro docs" if args.out is None else f"repro docs --out {path}"
            )
            print(
                f"error: {path} is stale; regenerate it with '{command}'",
                file=sys.stderr,
            )
            return 1
        print(f"{path} is up to date")
        return 0
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(generated)
    print(f"wrote {path}")
    return 0


# -- repro lint ---------------------------------------------------------------


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the determinism / cache-safety static-analysis pass.

    Exits 0 on a clean pass, 1 when non-baselined findings remain, 2 on
    usage errors -- the same contract the CI lint gate relies on.
    """
    from repro.analysis import (
        default_baseline_path,
        default_lint_root,
        load_baseline,
        render_json,
        render_table,
        run_lint,
        update_baseline,
    )

    update = args.update_baseline
    rule_ids = None
    if args.rules is not None:
        rule_ids = [r for r in args.rules.split(",") if r]
        if not rule_ids:
            raise CLIError("--rules needs at least one rule id")
        if update:
            # A partial run would rewrite the baseline without the other
            # rules' findings, silently un-grandfathering them.
            raise CLIError("--update-baseline requires the full rule set; drop --rules")
    root = args.root or default_lint_root()
    if not root.is_dir():
        raise CLIError(f"no such lint root: {root}")
    baseline_path = args.baseline or default_baseline_path()
    try:
        baseline = load_baseline(baseline_path)
        report = run_lint(root, rule_ids=rule_ids, baseline=baseline)
    except ValueError as exc:
        raise CLIError(str(exc)) from None
    if update:
        # Grandfather every current non-suppressed finding: new ones get a
        # TODO justification, already-baselined ones keep theirs.
        update_baseline(
            baseline_path, report.findings + report.baselined, baseline
        )
        report = run_lint(root, rule_ids=rule_ids, baseline=load_baseline(baseline_path))
        print(f"wrote {baseline_path} ({len(report.baselined)} entries matched)")
    print(render_json(report) if args.format == "json" else render_table(report))
    return 0 if report.clean else 1


# -- repro bench --------------------------------------------------------------


def _read_json_file(path: Path, what: str) -> Any:
    """Load one JSON file, surfacing any problem as a one-line CLI error."""
    import json

    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        raise CLIError(f"no such {what}: {path}") from None
    except OSError as exc:
        raise CLIError(f"cannot read {what} {path}: {exc}") from None
    except ValueError as exc:
        raise CLIError(f"{path} is not valid JSON: {exc}") from None


def _cmd_bench(args: argparse.Namespace) -> int:
    """Measure, schema-check (``--validate``), diff (``--compare``) or
    scoreboard (``--trend``) BENCH documents."""
    from repro.perf.bench import run_bench, validate_bench, write_bench

    if args.trend:
        from repro.perf.bench import (
            default_bench_dir,
            load_bench_documents,
            render_trend,
            trend_report,
        )

        directory = args.dir or default_bench_dir()
        if not directory.is_dir():
            raise CLIError(f"no such trend directory: {directory}")
        documents = [doc for _, doc in load_bench_documents(directory)]
        print(render_trend(trend_report(documents)))
        return 0 if documents else 1
    if args.compare is not None:
        from repro.perf.bench import compare_bench, render_compare

        if len(args.compare) != 2:
            raise CLIError("--compare needs two BENCH file paths")
        baseline, current = (
            _read_json_file(path, "BENCH file") for path in args.compare
        )
        try:
            comparison = compare_bench(baseline, current)
        except ValueError as exc:
            raise CLIError(str(exc)) from None
        print(render_compare(comparison))
        return 0
    if args.validate is not None:
        path = args.validate
        document = _read_json_file(path, "BENCH file")
        problems = validate_bench(document)
        if problems:
            for problem in problems:
                print(f"error: {path}: {problem}", file=sys.stderr)
            return 1
        print(f"{path} conforms to bench schema v{document['schema_version']}")
        return 0
    document = run_bench(quick=args.quick)
    problems = validate_bench(document)
    if problems:  # pragma: no cover - emitter/schema drift is a bug
        raise CLIError(f"emitted document fails its own schema: {problems[0]}")
    path = write_bench(document, args.out)
    sweep = document["sweep"]
    print(f"wrote {path}")
    print(
        f"sweep: cold {sweep['cold_s']:.2f}s -> warm-store "
        f"{sweep['warm_store_s']:.2f}s ({sweep['warm_store_speedup']:.1f}x, "
        f"{sweep['warm_store_render_calls']} renders)"
    )
    serving = document["serving"]
    print(
        f"serving: {serving['requests_per_wall_s']:.0f} requests/s simulated "
        f"({serving['time_compression']:.0f}x time compression)"
    )
    return 0


# -- repro cache --------------------------------------------------------------


def _cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or prune the persistent result store."""
    from repro.perf.store import ResultStore

    actions = ("stats", "clear", "evict")
    if not args.action:
        raise CLIError(f"cache needs an action: {' | '.join(actions)}")
    action, *extra = args.action
    if action not in actions:
        raise CLIError(f"unknown cache action '{action}'; valid: {', '.join(actions)}")
    if extra:
        raise CLIError(f"unexpected argument '{extra[0]}'")
    # Each action accepts only its own options, so e.g. a `clear` carrying
    # an ignored eviction bound is rejected instead of wiping the store.
    options = _SPECS["cache"].options
    valid = ", ".join(o.flag for o in options if o.action in (None, action))
    for option in options:
        if option.action not in (None, action) and getattr(args, option.dest) is not None:
            raise CLIError(f"unknown option '{option.flag}'; valid: {valid}")
    store = ResultStore(args.dir) if args.dir is not None else ResultStore.default()
    if action == "stats":
        stats = store.stats()
        if args.format == "json":
            import json

            print(json.dumps(stats.to_dict(), indent=2))
        else:
            print(f"store:          {stats.root}")
            print(f"schema version: v{stats.schema_version}")
            print(f"entries:        {stats.entries}")
            print(f"stale entries:  {stats.stale_entries} (other schema versions)")
            print(f"size:           {stats.total_bytes / 1e6:.2f} MB")
        return 0
    if action == "clear":
        removed = store.clear()
        print(f"removed {removed} entries from {store.root}")
        return 0
    if args.max_entries is not None and args.max_entries < 0:
        raise CLIError("--max-entries must be >= 0")
    max_age_s = None
    if args.max_age_days is not None:
        if not args.max_age_days >= 0:  # NaN too: it would evict nothing
            raise CLIError("--max-age-days must be >= 0")
        max_age_s = args.max_age_days * 86400.0
    removed = store.evict(max_entries=args.max_entries, max_age_s=max_age_s)
    print(f"evicted {removed} entries from {store.root}")
    return 0


# -- repro run ----------------------------------------------------------------


def _attach_store(store_dir: Path | None = None):
    """Attach the persistent store (default, or rooted at ``store_dir``).

    The store rides on the shared process-wide engine, so serving
    experiments and figure sweeps read through the same cache the previous
    ``repro run`` populated.  Returns the attached
    :class:`~repro.perf.store.ResultStore`.
    """
    from repro.perf.store import ResultStore
    from repro.sim.sweep import get_default_engine

    store = ResultStore(store_dir) if store_dir else ResultStore.default()
    get_default_engine().attach_store(store)
    return store


def _configure_store(no_store: bool) -> None:
    """Attach (or detach, with ``--no-store``) the default persistent store."""
    if no_store:
        from repro.sim.sweep import get_default_engine

        get_default_engine().attach_store(None)
    else:
        _attach_store(None)


def _cmd_run(args: argparse.Namespace) -> int:
    if not args.selectors:
        raise CLIError("no experiments selected; pass ids, tag:TAG or 'all'")
    _configure_store(args.no_store)

    experiments = _select(args.selectors)
    overrides = _resolve_param_flags(args.params, experiments)
    results = run_many(experiments, overrides, jobs=args.jobs or 1)

    fmt = args.format or "table"
    if args.out is not None:
        _write_artifacts(results, fmt, args.out)
    else:
        _print_results(results, fmt, sys.stdout)
    return 0


# -- repro shard / repro assemble ---------------------------------------------


def _cmd_shard(args: argparse.Namespace) -> int:
    """Run one deterministic shard of an experiment selection into the store."""
    from repro.perf.distributed import Shard, shard_experiments

    if not args.selectors:
        raise CLIError("no experiments selected; pass ids, tag:TAG or 'all'")
    try:
        shard = Shard(args.index, args.count)
    except ValueError as exc:
        raise CLIError(str(exc)) from None
    store = _attach_store(args.store)

    experiments = _select(args.selectors)
    overrides = _resolve_param_flags(args.params, experiments)
    mine = shard_experiments(experiments, shard, overrides)
    print(
        f"shard {shard.index}/{shard.count}: {len(mine)} of "
        f"{len(experiments)} selected experiments -> {store.root}"
    )
    results = run_many(mine, overrides, jobs=args.jobs or 1)
    for result in results:
        print(f"  {result.experiment_id} ({result.provenance.wall_time_s:.1f}s)")
    if args.pack is not None:
        path = store.export_pack(args.pack)
        print(f"wrote pack {path} ({store.stats().entries} store entries)")
    return 0


def _cmd_assemble(args: argparse.Namespace) -> int:
    """Merge shard packs into one store and replay the results store-warm."""
    from repro.perf.distributed import assemble_packs, normalize_result_json
    from repro.perf.store import PackConflictError

    packs = [Path(p) for p in args.packs]
    if not packs:
        raise CLIError(
            "no shard packs given; pass pack files written by 'repro shard --pack'"
        )
    if args.no_run and args.params:
        raise CLIError(
            "--<param> flags apply to the replay; drop --no-run to use them"
        )
    fmt = args.format or "json"

    store = _attach_store(args.store)
    try:
        stats = assemble_packs(store, packs)
    except (PackConflictError, ValueError) as exc:
        raise CLIError(str(exc)) from None
    print(
        f"merged {len(packs)} pack(s) into {store.root}: {stats.added} added, "
        f"{stats.identical} identical, {stats.skipped} skipped"
    )
    if args.no_run:
        return 0

    selectors = "all" if args.run is None else args.run
    experiments = _select([s for s in selectors.split(",") if s])
    # The result-tier keys hash parameter values, so the replay must carry
    # the same overrides the shard runs were given.
    overrides = _resolve_param_flags(args.params, experiments)
    results = run_many(experiments, overrides)
    if args.out is not None:
        _write_artifacts(results, fmt, args.out)
    if args.check is not None:
        reference = args.check
        mismatches = []
        for result in results:
            path = reference / f"{result.experiment_id}.{_EXTENSIONS[fmt]}"
            text = _render(result, fmt)
            text = text if text.endswith("\n") else text + "\n"
            if not path.exists():
                mismatches.append(f"{path}: missing from reference")
            elif normalize_result_json(path.read_text()) != normalize_result_json(
                text
            ):
                mismatches.append(f"{path}: assembled output differs")
        if mismatches:
            for mismatch in mismatches:
                print(f"error: {mismatch}", file=sys.stderr)
            return 1
        print(
            f"assembled output matches {reference} for "
            f"{len(results)} experiment(s)"
        )
    if args.out is None and args.check is None:
        _print_results(results, fmt, sys.stdout)
    return 0


# -- repro plan ---------------------------------------------------------------


def _plan_point_dict(evaluated) -> dict[str, Any]:
    """One evaluated plan point as a flat JSON-safe mapping."""
    payload = evaluated.to_payload()
    return {**payload["point"], **payload["metrics"]}


def _plan_table(document: dict[str, Any]) -> str:
    """Fixed-width frontier table of a plan document."""
    header = (
        f"{'fleet':<24} {'n':>2} {'scheduler':<15} {'control':<12} "
        f"{'traffic':<12} "
        f"{'$/Mreq':>10} {'p99 [ms]':>9} {'mJ/req':>8} {'SLO %':>6}"
    )
    lines = [header]
    for row in document["frontier"]:
        fleet = "+".join(row["fleet"])
        lines.append(
            f"{fleet:<24} {len(row['fleet']):>2} {row['scheduler']:<15} "
            f"{row['control']:<12} {row.get('traffic', 'poisson'):<12} "
            f"{row['cost_per_request'] * 1e6:>10.4f} "
            f"{row['p99_latency_s'] * 1e3:>9.2f} "
            f"{row['energy_per_request_j'] * 1e3:>8.2f} "
            f"{row['slo_attainment'] * 100:>6.1f}"
        )
    if not document["frontier"]:
        lines.append("(empty frontier: no plan points evaluated)")
    constraint = document.get("constraint")
    if constraint is not None:
        solution = constraint["solution"]
        fleet = "+".join(solution["fleet"])
        lines.append(
            f"cheapest feasible: {fleet} ({solution['scheduler']}, "
            f"{solution['control']}) at {solution['cost_per_request'] * 1e6:.4f} "
            f"$/Mreq, p99 {solution['p99_latency_s'] * 1e3:.2f} ms, "
            f"attainment {solution['slo_attainment'] * 100:.1f}%"
        )
    return "\n".join(lines)


_PLAN_CSV_FIELDS = (
    "scheduler",
    "control",
    "traffic",
    "cost_per_request",
    "p99_latency_s",
    "energy_per_request_j",
    "slo_attainment",
    "goodput_rps",
    "completed_requests",
)


def _plan_csv(document: dict[str, Any]) -> str:
    """CSV rendering of a plan document's frontier rows."""
    lines = ["fleet," + ",".join(_PLAN_CSV_FIELDS)]
    for row in document["frontier"]:
        cells = ["+".join(row["fleet"])]
        cells += [repr(row[field]) if isinstance(row[field], float) else str(row[field])
                  for field in _PLAN_CSV_FIELDS]
        lines.append(",".join(cells))
    return "\n".join(lines)


def _render_plan(document: dict[str, Any], fmt: str) -> str:
    """Render a plan document as table, JSON or CSV text."""
    if fmt == "json":
        import json

        return json.dumps(document, indent=2)
    if fmt == "csv":
        return _plan_csv(document)
    summary = (
        f"plan {document['spec']}: frontier {len(document['frontier'])} of "
        f"{document['evaluated']} evaluated points "
        f"({document['enumerated']} enumerated)"
    )
    return summary + "\n" + _plan_table(document)


def _cmd_plan(args: argparse.Namespace) -> int:
    """Search a fleet plan space: evaluate, reduce to the Pareto frontier."""
    import math
    import time

    from repro.experiments.api import _repo_version
    from repro.perf.distributed import normalize_result_json
    from repro.plan import (
        OBJECTIVES,
        cheapest_feasible,
        evaluate_space,
        load_space,
        pareto_frontier,
        space_digest,
    )

    if len(args.spec) != 1:
        raise CLIError(
            "pass exactly one plan spec (a built-in name or a JSON spec file)"
        )
    shard, sla_ms, min_attainment = args.shard, args.sla_ms, args.min_attainment
    if sla_ms is not None and not 0.0 < sla_ms < math.inf:
        raise CLIError(f"--sla-ms must be a finite number > 0, got {sla_ms:g}")
    if min_attainment is not None and not 0.0 <= min_attainment <= 1.0:
        raise CLIError(f"--min-attainment must be in [0, 1], got {min_attainment}")
    if args.no_store and args.store is not None:
        raise CLIError("--no-store and --store are mutually exclusive")
    if args.no_store and args.pack is not None:
        raise CLIError("--pack exports the store; drop --no-store to use it")

    try:
        space = load_space(args.spec[0])
    except ValueError as exc:
        raise CLIError(str(exc)) from exc

    if args.no_store:
        _configure_store(True)
        store = None
    else:
        store = _attach_store(args.store)

    start = time.perf_counter()  # repro: lint-ignore[DET002]
    evaluation = evaluate_space(space, store=store, shard=shard, jobs=args.jobs or 1)
    wall_time_s = time.perf_counter() - start  # repro: lint-ignore[DET002]
    frontier = pareto_frontier(evaluation.points)

    constraint: dict[str, Any] | None = None
    if sla_ms is not None or min_attainment is not None:
        solution = cheapest_feasible(
            evaluation.points,
            max_p99_s=None if sla_ms is None else sla_ms / 1000.0,
            min_attainment=min_attainment,
        )
        if solution is None:
            bounds = []
            if sla_ms is not None:
                bounds.append(f"p99 <= {sla_ms:g} ms")
            if min_attainment is not None:
                bounds.append(f"attainment >= {min_attainment:g}")
            raise CLIError(
                f"infeasible constraint: no evaluated point has "
                f"{' and '.join(bounds)} "
                f"({len(evaluation.points)} points evaluated)"
            )
        constraint = {
            "sla_ms": sla_ms,
            "min_attainment": min_attainment,
            "solution": _plan_point_dict(solution),
        }

    document: dict[str, Any] = {
        "spec": space.name,
        "space": space.canonical(),
        "space_digest": space_digest(space),
        "shard": None if shard is None else {"index": shard.index, "count": shard.count},
        "enumerated": evaluation.enumerated,
        "evaluated": len(evaluation.points),
        "objectives": list(OBJECTIVES),
        "frontier": [_plan_point_dict(point) for point in frontier],
        "constraint": constraint,
        "provenance": {
            "repo_version": _repo_version(),
            "wall_time_s": wall_time_s,
        },
    }

    print(
        f"plan {space.name}: {len(evaluation.points)} of "
        f"{evaluation.enumerated} points evaluated "
        f"({evaluation.fresh} fresh, {evaluation.cached} cached)"
    )
    text = _render_plan(document, args.format or "table")
    text = text if text.endswith("\n") else text + "\n"
    if args.out is not None:
        path = args.out
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)
    if args.pack is not None and store is not None:
        path = store.export_pack(args.pack)
        print(f"wrote pack {path} ({store.stats().entries} store entries)")
    if args.check is not None:
        reference = args.check
        if not reference.exists():
            print(f"error: {reference}: missing reference file", file=sys.stderr)
            return 1
        if normalize_result_json(reference.read_text()) != normalize_result_json(text):
            print(f"error: {reference}: plan output differs", file=sys.stderr)
            return 1
        print(f"plan output matches {reference}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Validate a serving-log trace; summarize or re-emit it."""
    from repro.serve.traffic import TraceFormatError, load_trace, trace_to_jsonl

    if len(args.path) != 1:
        raise CLIError("pass exactly one trace file (.csv or .jsonl)")
    if args.summarize and args.to_json:
        raise CLIError("--summarize and --to-json are mutually exclusive")
    (path,) = args.path
    try:
        trace = load_trace(path)
    except TraceFormatError as exc:
        raise CLIError(str(exc)) from None
    except OSError as exc:
        raise CLIError(f"{path}: {exc.strerror or exc}") from None
    if args.to_json:
        sys.stdout.write(trace_to_jsonl(trace.requests))
        return 0
    summary = trace.summary()
    print(
        f"trace {summary['path']}: {summary['requests']} requests over "
        f"{summary['duration_s']:.3f}s ({summary['offered_rps']:.2f} rps, "
        f"format {summary['format']})"
    )
    print(
        f"  deadlines: {summary['with_deadline']}/{summary['requests']}"
        f"  pinned: {summary['pinned']}"
        f"  tenants: {len(summary['tenants'])}"
        f"  sessions: {summary['sessions']}"
    )
    if args.summarize:
        print(f"\n  {'scenario':<40} {'count':>7} {'share':>7}")
        for row in summary["scenarios"]:
            print(f"  {row['label']:<40} {row['count']:>7} {row['share']:>6.1%}")
        if summary["tenants"]:
            print(f"\n  {'tenant':<16} {'count':>7}")
            for tenant, count in summary["tenants"].items():
                print(f"  {tenant:<16} {count:>7}")
    return 0


_HANDLERS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "shard": _cmd_shard,
    "assemble": _cmd_assemble,
    "plan": _cmd_plan,
    "trace": _cmd_trace,
    "docs": _cmd_docs,
    "lint": _cmd_lint,
    "bench": _cmd_bench,
    "cache": _cmd_cache,
}


def _select(selectors: list[str]) -> list[Experiment]:
    """Resolve ids / ``tag:`` groups / ``all`` into a deduped run list."""
    chosen: dict[str, Experiment] = {}
    for selector in selectors:
        if selector == "all":
            chosen.update(EXPERIMENTS)
        elif selector.startswith("tag:"):
            tag = selector[len("tag:"):]
            matches = experiments_by_tag(tag)
            if not matches:
                raise CLIError(
                    f"no experiments tagged '{tag}'; valid tags: {', '.join(all_tags())}"
                )
            chosen.update({exp.id: exp for exp in matches})
        else:
            try:
                exp = get_experiment(selector)
            except UnknownExperimentError as exc:
                raise CLIError(str(exc)) from None
            chosen[exp.id] = exp
    return list(chosen.values())


def _resolve_param_flags(
    params: dict[str, str | None], experiments: list[Experiment]
) -> dict[str, dict[str, Any]]:
    """Map ``--flag value`` texts onto each selected experiment's params."""
    by_flag: dict[str, list[tuple[Experiment, Any]]] = {}
    for exp in experiments:
        for param in exp.params:
            by_flag.setdefault(param.flag, []).append((exp, param))
    overrides: dict[str, dict[str, Any]] = {exp.id: {} for exp in experiments}
    for flag, text in params.items():
        if flag not in by_flag:
            valid = ", ".join(sorted(by_flag)) or "(none for this selection)"
            raise CLIError(f"unknown parameter '{flag}'; valid: {valid}")
        for exp, param in by_flag[flag]:
            try:
                overrides[exp.id][param.name] = param.parse(text)
            except BadParamError as exc:
                raise CLIError(str(exc)) from None
    return overrides


def _result_store():
    """The persistent store attached to the shared engine (None when off)."""
    from repro.sim.sweep import get_default_engine

    return get_default_engine().store


def _experiment_key(exp: Experiment, overrides: dict[str, Any]):
    """Content address of one experiment invocation (the result-tier key)."""
    from repro.perf.distributed import experiment_result_key

    return experiment_result_key(exp, overrides)


def _cached_result(exp: Experiment, payload: dict[str, Any]) -> ExperimentResult:
    """Rebuild a byte-identical :class:`ExperimentResult` from a store payload.

    The rendered table was persisted verbatim, so ``to_table`` (including
    custom renderers over ``raw``, which is not serializable) reproduces
    the cold run's bytes; provenance keeps the *producing* run's wall time.
    """
    import dataclasses
    import json

    table = payload["table"]
    result = ExperimentResult.from_json(json.dumps(payload["result"]))
    return dataclasses.replace(result, _renderer=lambda _result: table)


def run_many(
    experiments: list[Experiment],
    overrides: dict[str, dict[str, Any]] | None = None,
    jobs: int = 1,
) -> list[ExperimentResult]:
    """Run experiments (optionally concurrently), preserving selection order.

    Results are deterministic regardless of ``jobs``: experiments share the
    process-wide cached sweep engine, whose caches are thread-safe, and every
    experiment's output depends only on its own parameters.

    When the shared engine carries a persistent store, whole results are
    cached through it (:class:`repro.perf.store.ExperimentResultKey`): a
    warm invocation replays the serialized result -- rendered table
    included, so output is byte-identical -- without re-running the
    experiment at all.  Any device-model or NeRF-descriptor edit,
    parameter change, version bump or store-schema bump invalidates the
    entry.
    """
    overrides = overrides or {}
    store = _result_store()

    def one(exp: Experiment) -> ExperimentResult:
        try:
            key = (
                _experiment_key(exp, overrides.get(exp.id, {}))
                if store is not None
                else None
            )
            if key is not None:
                payload = store.get_result(key)
                if payload is not None:
                    try:
                        return _cached_result(exp, payload)
                    except (KeyError, TypeError, ValueError):
                        pass  # malformed payload: fall through and re-run
            result = exp.run(**overrides.get(exp.id, {}))
            if key is not None:
                store.put_result(
                    key,
                    {"result": result.to_dict(), "table": result.to_table()},
                )
            return result
        except (ValueError, KeyError) as exc:
            # Domain errors on user-supplied values (e.g. an unknown scene or
            # a non-positive array dimension) surface as one-line CLI errors,
            # not tracebacks; genuine bugs still raise.
            message = exc.args[0] if exc.args else str(exc)
            raise CLIError(f"{exp.id}: {message}") from exc

    if jobs <= 1 or len(experiments) <= 1:
        return [one(exp) for exp in experiments]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(one, experiments))


# -- output -------------------------------------------------------------------


def _render(result: ExperimentResult, fmt: str) -> str:
    if fmt == "json":
        return result.to_json()
    if fmt == "csv":
        return result.to_csv()
    return result.to_table()


def _print_results(results: list[ExperimentResult], fmt: str, out: TextIO) -> None:
    if fmt == "json":
        import json

        print(json.dumps([r.to_dict() for r in results], indent=2), file=out)
        return
    for result in results:
        if fmt == "table":
            print(
                f"===== {result.experiment_id}: {result.title} "
                f"({result.provenance.wall_time_s:.1f}s) =====",
                file=out,
            )
            print(result.to_table(), file=out)
        else:
            print(f"# {result.experiment_id}: {result.title}", file=out)
            print(result.to_csv(), file=out, end="")
        print(file=out)


_EXTENSIONS = {"table": "txt", "json": "json", "csv": "csv"}


def _write_artifacts(
    results: list[ExperimentResult], fmt: str, out_dir: Path
) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for result in results:
        path = out_dir / f"{result.experiment_id}.{_EXTENSIONS[fmt]}"
        text = _render(result, fmt)
        path.write_text(text if text.endswith("\n") else text + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
