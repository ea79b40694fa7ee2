"""Shared differential-testing helpers: normalize-and-diff comparators.

Three suites pin "two ways of computing the same thing agree bit-exactly":
the serving fast path vs. the event loop (``tests/serve``), sharded
``repro shard`` + ``assemble`` replays vs. serial runs (``tests/perf``),
and sharded ``repro plan`` vs. serial planning (``tests/plan``).  The
comparison logic used to be duplicated per suite; it lives here once.

Not a test module (the leading underscore keeps pytest from collecting
it); import as ``from tests._differential import ...`` -- the repo root is
on ``pythonpath`` (see ``pyproject.toml``), so ``tests`` resolves as a
namespace package.
"""

import json

from repro.perf.distributed import normalize_result_json


def assert_fast_path_matches_event_loop(simulator, requests, context=""):
    """Assert the fast path and event loop produce identical reports.

    Runs ``simulator`` both ways (``run`` takes the closed-form fast path
    for exact-FIFO fleets without an autoscaler; ``_run_event_loop`` is the reference discrete-event
    implementation) and asserts the reports -- including the per-request
    completion log, rejection log and per-worker stats excluded from
    dataclass equality -- are bit-identical.  Returns the fast-path report
    for further assertions.
    """
    fast = simulator.run(requests)
    slow = simulator._run_event_loop(requests)
    assert fast == slow, context
    assert fast.completed == slow.completed, context
    assert fast.rejected == slow.rejected, context
    assert fast.workers == slow.workers, context
    return fast


def assert_text_matches_modulo_wall_time(reference, candidate, context=""):
    """Assert two JSON artifacts match byte-for-byte except wall-clock time.

    Both directions of the pin: the texts are identical once
    :func:`~repro.perf.distributed.normalize_result_json` masks the
    volatile ``wall_time_s`` provenance field, *and* the masking touches
    nothing else (parsing both documents and deleting every ``wall_time_s``
    leaves equal structures) -- so a regression cannot hide behind the
    normalizer widening.
    """
    assert normalize_result_json(reference) == normalize_result_json(
        candidate
    ), context
    assert _without_wall_time(json.loads(reference)) == _without_wall_time(
        json.loads(candidate)
    ), context


def _without_wall_time(document):
    """``document`` with every nested ``wall_time_s`` entry removed."""
    if isinstance(document, dict):
        return {
            key: _without_wall_time(value)
            for key, value in document.items()
            if key != "wall_time_s"
        }
    if isinstance(document, list):
        return [_without_wall_time(item) for item in document]
    return document


def assert_shard_union_matches_serial(serial_items, shard_item_lists, key=None):
    """Assert shard outputs partition the serial output exactly.

    ``serial_items`` is the full (serial) sequence; ``shard_item_lists``
    is one sequence per shard.  Asserts the shards are pairwise disjoint,
    collectively complete, and order-preserving restrictions of the serial
    sequence.  ``key`` maps an item to its identity (default: the item
    itself).
    """
    key = key or (lambda item: item)
    serial_keys = [key(item) for item in serial_items]
    assert len(set(serial_keys)) == len(serial_keys), "serial items not unique"
    seen = set()
    for index, items in enumerate(shard_item_lists):
        shard_keys = [key(item) for item in items]
        overlap = seen.intersection(shard_keys)
        assert not overlap, f"shard {index} repeats items of earlier shards: {overlap}"
        seen.update(shard_keys)
        # Each shard preserves the serial enumeration order of its subset.
        positions = [serial_keys.index(k) for k in shard_keys]
        assert positions == sorted(positions), f"shard {index} reorders items"
    assert seen == set(serial_keys), (
        f"shard union differs from serial: missing={set(serial_keys) - seen} "
        f"extra={seen - set(serial_keys)}"
    )
