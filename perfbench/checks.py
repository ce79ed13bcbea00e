"""Output checks: pinned simulated outputs, invariants, determinism.

Every cell's canonical record (all ``CacheStats`` fields plus cycles and
IPC, or the loadsim event-log digest and percentiles) is compared with
a reference.  For a pinned seed the reference is ``pins.json``; for any
other seed it is the first run of the same invocation, so a
non-deterministic output still fails.  Each cell must also satisfy the
cache-statistics invariants.  A cell that fails any check is a failed
operation, and the message names the workload, the cell and the first
differing field.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

PINS_PATH = Path(__file__).with_name("pins.json")

#: The default seed and a held-out seed, pinned so a later claim can be
#: checked on a seed its author did not tune on.
PINNED_SEEDS = (1, 2)

Cells = Dict[str, dict]


def digest(cells: Cells) -> str:
    """SHA-256 of a workload's complete simulated output."""
    blob = json.dumps(cells, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def invariant_errors(record: dict) -> List[str]:
    """Violations of the cache-statistics identities in one record."""
    errors = []
    if record["hits"] + record["misses"] != record["accesses"]:
        errors.append("hits + misses != accesses")
    if record["fills"] + record["bypasses"] > record["misses"]:
        errors.append("fills + bypasses > misses")
    if record["evictions"] > record["fills"]:
        errors.append("evictions > fills")
    if record["dead_block_victims"] > record["evictions"]:
        errors.append("dead_block_victims > evictions")
    if "p50" in record and not record["p50"] <= record["p95"] <= record["p99"]:
        errors.append("latency percentiles out of order")
    return errors


def first_difference(expected: dict, actual: dict) -> Optional[str]:
    """The first field (in sorted order) whose value differs, or None."""
    for name in sorted(set(expected) | set(actual)):
        want, got = expected.get(name, "<missing>"), actual.get(name, "<missing>")
        if want != got:
            return f"field {name}: expected {want!r}, got {got!r}"
    return None


def check_cells(workload: str, reference: Cells, cells: Cells) -> List[Tuple[str, str]]:
    """``(cell, message)`` for every failed cell of one run."""
    failures = []
    for cell in sorted(set(reference) | set(cells)):
        if cell not in cells:
            failures.append((cell, f"{workload}: cell {cell}: missing from the output"))
            continue
        if cell not in reference:
            failures.append((cell, f"{workload}: cell {cell}: not in the reference"))
            continue
        problem = first_difference(reference[cell], cells[cell])
        if problem is None:
            broken = invariant_errors(cells[cell])
            problem = f"invariant broken: {', '.join(broken)}" if broken else None
        if problem is not None:
            failures.append((cell, f"{workload}: cell {cell}: {problem}"))
    return failures


def load_pins(path: Path = PINS_PATH) -> dict:
    """``{seed: {workload: {"fields", "cells"}}}`` from disk."""
    if not path.is_file():
        return {}
    return json.loads(path.read_text())["seeds"]


def pinned_cells(pins: dict, seed: int, workload: str) -> Optional[Cells]:
    """The pinned records for a seed and workload, or None when unpinned."""
    entry = pins.get(str(seed), {}).get(workload)
    if entry is None:
        return None
    fields = entry["fields"]
    return {cell: dict(zip(fields, values)) for cell, values in entry["cells"].items()}


def pin_entry(cells: Cells) -> dict:
    """The compact on-disk form of one workload's records."""
    fields = sorted({name for record in cells.values() for name in record})
    return {
        "fields": fields,
        "cells": {
            cell: [record.get(name) for name in fields]
            for cell, record in sorted(cells.items())
        },
    }
