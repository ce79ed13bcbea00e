"""Structured sweep progress events (NDJSON) and a live renderer.

A long parallel sweep should not be a black box.  The local executor
(:func:`repro.harness.parallel.run_cells`) reports every cell outcome
to an ``on_event`` callback; this module turns those callbacks
into:

* an **NDJSON sink** (``--events-file`` / ``REPRO_EVENTS_FILE``): one
  JSON object per line, append-only, machine-readable;
* a **progress renderer** (``--progress`` / ``REPRO_PROGRESS``): one
  human line per event on stderr with completion counts and a running
  ETA.

Event schema (all events share the envelope)::

    {"event": <type>, "seq": <int>, "elapsed_seconds": <float>, ...}

Types and their extra payload:

``sweep_started``   total_cells, benchmarks, technique_keys, jobs
``cell_resumed``    cell, benchmark, technique   (checkpoint hit)
``cell_started``    cell, benchmark, technique   (serial path only --
                    parallel workers run in other processes, so starts
                    are not observable from the parent)
``cell_finished``   cell, benchmark, technique, status ("ok"|"failed"),
                    wall_seconds, cpu_seconds, done, total, eta_seconds
``cell_retried``    cell, benchmark, technique, reason, attempt
``cell_timed_out``  cell, benchmark, technique, timeout_seconds
``sweep_degraded``  reason                       (parallel -> serial)
``sweep_finished``  status ("ok"|"partial"|"aborted"), done, total,
                    wall_seconds

Timestamps are relative (``elapsed_seconds`` since sweep start); the
absolute wall-clock anchor lives in the run manifest.  The ETA is the
simple-rate estimate ``elapsed / done * remaining`` -- deliberately
unsophisticated, monotone inputs, good enough to decide whether to get
coffee.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any, Dict, IO, List, Optional

__all__ = ["EventLog", "ProgressRenderer", "SweepTelemetry", "read_events"]


class EventLog:
    """Append-only NDJSON event sink.

    Accepts either a path (opened append, line-buffered flushes) or an
    open file object (not closed on :meth:`close`; useful for tests and
    stdout).  Each :meth:`emit` writes exactly one line and flushes, so
    a crashed sweep still leaves a readable prefix.
    """

    def __init__(self, path_or_file) -> None:
        if hasattr(path_or_file, "write"):
            self._file: Optional[IO[str]] = path_or_file
            self._owns = False
            self.path = getattr(path_or_file, "name", None)
        else:
            self._file = open(path_or_file, "a", encoding="utf-8")
            self._owns = True
            self.path = path_or_file
        self.seq = 0

    def emit(self, event: Dict[str, Any]) -> None:
        if self._file is None:
            return
        self._file.write(json.dumps(event, sort_keys=True) + "\n")
        self._file.flush()

    def close(self) -> None:
        if self._owns and self._file is not None:
            self._file.close()
        self._file = None


class ProgressRenderer:
    """One human-readable line per event, on ``stream`` (default stderr)."""

    def __init__(self, stream: Optional[IO[str]] = None) -> None:
        self.stream = stream if stream is not None else sys.stderr

    def emit(self, event: Dict[str, Any]) -> None:
        line = self._render(event)
        if line:
            print(line, file=self.stream, flush=True)

    @staticmethod
    def _eta(event: Dict[str, Any]) -> str:
        eta = event.get("eta_seconds")
        if eta is None:
            return ""
        return f" eta {eta:.0f}s"

    def _render(self, event: Dict[str, Any]) -> Optional[str]:
        kind = event.get("event")
        cell = event.get("cell", "?")
        if kind == "sweep_started":
            return (
                f"[sweep] {event.get('total_cells', '?')} cells, "
                f"jobs={event.get('jobs', '?')}"
            )
        if kind == "cell_resumed":
            return f"[resume] {cell}"
        if kind == "cell_started":
            return f"[start] {cell}"
        if kind == "cell_finished":
            status = event.get("status", "?")
            wall = event.get("wall_seconds")
            timing = f" {wall:.2f}s" if wall is not None else ""
            return (
                f"[{status}] {cell}{timing} "
                f"({event.get('done', '?')}/{event.get('total', '?')})"
                f"{self._eta(event)}"
            )
        if kind == "cell_retried":
            return (
                f"[retry] {cell} attempt {event.get('attempt', '?')}: "
                f"{event.get('reason', '')}"
            )
        if kind == "cell_timed_out":
            return f"[timeout] {cell} after {event.get('timeout_seconds', '?')}s"
        if kind == "sweep_degraded":
            return f"[degrade] {event.get('reason', 'falling back to serial')}"
        if kind == "sweep_finished":
            wall = event.get("wall_seconds")
            timing = f" in {wall:.1f}s" if wall is not None else ""
            return (
                f"[sweep {event.get('status', '?')}] "
                f"{event.get('done', '?')}/{event.get('total', '?')}{timing}"
            )
        return None


class SweepTelemetry:
    """Fans sweep events out to sinks and tracks progress/ETA.

    The harness calls the ``sweep_*``/``cell_*`` methods; this class
    stamps the envelope (``seq``, ``elapsed_seconds``), computes
    ``done``/``total``/``eta_seconds``, and forwards the finished event
    to every sink.  It is also the bridge into the run manifest: cell
    outcomes and timings recorded here land in
    :meth:`repro.telemetry.manifest.RunManifest.record_cell`.
    """

    def __init__(self, sinks=(), manifest=None, clock=time.monotonic) -> None:
        self.sinks = list(sinks)
        self.manifest = manifest
        self._clock = clock
        self._start = clock()
        self._seq = 0
        self.total = 0
        self.done = 0
        self._retries: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # envelope plumbing
    # ------------------------------------------------------------------
    def _emit(self, kind: str, **payload: Any) -> None:
        event = {
            "event": kind,
            "seq": self._seq,
            "elapsed_seconds": round(self._clock() - self._start, 6),
        }
        event.update(payload)
        self._seq += 1
        for sink in self.sinks:
            sink.emit(event)

    @staticmethod
    def _split(cell: str):
        benchmark, _, technique = cell.partition("/")
        return benchmark, technique

    def _cell_payload(self, cell: str) -> Dict[str, Any]:
        benchmark, technique = self._split(cell)
        return {"cell": cell, "benchmark": benchmark, "technique": technique}

    # ------------------------------------------------------------------
    # sweep lifecycle (called by the harness)
    # ------------------------------------------------------------------
    def sweep_started(
        self,
        total_cells: int,
        benchmarks: List[str],
        technique_keys: List[str],
        jobs: int,
    ) -> None:
        self.total = total_cells
        self._emit(
            "sweep_started",
            total_cells=total_cells,
            benchmarks=list(benchmarks),
            technique_keys=list(technique_keys),
            jobs=jobs,
        )

    def cell_resumed(self, cell: str) -> None:
        self.done += 1
        self._emit("cell_resumed", **self._cell_payload(cell))
        if self.manifest is not None:
            self.manifest.record_cell(cell, "ok", resumed=True)

    def cell_started(self, cell: str) -> None:
        self._emit("cell_started", **self._cell_payload(cell))

    def cell_finished(
        self, cell: str, status: str, timing: Optional[Dict[str, float]] = None
    ) -> None:
        self.done += 1
        remaining = max(0, self.total - self.done)
        elapsed = self._clock() - self._start
        eta = elapsed / self.done * remaining if self.done else None
        payload = self._cell_payload(cell)
        payload.update(
            status=status,
            wall_seconds=(timing or {}).get("wall_seconds"),
            cpu_seconds=(timing or {}).get("cpu_seconds"),
            done=self.done,
            total=self.total,
            eta_seconds=round(eta, 3) if eta is not None else None,
        )
        self._emit("cell_finished", **payload)
        if self.manifest is not None:
            self.manifest.record_cell(
                cell, status, timing=timing, retries=self._retries.get(cell, 0)
            )

    def cell_retried(self, cell: str, reason: str, attempt: int) -> None:
        self._retries[cell] = attempt
        payload = self._cell_payload(cell)
        payload.update(reason=reason, attempt=attempt)
        self._emit("cell_retried", **payload)

    def cell_timed_out(self, cell: str, timeout_seconds: float) -> None:
        payload = self._cell_payload(cell)
        payload.update(timeout_seconds=timeout_seconds)
        self._emit("cell_timed_out", **payload)

    def sweep_degraded(self, reason: str) -> None:
        self._emit("sweep_degraded", reason=reason)

    def sweep_finished(self, status: str) -> None:
        wall = self._clock() - self._start
        self._emit(
            "sweep_finished",
            status=status,
            done=self.done,
            total=self.total,
            wall_seconds=round(wall, 6),
        )

    # ------------------------------------------------------------------
    # on_event adapter for the cell executors
    # ------------------------------------------------------------------
    def on_event(self, kind: str, cell: str, **payload: Any) -> None:
        """Dispatch a ``(kind, cell, ...)`` callback from the runner,
        with ``cell`` already rendered as its ``benchmark/technique``
        label (``""`` for sweep-level kinds)."""
        handler = {
            "resumed": self.cell_resumed,
            "started": self.cell_started,
        }.get(kind)
        if handler is not None:
            handler(cell)
        elif kind == "finished":
            self.cell_finished(
                cell, payload.get("status", "ok"), payload.get("timing")
            )
        elif kind == "retried":
            self.cell_retried(
                cell, payload.get("reason", ""), payload.get("attempt", 1)
            )
        elif kind == "timed_out":
            self.cell_timed_out(cell, payload.get("timeout_seconds", 0.0))
        elif kind == "degraded":
            self.sweep_degraded(payload.get("reason", ""))

    def close(self) -> None:
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()


def read_events(path: str) -> List[Dict[str, Any]]:
    """Parse an NDJSON events file back into a list of dicts.

    Blank lines are skipped; a malformed line raises ``ValueError`` with
    its line number (truncated *final* lines from a crash mid-write are
    impossible by construction -- each emit is a single flushed line).
    """
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as error:
                raise ValueError(f"{path}:{number}: invalid event line") from error
    return events
