"""One fresh benchmark process: set up a workload, time one call, report.

Run by ``run.py``, never by hand.  Prints one JSON object on stdout:
the monotonic clock readings where the timed call began and ended (the
parent turns the first into the set-up's wall time), the process CPU
seconds before the timed call and in it, the timed wall seconds, the
speed samples of ``reference.Probe`` taken from the start of set-up to
the end of the timed call, peak resident memory, the cells' canonical
records, and, when traced, the per-layer metrics.
``--scratch`` is a directory the parent created and removes afterwards.
With ``--spans FILE`` the traced run's spans are written there when the
run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import resource
import time

import reference


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args()

    with reference.Probe() as probe:
        # Imported under the probe, so that set-up's speed samples cover
        # ``import repro`` too.
        import tracing
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload]
        recorder = tracing.Recorder() if args.traced else None
        state = workload.setup(args.seed, args.scratch)
        with tracing.installed(recorder) if recorder else contextlib.nullcontext():
            timed_start = time.monotonic()
            setup_cpu = time.process_time()
            start = time.perf_counter()
            raw = workload.run(state)
            wall = time.perf_counter() - start
            cpu = time.process_time() - setup_cpu
            timed_end = time.monotonic()
    outcome = workload.outcome(state, raw)

    report = {
        "timed_start": timed_start,
        "timed_end": timed_end,
        "setup_cpu_s": setup_cpu,
        "cpu_s": cpu,
        "wall_s": wall,
        "probe": probe.samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "instructions": outcome.instructions,
        "cells": outcome.cells,
        "report": outcome.report,
    }
    if recorder is not None:
        report["layers"] = tracing.layer_metrics(recorder.spans, wall)
        if args.spans:
            with open(args.spans, "w") as handle:
                json.dump([dataclasses.asdict(span) for span in recorder.spans], handle)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
