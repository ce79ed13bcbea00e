"""The repo's benchmark: the paper's sweeps, timed end to end and by layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig45-cold --seed 1 --seconds 30 --trace 0

Each measurement is one fresh child process (``child.py``) that sets up
the workload and times one call into the program; ``run.py`` starts
children one after another until ``--seconds`` is used up and reports
medians.  Host times are scaled to a nominal machine speed measured
alongside the program (``reference.py``), because the shared machines
this runs on change speed every few seconds.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json`` from untraced children.  ``--trace 1`` alternates
untraced and traced children and reports the per-layer metrics, with
the tracing overhead measured against the untraced ones.

Every child's simulated output is checked (``checks.py``); the last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  Each invocation appends one line to
``.perfbench/history.jsonl``; nothing is ever overwritten.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import checks
import reference
import stats

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
STATE = ROOT / ".perfbench"

#: Fewest untraced / traced children a run reports medians over.
MIN_PLAIN = 3
MIN_TRACED = 2

#: A child that runs longer than this is killed; no child starts after
#: ``START_LIMIT`` seconds, so a run ends well inside three minutes.
CHILD_TIMEOUT = 120.0
START_LIMIT = 150.0


class ChildFailed(RuntimeError):
    """A child process exited abnormally; no result can be reported."""


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def spawn(workload: str, seed: int, traced: bool = False,
          spans: Optional[Path] = None) -> dict:
    """Run one child to completion and return its report.

    ``host_setup_s`` is measured from just before the process is started
    to the child's first timed call, on the system-wide monotonic clock.
    ``setup_s`` and ``scaled_wall_s`` are the child's CPU seconds before
    and in the timed call, scaled to the nominal speed by its probe
    samples in the same windows (``reference.py``).
    """
    scratch = STATE / "scratch" / f"{workload}-{os.getpid()}-{time.monotonic_ns()}"
    scratch.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"  # one dict/set layout for every child
    command = [
        sys.executable, str(BENCH / "child.py"), "--workload", workload,
        "--seed", str(seed), "--scratch", str(scratch),
    ]
    if traced:
        command.append("--traced")
        if spans is not None:
            command += ["--spans", str(spans)]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload} child exceeded {CHILD_TIMEOUT:.0f}s") from None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    finished = time.monotonic()
    if proc.returncode != 0:
        raise ChildFailed(f"{workload} child exited {proc.returncode}:\n{proc.stderr}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    samples, timed_start, timed_end = report["probe"], report["timed_start"], report["timed_end"]
    report["host_setup_s"] = timed_start - started
    report["setup_s"] = reference.scaled(report["setup_cpu_s"], samples, started, timed_start)
    report["scaled_wall_s"] = reference.scaled(report["cpu_s"], samples, timed_start, timed_end)
    report["elapsed_s"] = finished - started
    return report


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Dict[bool, List[dict]]:
    """Untraced (``False``) and traced (``True``) child reports.

    Children start while the next one is expected to finish inside
    ``seconds`` (judged by the longest so far), and at least until
    every kind has its minimum count.
    """
    runs: Dict[bool, List[dict]] = {False: [], True: []}
    minimum = {False: MIN_PLAIN, True: MIN_TRACED if trace else 0}
    kinds = itertools.cycle((False, True)) if trace else itertools.repeat(False)
    begin = time.monotonic()
    longest = 0.0
    for traced in kinds:
        elapsed = time.monotonic() - begin
        if elapsed + longest > START_LIMIT:
            break
        enough = all(len(runs[kind]) >= count for kind, count in minimum.items())
        if enough and elapsed + longest > seconds:
            break
        spans = STATE / f"spans-{workload}.json" if traced else None
        report = spawn(workload, seed, traced, spans)
        runs[traced].append(report)
        longest = max(longest, report["elapsed_s"])
    for kind, count in minimum.items():
        if len(runs[kind]) < count:
            raise ChildFailed(f"only {len(runs[kind])} runs fit in {START_LIMIT:.0f}s")
    return runs


def end_to_end(plain: List[dict]) -> Dict[str, List[float]]:
    """Per-child samples of every end-to-end metric."""
    return {
        "wall_s": [r["scaled_wall_s"] for r in plain],
        "sim_minst_per_s": [r["instructions"] / r["scaled_wall_s"] / 1e6 for r in plain],
        "setup_s": [r["setup_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }


def per_layer(plain: List[dict], traced: List[dict]) -> Dict[str, List[float]]:
    """Per-traced-child samples of every per-layer metric; layer seconds
    are scaled by the same factor as the child's timed call."""
    samples = {
        name: [r["layers"][name] * (r["scaled_wall_s"] / r["wall_s"] if name.endswith("_s") else 1.0)
               for r in traced]
        for name in traced[0]["layers"]
    }
    untraced_wall = statistics.median([r["scaled_wall_s"] for r in plain])
    samples["trace.overhead_frac"] = [
        r["scaled_wall_s"] / untraced_wall - 1.0 for r in traced
    ]
    return samples


def check(workload: str, seed: int, reports: List[dict]):
    """``(attempted, failed, messages, source)`` over every child's cells;
    ``source`` names the reference the cells were compared with."""
    reference = checks.pinned_cells(checks.load_pins(), seed, workload)
    source = f"pins.json (seed {seed})"
    if reference is None:
        reference = reports[0]["cells"]
        source = "the first run (unpinned seed: determinism and invariants only)"
    attempted = failed = 0
    messages: List[str] = []
    for report in reports:
        cells = report["cells"]
        attempted += len(set(reference) | set(cells))
        failures = checks.check_cells(workload, reference, cells)
        failed += len(failures)
        messages.extend(m for _, m in failures if m not in messages)
    return attempted, failed, messages, source


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        runs = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    plain, traced = runs[False], runs[True]
    attempted, failed, messages, source = check(args.workload, args.seed, plain + traced)

    declared = contract["per_layer"] if args.trace else contract["end_to_end"]
    samples = per_layer(plain, traced) if args.trace else end_to_end(plain)
    metrics = {}
    print(f"perfbench {args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced runs; output digest {checks.digest(plain[0]['cells'])}, "
          f"checked against {source}")
    for metric in declared:
        summary = stats.summary(samples[metric["name"]])
        metrics[metric["name"]] = {"value": summary["median"], "unit": metric["unit"]}
        tail = summary["tail"]
        tail_text = (f"p{tail[0]:g} {tail[1]:.6g}" if tail
                     else f"no tail: {summary['n']} samples")
        print(f"  {metric['name']:<52} {summary['median']:>14.6g} {metric['unit']:<9}"
              f"median of {summary['n']}, {tail_text}")
    host = {name: statistics.median(r[name] for r in plain)
            for name in ("wall_s", "host_setup_s")}
    print(f"  host seconds, unscaled: timed call {host['wall_s']:.6g}, set-up "
          f"{host['host_setup_s']:.6g} (medians; reference.py scales the metrics above)")
    for line in plain[0]["report"]:
        print(f"  {line}")
    for message in messages[:20]:
        print(f"  FAILED {message}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    STATE.mkdir(exist_ok=True)
    with open(STATE / "history.jsonl", "a") as history:
        history.write(json.dumps({
            "unix_time": time.time(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, **result,
            "samples": samples,
        }) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
