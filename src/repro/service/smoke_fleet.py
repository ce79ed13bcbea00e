"""Chaos smoke gate for the worker fleet (``make fleet-smoke``).

Boots a real fleet-mode server (ephemeral port, embedded event loop),
submits a tiny sweep, and runs it across two genuine ``repro worker``
subprocesses -- one of which is configured, via ``REPRO_CHAOS=kill:1@1``,
to die without cleanup the moment it starts its first cell.  The gate
then requires the full robustness story to actually happen:

* the killed worker's lease expires and its cells **re-dispatch** (the
  ``redispatched`` counter in ``/v1/stats`` must move);
* the surviving worker finishes the sweep and the result is
  **bit-identical** to the same sweep run serially in this process --
  a crash plus a re-dispatch must not change a single byte;
* the dedup/duplicate counters are visible in ``/v1/stats``;
* the surviving worker, started with ``--once``, notices the fleet has
  nothing left and exits 0 on its own.

The whole run sits under a hard ``SIGALRM`` deadline so a wedged fleet
fails the gate loudly instead of hanging ``make check``.

Exit status: 0 on success, 1 on any mismatch or failure.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import repro
from repro.harness.export import to_dict
from repro.harness.faults import KILL_EXIT_CODE
from repro.harness.parallel import parallel_single_thread_comparison
from repro.harness.runner import ExperimentConfig, WorkloadCache
from repro.service.client import ServiceClient
from repro.service.scheduler import ExperimentScheduler
from repro.service.server import ExperimentServer

HARD_DEADLINE_SECONDS = 300.0
BENCHMARKS = ("perlbench",)
TECHNIQUES = ("sampler", "rrip")
CONFIG = ExperimentConfig(scale=16, instructions=30_000, seed=1)
LEASE_TTL = 3.0
HEARTBEAT_SECONDS = 0.5


def _fail(message: str) -> int:
    print(f"fleet-smoke: FAIL: {message}", file=sys.stderr)
    return 1


def _spawn_worker(url: str, name: str, root: Path, chaos: str = "") -> subprocess.Popen:
    env = dict(os.environ)
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src_dir] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    if chaos:
        env["REPRO_CHAOS"] = chaos
    else:
        env.pop("REPRO_CHAOS", None)
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "worker",
            "--connect", url, "--name", name, "--once",
            "--stream-cache", str(root / f"worker-streams-{name}"),
        ],
        env=env,
    )


def main() -> int:
    if hasattr(signal, "SIGALRM"):
        def _on_alarm(signum, frame):
            raise TimeoutError(
                f"fleet-smoke exceeded its {HARD_DEADLINE_SECONDS}s deadline"
            )

        signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, HARD_DEADLINE_SECONDS)

    workers = []
    with tempfile.TemporaryDirectory(prefix="repro-fleet-smoke-") as tmp:
        root = Path(tmp)

        # Reference: the sweep exactly as `repro run` executes it, serially.
        serial = parallel_single_thread_comparison(
            WorkloadCache(CONFIG), list(TECHNIQUES), BENCHMARKS, jobs=1
        )
        expected = to_dict(serial)

        scheduler = ExperimentScheduler(
            job_store=root / "service",
            stream_cache=root / "streams",
            fleet=True,
            lease_ttl=LEASE_TTL,
            heartbeat_seconds=HEARTBEAT_SECONDS,
            lease_cells=2,
        )
        handle = ExperimentServer(scheduler, port=0).start_in_thread()
        try:
            url = f"http://127.0.0.1:{handle.port}"
            client = ServiceClient(url)
            health = client.healthz()
            if health.get("status") != "ok":
                return _fail(f"healthz: {health}")
            if "fleet_workers_alive" not in health:
                return _fail(f"healthz does not report the fleet: {health}")

            job = client.submit(
                client="fleet-smoke",
                benchmarks=list(BENCHMARKS), techniques=list(TECHNIQUES),
                sweep=True,
                config={
                    "scale": CONFIG.scale,
                    "instructions": CONFIG.instructions,
                    "seed": CONFIG.seed,
                    "cores": CONFIG.num_cores,
                },
            )

            # Worker A is chaos-rigged to die, kill -9 style, the moment
            # it starts its first cell.  Hold worker B back until A has
            # actually leased work, so the kill is guaranteed to orphan
            # cells rather than race B for them.
            victim = _spawn_worker(url, "victim", root, chaos="kill:1@1")
            workers.append(victim)
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if client.stats()["fleet"]["cells"]["leased"] >= 1:
                    break
                time.sleep(0.1)
            else:
                return _fail("victim worker never leased a cell")
            victim_code = victim.wait(timeout=60.0)
            if victim_code != KILL_EXIT_CODE:
                return _fail(
                    f"victim exited {victim_code}, expected the chaos "
                    f"kill code {KILL_EXIT_CODE}"
                )

            survivor = _spawn_worker(url, "survivor", root)
            workers.append(survivor)

            final = client.wait(job["id"], timeout=HARD_DEADLINE_SECONDS)
            if final["state"] != "done":
                return _fail(
                    f"job finished {final['state']}: {final.get('error', '')}"
                )
            got = client.result(job["id"])
            if got != expected:
                return _fail(
                    "fleet sweep is not bit-identical to the serial sweep:\n"
                    f"fleet : {json.dumps(got, sort_keys=True)[:2000]}\n"
                    f"serial: {json.dumps(expected, sort_keys=True)[:2000]}"
                )

            stats = client.stats()
            fleet = stats.get("fleet")
            if not fleet:
                return _fail(f"/v1/stats has no fleet section: {stats}")
            if fleet["cells"]["redispatched"] < 1:
                return _fail(
                    "the kill did not cause a re-dispatch: "
                    f"{json.dumps(fleet, sort_keys=True)}"
                )
            for counter in ("duplicate_completions", "late_completions"):
                if counter not in fleet["cells"]:
                    return _fail(f"fleet stats missing {counter!r}: {fleet}")
            if fleet["workers"]["lost"] < 1 and fleet["leases"]["expired"] < 1:
                return _fail(
                    "neither a lost worker nor an expired lease recorded: "
                    f"{json.dumps(fleet, sort_keys=True)}"
                )

            survivor_code = survivor.wait(timeout=60.0)
            if survivor_code != 0:
                return _fail(f"survivor worker exited {survivor_code}")
        finally:
            for proc in workers:
                if proc.poll() is None:
                    proc.terminate()
                    try:
                        proc.wait(timeout=10.0)
                    except subprocess.TimeoutExpired:
                        proc.kill()
            handle.stop()

        print(
            "fleet-smoke: OK -- worker killed mid-lease, "
            f"{fleet['cells']['redispatched']} cell(s) re-dispatched, "
            "result bit-identical to serial "
            f"(duplicates={fleet['cells']['duplicate_completions']}, "
            f"late={fleet['cells']['late_completions']}), "
            "survivor drained and exited cleanly"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
