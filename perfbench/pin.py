"""Re-pin the simulated outputs in ``pins.json`` for the pinned seeds.

Usage, from the repository root::

    python3 perfbench/pin.py [WORKLOAD ...]

Runs one untraced child per workload and pinned seed and records every
cell's canonical record.  Re-pinning is only for a change that is meant
to alter simulated results; say which and why where the change is
described.
"""

from __future__ import annotations

import json
import sys

import checks
import run


def main(argv) -> int:
    names = argv or [w["name"] for w in run.load_contract()["workloads"]]
    pins = checks.load_pins()
    for seed in checks.PINNED_SEEDS:
        for name in names:
            report = run.spawn(name, seed)
            pins.setdefault(str(seed), {})[name] = checks.pin_entry(report["cells"])
            print(f"pinned {name} seed {seed}: {len(report['cells'])} cells")
    checks.PINS_PATH.write_text(json.dumps({"seeds": pins}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
