"""Checks of the harness itself.

    python3 perfbench/selftest.py

- A hanging operation becomes a failed operation within its deadline:
  `certify(phi2, tol=0)` never narrows its bracket below zero width.
- An operation that raises comes back as an error, not as a result.
- Each workload's checker rejects its corrupted output (a flipped census
  verdict, a bracket that misses the reference root, a phi:641 image one
  letter short); run.py repeats this on a real output in every run.

Exits 0 when every check holds.
"""

from __future__ import annotations

import random
import sys
import time

from run import SRC, run_child
from workloads import SETUP_CODE, WORKLOADS

DEADLINE_S = 3.0


def _hang():
    from ttlab import atlas, certify

    certify(atlas.phi2(), tol=0.0)


def _raise():
    raise ValueError("boom")


def main() -> int:
    sys.path.insert(0, str(SRC))
    exec(SETUP_CODE, {})
    failures = []

    t = time.monotonic()
    got, _ = run_child(_hang, DEADLINE_S)
    took = time.monotonic() - t
    if "deadline" not in got.get("error", "") or took > DEADLINE_S + 2:
        failures.append(f"hang: got {got!r} after {took:.1f} s")
    else:
        print(f"ok: hanging certify killed after {took:.1f} s")

    got, _ = run_child(_raise, DEADLINE_S)
    if "ValueError: boom" not in got.get("error", ""):
        failures.append(f"raise: got {got!r}")
    else:
        print("ok: a raising operation reports its traceback")

    for wl in WORKLOADS.values():
        expected = run_child(wl.expected, 60)[0]["ok"] if wl.expected else None
        got, _ = run_child(
            lambda: wl.render(wl.prepare(random.Random(0))()), 120)
        output = got["ok"]
        if wl.check(output, expected):
            failures.append(f"{wl.name}: good output rejected")
        elif not wl.check(wl.corrupt(output), expected):
            failures.append(f"{wl.name}: corrupted output accepted")
        else:
            print(f"ok: {wl.name} checker accepts its output and rejects the "
                  f"corrupted one")

    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
