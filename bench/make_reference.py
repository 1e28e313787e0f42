"""Regenerate bench/reference.json: answer digests of the first ops of seed 0.

    python3 bench/make_reference.py

Run it only on a commit whose answers are trusted; the benchmark then fails
any seed-0 op whose answer digest differs.  Ops past the recorded prefix are
checked by their identities alone.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
os.environ["PYTHONPATH"] = str(BENCH.parent / "src")

from worker import REFERENCE, REFERENCE_SEED, execute  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402

# More ops than a 25 s run of each workload completes on a 2-core machine.
REFERENCE_OPS = {"bounds": 300, "chains": 450, "oracles": 700, "cli": 200}


def digests(name: str, count: int) -> list[str]:
    workload = WORKLOADS[name](REFERENCE_SEED)
    out: list[str] = []
    r = 0
    while len(out) < count:
        for op in workload.round(r):
            _, answer, error = execute(workload, op)
            if error is not None:
                raise SystemExit(f"{name} op {op.index} ({op.kind}) failed: {error}")
            out.append(digest(workload.canonical(op, answer)))
        r += 1
    return out[:count]


def main() -> None:
    reference = {name: digests(name, count) for name, count in REFERENCE_OPS.items()}
    REFERENCE.write_text(json.dumps(reference, indent=0) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
