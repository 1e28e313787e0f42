"""One benchmark worker: a fresh interpreter that runs one workload in a closed loop.

The worker imports chainweight, runs one warm-up op and prints `ready`;
the parent times it from spawn to that line (set-up).  A probe stops there.
Otherwise the worker runs whole rounds of ops, one at a time, until
--seconds have passed and at least --min-ops ops are done (or --max-seconds
pass), and prints one JSON line with per-op latencies and failures.

Only the call into the program is timed.  Input generation, the answer
checks and a calibration task (calibrate.py) run between ops and count
toward --seconds but not toward latency.  Each op's scale factor comes from
the calibrations taken around it.
"""

from __future__ import annotations

import argparse
import bisect
import json
import resource
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from calibrate import calibrate, scale
from workloads import WORKLOADS, digest

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"
REFERENCE_SEED = 0
MAX_LOGGED_FAILURES = 20
# Machine speed drifts over seconds; calibrations this close to an op describe it.
CALIBRATION_WINDOW_S = 0.5


def execute(workload, op, tracer=None, reference=()):
    """Run one op; returns (latency_s, answer, error text or None)."""
    if tracer is not None:
        tracer.begin(op.index, op.kind)
    start = perf_counter()
    try:
        answer, error = workload.run(op), None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        answer, error = None, f"{type(exc).__name__}: {exc}"
    latency = perf_counter() - start
    if tracer is not None:
        tracer.end()
    if error is None:
        try:
            workload.check(op, answer)
            if 0 <= op.index < len(reference) and digest(workload.canonical(op, answer)) != reference[op.index]:
                error = "answer differs from the reference digest"
        except Exception as exc:  # includes CheckFailed
            error = f"{type(exc).__name__}: {exc}"
    return latency, answer, error


def run_phase(workload, seconds, min_ops, max_seconds, tracer=None, reference=()):
    """Closed loop over whole rounds.

    Returns counts, failures and per-op [kind, raw latency s, scale, ok] records.
    """
    ops, spans, failures, cli_samples = [], [], [], []
    task = workload.calibration
    calibrate(task)  # builds the memory task's table outside the loop
    calibrations = [(perf_counter(), calibrate(task))]
    mix: Counter = Counter()
    start = perf_counter()
    r = 0
    while True:
        for op in workload.round(r):
            began = perf_counter()
            latency, answer, error = execute(workload, op, tracer, reference)
            spans.append((began, began + latency))
            calibrations.append((perf_counter(), calibrate(task)))
            ops.append([op.kind, latency, None, error is None])
            mix[op.kind] += 1
            if error is not None:
                _log_failure(failures, workload.name, op, error)
                continue
            compute_ms = workload.compute_ms(answer)
            if compute_ms is not None:
                cli_samples.append([latency * 1000, compute_ms])
        r += 1
        elapsed = perf_counter() - start
        if elapsed >= max_seconds or (elapsed >= seconds and len(ops) >= min_ops):
            break
    for record, span in zip(ops, spans):
        record[2] = scale(task, _calibrations_near(calibrations, *span)) ** workload.calibration_exponent
    return {
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures[:MAX_LOGGED_FAILURES],
        "ops": ops,
        "wall_s": perf_counter() - start,
        "rounds": r,
        "mix": dict(mix),
        "cli_samples": cli_samples,
    }


def _calibrations_near(calibrations, began, ended):
    """Calibration times taken within CALIBRATION_WINDOW_S of an op, and the two around it."""
    times = [t for t, _ in calibrations]
    lo = bisect.bisect_left(times, began - CALIBRATION_WINDOW_S)
    hi = bisect.bisect_right(times, ended + CALIBRATION_WINDOW_S)
    around = bisect.bisect_left(times, began)
    lo, hi = min(lo, max(around - 1, 0)), max(hi, around + 1)
    return [seconds for _, seconds in calibrations[lo:hi]]


def _log_failure(failures, workload_name, op, error):
    line = f"FAIL {workload_name} op={op.index} kind={op.kind}: {error}"
    print(line, file=sys.stderr, flush=True)
    failures.append(line)


def peak_rss_kb(children: bool) -> int:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("probe", "run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-ops", type=int, default=1)
    parser.add_argument("--max-seconds", type=float, default=60.0)
    parser.add_argument("--trace-out")
    args = parser.parse_args()

    import chainweight

    source = ROOT / "src" / "chainweight"
    if Path(chainweight.__file__).resolve().parent != source:
        print(f"error: imported chainweight from {chainweight.__file__}, not {source}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    warm = workload.warmup()
    _, _, warm_error = execute(workload, warm)
    print("ready", flush=True)
    result = {"warmup_error": warm_error}
    if warm_error is not None:
        _log_failure([], workload.name, warm, warm_error)
    if args.mode != "probe":
        reference = ()
        if args.seed == REFERENCE_SEED:
            reference = json.loads(REFERENCE.read_text(encoding="utf-8"))[workload.name]
        tracer = None
        if args.mode == "trace":
            from tracing import Tracer, install

            tracer = Tracer()
            install(tracer)
        result.update(run_phase(workload, args.seconds, args.min_ops, args.max_seconds, tracer, reference))
        if tracer is not None:
            result["layers"] = tracer.layer_metrics(result["attempted"])
            tracer.write(Path(args.trace_out))
    result["peak_rss_kb"] = peak_rss_kb(children=workload.name == "cli")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
