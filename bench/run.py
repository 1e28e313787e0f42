"""chainweight benchmark: four seeded closed-loop workloads, every answer checked.

    python3 bench/run.py --workload bounds|chains|oracles|cli|all \\
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
src/ and builds nothing.  Each workload runs in fresh worker processes
(bench/worker.py), one op at a time, with one thread for numpy and the CLI.

--trace 0 prints the end-to-end metrics: setup_s (median over nine fresh
workers of spawn -> `import chainweight` + one warm-up op), ops_per_s
(successful ops / time inside ops), op_p50_ms, op_p90_ms and peak_rss_mb
(the worker's ru_maxrss; for `cli`, the largest CLI process).  The run
keeps going past S seconds until it has at least 110 ops, so that at least
ten latencies lie above p90.  Op times are scaled to a nominal machine
speed by the calibration task in bench/calibrate.py; the record file keeps
the raw ones.

--trace 1 runs two fresh workers for S/2 seconds each on the same op
stream, the second with the layer wrappers of bench/tracing.py installed,
and prints the per-layer metrics: layer counts and inclusive busy seconds
per op, the cli.* split of a CLI call, and bench.trace_overhead (traced
ops_per_s / untraced).  Spans go to .bench_out/trace-<workload>-seed<N>.json.

The last stdout line is one JSON object {correct, attempted, failed,
metrics}; the line before it is the provenance record.  A fuller record
goes to .bench_out/<workload>-seed<N>-trace<T>.json.  Failed ops (wrong
answer, exception, budget exceeded, nonzero CLI exit) are logged to stderr
with their op kind; fail_ratio = failed / attempted.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from calibrate import calibrate, scale

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("bounds", "chains", "oracles", "cli")
SETUP_SAMPLES = 9
IMPORT_SAMPLES = 5
MIN_OPS = 110  # ten samples above p90
MIN_TRACE_OPS = 20
MAX_MEASURE_S = 120.0
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark itself could not run (missing sources, a worker died)."""


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        CHAINWEIGHT_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


def spawn(workload: str, seed: int, mode: str, deadline: float, **options) -> tuple[float, dict]:
    """Start a worker; returns (seconds from spawn to ready at nominal speed, its result)."""
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed), "--mode", mode]
    for key, value in options.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    before = [calibrate("bigint") for _ in range(3)]
    start = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT)
    timer = threading.Timer(max(deadline - perf_counter(), 0.0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - start
        setup *= scale("bigint", before + [calibrate("bigint") for _ in range(3)])
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"{workload} worker ({mode}) exited with {proc.returncode}")
    return setup, json.loads(rest.strip().splitlines()[-1])


def interpreter_start_s(code: str) -> float:
    """Median wall time of a fresh interpreter running `code`."""
    times = []
    for _ in range(IMPORT_SAMPLES):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, env=worker_env(), cwd=ROOT)
        times.append(perf_counter() - start)
    return statistics.median(times)


def percentile_ms(latencies: list[float], q: int) -> float:
    return statistics.quantiles(latencies, n=100, method="inclusive")[q - 1] * 1000


def latencies(result: dict, scaled: bool = True) -> list[float]:
    """Latencies of the successful ops, scaled to nominal speed or raw."""
    return [raw * (factor if scaled else 1) for _, raw, factor, ok in result["ops"] if ok]


def ops_per_s(result: dict, scaled: bool = True) -> float:
    busy = sum(raw * (factor if scaled else 1) for _, raw, factor, _ in result["ops"])
    return len(latencies(result)) / busy


def machine_scale(result: dict) -> float:
    return statistics.median(factor for _, _, factor, _ in result["ops"])


def tally(results: list[dict]) -> tuple[int, int]:
    """(attempted, failed) over workers' timed ops and warm-ups."""
    attempted = failed = 0
    for result in results:
        attempted += result.get("attempted", 0) + 1
        failed += result.get("failed", 0) + (result["warmup_error"] is not None)
    return attempted, failed


def measure(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict, list[dict]]:
    setups, workers = [], []
    for i in range(SETUP_SAMPLES):
        if i < SETUP_SAMPLES - 1:
            setup, worker = spawn(workload, seed, "probe", deadline)
        else:
            setup, worker = spawn(workload, seed, "run", deadline, seconds=seconds,
                                  min_ops=MIN_OPS, max_seconds=MAX_MEASURE_S)
        setups.append(setup)
        workers.append(worker)
    main = workers[-1]
    done = latencies(main)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (ops_per_s(main), "ops/s"),
        "op_p50_ms": (percentile_ms(done, 50), "ms"),
        "op_p90_ms": (percentile_ms(done, 90), "ms"),
        "peak_rss_mb": (main["peak_rss_kb"] / 1024, "MB"),
    }
    raw = latencies(main, scaled=False)
    unscaled = {
        "ops_per_s": ops_per_s(main, scaled=False),
        "op_p50_ms": percentile_ms(raw, 50),
        "op_p90_ms": percentile_ms(raw, 90),
        "machine_scale": machine_scale(main),
    }
    return metrics, unscaled, workers


def trace(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict, list[dict]]:
    import_s = interpreter_start_s("import chainweight") - interpreter_start_s("pass")
    phase = dict(seconds=seconds / 2, min_ops=MIN_TRACE_OPS, max_seconds=MAX_MEASURE_S / 2)
    _, plain = spawn(workload, seed, "run", deadline, **phase)
    _, traced = spawn(workload, seed, "trace", deadline,
                      trace_out=OUT / f"trace-{workload}-seed{seed}.json", **phase)
    samples = traced["cli_samples"]
    metrics = {name: (value, _layer_unit(name)) for name, value in traced["layers"].items()}
    metrics["cli.import_s"] = (import_s, "s")
    metrics["cli.compute_ms"] = (statistics.median(c for _, c in samples) if samples else 0.0, "ms")
    metrics["cli.overhead_ms"] = (statistics.median(t - c for t, c in samples) if samples else 0.0, "ms")
    metrics["bench.trace_overhead"] = (ops_per_s(traced) / ops_per_s(plain), "ratio")
    unscaled = {"bench.trace_overhead": ops_per_s(traced, scaled=False) / ops_per_s(plain, scaled=False)}
    return metrics, unscaled, [plain, traced]


def _layer_unit(name: str) -> str:
    return "s/op" if name.endswith("_s") else "count/op"


def git_commit() -> str:
    """The checked-out commit, read from .git without running git; 'unknown' outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload: str, seed: int, seconds: float, workers: list[dict]) -> dict:
    timed = [w for w in workers if "mix" in w]
    mix: dict[str, int] = {}
    for w in timed:
        for kind, count in w["mix"].items():
            mix[kind] = mix.get(kind, 0) + count
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "ops": sum(w["attempted"] for w in timed),
        "rounds": sum(w["rounds"] for w in timed),
        "mix": mix,
    }


def run_workload(workload: str, seed: int, seconds: float, traced: bool, deadline: float) -> dict:
    metrics, unscaled, workers = (trace if traced else measure)(workload, seed, seconds, deadline)
    attempted, failed = tally(workers)
    prov = provenance(workload, seed, seconds, workers)
    print(f"workload {workload}  seed {seed}  trace {int(traced)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    print(f"  {'fail_ratio':34s} {failed / attempted:14.6g} failed/attempted ({failed}/{attempted})")
    for name, value in unscaled.items():
        print(f"  {'(unscaled) ' + name:34s} {value:14.6g}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, unscaled=unscaled, provenance=prov,
                  failures=[f for w in workers for f in w.get("failures", [])],
                  ops=[w["ops"] for w in workers if "ops" in w])
    (OUT / f"{workload}-seed{seed}-trace{int(traced)}.json").write_text(json.dumps(record))
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps(result), flush=True)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "chainweight" / "__init__.py").is_file():
        print(f"error: no chainweight sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    deadline = perf_counter() + DEADLINE_S * len(names)
    try:
        for name in names:
            run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
