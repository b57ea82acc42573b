"""qmlkit benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from ./src.
Workloads and the reasons for them are in perfbench/README.md. This
script sets the BLAS thread count, then starts worker processes one
after another: the measuring worker, which also runs the timed ops, and
SETUP_PROBES that only time their set-up, half of them before it and
half after, so the set-up median does not hang on one moment's host
speed. The last line of standard output is one JSON
object with the end-to-end metrics (--trace 0) or the per-layer metrics
of a traced run (--trace 1), named and with units as BENCHMARK.json
lists them; the lines before it record the environment and details.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 6
# One BLAS thread: on a shared 2-vCPU host a second thread made the 10x10
# qsw-run spread between runs twice as wide (throughput IQR 10 % vs 4 %
# over five seeds) for a 1.7x speed-up. Capped at the usable CPUs below.
BLAS_THREADS = 1
PROBE_TIMEOUT_S = 20
TOTAL_TIMEOUT_S = 170  # every worker must have ended by then
MIN_TAIL_OPS = 10  # the tail percentile keeps at least this many ops beyond it


def tail(op_times: list) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with MIN_TAIL_OPS ops beyond it.

    With fewer than 2 * MIN_TAIL_OPS ops that percentile would fall below
    the median, so the slowest op is reported instead (percentile 100).
    """
    ordered = sorted(op_times)
    n = len(ordered)
    if n < 2 * MIN_TAIL_OPS:
        return ordered[-1], 100.0
    return ordered[n - MIN_TAIL_OPS - 1], 100.0 * (n - MIN_TAIL_OPS) / n


def start_worker(args, env, probe: bool, deadline: float) -> tuple[float, dict]:
    """Run one worker to completion; return (its start time, its JSON result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--probe"] if probe else [])
    started = time.monotonic()
    timeout = deadline - started
    if probe:
        timeout = min(timeout, PROBE_TIMEOUT_S)
    # subprocess.run kills the worker on timeout and waits for it to end.
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=max(timeout, 1.0))
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited {proc.returncode}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (root / "src" / "qmlkit" / "__init__.py").is_file():
        print("error: run from the root of a qmlkit checkout (src/qmlkit not found)", file=sys.stderr)
        return 2

    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(HERE)])

    deadline = time.monotonic() + TOTAL_TIMEOUT_S
    try:
        setups = []

        def probe():
            started, timing = start_worker(args, env, True, deadline)
            setups.append(timing["t_first"] - started)

        for _ in range(SETUP_PROBES // 2):
            probe()
        started, result = start_worker(args, env, False, deadline)
        setups.append(result["t_first"] - started)
        for _ in range(SETUP_PROBES - SETUP_PROBES // 2):
            probe()
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        # A killed worker cannot remove its working directory.
        for leftover in (HERE / "out").glob(f"work-{args.workload}-{args.seed}-*"):
            shutil.rmtree(leftover, ignore_errors=True)
        print(f"error: {exc}", file=sys.stderr)
        return 1

    op_times = result["op_times"]
    tail_value, tail_pct = tail(op_times)
    print("environment: " + json.dumps(result["environment"] | {"blas_threads_requested": threads}))
    print(f"ops: {len(op_times)} in {result['rounds']} rounds, {result['cli_time']:.3f} s inside cli.main; "
          f"op_tail_s is p{tail_pct:.1f} of {len(op_times)} ops; setup_s median of {len(setups)}: "
          + " ".join(f"{s:.3f}" for s in setups))
    if result["notes"]:
        print("notes: " + json.dumps(result["notes"]))
    if result["failures"]:
        print("failures: " + json.dumps(result["failures"]))

    if args.trace:
        layers = result["per_layer"]
        print("self-time share of traced cli.main time: "
              + ", ".join(f"{name} {100 * share:.1f}%" for name, share in result["breakdown"] if share >= 0.001))
        print(f"spans written to {result['spans_file']}")
        wanted = spec["per_layer"]
    else:
        layers = {
            "setup_s": statistics.median(setups),
            "throughput": len(op_times) / result["cli_time"],
            "op_p50_s": statistics.median(op_times),
            "op_tail_s": tail_value,
            "peak_rss_mb": result["peak_rss_mb"],
            "ok_frac": (result["attempted"] - result["failed"]) / result["attempted"],
        }
        wanted = spec["end_to_end"]

    metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
