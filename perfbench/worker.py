"""One benchmark process: set up a workload, then run and check its ops.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--probe]

Started by run.py with the BLAS thread count and PYTHONPATH already set.
Prints one JSON line. With --probe it stops right before the first op,
so run.py can time set-up again without running the workload.
"""

import argparse
import ctypes
import glob
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter

OUT_DIR = Path(__file__).resolve().parent / "out"


def blas_threads() -> int | None:
    """Threads OpenBLAS actually runs with, if its library can be asked."""
    import numpy

    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_set": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_running": blas_threads(),
    }


def per_layer(tracer, ops: int, untraced_rate: float, traced_rate: float, mismatches: int) -> dict:
    """Per-layer metrics of the traced rounds, times and counts per traced op."""
    c = tracer.counts
    n = max(ops, 1)
    steps = c["dynamics.rk4_steps"]
    propagate = tracer.self_s("dynamics.propagate")
    values = {
        "dynamics.rk4_steps": c["dynamics.rk4_steps"] / n,
        "dynamics.rk4_steps_nominal": c["dynamics.rk4_steps_nominal"] / n,
        "dynamics.rk4_step_us": 1e6 * propagate / steps if steps else 0.0,
        "dynamics.rhs_calls": c["dynamics.rhs_calls"] / n,
        "dynamics.flops_computed": c["dynamics.flops_computed"] / n,
        "dynamics.bytes_computed": c["dynamics.bytes_computed"] / n,
        "rlmaze.prefix_repeat_frac": tracer.prefixes_repeated / tracer.prefixes_seen if tracer.prefixes_seen else 0.0,
        "rlmaze.distinct_prefixes": c["rlmaze.distinct_prefixes"] / n,
        "maze.edges.calls": c["maze.edges.calls"] / n,
        "states.DensityMatrix.calls": c["states.DensityMatrix.calls"] / n,
        "states.PureState.calls": c["states.PureState.calls"] / n,
        "embedding.swap_test.calls": c["embedding.swap_test.calls"] / n,
        "embedding.seed_spawns": c["embedding.seed_spawns"] / n,
        "cli.write.bytes": c["cli.write.bytes"] / n,
        "trace.ops": ops,
        "trace.spans": tracer.recorded,
        "trace.throughput_untraced": untraced_rate,
        "trace.throughput_traced": traced_rate,
        "trace.overhead_throughput": traced_rate - untraced_rate,
        "trace.guard_mismatches": mismatches,
    }
    for name in (
        "dynamics.propagate", "dynamics.build_model", "rlmaze.step", "rlmaze.state_key", "rlmaze.train",
        "maze.toggle_link", "states.DensityMatrix", "states.PureState", "embedding.embed_batch",
        "embedding.swap_test", "cli.main", "cli.write",
    ):
        values[name + ".self_s"] = tracer.self_s(name) / n
    return values


def traced_round(workload, tracer, index):
    workload.tracer = tracer
    try:
        return workload.round(index)
    finally:
        workload.tracer = None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    from spans import Tracer
    from workloads import WORKLOADS

    workdir = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    op_count = [0]

    def on_op_start():
        op_count[0] += 1
        if tracer is not None:
            tracer.op_id = op_count[0]

    workload = WORKLOADS[args.workload](args.seed, Path(os.path.relpath(workdir)), on_op_start)
    try:
        workload.setup()
        t_first = time.monotonic()
        if args.probe:
            print(json.dumps({"t_first": t_first}))
            return 0

        op_times, failures, cli_time = [], [], 0.0
        traced_ops, traced_time, mismatches = 0, 0.0, 0
        notes = {}
        round_times = []
        start = perf_counter()
        index = 0
        # With --trace 1 every round runs twice on the same inputs, untraced and
        # traced, in alternating order so the first round's warm-up is shared.
        while True:
            round_start = perf_counter()
            traced = None
            if tracer is not None and index % 2 == 1:
                traced = traced_round(workload, tracer, index)
            rnd = workload.round(index)
            if tracer is not None and traced is None:
                traced = traced_round(workload, tracer, index)
            op_times += rnd.op_times
            failures += rnd.failures
            cli_time += rnd.cli_time
            for key, value in rnd.notes.items():
                notes[key] = notes.get(key, 0) + value
            if traced is not None:
                # Same inputs, traced: the outputs must not change by a byte.
                traced_ops += len(traced.op_times)
                traced_time += traced.cli_time
                guard = None
                if traced.outputs != rnd.outputs:
                    mismatches += 1
                    differ = sorted(k for k in set(rnd.outputs) | set(traced.outputs) if rnd.outputs.get(k) != traced.outputs.get(k))
                    guard = f"traced outputs differ from untraced: {differ}"
                failures += [f or guard for f in traced.failures]
            round_times.append(perf_counter() - round_start)
            index += 1
            # Stop when another round of average length would overrun the budget.
            if perf_counter() - start + statistics.fmean(round_times) > args.seconds:
                break

        result = {
            "t_first": t_first,
            "rounds": index,
            "op_times": op_times,
            "cli_time": cli_time,
            "attempted": len(failures),
            "failed": sum(f is not None for f in failures),
            "failures": sorted({f for f in failures if f is not None})[:5],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "notes": notes,
            "environment": environment(),
        }
        if tracer is not None:
            untraced_rate = len(op_times) / cli_time if cli_time else 0.0
            traced_rate = traced_ops / traced_time if traced_time else 0.0
            result["per_layer"] = per_layer(tracer, traced_ops, untraced_rate, traced_rate, mismatches)
            result["breakdown"] = [(name, s / traced_time) for name, s in tracer.breakdown()]
            OUT_DIR.mkdir(exist_ok=True)
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans_path, {"workload": args.workload, "seed": args.seed, "environment": result["environment"],
                                      "per_layer": result["per_layer"]})
            result["spans_file"] = os.path.relpath(spans_path)
        print(json.dumps(result))
        return 0
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
