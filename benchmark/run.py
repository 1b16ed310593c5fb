#!/usr/bin/env python3
"""Benchmark of the l2torsion pipeline: one caller, one op at a time.

Run from the root of a checkout:

    python3 benchmark/run.py --workload family_grid --seed 1 --seconds 50 --trace 0

``--workload`` is ``family_grid``, ``group_regular``, ``random_suites`` or
``all`` (the default), which runs each workload in its own process. The
workloads are described in ``workloads.py``. ``BENCHMARK.json`` gates
``family_grid`` and ``random_suites`` only, so that each run can last 50 s
within the time all its runs may take: longer runs average out more of a
shared host's swings in speed. ``group_regular`` runs the same way by hand.

The loop is closed and single-threaded: the next op starts when the previous
one returns, so no layer ever waits in a queue and there is no wait metric.
Every op's output is checked against an oracle; an op fails if it raises or
misses it. The program is the library under ``src/`` of the checkout,
imported from source.

With ``--trace 0`` the run measures, after one untimed warm-up round:

- ``ops_per_s``: ops completed per second of the timed phase;
- ``op_s_p50``: the median op time;
- ``op_s_tail``: the op time at the highest percentile with at least ten
  ops beyond it (the percentile and the op count are printed with it);
- ``setup_s``: import time plus the median of several input constructions;
- ``peak_rss_mb``: the peak resident memory of the process.

With ``--trace 1`` it runs a fixed list of rounds untraced, for the tracing
overhead, then once more with spans around every call into the library's
layers and into ``numpy.linalg`` (see ``tracer.py``), and reports the
per-layer metrics per op. The spans are written to
``benchmark/out/trace-<workload>-seed<seed>.jsonl.gz``.

The BLAS thread count is fixed at one (at most the number of cores) before
numpy loads. Every output records it with the Python, numpy and OpenBLAS
versions and the number of cores.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import statistics
import sys
import time
import traceback

BLAS_THREADS = 1
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("family_grid", "group_regular", "random_suites")
SETUP_REPEATS = 5
MIN_TAIL_BEYOND = 10

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_s_p50", "s"),
    ("op_s_tail", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _import_library():
    """Import numpy and the library from ``src/``; returns the import time."""
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401
    import l2torsion

    found = os.path.dirname(os.path.abspath(l2torsion.__file__))
    if found != os.path.join(SRC, "l2torsion"):
        raise ImportError(f"l2torsion imported from {found}, not from {SRC}")
    for layer in ("backends", "cellular", "detline", "errors", "extcoh",
                  "harness", "serialize", "spectral", "torsion"):
        __import__(f"l2torsion.{layer}")
    return time.perf_counter() - start


def _openblas():
    """(config string, thread count) of the OpenBLAS library numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        paths = set()
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", "_64_", ""):
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype = ctypes.c_char_p
                    threads.restype = ctypes.c_int
                    return config().decode(), threads()
    return "unknown", None


def environment() -> dict:
    import platform

    import numpy

    config, threads = _openblas()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas": config,
        "blas_threads": threads,
        "blas_threads_set": BLAS_THREADS,
        "nproc": os.cpu_count(),
    }


def _tail(times: list, beyond: int):
    """(value, percentile, ops beyond) at the highest rank with ``beyond``
    ops above it, or at the lowest rank when there are too few ops."""
    ordered = sorted(times)
    rank = max(len(ordered) - beyond - 1, 0)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered), len(ordered) - rank - 1


class Runner:
    """Runs ops in a closed loop, checks them and keeps their times."""

    def __init__(self, rounds: list):
        self.rounds = rounds
        self.attempted = 0
        self.failed = 0
        self.next_round = 0

    def run(self, op, call=None) -> float | None:
        """Run and check one op; its wall time, or None if it failed."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = call(op.run) if call else op.run()
        except Exception:  # the loop goes on; the op counts as failed
            self.failed += 1
            print(f"op {op.kind} raised:", file=sys.stderr)
            traceback.print_exc()
            return None
        elapsed = time.perf_counter() - start
        reason = op.check(out)
        if reason is not None:
            self.failed += 1
            print(f"op {op.kind} missed its oracle: {reason}", file=sys.stderr)
            return None
        return elapsed

    def round(self, call=None) -> list:
        """Run the next round; the time of each op, None where it failed."""
        ops = self.rounds[self.next_round % len(self.rounds)]
        self.next_round += 1
        return [self.run(op, call) for op in ops]


def run_untraced(runner: Runner, seconds: float) -> tuple:
    """Whole rounds until ``seconds`` have passed; (op times, elapsed)."""
    times = []
    start = time.perf_counter()
    while True:
        times += [t for t in runner.round() if t is not None]
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return times, elapsed


def run_traced(workload: str, seed: int, seconds: float, runner: Runner) -> dict:
    """Overhead pass untraced, then one traced pass over the same rounds."""
    from tracer import Tracer
    from workloads import TRACE_ROUNDS

    n_rounds = TRACE_ROUNDS[workload]

    def fixed_pass(call=None):
        runner.next_round = 0
        times = []
        for _ in range(n_rounds):
            times += runner.round(call)
        return times

    # untraced passes over the same rounds for about half the run
    untraced, start = [], time.perf_counter()
    while not untraced or time.perf_counter() - start < seconds / 2:
        untraced += fixed_pass()
    tracer = Tracer()
    tracer.install()
    op_ids = itertools.count()
    traced = fixed_pass(lambda fn: tracer.run_op(next(op_ids), fn))
    if None in untraced or None in traced:
        return {}
    metrics = tracer.metrics(len(traced), sum(traced))
    metrics["trace.ops_per_s_untraced"] = len(untraced) / sum(untraced)
    metrics["trace.ops_per_s_traced"] = len(traced) / sum(traced)
    metrics["trace.overhead"] = (
        metrics["trace.ops_per_s_untraced"] / metrics["trace.ops_per_s_traced"]
    )
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"trace-{workload}-seed{seed}.jsonl.gz"))
    return metrics


def run_workload(args) -> int:
    import resource

    try:
        import_s = _import_library()
    except ImportError as err:
        print(f"cannot import the library from {SRC}: {err}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import tracer
    from workloads import WORKLOADS

    env = environment()
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        rounds = WORKLOADS[args.workload](args.seed)
        setups.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(setups)

    runner = Runner(rounds)
    runner.round()  # warm-up: first calls, lazy imports; checked, not timed
    gc.collect()  # the discarded set-ups are not collected inside the timing

    info = {"workload": args.workload, "seed": args.seed, "env": env,
            "loop": "closed, 1 caller, no queue: no layer waits"}
    if args.trace:
        metrics = run_traced(args.workload, args.seed, args.seconds, runner)
        correct = bool(metrics) and runner.failed == 0
        units = {name: unit for name, unit, _ in tracer.per_layer_metrics()}
        share = metrics.get("trace.self_sum_share", 0.0)
        if not 0.99 <= share <= 1.0 + 1e-9:
            print(f"span self times cover {share:.4f} of the op wall time",
                  file=sys.stderr)
            correct = False
    else:
        times, elapsed = run_untraced(runner, args.seconds)
        tail, pct, beyond = _tail(times, MIN_TAIL_BEYOND)
        metrics = {
            "ops_per_s": len(times) / elapsed,
            "op_s_p50": statistics.median(times),
            "op_s_tail": tail,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
        info["op_s_tail"] = {"percentile": pct, "ops": len(times), "beyond": beyond}
        correct = runner.failed == 0 and beyond == MIN_TAIL_BEYOND
    info.update(ops_attempted=runner.attempted, ops_failed=runner.failed)
    print(json.dumps(info))
    for name, value in metrics.items():
        print(f"  {args.workload:<14} {name:<42} {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so set-up and memory stay apart."""
    import subprocess

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # before numpy loads, and inherited by the processes of ``all``
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
