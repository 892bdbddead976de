"""Benchmark of biphoton: three workloads, end-to-end metrics and a traced run.

Usage, from the repository root::

    python3 bench/run.py --workload cli-short --seed 1 --seconds 30 --trace 0

Workloads (``bench/workloads.py``), each a closed loop with one client:

* ``cli-short``: ``python -m biphoton.cli`` children cycling through
  presets, hom (closed form and numeric sinc), sweep and analyze;
* ``simulate-roundtrip``: ``simulate --grid-n 512`` in a child, then
  ``load_jsi`` in-process on the jsi.csv it wrote;
* ``kernels-n512``: the physics kernels in-process, nothing written.

``--trace 0`` times the loop untraced and prints the end-to-end metrics.
``--trace 1`` prints the per-layer metrics instead: a sweep over each
module's public functions (``bench/layers.py``), then the loop untraced and
traced for half the time each, which gives the tracing overhead and
coverage; the spans go to ``.bench_out/``.  Every op's outputs are checked,
and outputs of a config seen before (traced or not) must be byte-identical.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  ``--smoke`` runs a few ops at n=128 and ignores ``--seconds``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: steadier than two on a shared 2-core machine.
BLAS_THREADS = "1"
SETUP_REPS = 3
# n=64 under-resolves the sinc dip of some seeded sources (CoverageError).
SMOKE_GRID_N = 128
TAIL_BEYOND = 10
WORKLOADS = ("cli-short", "simulate-roundtrip", "kernels-n512")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few ops per loop at n=128, for the harness's own test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "biphoton" / "__init__.py").is_file():
        print(f"error: no biphoton package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import biphoton.cli  # noqa: F401  (the in-process import kernels-n512 pays)

    inproc_import_s = time.perf_counter() - start
    import biphoton

    if Path(biphoton.__file__).resolve().parent != SRC / "biphoton":
        print(f"error: imported biphoton from {biphoton.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from workloads import BY_NAME, Context

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = Context(work=work, env=env, seed=args.seed,
                  grid_n=SMOKE_GRID_N if args.smoke else 512)
    try:
        workload = BY_NAME[args.workload](ctx)
        record = run(args, ctx, workload)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["meta"]["inproc_import_s"] = inproc_import_s
    report(args, record)
    return 0


def run_all(args) -> int:
    """Each workload in its own child, so peak RSS and imports stay per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run([*argv, "--smoke"] if args.smoke else argv,
                              capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        *lines, last = proc.stdout.strip().splitlines()
        print("\n".join(lines))
        result = json.loads(last)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def run(args, ctx, workload) -> dict:
    import layers
    import spans

    setup_s = timed_setup(ctx, workload, 1 if args.smoke else SETUP_REPS)
    limits = {"min_ops": workload.SMOKE_OPS, "max_ops": workload.SMOKE_OPS} if args.smoke else {
        "min_ops": 1, "max_ops": None}
    digests: dict[str, str] = {}
    metrics = layers.Metrics()
    record: dict = {"metrics": metrics}

    if not args.trace:
        loop = run_loop(workload, args.seconds, None, digests, **limits)
        tail, rank = tail_of(loop["times"])
        usage = resource.RUSAGE_SELF if workload.IN_PROCESS else resource.RUSAGE_CHILDREN
        peak_mb = resource.getrusage(usage).ru_maxrss * 1024 / 1e6
        loops = [loop]
        metrics.add("setup_s", setup_s, "s")
        metrics.add("op_p50_s", median(loop["times"]), "s")
        metrics.add("op_tail_s", tail, "s")
        metrics.add("ops_per_s", len(loop["times"]) / loop["wall_s"], "1/s")
        metrics.add("peak_rss_mb", peak_mb, "MB")
        record["op_tail_rank"] = rank
        record["op_times"] = loop["times"]
    else:
        sizes = (SMOKE_GRID_N,) if args.smoke else layers.SIZES
        metrics.update(layers.sweep(ctx, sizes))
        untraced = run_loop(workload, args.seconds / 2, None, digests, **limits)
        untraced_keys = set(digests)
        tracer = spans.Tracer()
        restore = spans.instrument(tracer)
        try:
            traced = run_loop(workload, args.seconds / 2, tracer, digests, **limits)
        finally:
            restore()
        loops = [untraced, traced]
        # shared digests: each of these traced ops wrote what its untraced twin wrote
        record["traced_ops_matched_untraced"] = sum(k in untraced_keys for k in traced["keys"])
        metrics.add("trace.coverage", spans.coverage(tracer.spans), "ratio")
        metrics.add("trace.overhead_s", median(traced["times"]) - median(untraced["times"]), "s")
        per_op = max(1, traced["attempted"])
        record["self_s_per_op"] = {
            layer: total / per_op
            for layer, total in sorted(spans.self_time_by_layer(tracer.spans).items())
        }
        record["targets"] = {name: layers.target_of(name) for name in metrics}
        record["spans_file"] = write_out(
            f"{args.workload}-seed{args.seed}-spans.json",
            {"fields": ["name", "start", "end", "parent", "op"], "spans": tracer.spans},
        )

    attempted = sum(loop["attempted"] for loop in loops)
    failed = sum(loop["failed"] for loop in loops)
    repeated = sum(loop["repeated"] for loop in loops)
    record.update(
        correct=failed == 0,
        attempted=attempted,
        failed=failed,
        samples=sum(len(loop["times"]) for loop in loops),
        problems=[p for loop in loops for p in loop["problems"]][:20],
    )
    record["meta"] = metadata(args, repeated / attempted if attempted else 0.0)
    return record


def timed_setup(ctx, workload, reps: int) -> float:
    """Median wall time of one set-up: a fresh interpreter importing
    ``biphoton.cli`` (the import every op or the in-process loop pays, and it
    warms the file cache) plus the workload's seeded inputs and expected values."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import biphoton.cli"], cwd=ctx.work,
                       env=ctx.env, check=True, capture_output=True, timeout=120)
        workload.setup()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_loop(workload, seconds: float, tracer, digests: dict, min_ops: int, max_ops) -> dict:
    """Closed loop: ops back to back until ``seconds`` have passed.

    An op fails on an exception, a failed check, or outputs that differ
    from an earlier op with the same config.
    """
    times, problems, keys = [], [], []
    attempted = failed = repeated = 0
    seen: set[str] = set()
    start = time.perf_counter()
    while max_ops is None or attempted < max_ops:
        if attempted >= min_ops and time.perf_counter() - start >= seconds:
            break
        if tracer is not None:
            tracer.op = attempted
        try:
            result = workload.run_op(attempted, tracer)
        except Exception:
            op_problems, result = [traceback.format_exc(limit=3).strip()], None
        else:
            op_problems = list(result.problems)
            known = digests.setdefault(result.key, result.digest)
            if known != result.digest:
                op_problems.append(f"{result.key}: outputs differ from an earlier op")
            repeated += result.key in seen
            seen.add(result.key)
            keys.append(result.key)
        attempted += 1
        if op_problems:
            failed += 1
            problems.extend(f"op {attempted - 1}: {p}" for p in op_problems)
            print(f"op {attempted - 1} failed: {op_problems}", file=sys.stderr)
        else:
            times.append(result.elapsed)
    return {"times": times, "keys": keys, "attempted": attempted, "failed": failed,
            "repeated": repeated, "problems": problems, "wall_s": time.perf_counter() - start}


def median(times: list[float]) -> float:
    return statistics.median(times) if times else float("nan")


def tail_of(times: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ``TAIL_BEYOND`` samples beyond it.

    When that percentile would not lie above the median, it is the median.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return median(ordered), f"p50 of {n} samples (too few for a tail above it)"
    index = n - TAIL_BEYOND - 1
    return ordered[index], f"p{100 * (index + 1) / n:.0f} of {n} samples"


def metadata(args, repeated_share: float) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "git_sha": git_sha(),
        "repeated_config_share": repeated_share,
    }


def git_sha() -> str | None:
    """HEAD of the repository the benchmark sits in, or None outside one."""
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def write_out(name: str, payload: dict) -> str:
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / name).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return str((out / name).relative_to(ROOT))


def report(args, record: dict) -> None:
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record["record_file"] = write_out(name, record)
    print(f"# biphoton benchmark: {args.workload}, seed {args.seed}, trace {args.trace}")
    for metric, entry in record["metrics"].items():
        note = f"  ({record['op_tail_rank']})" if metric == "op_tail_s" else ""
        print(f"{metric:44s} {entry['value']:.6g} {entry['unit']}{note}")
    rate = record["failed"] / record["attempted"] if record["attempted"] else float("nan")
    print(f"{'error_rate':44s} {rate:.6g}  ({record['failed']} failed of "
          f"{record['attempted']} attempted)")
    if "traced_ops_matched_untraced" in record:
        print(f"{'traced ops checked against untraced outputs':44s} "
              f"{record['traced_ops_matched_untraced']}")
    for layer, seconds in record.get("self_s_per_op", {}).items():
        print(f"{'self time per traced op, ' + layer:44s} {seconds:.6g} s")
    print("# meta " + json.dumps(record["meta"], sort_keys=True))
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    sys.exit(main())
