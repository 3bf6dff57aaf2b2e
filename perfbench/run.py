#!/usr/bin/env python3
"""End-to-end benchmark of cl4kit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (decide-lifted, prove-play or decide-wide) from the
cl4kit sources next to this directory, in one process and one thread: a
closed loop where each item starts when the previous one ends.  The loop
makes whole passes over the workload's items until another pass would end
after ``--seconds`` (it always makes one).  Every output is checked after
it is timed.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
wraps each layer's public functions in spans and prints the per-layer
metrics instead.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  Results and span files
go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("decide-lifted", "prove-play", "decide-wide")
# Set-up runs in this many fresh processes; setup_s is their median.
SETUP_SAMPLES = 9
SETUP_TIMEOUT_S = 60

END_TO_END = {
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "proof_steps": "steps",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def load_workloads():
    """Import cl4kit from the sources next to this directory, never from an
    installed copy, and then the workload definitions."""
    package = SRC / "cl4kit" / "__init__.py"
    if not package.is_file():
        fail(f"no cl4kit sources at {package.parent}")
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import cl4kit

    if Path(cl4kit.__file__).resolve() != package.resolve():
        fail(f"imported cl4kit from {cl4kit.__file__}, not {package}")
    import workloads

    return workloads


def measure_setup(workload: str, seed: int) -> float:
    """Median time from starting a fresh interpreter to having built the
    workload's inputs (imports included)."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            fail(f"set-up failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]) - started)
    return statistics.median(samples)


def run(workload: str, seed: int, seconds: float, tracer) -> dict:
    workloads = load_workloads()
    if tracer is not None:
        tracer.install([workloads])
    span = tracer.span if tracer is not None else lambda name: nullcontext()
    pause = tracer.pause if tracer is not None else nullcontext
    with span("bench.setup"):
        items = workloads.WORKLOADS[workload](seed)

    times: dict[str, list[float]] = {item.label: [] for item in items}
    attempted = failed = passes = 0
    correct = True
    proof_steps = None
    mark = tracer.mark() if tracer is not None else None
    begin = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        steps = 0
        for item in items:
            attempted += 1
            # Every item starts from a collected heap, so that garbage left
            # by the previous item's check is not collected on its clock.
            gc.collect()
            started = time.perf_counter()
            try:
                with span(f"bench.item.{item.label}"):
                    out = item.run()
            except Exception:  # an operation of the program failed
                failed += 1
                print(f"{item.label}: failed\n{traceback.format_exc()}", file=sys.stderr)
                continue
            times[item.label].append(time.perf_counter() - started)
            with pause():
                try:
                    item.check(out)
                    steps += item.steps(out)
                except Exception:
                    correct = False
                    print(f"{item.label}: wrong output\n{traceback.format_exc()}", file=sys.stderr)
            del out
        passes += 1
        print(f"pass {passes}: {time.perf_counter() - pass_start:.3f} s; "
              + ", ".join(f"{label} {t[-1]:.3f} s" for label, t in times.items() if t),
              file=sys.stderr)
        if proof_steps is None:
            proof_steps = steps
        now = time.perf_counter()
        if now - begin + (now - pass_start) > seconds:
            break

    # Both timing metrics average over the whole run rather than take one
    # pass's figure: the host's speed wanders by 10 to 15% over stretches of
    # seconds, so a run's mean is steadier than its middle pass.
    # items_per_s is all completed items over all their time; item_p50_ms
    # is the median over the workload's items of each item's mean time.
    timed = [t for t in times.values() if t]
    busy = sum(map(sum, timed))
    items_per_s = sum(map(len, timed)) / busy if busy else 0.0
    if tracer is not None:
        metrics = tracer.per_layer(mark, passes)
        # Not a per-layer metric; printed so that the tracing overhead can be
        # read against an untraced run.
        print(f"{workload} traced items_per_s = {items_per_s:.6g} 1/s")
    else:
        metrics = {
            "items_per_s": items_per_s,
            "item_p50_ms": 1000 * statistics.median(map(statistics.mean, timed)) if timed else 0.0,
            "proof_steps": proof_steps,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "passes": passes, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workloads = load_workloads()
    if args.setup_only:
        workloads.WORKLOADS[args.workload](args.seed)
        print(time.monotonic())
        return 0

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        units = {name: unit for name, (unit, _, _) in spans.METRICS.items()}
        setup_s = None
    else:
        units = END_TO_END
        setup_s = measure_setup(args.workload, args.seed)

    result = run(args.workload, args.seed, args.seconds, tracer)
    if setup_s is not None:
        result["metrics"]["setup_s"] = setup_s

    for name, value in result["metrics"].items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(f"{args.workload} passes = {result['passes']}, attempted = {result['attempted']}, "
          f"failed = {result['failed']}, correct = {result['correct']}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.csv.gz")
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(line, indent=1) + "\n")
    print(json.dumps(line))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
