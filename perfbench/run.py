"""Benchmark for randhull: one workload, run through ``randhull.cli.main`` in-process.

    python3 perfbench/run.py --workload disc_rate [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from ``src``.
The workload runs as a closed loop, one call at a time: one warm-up call, then
timed calls until the next one would pass ``--seconds``, at least two.  Every
call must give the report bytes of the warm-up call, which is at the same
seed.  ``--seed`` is the workload's master seed; it defaults to the frozen
acceptance seed of the workload.  BLAS runs on one thread.

With ``--trace 0`` the result carries the end-to-end metrics, taken with
tracing off.  After each call the run times a fixed yardstick computation and
a fresh interpreter (for ``setup_s``); the medians of the call and set-up
times are rescaled by the median yardstick of the run, which takes out the
drift of the host's speed between runs.  With ``--trace 1`` untraced and
traced calls alternate, at least two of each; the result carries the
per-layer metrics of the traced calls and their overhead over the untraced
ones, and the spans go to ``.bench_out/`` in the checkout.
The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# One BLAS thread, set before numpy loads, and inherited by the set-up
# interpreters.  With a second thread the max-dot waits on whatever else
# holds a core: on 2 vCPUs, one busy process beside disc_rate nearly doubled
# its time with two BLAS threads and left it unchanged with one.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import spans as spanlib  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
# times are given in seconds of a host on which the yardstick takes this long
YARDSTICK_REF_S = 0.1
YARDSTICKS_PER_CALL = 3

END_TO_END_UNITS = {
    "wall_s": "s",
    "points_per_s": "1/s",
    "setup_s": "s",
    "ok_frac": "ratio",
}

PER_LAYER_UNITS = {
    # the process peak, not a layer's: it has no bound because it changes with
    # the seed (see README.md), so it sits with the unbounded metrics
    "peak_rss_mb": "MB",
    "nets.max_dot_s": "s",
    "nets.max_dot_calls": "count",
    "nets.max_dot_gflop": "Gflop.computed",
    "nets.max_dot_gbyte": "GB.computed",
    "nets.max_dot_gflop_per_s": "Gflop/s.computed",
    "nets.build_s": "s",
    "nets.size": "count",
    "nets.cover_radius": "length",
    "nets.certified": "flag",
    "sampling.sample_s": "s",
    "sampling.points": "count",
    "sampling.proposed": "count",
    "sampling.accept_ratio": "ratio",
    "geometry.contains_s": "s",
    "geometry.support_s": "s",
    "bounds.check_s": "s",
    "experiments.rep_p50_ms": "ms",
    "experiments.rep_p99_ms": "ms",
    "experiments.busy_frac": "ratio",
    **{f"{layer}.self_s": "s" for layer in spanlib.LAYERS},
    "trace.overhead_frac": "ratio",
    "trace.accounted_frac": "ratio",
    "trace.spans": "count",
}

# metrics that count work; each traced call at one seed must give the same value
COUNTS = (
    "nets.max_dot_calls",
    "nets.max_dot_gflop",
    "nets.max_dot_gbyte",
    "nets.size",
    "sampling.points",
    "sampling.proposed",
    "trace.spans",
)


def load_cli():
    """Import randhull.cli from this checkout's src, or exit if it is missing."""
    if not (SRC / "randhull" / "cli.py").is_file():
        sys.exit(f"no randhull sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import randhull.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "randhull":
        sys.exit(f"imported randhull from {cli.__file__}, not from {SRC}")
    return cli


def environment() -> dict:
    """Machine and library details that the timings depend on."""
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    blas = {}
    with contextlib.suppress(Exception):  # the config layout differs across numpy releases
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
    }


def setup_seconds(workload) -> float:
    """Wall time of a fresh interpreter that imports randhull.cli and loads the input."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import randhull.cli as cli; "
        f"cli.{workload.loader}(sys.argv[2])"
    )
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", code, str(SRC), str(workload.input_path)],
        check=True,
        cwd=ROOT,
        timeout=120,
    )
    return time.perf_counter() - t0


def make_yardstick():
    """A timer of a fixed computation that runs no randhull code.

    It mixes what the workloads spend their time on: a matrix product into a
    buffer and its column maxima, normal draws, a sort, and interpreted
    Python.  Its arrays are made once, here, so that a timing does not depend
    on what the allocator holds after a workload call.
    """
    rng = np.random.default_rng(0)
    dirs = rng.standard_normal((2, 600))
    points = rng.standard_normal((6_000, 2))
    buf = np.empty((6_000, 600))
    draws = np.empty(100_000)

    def yardstick() -> float:
        t0 = time.perf_counter()
        for _ in range(6):
            np.matmul(points, dirs, out=buf)
            buf.max(axis=0)
            rng.standard_normal(out=draws)
            draws.sort()
        sum(i * i for i in range(200_000))
        return time.perf_counter() - t0

    return yardstick


def sampler(workload):
    """What runs after each untraced call: yardstick timings and one set-up time."""
    yardstick = make_yardstick()
    return lambda: ([yardstick() for _ in range(YARDSTICKS_PER_CALL)], setup_seconds(workload))


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclasses.dataclass
class Call:
    wall: float
    output: str
    error: str | None
    traced: bool = False
    spans: list = dataclasses.field(default_factory=list)


def run_call(main, argv: list[str], tracer=None) -> Call:
    """One workload call: time it, capture its report, record any error."""
    buf = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        if code:
            error = f"exit code {code}"
    except (Exception, SystemExit) as exc:
        traceback.print_exc(file=sys.stderr)
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    call = Call(wall=wall, output=buf.getvalue(), error=error, traced=tracer is not None)
    if tracer is not None:
        call.spans = tracer.take()
    return call


def call_error(workload, call: Call, reference: str) -> str | None:
    """Why a call failed its correctness check, or None."""
    if call.error is not None:
        return call.error
    try:
        problem = workload.check(call.output)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc!r}"
    if problem is None and call.output != reference:
        problem = "report bytes differ from the reference call at the same seed"
    if problem is None and call.traced and sum(s.parent is None for s in call.spans) != 1:
        problem = "trace has spans outside the cli.main span"
    return problem


def measure(
    cli, workload, seed: int, seconds: float, trace: bool, between=None
) -> tuple[Call, list[Call], list]:
    """Run the closed loop; returns (warm-up call, timed calls, samples).

    ``between``, when given, runs once after each timed call, so that its
    samples spread over the run like the calls do.
    """
    argv = workload.argv(seed)
    main = cli.main
    tracer = None
    traced_main = None
    if trace:
        tracer = spanlib.Tracer()
        traced_main = tracer.wrap("cli.main", cli.main)
    # a warm-up call: checked but not timed, its report is the reference
    warmup = run_call(main, argv)
    step = 2 if trace else 1
    calls: list[Call] = []
    samples = []
    t_start = time.perf_counter()
    while True:
        traced = trace and len(calls) % 2 == 1
        if traced:
            with tracer:
                calls.append(run_call(traced_main, argv, tracer))
        else:
            calls.append(run_call(main, argv))
        if between is not None:
            samples.append(between())
        if len(calls) >= 2 * step and len(calls) % step == 0:
            elapsed = time.perf_counter() - t_start
            if elapsed * (1 + step / len(calls)) > seconds:
                return warmup, calls, samples


def end_to_end(
    walls: list[float], setups: list[float], yards: list[float], points: int, ok_frac: float
) -> dict[str, float]:
    """The end-to-end metrics of a run, from its call, set-up and yardstick times."""
    # The host's speed drifts by up to 40% over tens of minutes, and the
    # workloads, the set-up and the yardstick slow down together, if not
    # exactly alike; rescaling by the run's yardstick lets runs made at
    # different times compare.
    scale = YARDSTICK_REF_S / statistics.median(yards)
    wall = statistics.median(walls) * scale
    return {
        "wall_s": wall,
        "points_per_s": points / wall,
        "setup_s": statistics.median(setups) * scale,
        "ok_frac": ok_frac,
    }


def layer_metrics(
    workload, points: int, untraced: list[Call], traced: list[Call]
) -> tuple[dict, str | None]:
    per_call = [spanlib.call_metrics(c.spans, c.wall) for c in traced]
    out = {name: statistics.median(m[name] for m in per_call) for name in per_call[0]}
    problem = None
    if out["sampling.points"] != points:
        problem = f"sampling spans saw {out['sampling.points']} points, expected {points}"
    for name in COUNTS:
        if len({m[name] for m in per_call}) > 1:
            problem = f"{name} differs between traced calls at the same seed"
    reps = [ms for c in traced for ms in spanlib.replication_ms(c.spans)]
    out["experiments.rep_p50_ms"] = float(np.percentile(reps, 50)) if reps else 0.0
    out["experiments.rep_p99_ms"] = float(np.percentile(reps, 99)) if reps else 0.0
    out["peak_rss_mb"] = peak_rss_mb()
    out["trace.overhead_frac"] = min(c.wall for c in traced) / min(c.wall for c in untraced) - 1.0
    return out, problem


def write_spans(workload, seed: int, env: dict, traced: list[Call]) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload.name}-seed{seed}.json"
    doc = {
        "workload": workload.name,
        "seed": seed,
        "environment": env,
        "calls": [{"wall": c.wall, "spans": [dataclasses.asdict(s) for s in c.spans]} for c in traced],
    }
    path.write_text(json.dumps(doc) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None, help="master seed (default: the workload's)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_cli()
    workload = WORKLOADS[args.workload]
    seed = workload.seed if args.seed is None else args.seed
    env = environment()
    print(json.dumps({"environment": env}, sort_keys=True))

    between = None if args.trace else sampler(workload)
    warmup, calls, samples = measure(cli, workload, seed, args.seconds, bool(args.trace), between)
    yards = [y for ys, _ in samples for y in ys]
    setups = [t for _, t in samples]
    problems = [call_error(workload, c, warmup.output) for c in [warmup, *calls]]
    for p in problems:
        if p is not None:
            print(f"failed call: {p}", file=sys.stderr)
    attempted = len(problems)
    failed = sum(p is not None for p in problems)

    trace_ok = True
    if args.trace:
        untraced = [c for c in calls if not c.traced]
        traced = [c for c in calls if c.traced and c.error is None]
        if traced:
            values, problem = layer_metrics(
                workload, workload.points_per_call(cli), untraced, traced
            )
        else:
            values, problem = dict.fromkeys(PER_LAYER_UNITS, 0.0), "no traced call succeeded"
        if problem is not None:
            print(f"trace check: {problem}", file=sys.stderr)
            trace_ok = False
        path = write_spans(workload, seed, env, traced)
        print(f"spans written to {path.relative_to(ROOT)}")
        units = PER_LAYER_UNITS
    else:
        walls = [c.wall for c in calls]
        values = end_to_end(
            walls, setups, yards, workload.points_per_call(cli), (attempted - failed) / attempted
        )
        units = END_TO_END_UNITS
        print(f"{workload.name} seed {seed}: {len(calls)} timed calls, {len(setups)} set-ups")
        print(f"  call walls (s): {' '.join(f'{c.wall:.4f}' for c in calls)}")
        print(f"  set-ups (s):    {' '.join(f'{t:.4f}' for t in setups)}")
        print(f"  yardsticks (s): {' '.join(f'{t:.4f}' for t in yards)}")
        print(f"  {'measured median call':28s} {statistics.median(walls):.6g} s")
        print(f"  {'measured median set-up':28s} {statistics.median(setups):.6g} s")
        print(f"  {'measured median yardstick':28s} {statistics.median(yards):.6g} s")
        print(f"  {'failed_frac':28s} {failed / attempted:.6g} ratio")
        print(f"  {'peak_rss_mb':28s} {peak_rss_mb():.6g} MB")

    for name, unit in units.items():
        print(f"  {name:28s} {values[name]:.6g} {unit}")
    result = {
        "correct": failed == 0 and trace_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
