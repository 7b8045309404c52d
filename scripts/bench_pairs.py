"""Run the benchmark on two checkouts in alternating pairs and judge the change.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --workload W \
        [--seed S] [--pairs 10] [--seconds 50] [--out PATH]

Each run is one ``python3 perfbench/run.py --workload W --seconds S [--seed S]``
in the checkout's own directory, so that each side runs its own sources and
benchmark.  Before the pairs, each side makes one ``--trace 1`` run, whose
``correct`` flag and ``failed call:`` / ``trace check:`` stderr lines are
printed; a side whose traced run is not correct is marked ``incorrect`` in the
summary.  Pair i runs the parent first when i is even and the change first
when i is odd.  The last line of a run's stdout is its JSON result; each pair
is printed as it completes.

For every end-to-end metric in the parent's ``BENCHMARK.json`` the summary
gives each side's median and quartiles (inclusive method, as numpy's default
percentile), the change's wins (ties count for neither side) and a verdict:

- ``gain``: the change wins at least 9 of every 10 pairs and its median is
  better than the parent's by more than the parent's interquartile range;
- ``regression``: the change's median is worse than the parent's by more
  than the metric's relative ``bound``;
- ``unresolved``: neither, and the parent's or the change's interquartile
  range is wider than the bound, unless every change run beats every parent
  run;
- ``within bound``: otherwise.

``--out`` writes the pairs, the runs and the summary as JSON, the record from
which a ``BENCH_*.json`` file is made.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

GAIN_WIN_FRACTION = 0.9
# stderr lines of perfbench/run.py that say why a run is not correct
PROBLEM_PREFIXES = ("failed call:", "trace check:")


def run_once(
    checkout: Path, workload: str, seconds: float, seed: int | None, trace: bool = False
) -> dict:
    """One benchmark run in ``checkout``; its parsed JSON result, or a failure record.

    ``problems`` holds the run's ``failed call:`` and ``trace check:`` stderr lines.
    """
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", str(seconds)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if trace:
        cmd += ["--trace", "1"]
    proc = subprocess.run(
        cmd, cwd=checkout, capture_output=True, text=True, timeout=20 * seconds + 600
    )
    problems = [ln for ln in proc.stderr.splitlines() if ln.startswith(PROBLEM_PREFIXES)]
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    environment = None
    if lines:
        try:
            environment = json.loads(lines[0]).get("environment")
        except (json.JSONDecodeError, AttributeError):
            pass
    try:
        result = json.loads(lines[-1])
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
    except (IndexError, json.JSONDecodeError, KeyError, TypeError):
        error = proc.stderr[-2000:]
        return {
            "correct": False,
            "metrics": {},
            "error": error,
            "problems": problems,
            "environment": environment,
        }
    return {
        "correct": bool(result.get("correct")),
        "attempted": result.get("attempted"),
        "failed": result.get("failed"),
        "metrics": metrics,
        "problems": problems,
        "environment": environment,
    }


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]] if values else [float("nan")] * 2
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The verdict on one metric from paired runs; parent[i] and change[i] form pair i."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, nonzero number of parent and change runs")
    sign = 1.0 if better == "higher" else -1.0  # sign * (change - parent) > 0 is better
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    pm, cm = statistics.median(parent), statistics.median(change)
    pq, cq = quartiles(parent), quartiles(change)
    p_iqr, c_iqr = pq[1] - pq[0], cq[1] - cq[0]
    gap = sign * (cm - pm)
    scale = abs(pm)
    worse_by = -gap / scale if scale > 0 else (float("inf") if gap < 0 else 0.0)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if wins >= GAIN_WIN_FRACTION * len(parent) and gap > p_iqr:
        verdict = "gain"
    elif worse_by > bound:
        verdict = "regression"
    elif scale > 0 and max(p_iqr, c_iqr) / scale > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {
        "better": better,
        "bound": bound,
        "parent_median": pm,
        "change_median": cm,
        "change_over_parent": cm / pm if pm else None,
        "parent_quartiles": pq,
        "change_quartiles": cq,
        "parent_iqr": p_iqr,
        "median_gap_exceeds_parent_iqr": gap > p_iqr,
        "change_wins": wins,
        "pairs": len(parent),
        "verdict": verdict,
    }


def summarize_runs(parent_runs: list[dict], change_runs: list[dict], spec: list[dict]) -> dict:
    """Summaries of every metric in ``spec`` over the pairs in which both runs are correct."""
    pairs = [(p, c) for p, c in zip(parent_runs, change_runs) if p["correct"] and c["correct"]]
    out = {}
    for metric in spec:
        name = metric["name"]
        if not pairs:
            out[name] = {"verdict": "no correct pairs", "pairs": 0}
            continue
        out[name] = summarize(
            [p["metrics"][name] for p, _ in pairs],
            [c["metrics"][name] for _, c in pairs],
            metric["better"],
            float(metric["bound"]),
        )
    return out


def format_traced(traced: dict[str, dict]) -> str:
    """One line per side's traced run, ``correct`` or ``incorrect``, then its problem lines."""
    lines = []
    for side, r in traced.items():
        lines.append(f"  traced {side:8s} {'correct' if r['correct'] else 'incorrect'}")
        lines += [f"    {p}" for p in r["problems"]]
    return "\n".join(lines)


def format_summary(summary: dict) -> str:
    lines = []
    for name, s in summary.items():
        if "parent_median" not in s:
            lines.append(f"  {name:14s} {s['verdict']}")
            continue
        lines.append(
            f"  {name:14s} parent {s['parent_median']:.6g} [{s['parent_quartiles'][0]:.6g}, "
            f"{s['parent_quartiles'][1]:.6g}]  change {s['change_median']:.6g} "
            f"[{s['change_quartiles'][0]:.6g}, {s['change_quartiles'][1]:.6g}]  "
            f"wins {s['change_wins']}/{s['pairs']}  {s['verdict']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    spec = json.loads((args.parent / "BENCHMARK.json").read_text())["end_to_end"]
    names = [m["name"] for m in spec]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    traced = {}
    for side, checkout in sides.items():
        traced[side] = run_once(checkout, args.workload, args.seconds, args.seed, trace=True)
        print(f"traced {side}: correct={traced[side]['correct']}", flush=True)
        for line in traced[side]["problems"]:
            print(f"  {line}", flush=True)
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    order = []
    for i in range(args.pairs):
        first = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        order.append(first[0])
        for side in first:
            runs[side].append(run_once(sides[side], args.workload, args.seconds, args.seed))
        cells = []
        for side in ("parent", "change"):
            r = runs[side][-1]
            vals = " ".join(f"{n}={r['metrics'][n]:.6g}" for n in names if n in r["metrics"])
            cells.append(f"{side} {'ok' if r['correct'] else 'FAILED'} {vals}")
        print(f"pair {i} ({first[0]} first): " + " | ".join(cells), flush=True)

    summary = summarize_runs(runs["parent"], runs["change"], spec)
    print(f"{args.workload} seed {args.seed if args.seed is not None else 'default'}:")
    print(format_traced(traced))
    print(format_summary(summary))
    if args.out is not None:
        environment = next((r["environment"] for r in runs["parent"] if r["environment"]), None)
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "parent": str(sides["parent"]),
            "change": str(sides["change"]),
            "machine": environment,
            "first_in_pair": order,
            "summary": summary,
            "traced": {
                side: {"correct": r["correct"], "problems": r["problems"], "metrics": r["metrics"]}
                for side, r in traced.items()
            },
            "runs": {
                side: {n: [r["metrics"].get(n) for r in rs] for n in names}
                for side, rs in runs.items()
            },
            "correct": {side: [r["correct"] for r in rs] for side, rs in runs.items()},
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
